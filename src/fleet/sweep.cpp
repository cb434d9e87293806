#include "sweep.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "decode/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace quest::fleet {

namespace {

/** Bit-exact double transport: the wire carries the raw bits. */
std::uint64_t
doubleBits(double d)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

double
bitsDouble(std::uint64_t u)
{
    double d = 0.0;
    std::memcpy(&d, &u, sizeof(d));
    return d;
}

bool
protocolFromName(const std::string &name, qecc::Protocol &out)
{
    for (const qecc::Protocol p : qecc::allProtocols) {
        if (qecc::protocolName(p) == name) {
            out = p;
            return true;
        }
    }
    return false;
}

} // namespace

bool
SweepSpec::valid() const
{
    if (protocols.empty() || distances.empty() || errorRates.empty()
        || trialsPerPoint == 0 || grain == 0)
        return false;
    for (const std::size_t d : distances)
        if (d < 3 || d > 63 || d % 2 == 0)
            return false;
    for (const double p : errorRates)
        if (!(p >= 0.0) || !(p <= 1.0))
            return false;
    return true;
}

Json
SweepSpec::toJson() const
{
    Json j = Json::object();
    Json prot = Json::array();
    for (const qecc::Protocol p : protocols)
        prot.push(Json(qecc::protocolName(p)));
    Json dist = Json::array();
    for (const std::size_t d : distances)
        dist.push(Json(std::uint64_t(d)));
    Json rates = Json::array();
    for (const double p : errorRates)
        rates.push(Json(doubleBits(p)));
    j.set("protocols", std::move(prot));
    j.set("distances", std::move(dist));
    j.set("rate_bits", std::move(rates));
    j.set("trials", Json(trialsPerPoint));
    j.set("grain", Json(grain));
    j.set("seed", Json(seed));
    return j;
}

bool
SweepSpec::fromJson(const Json &j, SweepSpec &out)
{
    if (j.type() != Json::Type::Object || !j.has("protocols")
        || !j.has("distances") || !j.has("rate_bits"))
        return false;
    out = SweepSpec{};
    out.protocols.clear();
    out.distances.clear();
    out.errorRates.clear();

    const Json &prot = j.get("protocols");
    for (std::size_t i = 0; i < prot.size(); ++i) {
        qecc::Protocol p;
        if (!protocolFromName(prot.at(i).asString(), p))
            return false;
        out.protocols.push_back(p);
    }
    const Json &dist = j.get("distances");
    for (std::size_t i = 0; i < dist.size(); ++i) {
        const std::uint64_t d = dist.at(i).asU64();
        if (d < 3 || d > 63 || d % 2 == 0)
            return false;
        out.distances.push_back(std::size_t(d));
    }
    const Json &rates = j.get("rate_bits");
    for (std::size_t i = 0; i < rates.size(); ++i) {
        const double p = bitsDouble(rates.at(i).asU64());
        if (!(p >= 0.0) || !(p <= 1.0))
            return false;
        out.errorRates.push_back(p);
    }
    if (out.protocols.empty() || out.distances.empty()
        || out.errorRates.empty())
        return false;
    out.trialsPerPoint = j.getU64("trials", 256);
    out.grain = j.getU64("grain", 64);
    out.seed = j.getU64("seed", 1);
    return out.valid();
}

std::vector<SweepPointSpec>
sweepPoints(const SweepSpec &spec)
{
    std::vector<SweepPointSpec> points;
    points.reserve(spec.pointCount());
    std::uint32_t index = 0;
    for (const qecc::Protocol prot : spec.protocols) {
        for (const std::size_t d : spec.distances) {
            for (const double p : spec.errorRates) {
                SweepPointSpec pt;
                pt.index = index;
                pt.protocol = prot;
                pt.distance = d;
                pt.errorRate = p;
                pt.pointSeed = sim::Rng::deriveSeed(spec.seed, index);
                points.push_back(pt);
                ++index;
            }
        }
    }
    return points;
}

Json
TaskSpec::toJson() const
{
    Json j = Json::object();
    j.set("id", Json(id));
    j.set("pt", Json(std::uint64_t(point.index)));
    j.set("protocol", Json(qecc::protocolName(point.protocol)));
    j.set("d", Json(std::uint64_t(point.distance)));
    j.set("rate_bits", Json(doubleBits(point.errorRate)));
    j.set("point_seed", Json(point.pointSeed));
    j.set("begin", Json(trialBegin));
    j.set("end", Json(trialEnd));
    return j;
}

bool
TaskSpec::fromJson(const Json &j, TaskSpec &out)
{
    if (j.type() != Json::Type::Object || !j.has("id")
        || !j.has("protocol") || !j.has("d") || !j.has("rate_bits")
        || !j.has("point_seed") || !j.has("begin") || !j.has("end"))
        return false;
    out = TaskSpec{};
    out.id = j.get("id").asU64();
    out.point.index = std::uint32_t(j.getU64("pt", 0));
    if (!protocolFromName(j.get("protocol").asString(),
                          out.point.protocol))
        return false;
    const std::uint64_t d = j.get("d").asU64();
    if (d < 3 || d > 63 || d % 2 == 0)
        return false;
    out.point.distance = std::size_t(d);
    out.point.errorRate = bitsDouble(j.get("rate_bits").asU64());
    out.point.pointSeed = j.get("point_seed").asU64();
    out.trialBegin = j.get("begin").asU64();
    out.trialEnd = j.get("end").asU64();
    return out.trialEnd > out.trialBegin
        && out.trialEnd - out.trialBegin <= 1u << 20;
}

std::vector<TaskSpec>
shardSweep(const SweepSpec &spec)
{
    const std::vector<SweepPointSpec> points = sweepPoints(spec);
    const std::uint64_t grain = spec.grain == 0 ? 1 : spec.grain;
    std::vector<TaskSpec> tasks;
    tasks.reserve(points.size() * spec.tasksPerPoint());
    std::uint64_t id = 0;
    for (const SweepPointSpec &pt : points) {
        for (std::uint64_t begin = 0; begin < spec.trialsPerPoint;
             begin += grain) {
            TaskSpec t;
            t.id = id++;
            t.point = pt;
            t.trialBegin = begin;
            t.trialEnd =
                std::min(begin + grain, spec.trialsPerPoint);
            tasks.push_back(t);
        }
    }
    return tasks;
}

Json
TaskResult::toJson() const
{
    Json j = Json::object();
    j.set("task", Json(taskId));
    j.set("pt", Json(std::uint64_t(pointIndex)));
    j.set("trials", Json(trials));
    j.set("failures", Json(failures));
    j.set("weight", Json(weightSum));
    j.set("logw_bits", Json(doubleBits(logWeight)));
    j.set("witness", Json(witness));
    return j;
}

bool
TaskResult::fromJson(const Json &j, TaskResult &out)
{
    if (j.type() != Json::Type::Object || !j.has("task")
        || !j.has("trials") || !j.has("failures") || !j.has("weight")
        || !j.has("logw_bits") || !j.has("witness"))
        return false;
    out = TaskResult{};
    out.taskId = j.get("task").asU64();
    out.pointIndex = std::uint32_t(j.getU64("pt", 0));
    out.trials = j.get("trials").asU64();
    out.failures = j.get("failures").asU64();
    out.weightSum = j.get("weight").asU64();
    out.logWeight = bitsDouble(j.get("logw_bits").asU64());
    out.witness = j.get("witness").asU64();
    return out.failures <= out.trials;
}

TaskRunner::TaskRunner() = default;
TaskRunner::~TaskRunner() = default;

TaskResult
TaskRunner::run(const TaskSpec &task)
{
    const auto key = std::make_pair(std::size_t(task.point.protocol),
                                    task.point.distance);
    std::unique_ptr<decode::MemoryExperiment> &exp = _cache[key];
    if (!exp)
        exp = std::make_unique<decode::MemoryExperiment>(
            task.point.protocol, task.point.distance);

    decode::MemoryRun run;
    run.errorRate = task.point.errorRate;
    run.seed = task.point.pointSeed;
    const decode::MemoryTally tally =
        exp->run(run, task.trialBegin, task.trialEnd);

    TaskResult res;
    res.taskId = task.id;
    res.pointIndex = task.point.index;
    res.trials = tally.trials;
    res.failures = tally.failures;
    res.weightSum = tally.weightSum;
    res.logWeight = tally.logWeight;
    res.witness = tally.witness;
    return res;
}

SweepMerger::SweepMerger(const SweepSpec &spec)
    : _spec(spec), _points(sweepPoints(spec)),
      _tasks(shardSweep(spec)), _slots(_tasks.size()),
      _prefixDone(_points.size(), 0)
{}

SweepMerger::Accept
SweepMerger::accept(const TaskResult &result)
{
    if (result.taskId >= _tasks.size())
        return Accept::Invalid;
    const TaskSpec &task = _tasks[result.taskId];
    if (result.pointIndex != task.point.index
        || result.trials != task.trials())
        return Accept::Invalid;
    if (_slots[result.taskId].has_value())
        return Accept::Duplicate;
    _slots[result.taskId] = result;
    ++_accepted;

    // Advance the point's contiguous fold prefix. Tasks of a point
    // are consecutive in shard order, so prefix progress is just a
    // scan from the last frontier.
    const std::uint64_t per = _spec.tasksPerPoint();
    const std::size_t pt = result.pointIndex;
    std::size_t &done = _prefixDone[pt];
    const std::uint64_t base = std::uint64_t(pt) * per;
    while (done < per && _slots[base + done].has_value())
        ++done;
    return Accept::Accepted;
}

std::size_t
SweepMerger::mergeLag() const
{
    std::size_t prefix = 0;
    for (const std::size_t d : _prefixDone)
        prefix += d;
    return _accepted - prefix;
}

sim::Table
SweepMerger::table() const
{
    QUEST_ASSERT(complete(),
                 "sweep table requested before all %zu tasks merged",
                 _slots.size());
    sim::Table table("Fleet sweep");
    table.header({"protocol", "d", "p", "trials", "failures", "ler",
                  "avg_weight", "logw_bits", "witness"});

    const std::uint64_t per = _spec.tasksPerPoint();
    char buf[64];
    for (const SweepPointSpec &pt : _points) {
        // Fixed association: fold the point's partials in task
        // order, exactly as a single-box loop would have.
        std::uint64_t trials = 0, failures = 0, weight = 0;
        double logw = 0.0;
        std::uint64_t witness = decode::witnessOffset;
        const std::uint64_t base = std::uint64_t(pt.index) * per;
        for (std::uint64_t k = 0; k < per; ++k) {
            const TaskResult &r = *_slots[base + k];
            trials += r.trials;
            failures += r.failures;
            weight += r.weightSum;
            logw += r.logWeight;
            witness = decode::witnessFold(witness, r.witness);
        }

        std::vector<std::string> row;
        row.push_back(qecc::protocolName(pt.protocol));
        std::snprintf(buf, sizeof(buf), "%zu", pt.distance);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%g", pt.errorRate);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(trials));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(failures));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.6e",
                      trials ? double(failures) / double(trials)
                             : 0.0);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%.6f",
                      trials ? double(weight) / double(trials)
                             : 0.0);
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(
                          doubleBits(logw)));
        row.push_back(buf);
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(witness));
        row.push_back(buf);
        table.row(std::move(row));
    }
    std::snprintf(buf, sizeof(buf), "seed=%llu grain=%llu",
                  static_cast<unsigned long long>(_spec.seed),
                  static_cast<unsigned long long>(_spec.grain));
    table.caption(buf);
    return table;
}

std::string
SweepMerger::csv() const
{
    std::ostringstream os;
    table().printCsv(os);
    return os.str();
}

sim::Table
runSweepLocal(const SweepSpec &spec)
{
    TaskRunner runner;
    SweepMerger merger(spec);
    for (const TaskSpec &task : shardSweep(spec))
        merger.accept(runner.run(task));
    return merger.table();
}

} // namespace quest::fleet
