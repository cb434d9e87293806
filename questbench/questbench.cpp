/**
 * @file
 * questbench: the measurement harness behind questbench/run.py.
 *
 * Each subcommand does a fixed amount of work and prints one JSON
 * object on stdout:
 *
 *   host                                  host block (SIMD target,
 *                                         compiler, build type,
 *                                         raw-thread parallelism)
 *   setup  --workload W --seed S --seconds T
 *                                         median set-up time
 *   sweep  --workload W --seed S --trials N
 *                                         fleet::runSweepLocal chunk
 *   stream --workload W --seed S --trials N
 *                                         in-process streaming loop
 *   replay --seed S --path lib|loop       one replay through
 *                                         runMixedWorkload or the
 *                                         benchmark's MasterController
 *                                         loop
 *   trace  --workload W --seed S --seconds T [--spans-out FILE]
 *                                         traced run: per-layer split
 *
 * Spans are recorded here, around calls into each layer's public
 * functions; nothing inside the library is instrumented. The traced
 * loops are templates over `Traced`, so the untraced instantiation
 * is the same code with the spans compiled out.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "decode/detection.hpp"
#include "decode/lut_decoder.hpp"
#include "decode/mwpm_decoder.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "fleet/json.hpp"
#include "fleet/sweep.hpp"
#include "isa/trace.hpp"
#include "qecc/extractor.hpp"
#include "qecc/lattice.hpp"
#include "qecc/protocol.hpp"
#include "qecc/schedule.hpp"
#include "quantum/error_model.hpp"
#include "quantum/pauli_frame.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simd.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** `--flag value` pairs after the subcommand. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::invalid_argument("expected --flag, got "
                                            + key);
            _kv[key.substr(2)] = argv[i + 1];
        }
    }

    std::string
    get(const std::string &key, const std::string &def = "") const
    {
        const auto it = _kv.find(key);
        return it == _kv.end() ? def : it->second;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t def) const
    {
        const auto it = _kv.find(key);
        return it == _kv.end() ? def : std::stoull(it->second);
    }

    double
    getDouble(const std::string &key, double def) const
    {
        const auto it = _kv.find(key);
        return it == _kv.end() ? def : std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> _kv;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** A surface-code memory point; window 0 means offline decode. */
struct MemoryPoint
{
    std::size_t distance;
    double errorRate;
    std::size_t window;
    std::size_t stride;
};

MemoryPoint
memoryPoint(const std::string &workload)
{
    if (workload == "memory_d5")
        return {5, 3e-3, 0, 0};
    if (workload == "memory_d13")
        return {13, 1e-2, 0, 0};
    if (workload == "stream_d9")
        return {9, 5e-3, 6, 3};
    throw std::invalid_argument("not a memory workload: " + workload);
}

// replay_4tile: four tiles of tileConfigForLogicalQubits(5), one
// placed logical qubit each, 2 fetch slots per tile as in
// ablation_schedule, offline decode (streaming panics once a logical
// qubit is placed; see README.md).
constexpr std::size_t replayTiles = 4;
constexpr std::size_t replayDistance = 5;
constexpr std::size_t replayRounds = 1000;
constexpr std::size_t replayFetchBandwidth = 2 * replayTiles;
constexpr std::size_t replayDistillPeriod = 8;
constexpr double replayErrorRate = 1e-3;

core::MasterConfig
replayConfig(std::uint64_t seed)
{
    core::MasterConfig cfg;
    cfg.numMces = replayTiles;
    cfg.mce = core::tileConfigForLogicalQubits(replayDistance);
    cfg.mce.errorRates = quantum::ErrorRates{
        replayErrorRate, 0, 0, 0, replayErrorRate};
    cfg.mce.seed = seed;
    cfg.sharedFetchBandwidth = replayFetchBandwidth;
    cfg.arbiterPolicy = core::ArbiterPolicy::RoundRobin;
    return cfg;
}

isa::LogicalTrace
replayTrace(std::uint64_t seed)
{
    isa::TraceGenConfig cfg;
    cfg.numInstructions = 2 * replayRounds; // 2 dispatches per round
    cfg.logicalQubits = replayTiles;
    cfg.maskFraction = 0.0; // as `quest trace-gen`
    cfg.seed = seed;
    return isa::generateApplicationTrace(cfg);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

enum class Layer : std::uint8_t
{
    Trial,
    Round,
    TrialAlloc,
    QeccExtract,
    DecodeDetect,
    DecodeLut,
    DecodeMwpm,
    DecodeMerge,
    DecodeCheck,
    StreamConstruct,
    StreamPush,
    StreamFinish,
    MasterDispatch,
    MasterDispatchBlock,
    MasterSync,
    MasterStepRound,
    MasterDecode,
    Count,
};

const char *const layerNames[] = {
    "trial",
    "round",
    "trial.alloc",
    "qecc.extract",
    "decode.detect",
    "decode.lut",
    "decode.mwpm",
    "decode.merge",
    "decode.check",
    "decode.stream.construct",
    "decode.stream.push",
    "decode.stream.finish",
    "core.master.dispatch",
    "core.master.dispatch_block",
    "core.master.sync",
    "core.master.step_round",
    "core.master.decode",
};
static_assert(sizeof(layerNames) / sizeof(layerNames[0])
              == std::size_t(Layer::Count));

constexpr std::uint32_t noParent = UINT32_MAX;

/** One timed call: layer, causing span, trial/round id, argument. */
struct Span
{
    Layer layer;
    std::uint32_t parent;
    std::uint64_t unit;
    std::uint64_t arg;
    Clock::time_point start;
    Clock::time_point end;

    double seconds() const { return secondsBetween(start, end); }
};

/** Upper bound on spans one traced run keeps (checked per chunk). */
constexpr std::size_t maxSpans = 400'000;
/** Most spans one chunk of a traced run can add. */
constexpr std::size_t chunkSpans = 32'000;

/** In-memory span store; parents come from the open-span stack. */
class SpanLog
{
  public:
    // Reserved up front: a reallocation inside a span would be timed.
    SpanLog() { _spans.reserve(maxSpans + chunkSpans); }

    std::uint32_t
    open(Layer layer, std::uint64_t unit)
    {
        const auto idx = std::uint32_t(_spans.size());
        _spans.push_back(Span{layer,
                              _stack.empty() ? noParent : _stack.back(),
                              unit, 0, Clock::now(), {}});
        _stack.push_back(idx);
        return idx;
    }

    void
    close(std::uint32_t idx)
    {
        _spans[idx].end = Clock::now();
        _stack.pop_back();
    }

    void setArg(std::uint32_t idx, std::uint64_t v) { _spans[idx].arg = v; }

    const std::vector<Span> &spans() const { return _spans; }

    /** TSV: id, layer, parent, unit, start_ns, end_ns, arg. */
    void
    write(std::ostream &os) const
    {
        if (_spans.empty())
            return;
        const Clock::time_point t0 = _spans.front().start;
        const auto ns = [t0](Clock::time_point t) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t - t0)
                    .count());
        };
        os << "id\tlayer\tparent\tunit\tstart_ns\tend_ns\targ\n";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            os << i << '\t' << layerNames[std::size_t(s.layer)] << '\t'
               << (s.parent == noParent ? -1 : (long long)s.parent)
               << '\t' << s.unit << '\t' << ns(s.start) << '\t'
               << ns(s.end) << '\t' << s.arg << '\n';
        }
    }

  private:
    std::vector<Span> _spans;
    std::vector<std::uint32_t> _stack;
};

/** RAII span; compiled out entirely when !Traced. */
template <bool Traced>
class Scope
{
  public:
    Scope(SpanLog *log, Layer layer, std::uint64_t unit)
    {
        if constexpr (Traced) {
            _log = log;
            _idx = log->open(layer, unit);
        }
    }
    ~Scope() { close(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void
    setArg(std::uint64_t v)
    {
        if constexpr (Traced)
            _log->setArg(_idx, v);
    }

    void
    close()
    {
        if constexpr (Traced) {
            if (_log) {
                _log->close(_idx);
                _log = nullptr;
            }
        }
    }

  private:
    SpanLog *_log = nullptr;
    std::uint32_t _idx = 0;
};

// ---------------------------------------------------------------------
// Memory experiment (offline and streaming decode)
// ---------------------------------------------------------------------

/** Per-point machinery, built through the public constructors. */
struct MemoryExperiment
{
    qecc::Lattice lattice;
    qecc::RoundSchedule schedule;
    qecc::SyndromeExtractor extractor;
    decode::LutDecoder lut;
    decode::MwpmDecoder mwpm;

    explicit MemoryExperiment(std::size_t distance)
        : lattice(qecc::Lattice::forDistance(distance)),
          schedule(qecc::buildRoundSchedule(
              lattice, qecc::protocolSpec(qecc::Protocol::Steane))),
          extractor(schedule), lut(lattice), mwpm(lattice)
    {}
};

/** Outcome totals plus the layer counts the traced run reports. */
struct MemoryTally
{
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
    std::uint64_t weight = 0;
    std::uint64_t events = 0;
    std::uint64_t resolved = 0;
    std::uint64_t residual = 0;
    std::uint64_t windows = 0;
    std::uint64_t fallbacks = 0;
    std::vector<std::uint32_t> lags; ///< lagRounds() after each push
};

/** Noiseless closing round plus logical parity, as `quest simulate`. */
bool
logicalFailure(const MemoryExperiment &exp, quantum::PauliFrame &frame)
{
    if (exp.extractor.runRound(frame, nullptr).any())
        return true;
    std::size_t x = 0, z = 0;
    for (const qecc::Coord c : exp.lattice.logicalZSupport())
        x += frame.xError(exp.lattice.index(c)) ? 1 : 0;
    for (const qecc::Coord c : exp.lattice.logicalXSupport())
        z += frame.zError(exp.lattice.index(c)) ? 1 : 0;
    return (x % 2) || (z % 2);
}

/** Per-trial state; the ErrorChannel keeps a pointer to `rng`. */
struct TrialState
{
    sim::Rng rng;
    quantum::PauliFrame frame;
    quantum::ErrorChannel channel;
    std::vector<qecc::SyndromeRound> history;
    decode::DetectionEvents events;
    decode::LocalDecodeResult local;
    decode::Correction global;
    decode::Correction corr;

    TrialState(const MemoryExperiment &exp, const MemoryPoint &pt,
               std::uint64_t pointSeed, std::uint64_t t)
        : rng(sim::Rng::substream(pointSeed, t)),
          frame(exp.lattice.numQubits()),
          channel(quantum::ErrorRates{pt.errorRate, 0, 0, 0,
                                      pt.errorRate},
                  rng)
    {}
};

/**
 * One memory trial drawing from substream(pointSeed, t), as
 * fleet::TaskRunner::run does; offline decode is the
 * DecoderPipeline::decode sequence (LUT, MWPM on the residual,
 * merge), streaming decode is `quest simulate --stream-window`.
 * Building and releasing the trial's state is its own span
 * (trial.alloc), so the layer spans cover the whole trial.
 */
template <bool Traced>
void
runMemoryTrial(MemoryExperiment &exp, const MemoryPoint &pt,
               std::uint64_t pointSeed, std::uint64_t t, SpanLog *log,
               MemoryTally &tally)
{
    using S = Scope<Traced>;
    S trial(log, Layer::Trial, t);

    std::unique_ptr<TrialState> st;
    {
        S s(log, Layer::TrialAlloc, t);
        st = std::make_unique<TrialState>(exp, pt, pointSeed, t);
    }
    {
        S s(log, Layer::QeccExtract, t);
        st->history =
            exp.extractor.runRounds(st->frame, &st->channel, pt.distance);
        st->history.push_back(exp.extractor.runRound(st->frame, nullptr));
    }

    decode::Correction &corr = st->corr;
    if (pt.window == 0) {
        {
            S s(log, Layer::DecodeDetect, t);
            st->events = decode::extractDetectionEvents(st->history,
                                                        exp.extractor);
        }
        {
            S s(log, Layer::DecodeLut, t);
            st->local = exp.lut.decodeLocal(st->events);
        }
        {
            S s(log, Layer::DecodeMwpm, t);
            s.setArg(st->local.residual.total());
            st->global = exp.mwpm.decode(st->local.residual);
        }
        tally.events += st->events.total();
        tally.resolved += st->local.resolvedEvents;
        tally.residual += st->local.residual.total();
        S s(log, Layer::DecodeMerge, t);
        corr = st->local.correction;
        corr.merge(st->global);
    } else {
        decode::StreamConfig cfg;
        cfg.windowRounds = pt.window;
        cfg.strideRounds = pt.stride;
        std::optional<decode::StreamingDecoder> streamer;
        {
            S s(log, Layer::StreamConstruct, t);
            streamer.emplace(exp.extractor, cfg);
        }
        for (const auto &round : st->history) {
            std::optional<decode::StreamCommit> commit;
            {
                S s(log, Layer::StreamPush, t);
                commit = streamer->pushRound(round);
                s.setArg(commit ? 1 : 0);
            }
            tally.lags.push_back(std::uint32_t(streamer->lagRounds()));
            if (commit) {
                S s(log, Layer::DecodeMerge, t);
                corr.merge(commit->correction);
            }
        }
        std::optional<decode::StreamCommit> commit;
        {
            // finish() flushes the last window; the teardown of the
            // per-shot decoder is charged here too.
            S s(log, Layer::StreamFinish, t);
            commit = streamer->finish();
            tally.windows += streamer->windowsDecoded();
            tally.fallbacks += streamer->fallbacks();
            streamer.reset();
        }
        if (commit) {
            S s(log, Layer::DecodeMerge, t);
            corr.merge(commit->correction);
        }
    }

    bool failed = false;
    {
        S s(log, Layer::DecodeCheck, t);
        decode::applyCorrection(st->frame, corr);
        failed = logicalFailure(exp, st->frame);
    }
    ++tally.trials;
    tally.failures += failed ? 1 : 0;
    tally.weight += corr.weight();

    S s(log, Layer::TrialAlloc, t);
    st.reset();
}

template <bool Traced>
void
runMemoryTrials(MemoryExperiment &exp, const MemoryPoint &pt,
                std::uint64_t pointSeed, std::uint64_t begin,
                std::uint64_t end, SpanLog *log, MemoryTally &tally)
{
    for (std::uint64_t t = begin; t < end; ++t)
        runMemoryTrial<Traced>(exp, pt, pointSeed, t, log, tally);
}

/** The sweep's single-point spec for a memory point. */
fleet::SweepSpec
sweepSpec(const MemoryPoint &pt, std::uint64_t seed,
          std::uint64_t trials)
{
    fleet::SweepSpec spec;
    spec.protocols = {qecc::Protocol::Steane};
    spec.distances = {pt.distance};
    spec.errorRates = {pt.errorRate};
    spec.trialsPerPoint = trials;
    spec.seed = seed;
    return spec;
}

// ---------------------------------------------------------------------
// MCE replay under the master controller
// ---------------------------------------------------------------------

/** Simulated statistics read after every round. */
struct ReplayTally
{
    std::size_t rounds = 0;
    std::uint64_t makespan = 0;
    std::uint64_t issued = 0;
    core::StallBreakdown stalls;
    std::uint64_t blockCalls = 0;
    std::uint64_t blockHits = 0;
};

/**
 * The loop of QuestSystem::runMixedWorkload, driven through the
 * public MasterController calls.
 */
template <bool Traced>
ReplayTally
runReplayLoop(core::QuestSystem &sys, const isa::LogicalTrace &app,
              const isa::LogicalTrace &distill, std::size_t rounds,
              SpanLog *log)
{
    using S = Scope<Traced>;
    core::MasterController &m = sys.master();
    ReplayTally tally;
    std::size_t app_pos = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        {
            S round(log, Layer::Round, r);
            for (std::size_t k = 0; k < 2 && app_pos < app.size();
                 ++k) {
                S s(log, Layer::MasterDispatch, r);
                m.dispatch(app.at(app_pos++));
            }
            if (r % replayDistillPeriod == 0 && !distill.empty()) {
                for (std::size_t i = 0; i < m.numMces(); ++i) {
                    S s(log, Layer::MasterDispatchBlock, r);
                    const core::ICacheAccess a =
                        m.dispatchBlock(i, /*block_id=*/0, distill);
                    tally.blockHits += a.hit ? 1 : 0;
                    ++tally.blockCalls;
                }
            }
            {
                S s(log, Layer::MasterSync, r);
                m.broadcastSync();
            }
            S s(log, Layer::MasterStepRound, r);
            m.stepRound();
        }
        const core::ArbitrationResult &arb = m.lastArbitration();
        tally.makespan += arb.makespanCycles;
        for (const core::TileSchedule &tile : arb.tiles) {
            tally.issued += tile.issued;
            tally.stalls.data += tile.stalls.data;
            tally.stalls.queueFull += tile.stalls.queueFull;
            tally.stalls.fetchStarved += tile.stalls.fetchStarved;
            tally.stalls.bandwidthWait += tile.stalls.bandwidthWait;
        }
    }
    {
        S s(log, Layer::MasterDecode, rounds);
        m.decodeNow();
    }
    tally.rounds = rounds;
    return tally;
}

bool
sameReport(const core::SystemReport &a, const core::SystemReport &b)
{
    return a.rounds == b.rounds && a.baselineBytes == b.baselineBytes
        && a.questBusBytes == b.questBusBytes
        && a.bytesLogical == b.bytesLogical && a.bytesSync == b.bytesSync
        && a.bytesSyndrome == b.bytesSyndrome
        && a.bytesCorrections == b.bytesCorrections
        && a.bytesCache == b.bytesCache && a.bytesScrub == b.bytesScrub;
}

/** A placed system plus its inputs, ready to replay. */
struct ReplaySetup
{
    isa::LogicalTrace app;
    isa::LogicalTrace distill;
    core::QuestSystem system;

    explicit ReplaySetup(std::uint64_t seed)
        : app(replayTrace(seed)),
          distill(isa::generateDistillationRound(0)),
          system(replayConfig(seed))
    {
        system.placeLogicalQubits();
    }
};

// ---------------------------------------------------------------------
// Statistics over spans
// ---------------------------------------------------------------------

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = std::size_t(std::ceil(q * double(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Per-layer self time plus root coverage. */
struct SpanSummary
{
    double self[std::size_t(Layer::Count)] = {};
    double rootSeconds = 0.0;    ///< Σ trial or round spans
    double coveredSeconds = 0.0; ///< Σ their direct children
};

/** Self time = duration minus the direct children's durations. */
SpanSummary
summarize(const std::vector<Span> &spans, Layer root)
{
    SpanSummary out;
    std::vector<double> childSeconds(spans.size(), 0.0);
    for (const Span &s : spans)
        if (s.parent != noParent)
            childSeconds[s.parent] += s.seconds();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const auto l = std::size_t(s.layer);
        out.self[l] += s.seconds() - childSeconds[i];
        if (s.layer == root) {
            out.rootSeconds += s.seconds();
            out.coveredSeconds += childSeconds[i];
        }
    }
    return out;
}

std::vector<double>
spanMicros(const std::vector<Span> &spans, Layer layer,
           bool (*keep)(const Span &) = nullptr)
{
    std::vector<double> v;
    for (const Span &s : spans)
        if (s.layer == layer && (!keep || keep(s)))
            v.push_back(s.seconds() * 1e6);
    return v;
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

std::size_t
affinityCores()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::size_t(CPU_COUNT(&set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Fixed integer work for the raw-thread probe. */
std::uint64_t
spin(std::uint64_t iterations, std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

int
cmdHost()
{
    constexpr std::uint64_t iterations = 40'000'000;
    const std::size_t threads = affinityCores();
    volatile std::uint64_t sink = 0;

    auto t0 = Clock::now();
    sink = sink + spin(iterations, 1);
    const double one = secondsBetween(t0, Clock::now());

    std::vector<std::uint64_t> results(threads, 0);
    t0 = Clock::now();
    {
        std::vector<std::thread> pool;
        for (std::size_t i = 0; i < threads; ++i)
            pool.emplace_back([&results, i] {
                results[i] = spin(iterations, i + 1);
            });
        for (std::thread &th : pool)
            th.join();
    }
    const double many = secondsBetween(t0, Clock::now());
    for (const std::uint64_t r : results)
        sink = sink + r;

    fleet::Json o = fleet::Json::object();
    o.set("simd_target", sim::simdTargetName(sim::simdActiveTarget()))
        .set("build_type", QUESTBENCH_BUILD_TYPE)
        .set("compiler", QUESTBENCH_COMPILER)
        .set("hardware_concurrency",
             double(std::thread::hardware_concurrency()))
        .set("nproc", double(threads))
        .set("probe_threads", double(threads))
        .set("usable_parallelism", double(threads) * one / many);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

/**
 * Median time to build a workload's machinery through its public
 * constructors, repeated for `--seconds` (at least 5 times).
 */
int
cmdSetup(const Args &args)
{
    const std::string workload = args.get("workload");
    const std::uint64_t seed = args.getU64("seed", 1);
    const double budget = args.getDouble("seconds", 0.3);

    std::vector<double> samples;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(budget);
    while (samples.size() < 5 || Clock::now() < deadline) {
        const auto t0 = Clock::now();
        if (workload == "replay_4tile") {
            ReplaySetup setup(seed + samples.size());
        } else {
            const MemoryPoint pt = memoryPoint(workload);
            MemoryExperiment exp(pt.distance);
            if (pt.window) {
                decode::StreamConfig cfg;
                cfg.windowRounds = pt.window;
                cfg.strideRounds = pt.stride;
                decode::StreamingDecoder streamer(exp.extractor, cfg);
            }
        }
        samples.push_back(secondsBetween(t0, Clock::now()));
    }
    fleet::Json o = fleet::Json::object();
    o.set("setup_s", median(samples)).set("reps", double(samples.size()));
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

int
cmdSweep(const Args &args)
{
    const MemoryPoint pt = memoryPoint(args.get("workload"));
    const std::uint64_t trials = args.getU64("trials", 1000);
    const fleet::SweepSpec spec =
        sweepSpec(pt, args.getU64("seed", 1), trials);

    const auto t0 = Clock::now();
    const sim::Table table = fleet::runSweepLocal(spec);
    const double wall = secondsBetween(t0, Clock::now());

    fleet::Json o = fleet::Json::object();
    o.set("trials", std::stod(table.cell(0, 3)))
        .set("failures", std::stod(table.cell(0, 4)))
        .set("wall_s", wall);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

int
cmdStream(const Args &args)
{
    const MemoryPoint pt = memoryPoint(args.get("workload"));
    const std::uint64_t trials = args.getU64("trials", 1000);
    const std::uint64_t pointSeed =
        sim::Rng::deriveSeed(args.getU64("seed", 1), 0);
    MemoryExperiment exp(pt.distance);
    MemoryTally tally;

    const auto t0 = Clock::now();
    runMemoryTrials<false>(exp, pt, pointSeed, 0, trials, nullptr,
                           tally);
    const double wall = secondsBetween(t0, Clock::now());

    fleet::Json o = fleet::Json::object();
    o.set("trials", double(tally.trials))
        .set("failures", double(tally.failures))
        .set("wall_s", wall);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

/**
 * One untraced replay in a fresh process, through runMixedWorkload
 * (`--path lib`) or the benchmark's MasterController loop
 * (`--path loop`); each path pays its own process warm-up. The
 * SystemReport is printed so the caller can compare the two paths.
 */
int
cmdReplay(const Args &args)
{
    const std::string path = args.get("path", "lib");
    if (path != "lib" && path != "loop")
        throw std::invalid_argument("--path must be lib or loop");
    ReplaySetup setup(args.getU64("seed", 1));
    const auto t0 = Clock::now();
    if (path == "lib")
        setup.system.runMixedWorkload(setup.app, setup.distill,
                                      replayRounds, replayDistillPeriod);
    else
        runReplayLoop<false>(setup.system, setup.app, setup.distill,
                             replayRounds, nullptr);
    const double wall = secondsBetween(t0, Clock::now());

    const core::SystemReport r = setup.system.report();
    fleet::Json report = fleet::Json::object();
    report.set("rounds", double(r.rounds))
        .set("baseline_bytes", r.baselineBytes)
        .set("quest_bus_bytes", r.questBusBytes)
        .set("bytes_logical", r.bytesLogical)
        .set("bytes_sync", r.bytesSync)
        .set("bytes_syndrome", r.bytesSyndrome)
        .set("bytes_corrections", r.bytesCorrections)
        .set("bytes_cache", r.bytesCache)
        .set("bytes_scrub", r.bytesScrub);
    fleet::Json o = fleet::Json::object();
    o.set("tile_rounds", double(replayRounds * replayTiles))
        .set("wall_s", wall)
        .set("report", report);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

/** Registry counter value (0 when the counter was never created). */
std::uint64_t
counterValue(const std::string &name)
{
    return sim::metrics::Registry::global().counter(name, "").value();
}

void
writeSpans(const Args &args, const SpanLog &log)
{
    const std::string path = args.get("spans-out");
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    log.write(os);
}

/**
 * Traced memory run. Chunks of trials [a, b) run three times:
 * fleet::TaskRunner (the untraced sweep, reference outcome), the
 * benchmark loop untraced (timed) and traced (timed). The traced
 * outcome must equal the sweep's exactly.
 */
int
traceMemory(const Args &args, const std::string &workload)
{
    const MemoryPoint pt = memoryPoint(workload);
    const std::uint64_t seed = args.getU64("seed", 1);
    const double budget = args.getDouble("seconds", 5.0);
    const bool offline = pt.window == 0;
    const fleet::SweepPointSpec point =
        fleet::sweepPoints(sweepSpec(pt, seed, 1)).front();

    MemoryExperiment exp(pt.distance);
    fleet::TaskRunner runner;
    SpanLog log;
    MemoryTally traced, untraced;
    std::uint64_t refFailures = 0, refWeight = 0;
    double tracedWall = 0.0, untracedWall = 0.0;

    const std::uint64_t exact0 =
        counterValue("decode.mwpm.exact_matchings");
    const std::uint64_t greedy0 =
        counterValue("decode.mwpm.greedy_matchings");
    const std::uint64_t streamEvents0 = counterValue("decode.stream.events");
    const std::uint64_t streamLocal0 =
        counterValue("decode.stream.events_local");

    const std::uint64_t chunk = pt.distance <= 5 ? 2000 : 200;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(budget);
    std::uint64_t next = 0;
    while (next == 0
           || (Clock::now() < deadline && log.spans().size() < maxSpans)) {
        const std::uint64_t a = next, b = next + chunk;
        if (offline) {
            fleet::TaskSpec task;
            task.point = point;
            task.trialBegin = a;
            task.trialEnd = b;
            const fleet::TaskResult ref = runner.run(task);
            refFailures += ref.failures;
            refWeight += ref.weightSum;
        }
        auto t0 = Clock::now();
        runMemoryTrials<false>(exp, pt, point.pointSeed, a, b, nullptr,
                               untraced);
        untracedWall += secondsBetween(t0, Clock::now());
        t0 = Clock::now();
        runMemoryTrials<true>(exp, pt, point.pointSeed, a, b, &log,
                              traced);
        tracedWall += secondsBetween(t0, Clock::now());
        next = b;
    }
    if (!offline) {
        // Streaming has no library sweep; the untraced loop is the
        // reference outcome.
        refFailures = untraced.failures;
        refWeight = untraced.weight;
    }
    const bool attributable = traced.failures == refFailures
        && traced.weight == refWeight
        && untraced.failures == refFailures
        && untraced.weight == refWeight;

    const std::vector<Span> &spans = log.spans();
    const SpanSummary sum = summarize(spans, Layer::Trial);
    const double n = double(traced.trials);
    const auto self = [&](Layer l) {
        return sum.self[std::size_t(l)];
    };
    const auto share = [&](Layer l) {
        return sum.rootSeconds > 0 ? self(l) / sum.rootSeconds : 0.0;
    };

    fleet::Json m = fleet::Json::object();
    m.set("trace.overhead", tracedWall / untracedWall - 1.0)
        .set("trace.coverage", sum.rootSeconds > 0
                 ? sum.coveredSeconds / sum.rootSeconds
                 : 0.0)
        .set("trial.alloc.self_s", self(Layer::TrialAlloc) / n)
        .set("qecc.extract.self_s", self(Layer::QeccExtract) / n)
        .set("qecc.extract.share", share(Layer::QeccExtract))
        .set("decode.check.self_s", self(Layer::DecodeCheck) / n)
        .set("decode.merge.self_s", self(Layer::DecodeMerge) / n);

    // Library counters cover every pass over the trials (and, for
    // streaming, the decoders inside StreamingDecoder); the ratios are
    // unaffected because each pass decodes the same trials.
    const std::uint64_t exact =
        counterValue("decode.mwpm.exact_matchings") - exact0;
    const std::uint64_t greedy =
        counterValue("decode.mwpm.greedy_matchings") - greedy0;
    m.set("decode.mwpm.greedy_share",
          exact + greedy ? double(greedy) / double(exact + greedy) : 0.0);

    fleet::Json bins = fleet::Json::array();
    if (offline) {
        // Measured MwpmDecoder::decode latency against the deadline
        // model base + k E^2, for calls with a nonempty residual.
        const decode::DecodeDeadline model;
        std::vector<double> ratios;
        std::map<std::size_t, std::vector<double>> byBin;
        for (const Span &s : spans) {
            if (s.layer != Layer::DecodeMwpm || s.arg == 0)
                continue;
            const double modelled =
                sim::ticksToSeconds(model.mwpmTicks(s.arg));
            const double r = s.seconds() / modelled;
            ratios.push_back(r);
            std::size_t lo = 1;
            while (lo * 2 <= s.arg)
                lo *= 2;
            byBin[lo].push_back(r);
        }
        for (const auto &[lo, v] : byBin) {
            fleet::Json b = fleet::Json::object();
            b.set("e_lo", double(lo))
                .set("e_hi", double(2 * lo - 1))
                .set("calls", double(v.size()))
                .set("ratio_p50", median(v));
            bins.push(std::move(b));
        }

        const std::vector<double> lat = spanMicros(
            spans, Layer::DecodeMwpm,
            [](const Span &s) { return s.arg > 0; });
        m.set("decode.detect.self_s", self(Layer::DecodeDetect) / n)
            .set("decode.detect.share", share(Layer::DecodeDetect))
            .set("decode.detect.events_per_trial",
                 double(traced.events) / n)
            .set("decode.lut.self_s", self(Layer::DecodeLut) / n)
            .set("decode.lut.share", share(Layer::DecodeLut))
            .set("decode.lut.coverage",
                 traced.events ? double(traced.resolved)
                         / double(traced.events)
                               : 0.0)
            .set("decode.mwpm.self_s", self(Layer::DecodeMwpm) / n)
            .set("decode.mwpm.share", share(Layer::DecodeMwpm))
            .set("decode.mwpm.latency_p50_us", percentile(lat, 0.5))
            .set("decode.mwpm.latency_p99_us", percentile(lat, 0.99))
            .set("decode.mwpm.calls_nonempty", double(lat.size()))
            .set("decode.mwpm.residual_per_trial",
                 double(traced.residual) / n)
            .set("decode.mwpm.model_ratio", median(ratios));
    } else {
        const std::uint64_t streamEvents =
            counterValue("decode.stream.events") - streamEvents0;
        const std::uint64_t streamLocal =
            counterValue("decode.stream.events_local") - streamLocal0;
        const std::vector<double> push =
            spanMicros(spans, Layer::StreamPush);
        const std::vector<double> commits = spanMicros(
            spans, Layer::StreamPush,
            [](const Span &s) { return s.arg > 0; });
        std::vector<double> lags(traced.lags.begin(), traced.lags.end());
        m.set("decode.lut.coverage",
              streamEvents ? double(streamLocal) / double(streamEvents)
                           : 0.0)
            .set("decode.stream.construct_us",
                 self(Layer::StreamConstruct) / n * 1e6)
            .set("decode.stream.push_p50_us", percentile(push, 0.5))
            .set("decode.stream.push_p99_us", percentile(push, 0.99))
            .set("decode.stream.commit_p99_us",
                 percentile(commits, 0.99))
            .set("decode.stream.finish_us",
                 self(Layer::StreamFinish) / n * 1e6)
            .set("decode.stream.push.share", share(Layer::StreamPush))
            .set("decode.stream.windows_per_trial",
                 double(traced.windows) / n)
            .set("decode.stream.lag_p99_rounds", percentile(lags, 0.99))
            .set("decode.stream.fallbacks", double(traced.fallbacks));
    }

    writeSpans(args, log);
    fleet::Json o = fleet::Json::object();
    o.set("attributable", attributable)
        .set("trials", n)
        .set("failures", double(traced.failures))
        .set("ref_failures", double(refFailures))
        .set("weight", double(traced.weight))
        .set("ref_weight", double(refWeight))
        .set("spans", double(spans.size()))
        .set("model_bins", bins)
        .set("metrics", m);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

/**
 * Traced replay run. Each chunk replays one seed twice: through
 * QuestSystem::runMixedWorkload (untraced, timed, reference report)
 * and through the traced benchmark loop (timed); the two
 * SystemReports must be equal.
 */
int
traceReplay(const Args &args)
{
    const std::uint64_t seed = args.getU64("seed", 1);
    const double budget = args.getDouble("seconds", 5.0);

    SpanLog log;
    std::size_t roundsTraced = 0;
    // Simulated statistics come from the first replay only, whose seed
    // --seed fixes, so they repeat exactly for a given seed.
    ReplayTally sim;
    core::SystemReport report;
    double qeccUops = 0.0;
    double tracedWall = 0.0, untracedWall = 0.0;
    bool attributable = true;
    std::optional<ReplaySetup> last;

    const auto deadline =
        Clock::now() + std::chrono::duration<double>(budget);
    for (std::uint64_t c = 0;
         c == 0
         || (Clock::now() < deadline && log.spans().size() < maxSpans);
         ++c) {
        const std::uint64_t chunkSeed = sim::Rng::deriveSeed(seed, c);
        ReplaySetup lib(chunkSeed);
        auto t0 = Clock::now();
        lib.system.runMixedWorkload(lib.app, lib.distill, replayRounds,
                                    replayDistillPeriod);
        untracedWall += secondsBetween(t0, Clock::now());

        last.emplace(chunkSeed);
        t0 = Clock::now();
        const ReplayTally t = runReplayLoop<true>(
            last->system, last->app, last->distill, replayRounds, &log);
        tracedWall += secondsBetween(t0, Clock::now());

        const core::SystemReport r = last->system.report();
        attributable = attributable && sameReport(r, lib.system.report());
        roundsTraced += t.rounds;
        if (c == 0) {
            sim = t;
            report = r;
            for (std::size_t i = 0; i < replayTiles; ++i)
                qeccUops += last->system.master().mce(i).qeccUopsIssued();
        }
    }

    // DynamicScheduler::arbitrate per call, on the final tiles'
    // oracles with the master's own arguments.
    core::MasterController &master = last->system.master();
    std::vector<const verify::DependencyOracle *> oracles;
    for (std::size_t i = 0; i < master.numMces(); ++i)
        oracles.push_back(&master.mce(i).dependencyOracle());
    const std::vector<std::uint8_t> active(oracles.size(), 1);
    const core::MasterConfig cfg = replayConfig(seed);
    const core::DynamicScheduler sched(cfg.mce.sched);
    constexpr std::size_t arbCalls = 2000;
    std::size_t arbMakespan = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < arbCalls; ++i)
        arbMakespan += sched.arbitrate(oracles, active, cfg.mce.scheduling,
                                       cfg.sharedFetchBandwidth,
                                       cfg.arbiterPolicy, 1)
                           .makespanCycles;
    const double arbitrateUs =
        secondsBetween(t0, Clock::now()) / double(arbCalls) * 1e6;

    const std::vector<Span> &spans = log.spans();
    const SpanSummary sum = summarize(spans, Layer::Round);
    const auto self = [&](Layer l) {
        return sum.self[std::size_t(l)] / double(roundsTraced);
    };
    const double rounds = double(sim.rounds);
    const double stepSelf = self(Layer::MasterStepRound);
    const std::vector<double> step =
        spanMicros(spans, Layer::MasterStepRound);

    fleet::Json m = fleet::Json::object();
    m.set("trace.overhead", tracedWall / untracedWall - 1.0)
        .set("trace.coverage", sum.rootSeconds > 0
                 ? sum.coveredSeconds / sum.rootSeconds
                 : 0.0)
        .set("core.master.dispatch.self_s", self(Layer::MasterDispatch))
        .set("core.master.dispatch_block.self_s",
             self(Layer::MasterDispatchBlock))
        .set("core.icache.hit_rate",
             sim.blockCalls ? double(sim.blockHits)
                     / double(sim.blockCalls)
                            : 0.0)
        .set("core.master.sync.self_s", self(Layer::MasterSync))
        .set("core.master.step_round.self_s", stepSelf)
        .set("core.master.step_round.share",
             sum.rootSeconds > 0
                 ? sum.self[std::size_t(Layer::MasterStepRound)]
                     / sum.rootSeconds
                 : 0.0)
        .set("core.master.step_round.p50_us", percentile(step, 0.5))
        .set("core.master.step_round.p99_us", percentile(step, 0.99))
        .set("core.master.decode.self_s", self(Layer::MasterDecode))
        .set("core.scheduler.arbitrate_us", arbitrateUs)
        .set("core.scheduler.share_est",
             stepSelf > 0 ? arbitrateUs * 1e-6 / stepSelf : 0.0)
        .set("core.sim_cycles_per_round", double(sim.makespan) / rounds)
        .set("core.bus_savings_x",
             report.questBusBytes > 0
                 ? report.baselineBytes / report.questBusBytes
                 : 0.0)
        .set("core.scheduler.stall.data",
             double(sim.stalls.data) / rounds)
        .set("core.scheduler.stall.queue_full",
             double(sim.stalls.queueFull) / rounds)
        .set("core.scheduler.stall.fetch_starved",
             double(sim.stalls.fetchStarved) / rounds)
        .set("core.scheduler.stall.bandwidth_wait",
             double(sim.stalls.bandwidthWait) / rounds)
        .set("core.scheduler.uops_per_cycle",
             sim.makespan ? double(sim.issued) / double(sim.makespan)
                          : 0.0)
        .set("core.bus.bytes_per_round.logical",
             report.bytesLogical / rounds)
        .set("core.bus.bytes_per_round.sync", report.bytesSync / rounds)
        .set("core.bus.bytes_per_round.syndrome",
             report.bytesSyndrome / rounds)
        .set("core.bus.bytes_per_round.corrections",
             report.bytesCorrections / rounds)
        .set("core.bus.bytes_per_round.cache", report.bytesCache / rounds)
        .set("core.mce.qecc_uops_per_round", qeccUops / rounds);

    writeSpans(args, log);
    fleet::Json o = fleet::Json::object();
    o.set("attributable", attributable)
        .set("rounds", double(roundsTraced))
        .set("arbitrate_makespan_per_call",
             double(arbMakespan) / double(arbCalls))
        .set("spans", double(spans.size()))
        .set("metrics", m);
    std::printf("%s\n", o.dump().c_str());
    return 0;
}

int
cmdTrace(const Args &args)
{
    const std::string workload = args.get("workload");
    return workload == "replay_4tile" ? traceReplay(args)
                                      : traceMemory(args, workload);
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    if (argc < 2) {
        std::fprintf(stderr, "usage: questbench host|setup|sweep|stream"
                             "|replay|trace [--flag value ...]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args args(argc, argv);
        if (cmd == "host")
            return cmdHost();
        if (cmd == "setup")
            return cmdSetup(args);
        if (cmd == "sweep")
            return cmdSweep(args);
        if (cmd == "stream")
            return cmdStream(args);
        if (cmd == "replay")
            return cmdReplay(args);
        if (cmd == "trace")
            return cmdTrace(args);
        std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
