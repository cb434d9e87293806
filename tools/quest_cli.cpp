/**
 * @file
 * quest — command-line front end to the QuEST library.
 *
 * Subcommands:
 *   estimate   QuRE-style resource & bandwidth estimation for a
 *              workload (the Figure 2/6/13/14 pipeline).
 *   microcode  microcode design-space report for every syndrome
 *              protocol (the Table-2 search).
 *   trace-gen  synthesize an application trace to a binary file.
 *   replay     run a trace file through the cycle-level system and
 *              print the bus ledger.
 *   simulate   surface-code memory experiment (logical error rate).
 *   verify     static verification of control-plane artifacts
 *              (microcode equivalence, budgets, hazards, ISA) with
 *              machine-readable diagnostics.
 *   serve      fleet manager: farm a Monte-Carlo sweep to workers
 *              over TCP (bit-identical to a local run).
 *   worker     fleet worker: pull tasks from a manager; chaos
 *              flags inject seeded failures for testing.
 *   submit     send a sweep job to a waiting manager and print the
 *              merged CSV it returns.
 *
 * Run `quest <subcommand> --help` for the flags of each.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "decode/memory_experiment.hpp"
#include "fleet/manager.hpp"
#include "fleet/worker.hpp"
#include "isa/trace.hpp"
#include "qecc/extractor.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/table.hpp"
#include "sim/trace.hpp"
#include "verify/program.hpp"
#include "verify/timing.hpp"
#include "verify/verifier.hpp"
#include "workloads/estimator.hpp"

namespace {

using namespace quest;

/** Usage error on one flag: message naming it, exit status 2. */
[[noreturn]] void
flagError(const std::string &flag, const std::string &what)
{
    std::fprintf(stderr, "quest: --%s %s\n", flag.c_str(),
                 what.c_str());
    std::exit(2);
}

/** Strict number parse: all of `text`, in range, or false. */
bool
parseLong(const std::string &text, long &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtol(text.c_str(), &end, 10);
    return !text.empty() && *end == '\0' && errno != ERANGE;
}

bool
parseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && *end == '\0' && errno != ERANGE;
}

/** A surface-code distance: odd and in [3, 63]. */
bool
validDistance(long d)
{
    return d >= 3 && d <= 63 && d % 2 == 1;
}

/**
 * Tiny --flag=value / --flag value option parser. Numeric flags
 * parse strictly: a value that is not entirely a number in range is
 * a usage error naming the flag.
 */
class Options
{
  public:
    Options(int argc, char **argv, int first)
    {
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0) {
                std::fprintf(stderr, "unexpected argument '%s'\n",
                             arg.c_str());
                std::exit(2);
            }
            arg = arg.substr(2);
            const auto eq = arg.find('=');
            if (eq != std::string::npos) {
                _values[arg.substr(0, eq)] = arg.substr(eq + 1);
            } else if (i + 1 < argc
                       && std::strncmp(argv[i + 1], "--", 2) != 0) {
                _values[arg] = argv[++i];
            } else {
                _values[arg] = "1";
            }
        }
    }

    bool has(const std::string &key) const
    {
        return _values.contains(key);
    }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        const auto it = _values.find(key);
        return it == _values.end() ? fallback : it->second;
    }

    double
    getDouble(const std::string &key, double fallback) const
    {
        const auto it = _values.find(key);
        if (it == _values.end())
            return fallback;
        double v = 0.0;
        if (!parseDouble(it->second, v))
            flagError(key, "expects a number");
        return v;
    }

    long
    getInt(const std::string &key, long fallback) const
    {
        const auto it = _values.find(key);
        if (it == _values.end())
            return fallback;
        long v = 0;
        if (!parseLong(it->second, v))
            flagError(key, "expects an integer");
        return v;
    }

    /** getInt() that must lie in [lo, hi]. */
    long
    getInt(const std::string &key, long fallback, long lo,
           long hi = std::numeric_limits<long>::max()) const
    {
        const long v = getInt(key, fallback);
        if (v < lo || v > hi)
            flagError(key, hi == std::numeric_limits<long>::max()
                               ? "must be at least " + std::to_string(lo)
                               : "must be in [" + std::to_string(lo)
                                   + ", " + std::to_string(hi) + "]");
        return v;
    }

    /** getDouble() that must lie in [lo, hi] (NaN never does). */
    double
    getDouble(const std::string &key, double fallback, double lo,
              double hi) const
    {
        const double v = getDouble(key, fallback);
        if (!(v >= lo && v <= hi)) {
            char what[64];
            std::snprintf(what, sizeof(what), "must be in [%g, %g]",
                          lo, hi);
            flagError(key, what);
        }
        return v;
    }

  private:
    std::map<std::string, std::string> _values;
};

/** A --*-ms duration flag: milliseconds in [0, INT_MAX]. */
int
getMs(const Options &opts, const std::string &key, int fallback)
{
    return int(opts.getInt(key, fallback, 0, INT_MAX));
}

/** --distance, which must pass validDistance(). */
std::size_t
getDistance(const Options &opts, long fallback)
{
    const long d = opts.getInt("distance", fallback);
    if (!validDistance(d))
        flagError("distance", "must be odd and in [3, 63]");
    return std::size_t(d);
}

tech::Technology
parseTechnology(const std::string &name)
{
    for (tech::Technology t : tech::allTechnologies)
        if (tech::technologyName(t) == name)
            return t;
    sim::fatal("unknown technology '%s' (ExperimentalS, ProjectedF, "
               "ProjectedD)", name.c_str());
}

qecc::Protocol
parseProtocol(const std::string &name)
{
    for (qecc::Protocol p : qecc::allProtocols)
        if (qecc::protocolName(p) == name)
            return p;
    sim::fatal("unknown protocol '%s' (Steane, Shor, SC-17, SC-13)",
               name.c_str());
}

core::MicrocodeDesign
parseDesign(const std::string &name)
{
    for (core::MicrocodeDesign d : core::allMicrocodeDesigns)
        if (core::microcodeDesignName(d) == name)
            return d;
    sim::fatal("unknown design '%s' (RAM, FIFO, Unit-cell)",
               name.c_str());
}

workloads::Workload
parseWorkload(const Options &opts)
{
    if (opts.has("shor"))
        return workloads::shor(std::size_t(opts.getInt("shor", 512)));
    const std::string name = opts.get("workload", "SHOR-512");
    for (const auto &w : workloads::workloadSuite())
        if (w.name == name)
            return w;
    sim::fatal("unknown workload '%s' (BWT, BF, GSE, FeMoCo, QLS, "
               "SHOR-512, TFP; or --shor BITS)", name.c_str());
}

int
cmdEstimate(const Options &opts)
{
    workloads::EstimatorConfig cfg;
    cfg.physicalErrorRate = opts.getDouble("error-rate", 1e-4);
    cfg.technology = parseTechnology(opts.get("tech", "ProjectedD"));
    cfg.protocol = parseProtocol(opts.get("protocol", "Steane"));

    const workloads::Workload w = parseWorkload(opts);
    const auto r = workloads::ResourceEstimator(cfg).estimate(w);

    sim::Table table("estimate: " + w.name);
    table.header({ "quantity", "value" });
    table.row({ "logical qubits (app)",
                sim::formatCount(r.appLogicalQubits) });
    table.row({ "logical qubits (factories)",
                sim::formatCount(r.factoryLogicalQubits) });
    table.row({ "code distance", std::to_string(r.codeDistance) });
    table.row({ "physical qubits",
                sim::formatCount(r.physicalQubits) });
    table.row({ "T factories",
                std::to_string(r.tPlan.factories) });
    table.row({ "execution time",
                sim::formatSeconds(r.execTimeSeconds) });
    table.row({ "baseline bandwidth",
                sim::formatRate(r.baselineBandwidth) });
    table.row({ "QuEST (MCE) bandwidth",
                sim::formatRate(r.mceBandwidth) });
    table.row({ "QuEST (+icache) bandwidth",
                sim::formatRate(r.cachedBandwidth) });
    table.row({ "MCE-only savings",
                sim::formatCount(r.mceSavings()) });
    table.row({ "total savings",
                sim::formatCount(r.totalSavings()) });
    table.print(std::cout);
    return 0;
}

int
cmdMicrocode(const Options &opts)
{
    const auto capacity =
        std::size_t(opts.getInt("capacity", 4096));
    const tech::Technology technology =
        parseTechnology(opts.get("tech", "ProjectedD"));
    const tech::JJMemoryModel mem;

    sim::Table table("microcode design space @ "
                     + std::to_string(capacity) + " bits");
    table.header({ "syndrome", "optimal config", "qubits/MCE",
                   "JJs", "power (uW)" });
    for (qecc::Protocol p : qecc::allProtocols) {
        const core::MicrocodeModel model(qecc::protocolSpec(p),
                                         technology);
        const tech::MemoryConfig best = model.optimalConfig(capacity);
        char power[32];
        std::snprintf(power, sizeof(power), "%.1f",
                      mem.powerUw(best));
        table.row({
            qecc::protocolName(p),
            best.toString(),
            std::to_string(model.servicedQubits(
                core::MicrocodeDesign::UnitCell, best)),
            std::to_string(mem.jjCount(best)),
            power,
        });
    }
    table.print(std::cout);
    return 0;
}

int
cmdTraceGen(const Options &opts)
{
    isa::TraceGenConfig cfg;
    cfg.numInstructions =
        std::size_t(opts.getInt("instructions", 10000, 1));
    // The generator needs two logical qubits, and an operand field
    // holds qubit ids up to maxLogicalOperand (4095).
    cfg.logicalQubits = std::size_t(opts.getInt(
        "qubits", 16, 2, long(isa::maxLogicalOperand) + 1));
    cfg.seed = std::uint64_t(opts.getInt("seed", 1, 0));
    cfg.maskFraction = opts.getDouble("mask-fraction", 0.0, 0.0, 1.0);
    if (cfg.tFraction + cfg.cnotFraction + cfg.maskFraction > 1.0) {
        char what[96];
        std::snprintf(what, sizeof(what),
                      "must be at most %.2f (T and CNOT take the rest "
                      "of the opcode mix)",
                      1.0 - cfg.tFraction - cfg.cnotFraction);
        flagError("mask-fraction", what);
    }
    const std::string out = opts.get("out", "trace.qtrace");

    const isa::LogicalTrace trace = generateApplicationTrace(cfg);
    trace.saveBinary(out);
    std::printf("wrote %zu instructions (%zu bytes, T fraction "
                "%.2f) to %s\n",
                trace.size(), trace.bytes(), trace.tFraction(),
                out.c_str());
    return 0;
}

/**
 * Replay places one logical qubit per MCE, so an instruction that
 * names a qubit must address L0..L(mces-1); anything else would
 * reach the MCE as an unknown qubit. Reject the trace before it
 * runs, naming the first bad instruction.
 */
void
checkTraceOperands(const isa::LogicalTrace &trace, std::size_t mces)
{
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const isa::LogicalInstr &instr = trace.at(i);
        if (instr.opcode == isa::LogicalOpcode::Nop
            || instr.opcode == isa::LogicalOpcode::SyncToken)
            continue;
        if (instr.operand >= mces)
            sim::fatal("trace instruction %zu (%s) targets logical "
                       "qubit L%u, but replay places one logical "
                       "qubit per MCE: L0..L%zu with --mces %zu",
                       i, instr.toString().c_str(),
                       unsigned(instr.operand), mces - 1, mces);
    }
}

int
cmdReplay(const Options &opts)
{
    const std::string path = opts.get("trace", "trace.qtrace");
    // One logical qubit per MCE, and operands address at most
    // maxLogicalOperand + 1 of them.
    const auto mces = std::size_t(
        opts.getInt("mces", 4, 1, long(isa::maxLogicalOperand) + 1));
    const auto rounds = std::size_t(opts.getInt("rounds", 1024, 1));
    const double error_rate =
        opts.getDouble("error-rate", 1e-4, 0.0, 1.0);
    const double fault_rate =
        opts.getDouble("fault-rate", 0.0, 0.0, 1.0);
    const auto fault_seed =
        std::uint64_t(opts.getInt("fault-seed", 0x5EEDFAB5, 0));

    const isa::LogicalTrace trace = isa::LogicalTrace::loadBinary(path);
    checkTraceOperands(trace, mces);

    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce = core::tileConfigForLogicalQubits(getDistance(opts, 3));
    cfg.mce.errorRates =
        quantum::ErrorRates{error_rate, 0, 0, 0, error_rate};

    // Classical fault model: a uniform per-site rate switches on the
    // whole resilience stack (ARQ retries, scrubbing, watchdog,
    // decode-deadline fallback).
    // Pre-flight gate: statically verify every tile's microcode,
    // budget and hazard properties before the system accepts it.
    if (opts.has("verify-on-load")) {
        verify::installPreflightGate();
        cfg.mce.verifyOnLoad = true;
    }

    if (fault_rate > 0.0) {
        cfg.faults = sim::FaultConfig::uniform(fault_rate, fault_seed);
        cfg.scrubIntervalRounds = 64;
        cfg.heartbeatIntervalRounds = 16;
        cfg.modelDecodeDeadline = true;
    }

    core::QuestSystem system(cfg);
    system.placeLogicalQubits();
    system.runMixedWorkload(trace,
                            isa::generateDistillationRound(0),
                            rounds);
    std::printf("%s\n", system.report().toString().c_str());
    if (opts.has("faults-report"))
        system.master().faultStats().dump(std::cout);
    return 0;
}

int
cmdSimulate(const Options &opts)
{
    const std::size_t d = getDistance(opts, 5);
    const double p = opts.getDouble("error-rate", 1e-3, 0.0, 1.0);
    const long trials = opts.getInt("trials", 2000, 1);
    const long seed = opts.getInt("seed", 1, 0);
    // --stream-window N decodes each shot through the streaming
    // sliding-window decoder instead of the offline pipeline;
    // --stream-stride M sets the commit distance (default N/2).
    const long window = opts.getInt("stream-window", 0, 0);
    const long stride = opts.getInt("stream-stride", 0, 0, window);

    decode::MemoryRun run;
    run.errorRate = p;
    run.seed = std::uint64_t(seed);
    if (window) {
        decode::StreamConfig cfg;
        cfg.windowRounds = std::size_t(window);
        cfg.strideRounds = stride
            ? std::size_t(stride)
            : std::max<std::size_t>(1, cfg.windowRounds / 2);
        run.stream = cfg;
    }
    decode::MemoryExperiment exp(
        parseProtocol(opts.get("protocol", "Steane")), d);
    const decode::MemoryTally tally =
        exp.run(run, 0, std::uint64_t(trials));

    auto &reg = sim::metrics::Registry::global();
    const auto count = [&reg](const char *name) {
        return double(reg.counter(name, "").value());
    };
    const double greedy = count("decode.mwpm.greedy_matchings");
    const double matchings =
        greedy + count("decode.mwpm.exact_matchings");
    const sim::Interval ci =
        sim::wilsonInterval(tally.failures, tally.trials);
    char tail[96];
    std::snprintf(tail, sizeof(tail),
                  "ler_ci95=%.3e,%.3e mwpm_greedy_share=%.3f", ci.lo,
                  ci.hi, matchings > 0 ? greedy / matchings : 0.0);
    const double ler = double(tally.failures) / double(tally.trials);
    if (run.stream) {
        const auto &lag = reg.histogram(
            "decode.stream.lag_rounds",
            "rounds decoding ran behind extraction, per pushed "
            "round");
        std::printf(
            "d=%zu p=%g trials=%ld window=%zu stride=%zu "
            "logical_error_rate=%.3e lag_p50=%.0f lag_p99=%.0f %s\n",
            d, p, trials, run.stream->windowRounds,
            run.stream->strideRounds, ler, lag.percentile(0.5),
            lag.percentile(0.99), tail);
        return 0;
    }
    const double local = count("decode.pipeline.events_local");
    const double events = local + count("decode.pipeline.events_global");
    std::printf("d=%zu p=%g trials=%ld logical_error_rate=%.3e "
                "lut_coverage=%.1f%% %s\n",
                d, p, trials, ler,
                events > 0 ? local / events * 100.0 : 0.0, tail);
    return 0;
}

/** One --timing differential row: static bound vs dynamic run. */
struct TimingRow
{
    std::string protocol;
    std::string design;
    std::string mode;
    std::size_t tiles = 1;
    std::size_t rounds = 1;
    verify::TimingBound bound;
    std::size_t observedCycles = 0;
    std::size_t deadlineCycles = 0; // budget over all rounds
    double ratio = 0.0; // bound / observed; 0 when nothing observed
    long slackCycles = 0; // deadline - bound
    bool sound = false;
    bool tight = false;
};

/** Syndrome-round deadline of a tile config, in JJ-clock cycles. */
std::size_t
roundDeadlineCycles(const core::MceConfig &cfg)
{
    const qecc::ProtocolSpec &spec = qecc::protocolSpec(cfg.protocol);
    return std::size_t(
        sim::ticksToSeconds(
            spec.roundDuration(tech::gateLatencies(cfg.technology)))
        * tech::jjClockHz);
}

/**
 * The --timing differential for one tile config: bound the round
 * program statically under `mode`, run the dynamic scheduler on the
 * same program (arbitrated over shared fetch when --tiles > 1) and
 * compare. Soundness (bound >= observed) must hold everywhere; the
 * 1.5x tightness gate applies uncontended, where the bound claims
 * to track the real pipeline rather than a worst-case grant phase.
 */
TimingRow
runTimingDifferential(const core::MceConfig &cfg,
                      const verify::TileBundle &bundle,
                      core::SchedulingMode mode, std::size_t tiles,
                      std::size_t rounds)
{
    const verify::ExpandedStream stream =
        verify::expandRam(bundle.artifacts.ram);
    const verify::DependencyOracle dep(
        *bundle.artifacts.lattice, stream.qubits, stream.subCycles);
    const core::SchedulerConfig &scfg = cfg.sched;
    const std::size_t bandwidth = scfg.fetchWidth;

    TimingRow row;
    row.protocol = qecc::protocolName(cfg.protocol);
    row.design = core::microcodeDesignName(cfg.microcodeDesign);
    row.mode = core::schedulingModeName(mode);
    row.tiles = tiles;
    row.rounds = rounds;
    row.deadlineCycles = roundDeadlineCycles(cfg) * rounds;

    const verify::FetchGrant grant = verify::worstCaseGrant(
        tiles, scfg.fetchWidth, bandwidth,
        core::ArbiterPolicy::RoundRobin);
    row.bound = verify::TimingOracle(scfg).bound(
        dep, mode, rounds, grant);

    const core::DynamicScheduler sched(scfg);
    if (tiles <= 1) {
        row.observedCycles =
            sched.schedule(dep, mode, rounds).cycles.size();
    } else {
        const std::vector<const verify::DependencyOracle *> fleet(
            tiles, &dep);
        const std::vector<std::uint8_t> active(tiles, 1);
        const core::ArbitrationResult r = sched.arbitrate(
            fleet, active, mode, bandwidth,
            core::ArbiterPolicy::RoundRobin, rounds);
        for (const core::TileSchedule &t : r.tiles)
            row.observedCycles =
                std::max(row.observedCycles, t.cycles.size());
    }

    if (row.observedCycles)
        row.ratio = double(row.bound.totalBoundCycles)
            / double(row.observedCycles);
    row.slackCycles =
        long(row.deadlineCycles) - long(row.bound.totalBoundCycles);
    row.sound = row.bound.totalBoundCycles >= row.observedCycles;
    row.tight = tiles > 1
        || double(row.bound.totalBoundCycles)
            <= 1.5 * double(row.observedCycles);
    return row;
}

/** The --timing rows as the JSON "timing" section. */
sim::Json
timingJson(const std::vector<TimingRow> &rows)
{
    sim::Json out = sim::Json::array();
    for (const TimingRow &r : rows)
        out.push(sim::Json::object()
                     .set("protocol", r.protocol)
                     .set("design", r.design)
                     .set("mode", r.mode)
                     .set("tiles", r.tiles)
                     .set("rounds", r.rounds)
                     .set("critical_path_cycles",
                          r.bound.criticalPathCycles)
                     .set("width_bound_cycles", r.bound.widthBoundCycles)
                     .set("bound_cycles", r.bound.totalBoundCycles)
                     .set("observed_cycles", r.observedCycles)
                     .set("ratio", r.ratio)
                     .set("deadline_cycles", r.deadlineCycles)
                     .set("slack_cycles", r.slackCycles)
                     .set("sound", r.sound)
                     .set("tight", r.tight));
    return out;
}

int
cmdVerify(const Options &opts)
{
    const std::size_t distance = getDistance(opts, 3);
    const auto channels = std::size_t(opts.getInt("channels", 4, 1));
    const auto bank_bits =
        std::size_t(opts.getInt("bank-bits", 1024, 1));
    const auto icache = std::size_t(opts.getInt("icache", 1024, 0));
    // 0 skips the rotation-synthesis check.
    const double epsilon = opts.getDouble("epsilon", 0.0);
    if (!(epsilon >= 0.0 && epsilon < 1.0))
        flagError("epsilon", "must be in [0, 1)");

    const bool timing = opts.has("timing");
    const auto timingTiles = std::size_t(opts.getInt("tiles", 1, 1));
    const auto timingRounds = std::size_t(opts.getInt("rounds", 1, 1));
    std::vector<TimingRow> timingRows;

    std::vector<qecc::Protocol> protocols;
    if (opts.has("protocol"))
        protocols.push_back(
            parseProtocol(opts.get("protocol", "Steane")));
    else
        protocols.assign(std::begin(qecc::allProtocols),
                         std::end(qecc::allProtocols));

    std::vector<core::MicrocodeDesign> designs;
    if (opts.has("design"))
        designs.push_back(parseDesign(opts.get("design", "RAM")));
    else
        designs.assign(std::begin(core::allMicrocodeDesigns),
                       std::end(core::allMicrocodeDesigns));

    std::optional<isa::LogicalTrace> trace;
    if (opts.has("trace"))
        trace = isa::LogicalTrace::loadBinary(
            opts.get("trace", "trace.qtrace"));

    verify::Report combined;
    for (const qecc::Protocol p : protocols) {
        for (const core::MicrocodeDesign d : designs) {
            core::MceConfig cfg;
            cfg.distance = distance;
            cfg.protocol = p;
            cfg.technology =
                parseTechnology(opts.get("tech", "ProjectedD"));
            cfg.microcodeDesign = d;
            cfg.memoryConfig.channels = channels;
            cfg.memoryConfig.bankBits = bank_bits;
            cfg.icacheCapacity = icache;

            const std::string label = qecc::protocolName(p) + "/"
                + core::microcodeDesignName(d);
            verify::TileBundle bundle =
                verify::buildTileBundle(cfg, label);
            bundle.artifacts.trace = trace;
            bundle.artifacts.rotationEpsilon = epsilon;
            if (timing) {
                bundle.artifacts.timing.rounds = timingRounds;
                bundle.artifacts.timing.contentionTiles =
                    timingTiles;
            }
            combined.merge(
                verify::Verifier().run(bundle.artifacts));
            if (timing)
                for (const core::SchedulingMode mode :
                     {core::SchedulingMode::InOrder,
                      core::SchedulingMode::OutOfOrder})
                    timingRows.push_back(runTimingDifferential(
                        cfg, bundle, mode, timingTiles,
                        timingRounds));
        }
    }

    bool timingGatesPass = true;
    if (timing) {
        sim::Table table("timing: static bound vs dynamic run ("
                         + std::to_string(timingTiles) + " tile(s), "
                         + std::to_string(timingRounds)
                         + " round(s))");
        table.header({ "config", "mode", "cp", "width", "bound",
                       "observed", "ratio", "deadline", "slack" });
        for (const TimingRow &r : timingRows) {
            char ratio[32];
            std::snprintf(ratio, sizeof(ratio), "%.3f", r.ratio);
            table.row({
                r.protocol + "/" + r.design,
                r.mode,
                std::to_string(r.bound.criticalPathCycles),
                std::to_string(r.bound.widthBoundCycles),
                std::to_string(r.bound.totalBoundCycles),
                std::to_string(r.observedCycles),
                ratio,
                std::to_string(r.deadlineCycles),
                std::to_string(r.slackCycles),
            });
            if (!r.sound) {
                timingGatesPass = false;
                std::fprintf(stderr,
                             "timing: UNSOUND bound for %s/%s %s: "
                             "bound %zu < observed %zu\n",
                             r.protocol.c_str(), r.design.c_str(),
                             r.mode.c_str(),
                             r.bound.totalBoundCycles,
                             r.observedCycles);
            }
            if (!r.tight) {
                timingGatesPass = false;
                std::fprintf(stderr,
                             "timing: LOOSE bound for %s/%s %s: "
                             "bound %zu > 1.5x observed %zu\n",
                             r.protocol.c_str(), r.design.c_str(),
                             r.mode.c_str(),
                             r.bound.totalBoundCycles,
                             r.observedCycles);
            }
        }
        table.print(std::cout);
    }

    if (opts.has("json")) {
        const std::string path = opts.get("json", "verify.json");
        sim::Json doc = combined.toJson();
        if (timing)
            doc.set("timing", timingJson(timingRows));
        std::ofstream os(path);
        if (!os)
            sim::fatal("cannot write diagnostics to %s",
                       path.c_str());
        os << doc.dump() << "\n";
        std::fprintf(stderr, "wrote diagnostics to %s\n",
                     path.c_str());
    }
    std::printf("%s\n", combined.toString().c_str());
    return combined.ok() && timingGatesPass ? 0 : 1;
}

/** Split a comma-separated flag value ("3,5,7"). */
std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= value.size()) {
        const std::size_t comma = value.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? value.size() : comma;
        if (end > start)
            parts.push_back(value.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

/** Build a SweepSpec from the shared sweep grid flags. */
fleet::SweepSpec
sweepSpecFromFlags(const Options &opts)
{
    fleet::SweepSpec spec;
    spec.protocols.clear();
    for (const std::string &name :
         splitList(opts.get("protocols", "Steane")))
        spec.protocols.push_back(parseProtocol(name));
    if (spec.protocols.empty())
        flagError("protocols", "expects a comma-separated list");
    // List flags parse every element strictly, like the scalar ones.
    const char *distances_usage =
        "expects a comma-separated list of odd integers in [3, 63]";
    spec.distances.clear();
    for (const std::string &text :
         splitList(opts.get("distances", "3,5"))) {
        long d = 0;
        if (!parseLong(text, d) || !validDistance(d))
            flagError("distances", distances_usage);
        spec.distances.push_back(std::size_t(d));
    }
    if (spec.distances.empty())
        flagError("distances", distances_usage);
    const char *rates_usage =
        "expects a comma-separated list of numbers in [0, 1]";
    spec.errorRates.clear();
    for (const std::string &text :
         splitList(opts.get("error-rates", "1e-3"))) {
        double p = 0.0;
        if (!parseDouble(text, p) || !(p >= 0.0 && p <= 1.0))
            flagError("error-rates", rates_usage);
        spec.errorRates.push_back(p);
    }
    if (spec.errorRates.empty())
        flagError("error-rates", rates_usage);
    spec.trialsPerPoint = std::uint64_t(opts.getInt("trials", 256, 1));
    spec.grain = std::uint64_t(opts.getInt("grain", 64, 1));
    spec.seed = std::uint64_t(opts.getInt("seed", 1, 0));
    QUEST_ASSERT(spec.valid(), "flag checks admitted an invalid grid");
    return spec;
}

void
writeSweepOutputs(const sim::Table &table, const Options &opts)
{
    table.print(std::cout);
    if (opts.has("csv")) {
        const std::string path = opts.get("csv", "sweep.csv");
        std::ofstream os(path);
        if (!os)
            sim::fatal("cannot write CSV to %s", path.c_str());
        table.printCsv(os);
        std::fprintf(stderr, "wrote CSV to %s\n", path.c_str());
    }
}

int
cmdServe(const Options &opts)
{
    if (opts.has("local")) {
        // Degraded mode: no sockets at all, same bytes out.
        writeSweepOutputs(
            fleet::runSweepLocal(sweepSpecFromFlags(opts)), opts);
        return 0;
    }

    // Every flag is checked before the manager binds its socket.
    fleet::FleetConfig cfg;
    cfg.port = std::uint16_t(opts.getInt("port", 0, 0, 65535));
    cfg.leaseMs = getMs(opts, "lease-ms", cfg.leaseMs);
    cfg.backoffBaseMs = getMs(opts, "backoff-ms", cfg.backoffBaseMs);
    cfg.backoffJitter =
        opts.getDouble("backoff-jitter", cfg.backoffJitter, 0.0, 1.0);
    cfg.redispatchBudget =
        int(opts.getInt("budget", cfg.redispatchBudget, 0, INT_MAX));
    cfg.stragglerFactor =
        opts.getDouble("straggler-factor", cfg.stragglerFactor);
    if (!(cfg.stragglerFactor > 0.0))
        flagError("straggler-factor", "must be positive");
    cfg.heartbeatMs = getMs(opts, "heartbeat-ms", cfg.heartbeatMs);
    cfg.localFallbackMs =
        getMs(opts, "fallback-ms", cfg.localFallbackMs);
    cfg.schedulerSeed = std::uint64_t(
        opts.getInt("scheduler-seed", long(cfg.schedulerSeed), 0));
    // -1 waits forever for a submission.
    cfg.submitTimeoutMs =
        int(opts.getInt("submit-timeout-ms", -1, -1, INT_MAX));
    const bool await_job = opts.has("await-job");
    const fleet::SweepSpec spec =
        await_job ? fleet::SweepSpec{} : sweepSpecFromFlags(opts);

    fleet::Manager manager(cfg);
    if (opts.has("port-file")) {
        // The orchestrator (CI script, tests) learns the ephemeral
        // port from this file; write it only once we are bound.
        const std::string path = opts.get("port-file", "port");
        std::ofstream os(path);
        if (!os)
            sim::fatal("cannot write port file %s", path.c_str());
        os << manager.port() << "\n";
    }
    std::fprintf(stderr, "fleet: listening on 127.0.0.1:%u\n",
                 unsigned(manager.port()));

    if (await_job)
        return manager.serveOnce() ? 0 : 1;

    writeSweepOutputs(manager.runSweep(spec), opts);
    return 0;
}

/** Resolve --port / --port-file into a port, waiting for the file. */
std::uint16_t
resolvePort(const Options &opts, int timeout_ms)
{
    if (!opts.has("port-file"))
        return std::uint16_t(opts.getInt("port", 0, 1, 65535));
    const std::string path = opts.get("port-file", "port");
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        std::ifstream is(path);
        long port = 0;
        if (is && (is >> port) && port > 0 && port < 65536)
            return std::uint16_t(port);
        if (std::chrono::steady_clock::now() >= deadline)
            sim::fatal("no usable port in %s after %d ms",
                       path.c_str(), timeout_ms);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }
}

int
cmdWorker(const Options &opts)
{
    // Every flag is checked before the port is resolved or the
    // worker connects.
    fleet::WorkerConfig cfg;
    cfg.host = opts.get("host", "127.0.0.1");
    cfg.connectTimeoutMs =
        getMs(opts, "connect-timeout-ms", cfg.connectTimeoutMs);
    cfg.name = opts.get("name", "worker");
    cfg.heartbeatMs = getMs(opts, "heartbeat-ms", cfg.heartbeatMs);
    cfg.maxTasks = std::uint64_t(opts.getInt("max-tasks", 0, 0));
    cfg.stallMs = getMs(opts, "stall-ms", cfg.stallMs);

    cfg.chaos.seed =
        std::uint64_t(opts.getInt("chaos-seed", 0x5EEDFAB5, 0));
    cfg.chaos.rate(sim::FaultSite::WorkerKill) =
        opts.getDouble("chaos-kill", 0.0, 0.0, 1.0);
    cfg.chaos.rate(sim::FaultSite::WorkerStall) =
        opts.getDouble("chaos-stall", 0.0, 0.0, 1.0);
    cfg.chaos.rate(sim::FaultSite::ResultDrop) =
        opts.getDouble("chaos-drop", 0.0, 0.0, 1.0);
    cfg.chaos.rate(sim::FaultSite::DuplicateResult) =
        opts.getDouble("chaos-dup", 0.0, 0.0, 1.0);
    cfg.port = resolvePort(opts, cfg.connectTimeoutMs);

    const fleet::WorkerExit rc = fleet::runWorker(cfg);
    if (rc == fleet::WorkerExit::Shutdown
        || rc == fleet::WorkerExit::TaskLimit)
        return 0;
    return int(rc);
}

int
cmdSubmit(const Options &opts)
{
    // Every flag is checked before the port is resolved or the
    // connection opens.
    const int connect_timeout =
        getMs(opts, "connect-timeout-ms", 10000);
    const int timeout = getMs(opts, "job-timeout-ms", 600000);
    const fleet::SweepSpec spec = sweepSpecFromFlags(opts);
    const std::uint16_t port = resolvePort(opts, connect_timeout);
    fleet::Socket sock = fleet::connectTcp(
        opts.get("host", "127.0.0.1"), port, connect_timeout);
    if (!sock.valid())
        sim::fatal("cannot reach manager on port %u",
                   unsigned(port));

    fleet::Json msg = fleet::Json::object();
    msg.set("type", fleet::Json("submit"));
    msg.set("spec", spec.toJson());
    if (!fleet::sendFrame(sock, msg))
        sim::fatal("manager rejected the job submission");

    fleet::Json reply;
    if (fleet::recvFrame(sock, reply, timeout) != 1
        || reply.getString("type", "") != "table")
        sim::fatal("no table from the manager");
    const std::string csv = reply.getString("csv", "");
    std::fputs(csv.c_str(), stdout);
    if (opts.has("csv")) {
        const std::string path = opts.get("csv", "sweep.csv");
        std::ofstream os(path);
        if (!os)
            sim::fatal("cannot write CSV to %s", path.c_str());
        os << csv;
    }
    return 0;
}

void
usage()
{
    std::puts(
        "usage: quest <subcommand> [--flag value ...]\n"
        "\n"
        "subcommands:\n"
        "  estimate   --workload NAME | --shor BITS  [--error-rate P]\n"
        "             [--tech T] [--protocol S]\n"
        "  microcode  [--capacity BITS] [--tech T]\n"
        "  trace-gen  [--out FILE] [--instructions N] [--qubits N]\n"
        "             [--seed S]\n"
        "  replay     --trace FILE [--mces N] [--rounds N]\n"
        "             [--distance D] [--error-rate P]\n"
        "             [--fault-rate P] [--fault-seed S]\n"
        "             [--faults-report] [--verify-on-load]\n"
        "  simulate   [--distance D] [--error-rate P] [--trials N]\n"
        "             [--protocol S] [--seed S]\n"
        "             [--stream-window N [--stream-stride M]]\n"
        "  verify     [--protocol S] [--design D] [--distance D]\n"
        "             [--tech T] [--channels N] [--bank-bits N]\n"
        "             [--trace FILE] [--epsilon E] [--json FILE]\n"
        "             [--timing [--tiles N] [--rounds R]]\n"
        "             (defaults sweep every protocol x design;\n"
        "             --timing cross-checks the static WCET bound\n"
        "             against the dynamic scheduler and gates\n"
        "             soundness and 1.5x tightness)\n"
        "  serve      [--port P] [--port-file FILE] [--csv FILE]\n"
        "             [--protocols A,B] [--distances 3,5]\n"
        "             [--error-rates 1e-3,...] [--trials N]\n"
        "             [--grain N] [--seed S] [--local]\n"
        "             [--lease-ms N] [--backoff-ms N] [--budget N]\n"
        "             [--straggler-factor F] [--fallback-ms N]\n"
        "             [--await-job [--submit-timeout-ms N]]\n"
        "  worker     --port P | --port-file FILE  [--name NAME]\n"
        "             [--max-tasks N] [--chaos-kill P]\n"
        "             [--chaos-stall P] [--chaos-drop P]\n"
        "             [--chaos-dup P] [--chaos-seed S]\n"
        "             [--stall-ms N]\n"
        "  submit     --port P | --port-file FILE  [sweep flags]\n"
        "             [--csv FILE] [--job-timeout-ms N]\n"
        "\n"
        "observability (any subcommand):\n"
        "  --trace-out FILE    write a Chrome-trace JSON of the run\n"
        "                      (open in Perfetto / chrome://tracing)\n"
        "  --metrics-out FILE  write the metrics registry as JSON\n"
        "  --metrics-wallclock also emit scheduling-dependent\n"
        "                      (Wallclock) metrics in --metrics-out");
}

/**
 * Write the --trace-out / --metrics-out artifacts after a
 * subcommand finished. The tracer was enabled before dispatch when
 * --trace-out was given; with a trace-disabled build the export is
 * an empty trace and a note on stderr.
 */
void
writeObservabilityOutputs(const Options &opts)
{
    if (opts.has("trace-out")) {
        const std::string path = opts.get("trace-out", "trace.json");
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         path.c_str());
        } else {
            if (!sim::traceCompiledIn())
                std::fprintf(stderr,
                             "note: built with QUEST_TRACE=OFF; %s "
                             "will be empty\n", path.c_str());
            os << sim::Tracer::instance().chromeTrace().dump() << "\n";
            std::fprintf(stderr, "wrote trace to %s\n", path.c_str());
        }
    }
    if (opts.has("metrics-out")) {
        const std::string path =
            opts.get("metrics-out", "metrics.json");
        std::ofstream os(path);
        if (!os) {
            std::fprintf(stderr, "cannot write metrics to %s\n",
                         path.c_str());
        } else {
            os << sim::metrics::Registry::global()
                      .toJson(opts.has("metrics-wallclock"))
                      .dump()
               << "\n";
            std::fprintf(stderr, "wrote metrics to %s\n",
                         path.c_str());
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    const Options opts(argc, argv, 2);
    if (opts.has("trace-out"))
        sim::Tracer::instance().setEnabled(true);
    try {
        int rc = 2;
        if (cmd == "estimate")
            rc = cmdEstimate(opts);
        else if (cmd == "microcode")
            rc = cmdMicrocode(opts);
        else if (cmd == "trace-gen")
            rc = cmdTraceGen(opts);
        else if (cmd == "replay")
            rc = cmdReplay(opts);
        else if (cmd == "simulate")
            rc = cmdSimulate(opts);
        else if (cmd == "verify")
            rc = cmdVerify(opts);
        else if (cmd == "serve")
            rc = cmdServe(opts);
        else if (cmd == "worker")
            rc = cmdWorker(opts);
        else if (cmd == "submit")
            rc = cmdSubmit(opts);
        else {
            usage();
            return 2;
        }
        writeObservabilityOutputs(opts);
        return rc;
    } catch (const quest::sim::SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
