/**
 * @file
 * Scheduling ablation: in-order sub-cycle barriers versus
 * out-of-order scoreboard issue, at 1, 2 and 4 MCE tiles sharing a
 * JJ-memory fetch path (shared bandwidth = 2 slots/cycle per tile).
 *
 * For every (distance, tiles, mode, arbiter policy) point the bench
 * plans a multi-round replay through core::DynamicScheduler and
 * reports the makespan, the model-time rounds/sec, the achieved
 * uops/cycle and the bandwidth-bound qubits-per-MCE that issue rate
 * sustains within one syndrome-round deadline. The stall breakdown
 * (data / queue-full / fetch-starved / bandwidth-wait) shows where
 * each configuration's cycles went.
 *
 * Flags:
 *   --smoke      CI-sized run (d=3 only, fewer rounds)
 *   --rounds=N   replay rounds per configuration
 *   --out=PATH   JSON output (default BENCH_schedule.json)
 *   --check      gate mode: exit 1 unless (a) at 4 tiles the
 *                out-of-order schedule sustains at least the
 *                in-order rounds/sec under every policy, (b) both
 *                modes issue identical uop counts, and (c) a noisy
 *                paired Mce replay is bit-identical between the two
 *                pipelines (the replay-equivalence digest).
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/mce.hpp"
#include "core/scheduler.hpp"
#include "isa/instructions.hpp"
#include "qecc/protocol.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"
#include "verify/dependency.hpp"

namespace {

using namespace quest;
using core::ArbiterPolicy;
using core::ArbitrationResult;
using core::DynamicScheduler;
using core::Mce;
using core::MceConfig;
using core::SchedulerConfig;
using core::SchedulingMode;
using core::TileSchedule;

struct PointResult
{
    std::size_t distance = 0;
    std::size_t tiles = 0;
    std::string mode;
    std::string policy;
    std::size_t sharedBandwidth = 0;
    std::size_t makespanCycles = 0;
    double cyclesPerRound = 0.0;
    double roundsPerSec = 0.0;
    double uopsPerCycle = 0.0;
    std::size_t qubitsPerMce = 0;
    std::uint64_t issued = 0;
    core::StallBreakdown stalls;
};

/** FNV-1a accumulator over one replay's architectural observables. */
struct Digest
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }
};

/** Replay a noisy shot through one pipeline and digest it. */
std::uint64_t
replayDigest(std::size_t distance, SchedulingMode mode,
             std::size_t rounds)
{
    MceConfig cfg;
    cfg.distance = distance;
    cfg.scheduling = mode;
    cfg.errorRates = quantum::ErrorRates::uniform(2e-3);
    cfg.seed = 0xAB1A;
    Mce mce("ablation", cfg);
    Digest d;
    for (std::size_t r = 0; r < rounds; ++r) {
        const qecc::SyndromeRound &round = mce.runQeccRound();
        for (const std::uint8_t b : round.xFlips)
            d.mix(b);
        for (const std::uint8_t b : round.zFlips)
            d.mix(b);
    }
    const quantum::PauliFrame &frame = mce.frame();
    for (std::size_t q = 0; q < frame.numQubits(); ++q)
        d.mix((frame.xError(q) ? 1u : 0u)
              | (frame.zError(q) ? 2u : 0u));
    d.mix(std::uint64_t(mce.microcodeBitsStreamed()));
    d.mix(std::uint64_t(mce.qeccUopsIssued()));
    return d.h;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bool smoke = false;
    bool check = false;
    std::size_t rounds = 0;
    std::string out_path = "BENCH_schedule.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg.rfind("--rounds=", 0) == 0) {
            rounds = std::stoull(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "unknown flag " << arg << "\n"
                      << "usage: ablation_schedule [--smoke] "
                         "[--check] [--rounds=N] [--out=PATH]\n";
            return 1;
        }
    }
    if (rounds == 0)
        rounds = smoke ? 8 : 32;
    sim::metrics::Registry::global().reset();

    const std::vector<std::size_t> distances =
        smoke ? std::vector<std::size_t>{3}
              : std::vector<std::size_t>{3, 5};
    const std::vector<std::size_t> tile_counts = {1, 2, 4};

    const qecc::ProtocolSpec &spec =
        qecc::protocolSpec(qecc::Protocol::Steane);
    const tech::JJMemoryModel mem;
    const MceConfig proto_cfg; // for memoryConfig/technology defaults
    // Streamed uops are opcode-only (FIFO/unit-cell wire format);
    // the width only sets the model-time scale, identically for
    // every point.
    const std::size_t uop_bits = isa::fifoUopBits(spec.opcodeCount);
    const double round_seconds = sim::ticksToSeconds(
        spec.roundDuration(tech::gateLatencies(
            proto_cfg.technology)));

    int gate_failures = 0;
    std::vector<PointResult> results;
    // in-order rounds/sec per (distance, tiles, policy) for the
    // 4-tile gate below.
    std::vector<std::pair<std::string, double>> in_order_rps;

    for (const std::size_t d : distances) {
        MceConfig cfg;
        cfg.distance = d;
        Mce mce("plan", cfg);
        const verify::DependencyOracle &oracle =
            mce.dependencyOracle();
        const DynamicScheduler sched{SchedulerConfig{}};

        for (const std::size_t tiles : tile_counts) {
            const std::size_t shared_bw = 2 * tiles;
            // The memory path sustains `shared_bw` slot fetches per
            // scheduler cycle at the technology's uop rate.
            const double cycles_per_sec =
                mem.uopsPerSecond(proto_cfg.memoryConfig, uop_bits)
                / double(shared_bw);

            const std::vector<ArbiterPolicy> policies =
                tiles == 1
                ? std::vector<ArbiterPolicy>{
                      ArbiterPolicy::RoundRobin}
                : std::vector<ArbiterPolicy>{
                      ArbiterPolicy::RoundRobin,
                      ArbiterPolicy::OldestFirst};
            for (const ArbiterPolicy policy : policies) {
                std::uint64_t issued_by_mode[2] = {0, 0};
                double rps_by_mode[2] = {0.0, 0.0};
                for (const SchedulingMode mode :
                     {SchedulingMode::InOrder,
                      SchedulingMode::OutOfOrder}) {
                    const std::vector<
                        const verify::DependencyOracle *>
                        oracles(tiles, &oracle);
                    const std::vector<std::uint8_t> active(tiles,
                                                           1);
                    const ArbitrationResult arb = sched.arbitrate(
                        oracles, active, mode, shared_bw, policy,
                        rounds);

                    PointResult r;
                    r.distance = d;
                    r.tiles = tiles;
                    r.mode = core::schedulingModeName(mode);
                    r.policy = core::arbiterPolicyName(policy);
                    r.sharedBandwidth = shared_bw;
                    r.makespanCycles = arb.makespanCycles;
                    r.cyclesPerRound =
                        double(arb.makespanCycles)
                        / double(rounds);
                    r.roundsPerSec = arb.makespanCycles > 0
                        ? cycles_per_sec * double(rounds)
                            / double(arb.makespanCycles)
                        : 0.0;
                    for (const TileSchedule &t : arb.tiles) {
                        r.issued += t.issued;
                        r.stalls.data += t.stalls.data;
                        r.stalls.queueFull += t.stalls.queueFull;
                        r.stalls.fetchStarved +=
                            t.stalls.fetchStarved;
                        r.stalls.bandwidthWait +=
                            t.stalls.bandwidthWait;
                    }
                    // Achieved per-tile issue rate, and the
                    // bandwidth-bound qubit load it sustains within
                    // one syndrome-round deadline.
                    r.uopsPerCycle = arb.makespanCycles > 0
                        ? double(r.issued) / double(tiles)
                            / double(arb.makespanCycles)
                        : 0.0;
                    r.qubitsPerMce = std::size_t(
                        r.uopsPerCycle * cycles_per_sec
                        * round_seconds
                        / double(spec.uopsPerQubit));

                    const std::size_t m =
                        mode == SchedulingMode::InOrder ? 0 : 1;
                    issued_by_mode[m] = r.issued;
                    rps_by_mode[m] = r.roundsPerSec;
                    results.push_back(r);
                }

                if (check
                    && issued_by_mode[0] != issued_by_mode[1]) {
                    std::cout << "check: d=" << d << " tiles="
                              << tiles
                              << ": issued uop counts diverge ("
                              << issued_by_mode[0] << " vs "
                              << issued_by_mode[1] << ")\n";
                    ++gate_failures;
                }
                if (check && tiles == 4
                    && rps_by_mode[1] < rps_by_mode[0]) {
                    std::cout << "check: d=" << d << " tiles=4 "
                              << core::arbiterPolicyName(policy)
                              << ": out-of-order slower than "
                                 "in-order (" << rps_by_mode[1]
                              << " < " << rps_by_mode[0]
                              << " rounds/s)\n";
                    ++gate_failures;
                }
            }
        }
    }

    // Replay-equivalence digest: the timing ablation must not touch
    // a single architectural bit.
    std::vector<std::pair<std::size_t, bool>> digests;
    for (const std::size_t d : distances) {
        const std::uint64_t in_digest =
            replayDigest(d, SchedulingMode::InOrder, rounds);
        const std::uint64_t ooo_digest =
            replayDigest(d, SchedulingMode::OutOfOrder, rounds);
        digests.emplace_back(d, in_digest == ooo_digest);
        if (check && in_digest != ooo_digest) {
            std::cout << "check: d=" << d
                      << ": replay digests diverge between "
                         "pipelines\n";
            ++gate_failures;
        }
    }

    sim::Table table("Scheduling ablation ("
                     + std::to_string(rounds) + " rounds, bw = "
                       "2 slots/cycle/tile)");
    table.header({ "d", "tiles", "mode", "policy", "cycles/round",
                   "rounds/s", "uops/cycle", "qubits/MCE",
                   "stalls d/q/f/b" });
    for (const PointResult &r : results) {
        char b1[32], b2[32], b3[32], b4[64];
        std::snprintf(b1, sizeof(b1), "%.1f", r.cyclesPerRound);
        std::snprintf(b2, sizeof(b2), "%.3g", r.roundsPerSec);
        std::snprintf(b3, sizeof(b3), "%.2f", r.uopsPerCycle);
        std::snprintf(b4, sizeof(b4), "%llu/%llu/%llu/%llu",
                      (unsigned long long)r.stalls.data,
                      (unsigned long long)r.stalls.queueFull,
                      (unsigned long long)r.stalls.fetchStarved,
                      (unsigned long long)r.stalls.bandwidthWait);
        table.row({ std::to_string(r.distance),
                    std::to_string(r.tiles), r.mode, r.policy, b1,
                    b2, b3, std::to_string(r.qubitsPerMce), b4 });
    }
    table.caption("out-of-order issue hides sub-cycle barriers; the "
                  "gap widens as tiles contend for the shared fetch "
                  "path");
    table.print(std::cout);

    sim::Json configs = sim::Json::array();
    for (const PointResult &r : results)
        configs.push(sim::Json::object()
                         .set("distance", r.distance)
                         .set("tiles", r.tiles)
                         .set("mode", r.mode)
                         .set("policy", r.policy)
                         .set("shared_bandwidth", r.sharedBandwidth)
                         .set("makespan_cycles", r.makespanCycles)
                         .set("cycles_per_round", r.cyclesPerRound)
                         .set("rounds_per_sec", r.roundsPerSec)
                         .set("uops_per_cycle", r.uopsPerCycle)
                         .set("qubits_per_mce", r.qubitsPerMce)
                         .set("issued", r.issued)
                         .set("stall_data", r.stalls.data)
                         .set("stall_queue_full", r.stalls.queueFull)
                         .set("stall_fetch", r.stalls.fetchStarved)
                         .set("stall_bandwidth", r.stalls.bandwidthWait));
    sim::Json equivalence = sim::Json::array();
    for (const auto &[distance, match] : digests)
        equivalence.push(sim::Json::object()
                             .set("distance", distance)
                             .set("digest_match", match));
    bench::writeBenchJson(out_path,
                          sim::Json::object()
                              .set("bench", "ablation_schedule")
                              .set("smoke", smoke)
                              .set("rounds", rounds)
                              .set("configs", std::move(configs))
                              .set("equivalence", std::move(equivalence)));

    if (check) {
        if (gate_failures != 0) {
            std::cout << "check: " << gate_failures
                      << " gate failure(s)\n";
            return 1;
        }
        std::cout << "check: out-of-order >= in-order at 4 tiles, "
                     "issue parity and replay digests all hold\n";
    }
    return 0;
}
