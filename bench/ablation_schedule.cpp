/**
 * @file
 * Fetch-contention table for the in-order MCE pipeline at 1, 2 and
 * 4 tiles sharing a JJ-memory fetch path (shared bandwidth = 2
 * slots/cycle per tile).
 *
 * For every (distance, tiles) point the bench plans a multi-round
 * replay through core::DynamicScheduler's round-robin arbiter and
 * reports the makespan, the model-time rounds/sec, the achieved
 * uops/cycle and the bandwidth-bound qubits-per-MCE that issue rate
 * sustains within one syndrome-round deadline. The stall breakdown
 * (data / queue-full / fetch-starved / bandwidth-wait; the middle
 * two are always 0 for the barrier pipeline) shows where each
 * configuration's cycles went.
 *
 * Flags:
 *   --smoke      CI-sized run (d=3 only, fewer rounds)
 *   --rounds=N   replay rounds per configuration
 *   --out=PATH   JSON output (default BENCH_schedule.json)
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
using core::ArbitrationResult;
using core::DynamicScheduler;
using core::Mce;
using core::MceConfig;
using core::SchedulerConfig;
using core::TileSchedule;

struct PointResult
{
    std::size_t distance = 0;
    std::size_t tiles = 0;
    std::size_t sharedBandwidth = 0;
    std::size_t makespanCycles = 0;
    double cyclesPerRound = 0.0;
    double roundsPerSec = 0.0;
    double uopsPerCycle = 0.0;
    std::size_t qubitsPerMce = 0;
    std::uint64_t issued = 0;
    core::StallBreakdown stalls;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bool smoke = false;
    std::size_t rounds = 0;
    std::string out_path = "BENCH_schedule.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--rounds=", 0) == 0) {
            rounds = std::stoull(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "unknown flag " << arg << "\n"
                      << "usage: ablation_schedule [--smoke] "
                         "[--rounds=N] [--out=PATH]\n";
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

    std::vector<PointResult> results;
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

            const std::vector<const verify::DependencyOracle *>
                oracles(tiles, &oracle);
            const std::vector<std::uint8_t> active(tiles, 1);
            const ArbitrationResult arb =
                sched.arbitrate(oracles, active, shared_bw, rounds);

            PointResult r;
            r.distance = d;
            r.tiles = tiles;
            r.sharedBandwidth = shared_bw;
            r.makespanCycles = arb.makespanCycles;
            r.cyclesPerRound =
                double(arb.makespanCycles) / double(rounds);
            r.roundsPerSec = arb.makespanCycles > 0
                ? cycles_per_sec * double(rounds)
                    / double(arb.makespanCycles)
                : 0.0;
            for (const TileSchedule &t : arb.tiles) {
                r.issued += t.issued;
                r.stalls.data += t.stalls.data;
                r.stalls.bandwidthWait += t.stalls.bandwidthWait;
            }
            // Achieved per-tile issue rate, and the bandwidth-bound
            // qubit load it sustains within one syndrome-round
            // deadline.
            r.uopsPerCycle = arb.makespanCycles > 0
                ? double(r.issued) / double(tiles)
                    / double(arb.makespanCycles)
                : 0.0;
            r.qubitsPerMce = std::size_t(
                r.uopsPerCycle * cycles_per_sec * round_seconds
                / double(spec.uopsPerQubit));
            results.push_back(r);
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
                    std::to_string(r.tiles), "in-order",
                    "round-robin", b1, b2, b3,
                    std::to_string(r.qubitsPerMce), b4 });
    }
    table.caption("the sub-cycle barrier convoys every qubit behind "
                  "measurement; contending tiles stretch each round "
                  "by their bandwidth wait");
    table.print(std::cout);

    sim::Json configs = sim::Json::array();
    for (const PointResult &r : results)
        configs.push(sim::Json::object()
                         .set("distance", r.distance)
                         .set("tiles", r.tiles)
                         .set("mode", "in-order")
                         .set("policy", "round-robin")
                         .set("shared_bandwidth", r.sharedBandwidth)
                         .set("makespan_cycles", r.makespanCycles)
                         .set("cycles_per_round", r.cyclesPerRound)
                         .set("rounds_per_sec", r.roundsPerSec)
                         .set("uops_per_cycle", r.uopsPerCycle)
                         .set("qubits_per_mce", r.qubitsPerMce)
                         .set("issued", r.issued)
                         .set("stall_data", r.stalls.data)
                         .set("stall_bandwidth", r.stalls.bandwidthWait));
    bench::writeBenchJson(out_path,
                          sim::Json::object()
                              .set("bench", "ablation_schedule")
                              .set("smoke", smoke)
                              .set("rounds", rounds)
                              .set("configs", std::move(configs)));
    return 0;
}
