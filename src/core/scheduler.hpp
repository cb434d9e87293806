/**
 * @file
 * Cycle-level model of the MCE's in-order microcode pipeline, and
 * the multi-tile arbiter over shared JJ-memory fetch bandwidth.
 *
 * The pipeline is the paper's replay loop over the per-round uop
 * program (a verify::DependencyOracle): a sub-cycle's slots (Nops
 * included — the stream visits every qubit) are fetched at the
 * fetch width, then the master clock fires all of them at once; the
 * next sub-cycle cannot fire until the slowest waveform of the
 * current one has played. Fetch of the next sub-cycle overlaps
 * execution (the switch array double-buffers), but the barrier
 * convoys every qubit behind the longest latency — measurement, at
 * 4 cycles.
 *
 * The arbiter runs N tile pipelines against one shared fetch-slot
 * budget per cycle, granting slots with a rotating priority. Per-tile
 * stall breakdowns separate barrier stalls from bandwidth-denied
 * cycles — the contention signal the master controller exports per
 * tile.
 *
 * Everything here is a *timing* model: functional effects retire in
 * program order through the extractor, so arbitration never touches
 * an architectural observable.
 */

#ifndef QUEST_CORE_SCHEDULER_HPP
#define QUEST_CORE_SCHEDULER_HPP

#include <cstdint>
#include <vector>

#include "isa/opcodes.hpp"
#include "sim/metrics.hpp"
#include "verify/dependency.hpp"

namespace quest::core {

/** How the MCE microcode pipeline orders uop issue. The sub-cycle
 *  barrier is the only pipeline; the enum stays while questbench
 *  names it (ROADMAP item 8). */
enum class SchedulingMode
{
    InOrder, ///< sub-cycle barrier replay (the paper's pipeline)
};

/** How the master arbitrates tiles over shared fetch bandwidth.
 *  Rotating priority is the only grant; the enum stays while
 *  questbench names it (ROADMAP item 8). */
enum class ArbiterPolicy
{
    RoundRobin, ///< rotating priority, one step per cycle
};

/**
 * Modeled JJ-clock latency of one fired uop's waveform. Single-qubit
 * gates and preparations play in one cycle, the two-qubit
 * interaction in two, measurement — the long pole the barrier
 * convoys behind — in four.
 */
std::size_t uopLatencyCycles(isa::PhysOpcode op);

/**
 * The longest uop waveform in the model (measurement). Exposed so
 * the static timing oracle (verify::TimingOracle) can bound issue
 * schedules without enumerating opcodes; a test pins it to
 * max over uopLatencyCycles.
 */
inline constexpr std::size_t kMaxUopLatencyCycles = 4;

/** Width knob of the pipeline. */
struct SchedulerConfig
{
    /** Uop slots fetched+decoded from the microcode store per JJ
     *  cycle (per tile, absent arbitration). */
    std::size_t fetchWidth = 4;
};

/** Stall-cycle breakdown by hazard class. */
struct StallBreakdown
{
    /** The barrier waiting out the slowest waveform. */
    std::uint64_t data = 0;
    /** Always 0: the barrier pipeline has no issue queue. Kept
     *  while questbench reports it (ROADMAP item 8). */
    std::uint64_t queueFull = 0;
    /** Always 0, as queueFull (ROADMAP item 8). */
    std::uint64_t fetchStarved = 0;
    /** Demanded fetch slots, granted none by the arbiter. */
    std::uint64_t bandwidthWait = 0;

    std::uint64_t
    total() const
    {
        return data + queueFull + fetchStarved + bandwidthWait;
    }
};

/** One tile's simulated issue schedule. */
struct TileSchedule
{
    /** cycles[t] lists the uop ids fired at cycle t, in program
     *  order. Uop id = round * oracle.uops().size() + MicroOp::seq. */
    std::vector<std::vector<std::uint32_t>> cycles;

    StallBreakdown stalls;
    /** Cycle by which every fired waveform has completed. */
    std::size_t makespanCycles = 0;
    /** Total uops fired (== uops x rounds when the tile ran). */
    std::size_t issued = 0;
    /** Stream slots fetched (Nops included). */
    std::size_t slotsFetched = 0;
};

/** The arbiter's view of an N-tile run. */
struct ArbitrationResult
{
    std::vector<TileSchedule> tiles;
    /** Cycle by which every tile's work completed. */
    std::size_t makespanCycles = 0;
    /** Fetch slots granted across all tiles. */
    std::uint64_t slotsGranted = 0;
};

/**
 * Plans single-tile issue schedules and arbitrates multi-tile
 * fleets. Deterministic — pure integer cycle simulation, no
 * randomness — so a plan is a pure function of (program, config).
 */
class DynamicScheduler
{
  public:
    explicit DynamicScheduler(const SchedulerConfig &cfg);

    const SchedulerConfig &config() const { return _cfg; }

    /**
     * Schedule `rounds` back-to-back replays of one tile's program.
     * Bumps the sched.* metrics with the plan's issue/stall
     * statistics.
     */
    TileSchedule schedule(const verify::DependencyOracle &oracle,
                          std::size_t rounds = 1) const;

    /**
     * Run `tiles.size()` tile pipelines against a shared fetch
     * budget of `shared_bandwidth` slots per cycle. `active[i]` == 0
     * excludes tile i (a hung/quarantined engine demands nothing).
     * Bumps the sched.* metrics once per tile, as record() does.
     */
    ArbitrationResult
    arbitrate(const std::vector<const verify::DependencyOracle *> &tiles,
              const std::vector<std::uint8_t> &active,
              std::size_t shared_bandwidth,
              std::size_t rounds = 1) const;

    /** The same, with the one-value mode and policy questbench
     *  still passes (ROADMAP item 8). */
    ArbitrationResult
    arbitrate(const std::vector<const verify::DependencyOracle *> &tiles,
              const std::vector<std::uint8_t> &active, SchedulingMode,
              std::size_t shared_bandwidth, ArbiterPolicy,
              std::size_t rounds = 1) const
    {
        return arbitrate(tiles, active, shared_bandwidth, rounds);
    }

    /**
     * Bump the sched.* metrics exactly as arbitrate() does when it
     * returns `plan`: one planned schedule per tile. A caller that
     * replays a memoized plan records it through here, so the
     * metrics still count one plan per use.
     */
    void record(const ArbitrationResult &plan) const;

  private:
    SchedulerConfig _cfg;

    // Registry counters bound at construction; never function-local
    // statics (those outlive registry resets — see the
    // registry-lifetime regression test).
    sim::metrics::Counter &_mPlans;
    sim::metrics::Counter &_mIssued;
    sim::metrics::Counter &_mCycles;
    sim::metrics::Counter &_mStallData;
    sim::metrics::Counter &_mStallBandwidth;
};

} // namespace quest::core

#endif // QUEST_CORE_SCHEDULER_HPP
