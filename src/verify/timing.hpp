/**
 * @file
 * Static timing & contention oracle: WCET-style bounds on the
 * in-order pipeline model of `core::DynamicScheduler`, computed
 * without simulation.
 *
 * `TimingOracle` interprets the barrier pipeline over a
 * `DependencyOracle` dependency graph and returns two nested
 * worst-case issue-cycle bounds for a round program:
 *
 *   criticalPathCycles  the waveform chain alone — every sub-cycle's
 *                       slowest latency, back to back, with
 *                       infinite fetch bandwidth. A deadline miss
 *                       here is inherent to the program, not the
 *                       pipeline.
 *   totalBoundCycles    adds the finite fetch width: fire times obey
 *                       c_{k+1} = c_k + max(F, L_k) with F the
 *                       sub-cycle fetch time and L_k the slowest
 *                       waveform of sub-cycle k.
 *
 * The bound is closed-form and exact for the uncontended grant (a
 * test pins bound == makespan on random programs); the CI
 * `verify-timing` job gates bound <= 1.5x observed on every shipped
 * protocol x design configuration.
 *
 * Multi-tile contention is modeled per arbitration window: under the
 * rotating-priority grant, any N consecutive cycles grant a
 * contending tile at least min(f,B) slots on its priority cycle plus
 * min(f, B-(N-1)f) on each other cycle. `admitTiles()` turns this
 * into the static co-residency check a multi-tenant scheduler calls
 * before placing programs on a shared substrate.
 */

#ifndef QUEST_VERIFY_TIMING_HPP
#define QUEST_VERIFY_TIMING_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "dependency.hpp"

namespace quest::verify {

class Pass;

/** The nested worst-case bounds for one tile program. */
struct TimingBound
{
    /** Waveform chain alone (infinite fetch bandwidth). */
    std::size_t criticalPathCycles = 0;
    /** Adds the finite fetch width: the full pipeline model. */
    std::size_t totalBoundCycles = 0;

    /** Fetch-stream slots per round (depth x qubits, Nops included). */
    std::size_t slotsPerRound = 0;
    /** Real (non-Nop) uops per round. */
    std::size_t uopsPerRound = 0;
};

/**
 * Shared-fetch grant model: within any window of `cycles`
 * consecutive arbitration cycles the tile is granted at least
 * `slots` fetch slots. The uncontended model is {fetchWidth, 1}.
 */
struct FetchGrant
{
    std::size_t slots = 0;
    std::size_t cycles = 1;

    /** Mean granted slots per cycle. */
    double rate() const
    {
        return cycles == 0 ? 0.0
                           : double(slots) / double(cycles);
    }
};

/**
 * Worst-case per-window fetch grant for one of `tiles` contending
 * pipelines (per-tile width `fetchWidth`) sharing `bandwidth`
 * slots per cycle under the rotating-priority grant. slots == 0
 * means the tile can be starved outright (bandwidth overcommitted).
 */
FetchGrant worstCaseGrant(std::size_t tiles,
                          std::size_t fetchWidth,
                          std::size_t bandwidth);

/** Static WCET analysis of the DynamicScheduler cycle model. */
class TimingOracle
{
  public:
    explicit TimingOracle(core::SchedulerConfig cfg = {});

    const core::SchedulerConfig &config() const { return _cfg; }

    /**
     * Bound the issue cycles of `rounds` repetitions of the round
     * program. `grant` is the fetch model; the default {0, 1}
     * resolves to the uncontended {fetchWidth, 1}.
     *
     * Guarantee (the soundness contract the fuzz differential
     * pins): totalBoundCycles >= the dynamic scheduler's observed
     * `cycles.size()` and `makespanCycles` for the same program,
     * rounds and grant, and equals `makespanCycles` uncontended.
     */
    TimingBound bound(const DependencyOracle &oracle,
                      std::size_t rounds = 1,
                      FetchGrant grant = {0, 1}) const;

  private:
    core::SchedulerConfig _cfg;
};

/** One tile's admission request. */
struct TileTimingRequest
{
    const DependencyOracle *oracle = nullptr;
    /** Cycles available per round (the syndrome-cycle deadline). */
    std::size_t deadlineCycles = 0;
};

/** The admission verdict for a candidate co-resident tile set. */
struct AdmissionDecision
{
    bool admitted = false;
    /** Sum over tiles of slotsPerRound / deadlineCycles. */
    double aggregateDemand = 0.0;
    /** The shared bandwidth the demand was checked against. */
    std::size_t sharedBandwidth = 0;
    /** Per-tile contended worst-case round cycles. */
    std::vector<std::size_t> tileBoundCycles;
    /** Empty when admitted; otherwise why the set was rejected. */
    std::string reason;
};

/**
 * Static co-residency admission check: decide, without running
 * anything, whether every tile in the set meets its per-round
 * deadline when all of them contend for `sharedFetchBandwidth`
 * slots per cycle. Rejects on aggregate fetch-slot overcommit
 * first, then on any tile whose contended worst-case bound misses
 * its deadline.
 */
AdmissionDecision
admitTiles(const std::vector<TileTimingRequest> &tiles,
           const core::SchedulerConfig &cfg,
           std::size_t sharedFetchBandwidth);

/** @name The timing verifier passes (see verifier.hpp). */
///@{
std::unique_ptr<Pass> makeTimingPass();
std::unique_ptr<Pass> makeContentionPass();
///@}

} // namespace quest::verify

#endif // QUEST_VERIFY_TIMING_HPP
