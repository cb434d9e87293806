#include "scheduler.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace quest::core {

using verify::DependencyOracle;
using verify::MicroOp;

std::size_t
uopLatencyCycles(isa::PhysOpcode op)
{
    using isa::PhysOpcode;
    switch (op) {
      case PhysOpcode::MeasZ:
      case PhysOpcode::MeasX:
        return 4;
      case PhysOpcode::CnotN:
      case PhysOpcode::CnotE:
      case PhysOpcode::CnotS:
      case PhysOpcode::CnotW:
      case PhysOpcode::CnotTargetN:
      case PhysOpcode::CnotTargetE:
      case PhysOpcode::CnotTargetS:
      case PhysOpcode::CnotTargetW:
        return 2;
      default:
        return 1;
    }
}

namespace {

/** Safety cap on simulated arbitration cycles: no tile program
 *  legitimately needs this long. */
constexpr std::uint64_t kMaxSimCycles = 50'000'000;

/** One tile's pipeline state inside the arbitration loop. */
struct TileState
{
    const DependencyOracle *oracle = nullptr;
    bool active = false;
    std::size_t rounds = 1;

    std::size_t numUops = 0; ///< per round
    std::size_t totalSubCycles = 0;
    std::size_t totalSlots = 0;
    std::size_t totalUops = 0;

    /** Per-sub-cycle uop seqs and max waveform latency. */
    std::vector<std::vector<std::uint32_t>> subUops;
    std::vector<std::size_t> subMaxLat;

    std::size_t fetchSlot = 0;    ///< stream slots fetched so far
    std::size_t subIdx = 0;       ///< sub-cycle being fetched
    std::size_t subSlotsLeft = 0; ///< slots left to fetch in subIdx
    std::uint64_t execDone = 0;   ///< barrier release cycle
    std::uint64_t maxCompletion = 0;
    std::size_t issuedCount = 0;

    TileSchedule out;

    bool
    finished() const
    {
        if (!active)
            return true;
        return issuedCount == totalUops && fetchSlot == totalSlots;
    }
};

void
initTile(TileState &t)
{
    const DependencyOracle &oracle = *t.oracle;
    t.numUops = oracle.uops().size();
    t.totalSubCycles = oracle.depth() * t.rounds;
    t.totalSlots = oracle.depth() * oracle.numQubits() * t.rounds;
    t.totalUops = t.numUops * t.rounds;

    t.subUops.assign(oracle.depth(), {});
    t.subMaxLat.assign(oracle.depth(), 1);
    for (const MicroOp &uop : oracle.uops()) {
        t.subUops[uop.subCycle].push_back(uop.seq);
        t.subMaxLat[uop.subCycle] =
            std::max(t.subMaxLat[uop.subCycle],
                     uopLatencyCycles(uop.op));
    }
    t.subSlotsLeft = oracle.depth() > 0 ? oracle.numQubits() : 0;
}

/**
 * Fire phase: when the current sub-cycle is fully fetched and the
 * previous one's slowest waveform has played, fire the master clock
 * for every uop in it at once.
 */
void
firePhase(TileState &t, std::uint64_t cycle)
{
    if (t.subIdx >= t.totalSubCycles || t.subSlotsLeft != 0)
        return;
    if (cycle < t.execDone) {
        ++t.out.stalls.data; // barrier convoy behind the slow waveform
        return;
    }
    const std::size_t local = t.subIdx % t.oracle->depth();
    const std::size_t base = t.subIdx / t.oracle->depth() * t.numUops;
    if (!t.subUops[local].empty()) {
        if (t.out.cycles.size() <= cycle)
            t.out.cycles.resize(cycle + 1);
        for (const std::uint32_t seq : t.subUops[local])
            t.out.cycles[cycle].push_back(std::uint32_t(base + seq));
        t.issuedCount += t.subUops[local].size();
        t.out.issued += t.subUops[local].size();
    }
    const std::uint64_t completes = cycle + t.subMaxLat[local];
    t.maxCompletion = std::max(t.maxCompletion, completes);
    t.execDone = completes;
    ++t.subIdx;
    if (t.subIdx < t.totalSubCycles)
        t.subSlotsLeft = t.oracle->numQubits();
}

} // namespace

DynamicScheduler::DynamicScheduler(const SchedulerConfig &cfg)
    : _cfg(cfg),
      _mPlans(sim::metrics::Registry::global().counter(
          "sched.plans", "issue schedules planned")),
      _mIssued(sim::metrics::Registry::global().counter(
          "sched.issued", "uops issued by planned schedules")),
      _mCycles(sim::metrics::Registry::global().counter(
          "sched.cycles", "pipeline cycles simulated by planned "
                          "schedules")),
      _mStallData(sim::metrics::Registry::global().counter(
          "sched.stall.data",
          "stall cycles: in-order barrier behind the slowest "
          "waveform")),
      _mStallBandwidth(sim::metrics::Registry::global().counter(
          "sched.stall.bandwidth",
          "stall cycles: fetch demanded, arbiter granted "
          "nothing"))
{
    QUEST_ASSERT(cfg.fetchWidth > 0, "fetch width must be positive");
}

void
DynamicScheduler::record(const ArbitrationResult &plan) const
{
    for (const TileSchedule &tile : plan.tiles) {
        ++_mPlans;
        _mIssued += tile.issued;
        _mCycles += tile.cycles.size();
        _mStallData += tile.stalls.data;
        _mStallBandwidth += tile.stalls.bandwidthWait;
    }
}

TileSchedule
DynamicScheduler::schedule(const DependencyOracle &oracle,
                           std::size_t rounds) const
{
    ArbitrationResult r =
        arbitrate({&oracle}, {1}, _cfg.fetchWidth, rounds);
    return std::move(r.tiles.at(0));
}

ArbitrationResult
DynamicScheduler::arbitrate(
    const std::vector<const DependencyOracle *> &tiles,
    const std::vector<std::uint8_t> &active,
    std::size_t shared_bandwidth, std::size_t rounds) const
{
    QUEST_ASSERT(tiles.size() == active.size(),
                 "arbitrate: %zu tiles, %zu active flags",
                 tiles.size(), active.size());
    QUEST_ASSERT(shared_bandwidth > 0,
                 "arbitrate needs fetch bandwidth");
    QUEST_ASSERT(rounds > 0, "arbitrate needs rounds");

    std::vector<TileState> states(tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        TileState &t = states[i];
        t.oracle = tiles[i];
        t.active = active[i] != 0 && tiles[i] != nullptr;
        t.rounds = rounds;
        if (t.active)
            initTile(t);
    }

    ArbitrationResult result;
    std::vector<std::size_t> order(states.size());
    std::uint64_t cycle = 0;
    for (;; ++cycle) {
        bool all_done = true;
        for (const TileState &t : states)
            all_done = all_done && t.finished();
        if (all_done)
            break;
        QUEST_ASSERT(cycle < kMaxSimCycles,
                     "arbitration did not converge (livelock?)");

        // Grant order: rotating priority, one step per cycle.
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::rotate(order.begin(),
                    order.begin()
                        + std::ptrdiff_t(cycle % order.size()),
                    order.end());

        std::size_t bw_left = shared_bandwidth;
        for (const std::size_t i : order) {
            TileState &t = states[i];
            if (!t.active || t.finished())
                continue;

            firePhase(t, cycle);

            // Fetch phase: every slot — Nops included — costs
            // bandwidth (the stream visits each qubit each
            // sub-cycle).
            if (t.subSlotsLeft > 0) {
                const std::size_t want = std::min(
                    {_cfg.fetchWidth, bw_left, t.subSlotsLeft});
                if (want == 0)
                    ++t.out.stalls.bandwidthWait;
                t.subSlotsLeft -= want;
                t.fetchSlot += want;
                t.out.slotsFetched += want;
                bw_left -= want;
                result.slotsGranted += want;
            }
        }
    }

    result.tiles.reserve(states.size());
    for (TileState &t : states) {
        t.out.makespanCycles = std::size_t(t.maxCompletion);
        result.makespanCycles =
            std::max(result.makespanCycles, t.out.makespanCycles);
        result.tiles.push_back(std::move(t.out));
    }
    record(result);
    return result;
}

} // namespace quest::core
