/**
 * @file
 * TimingOracle implementation + the timing/contention passes.
 *
 * The bound derivation lives in timing.hpp and DESIGN.md §17; this
 * file keeps the closed-form barrier pipeline and the admission
 * check.
 */

#include "timing.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "qecc/protocol.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "tech/parameters.hpp"
#include "verifier.hpp"

namespace quest::verify {

namespace {

/** Bound reported when the grant model starves the tile outright
 *  (zero slots per window). Far above any deadline, well below
 *  overflow when summed with latencies. */
constexpr std::size_t kStarvedCycles =
    std::numeric_limits<std::size_t>::max() / 4;

/** Worst-case cycles to fetch `slots` stream slots from an
 *  arbitrary window phase. */
std::size_t
fetchCycles(std::size_t slots, FetchGrant grant)
{
    if (slots == 0)
        return 0;
    if (grant.slots == 0)
        return kStarvedCycles;
    const std::size_t windows =
        (slots + grant.slots - 1) / grant.slots;
    return windows * grant.cycles;
}

/** Max waveform latency per sub-cycle, 1 for empty sub-cycles
 *  (mirrors TileState::subMaxLat). */
std::vector<std::size_t>
subCycleLatencies(const DependencyOracle &oracle)
{
    std::vector<std::size_t> lat(oracle.depth(), 1);
    for (const MicroOp &uop : oracle.uops())
        lat[uop.subCycle] = std::max(
            lat[uop.subCycle], core::uopLatencyCycles(uop.op));
    return lat;
}

} // namespace

FetchGrant
worstCaseGrant(std::size_t tiles, std::size_t fetchWidth,
               std::size_t bandwidth)
{
    const std::size_t top = std::min(fetchWidth, bandwidth);
    if (tiles <= 1)
        return {top, 1};
    // On its priority cycle the tile drains min(f, B); on each of
    // the other N-1 cycles it still gets whatever the N-1 peers
    // cannot take: min(f, B - (N-1)f) when positive.
    const std::size_t peers = (tiles - 1) * fetchWidth;
    const std::size_t leftover =
        bandwidth > peers
        ? std::min(fetchWidth, bandwidth - peers)
        : 0;
    return {top + (tiles - 1) * leftover, tiles};
}

TimingOracle::TimingOracle(core::SchedulerConfig cfg) : _cfg(cfg)
{
    QUEST_ASSERT(cfg.fetchWidth > 0,
                 "timing oracle fetch width must be positive");
}

/*
 * The barrier pipeline is closed-form. Sub-cycle k fires
 * at c_k with c_0 = F and c_{k+1} = c_k + max(F, L_k): fetching the
 * next sub-cycle's numQubits slots (F cycles) overlaps the current
 * sub-cycle's slowest waveform (L_k cycles), and the barrier
 * releases when both are done. The bound is the completion of the
 * last sub-cycle, c_last + L_last — exact for the uncontended
 * grant, an any-phase worst case under contention.
 */
TimingBound
TimingOracle::bound(const DependencyOracle &oracle,
                    std::size_t rounds, FetchGrant grant) const
{
    QUEST_ASSERT(rounds > 0, "timing bound needs rounds");
    if (grant.slots == 0 && grant.cycles == 1)
        grant = {_cfg.fetchWidth, 1}; // uncontended default
    TimingBound b;
    const std::size_t depth = oracle.depth();
    const std::size_t qubits = oracle.numQubits();
    b.slotsPerRound = depth * qubits;
    b.uopsPerRound = oracle.uops().size();
    if (depth == 0 || qubits == 0)
        return b;

    const std::vector<std::size_t> lat = subCycleLatencies(oracle);
    const std::size_t fetch = fetchCycles(qubits, grant);
    if (fetch >= kStarvedCycles) {
        b.criticalPathCycles = 0;
        b.totalBoundCycles = kStarvedCycles;
        return b;
    }

    std::size_t latSum = 0;       // dataflow-only barrier chain
    std::size_t stepSum = 0;      // per-round sum of max(F, L_k)
    for (const std::size_t l : lat) {
        latSum += l;
        stepSum += std::max(fetch, l);
    }
    b.criticalPathCycles = rounds * latSum;
    const std::size_t last = lat[depth - 1];
    // c_last = F + (rounds * stepSum - max(F, L_last)); the bound
    // adds the last waveform itself.
    b.totalBoundCycles = fetch + rounds * stepSum
        - std::max(fetch, last) + last;
    return b;
}

AdmissionDecision
admitTiles(const std::vector<TileTimingRequest> &tiles,
           const core::SchedulerConfig &cfg,
           std::size_t sharedFetchBandwidth)
{
    AdmissionDecision d;
    d.sharedBandwidth = sharedFetchBandwidth;
    if (tiles.empty()) {
        d.admitted = true;
        return d;
    }
    QUEST_ASSERT(sharedFetchBandwidth > 0,
                 "admitTiles needs fetch bandwidth");

    const TimingOracle oracle(cfg);
    const FetchGrant grant = worstCaseGrant(
        tiles.size(), cfg.fetchWidth, sharedFetchBandwidth);

    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const TileTimingRequest &req = tiles[i];
        QUEST_ASSERT(req.oracle != nullptr,
                     "admitTiles: tile %zu has no oracle", i);
        QUEST_ASSERT(req.deadlineCycles > 0,
                     "admitTiles: tile %zu has no deadline", i);
        const std::size_t slots =
            req.oracle->depth() * req.oracle->numQubits();
        d.aggregateDemand +=
            double(slots) / double(req.deadlineCycles);
        const TimingBound b = oracle.bound(*req.oracle, 1, grant);
        d.tileBoundCycles.push_back(b.totalBoundCycles);
    }

    if (d.aggregateDemand > double(sharedFetchBandwidth)) {
        char msg[128];
        std::snprintf(msg, sizeof(msg),
                      "overcommit: aggregate fetch demand %.3f "
                      "slots/cycle exceeds shared bandwidth %zu",
                      d.aggregateDemand, sharedFetchBandwidth);
        d.reason = msg;
        return d;
    }
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        if (d.tileBoundCycles[i] > tiles[i].deadlineCycles) {
            char msg[160];
            std::snprintf(
                msg, sizeof(msg),
                "starvation: tile %zu worst-case round takes %zu "
                "cycles under contention but its deadline is %zu",
                i, d.tileBoundCycles[i], tiles[i].deadlineCycles);
            d.reason = msg;
            return d;
        }
    }
    d.admitted = true;
    return d;
}

namespace {

/** Syndrome-round deadline in scheduler (JJ clock) cycles. */
std::size_t
deadlineCyclesFor(const qecc::ProtocolSpec &spec,
                  tech::Technology technology)
{
    const double seconds = sim::ticksToSeconds(
        spec.roundDuration(tech::gateLatencies(technology)));
    return std::size_t(seconds * tech::jjClockHz);
}

/**
 * Timing: the static worst-case issue bound must meet the
 * syndrome-cycle deadline. The two bound tiers attribute a miss to
 * its cheapest fix: an infeasible waveform chain (timing.deadline)
 * or a too-narrow fetch width (timing.width_bound).
 */
class TimingPass final : public Pass
{
  public:
    std::string name() const override { return "timing"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.lattice == nullptr || a.spec == nullptr) {
            report.notePass(name());
            return;
        }
        const ExpandedStream stream = expandRam(a.ram);
        const DependencyOracle oracle(*a.lattice, stream.qubits,
                                      stream.subCycles);

        const std::size_t rounds = std::max<std::size_t>(
            1, a.timing.rounds);
        const std::size_t deadline = a.timing.deadlineCycles > 0
            ? a.timing.deadlineCycles
            : deadlineCyclesFor(*a.spec, a.technology);
        const std::size_t budget = deadline * rounds;

        const TimingOracle to(a.timing.sched);
        const TimingBound b = to.bound(oracle, rounds);

        auto &slack = sim::metrics::Registry::global().gauge(
            "verify.timing_slack",
            "deadline headroom (deadline/bound - 1) of the static "
            "worst-case issue bound at the last verify run");
        slack.set(b.totalBoundCycles > 0
                      ? double(budget) / double(b.totalBoundCycles)
                          - 1.0
                      : 0.0);

        if (b.criticalPathCycles > budget) {
            report.error(
                codes::timingDeadline,
                Site{"uop-stream", -1, -1, -1},
                message("dataflow critical path",
                        b.criticalPathCycles, budget, rounds));
        } else if (b.totalBoundCycles > budget) {
            report.error(
                codes::timingWidthBound,
                Site{"uop-stream", -1, -1, -1},
                message("fetch-width bound",
                        b.totalBoundCycles, budget, rounds));
        }
        report.notePass(name());
    }

  private:
    static std::string
    message(const char *tier, std::size_t bound,
            std::size_t budget, std::size_t rounds)
    {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "%s is %zu cycles but the %zu-round "
                      "syndrome deadline allows %zu",
                      tier, bound, rounds, budget);
        return msg;
    }
};

/**
 * Contention: N co-resident copies of this tile contending for the
 * shared fetch slots must all still meet the deadline. Overcommit
 * (aggregate demand exceeds the shared bandwidth outright) and
 * starvation (aggregate fits, but the worst-case arbitration
 * phasing pushes a tile past its deadline) are distinct defects:
 * the first needs fewer tenants, the second a fairer grant or more
 * headroom. A single-tenant tile only feeds the slack gauge — the
 * timing pass already owns the uncontended deadline.
 */
class ContentionPass final : public Pass
{
  public:
    std::string name() const override { return "contention"; }

    void
    run(const TileArtifacts &a, Report &report) const override
    {
        if (a.lattice == nullptr || a.spec == nullptr) {
            report.notePass(name());
            return;
        }
        const std::size_t n = std::max<std::size_t>(
            1, a.timing.contentionTiles);
        const std::size_t bandwidth =
            a.timing.sharedFetchBandwidth > 0
            ? a.timing.sharedFetchBandwidth
            : a.timing.sched.fetchWidth;
        const std::size_t deadline = a.timing.deadlineCycles > 0
            ? a.timing.deadlineCycles
            : deadlineCyclesFor(*a.spec, a.technology);

        const ExpandedStream stream = expandRam(a.ram);
        const DependencyOracle oracle(*a.lattice, stream.qubits,
                                      stream.subCycles);
        const std::size_t slots =
            oracle.depth() * oracle.numQubits();
        const double aggregate = deadline > 0
            ? double(n) * double(slots) / double(deadline)
            : 0.0;

        auto &slack = sim::metrics::Registry::global().gauge(
            "verify.contention_slack",
            "shared fetch-slot headroom (bandwidth/aggregate - 1) "
            "at the last verify run");
        slack.set(aggregate > 0.0
                      ? double(bandwidth) / aggregate - 1.0
                      : 0.0);
        if (n <= 1) {
            report.notePass(name());
            return;
        }

        if (aggregate > double(bandwidth)) {
            char msg[160];
            std::snprintf(
                msg, sizeof(msg),
                "%zu co-resident tiles demand %.3f fetch "
                "slots/cycle but the shared substrate grants %zu",
                n, aggregate, bandwidth);
            report.error(codes::contentionOvercommit,
                         Site{"fetch-arbiter", -1, -1, -1}, msg);
            report.notePass(name());
            return; // starvation is subsumed by overcommit
        }

        const FetchGrant grant =
            worstCaseGrant(n, a.timing.sched.fetchWidth, bandwidth);
        const TimingBound b =
            TimingOracle(a.timing.sched).bound(oracle, 1, grant);
        if (b.totalBoundCycles > deadline) {
            char msg[192];
            std::snprintf(
                msg, sizeof(msg),
                "worst-case round-robin arbitration phasing "
                "stretches a round to %zu cycles against a "
                "%zu-cycle deadline (%zu tiles, bandwidth %zu)",
                b.totalBoundCycles, deadline, n, bandwidth);
            report.error(codes::contentionStarvation,
                         Site{"fetch-arbiter", -1, -1, -1}, msg);
        }
        report.notePass(name());
    }
};

} // namespace

std::unique_ptr<Pass>
makeTimingPass()
{
    return std::make_unique<TimingPass>();
}

std::unique_ptr<Pass>
makeContentionPass()
{
    return std::make_unique<ContentionPass>();
}

} // namespace quest::verify
