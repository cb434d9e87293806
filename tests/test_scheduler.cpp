/**
 * @file
 * Tests of the in-order pipeline model and the multi-tile arbiter.
 *
 * The contract under test: the scheduler is a *timing* model only.
 * Its plans fire every uop exactly once, after its producers'
 * waveforms, one sub-cycle per barrier in program order; and turning
 * the master's arbiter on never perturbs an architectural
 * observable. The harness attacks that from three directions:
 *
 *  1. unit tests of the latency model, the barrier's closed-form
 *     makespan and the sched.* metrics;
 *  2. a seeded random-microcode-program generator (constrained to
 *     pass `quest verify`) whose programs are planned and checked
 *     for structural soundness (coverage, dependency ordering,
 *     operand disjointness, barrier shape) plus functional
 *     equivalence under a Pauli-frame interpreter;
 *  3. master-controller runs with the arbiter on and off, and the
 *     memoized arbitration plan against fresh arbitration.
 *
 * The hazard oracle is additionally cross-checked against the static
 * verifier on hand-corrupted programs, pinning the shared-analysis
 * refactor (verify::DependencyOracle) to the PR-5 diagnostics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <vector>

#include "core/master_controller.hpp"
#include "core/mce.hpp"
#include "core/scheduler.hpp"
#include "core/system.hpp"
#include "decode/streaming.hpp"
#include "isa/trace.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"
#include "verify/dependency.hpp"
#include "verify/diagnostics.hpp"
#include "verify/verifier.hpp"

#include "random_program.hpp"

namespace {

using namespace quest;
using core::ArbiterPolicy;
using core::ArbitrationResult;
using core::DynamicScheduler;
using core::Mce;
using core::MceConfig;
using core::SchedulerConfig;
using core::TileSchedule;
using isa::PhysOpcode;
using qecc::Coord;
using qecc::Direction;
using qecc::Lattice;
using qecc::SiteType;
using verify::DependencyOracle;
using verify::MicroOp;

// ---------------------------------------------------------------------------
// Latency model
// ---------------------------------------------------------------------------

TEST(UopLatency, MeasurementIsTheLongPole)
{
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::MeasZ), 4u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::MeasX), 4u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::CnotN), 2u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::CnotTargetW), 2u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::PrepZ), 1u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::Hadamard), 1u);
    EXPECT_EQ(core::uopLatencyCycles(PhysOpcode::Nop), 1u);
}

// ---------------------------------------------------------------------------
// Seeded random-microcode-program generator
// ---------------------------------------------------------------------------

// RandomProgram / makeRandomProgram / artifactsFor moved to
// tests/random_program.hpp so the timing-oracle soundness fuzz
// (tests/test_timing.cpp) runs over the identical corpus.
using testutil::RandomProgram;
using testutil::artifactsFor;
using testutil::makeRandomProgram;

TEST(RandomProgramGenerator, ProgramsPassTheStaticVerifier)
{
    // Full five-pass verification on a sample; the whole fuzz corpus
    // is oracle-checked in the plan battery below.
    const verify::Verifier verifier;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const verify::Report report = verifier.run(artifactsFor(p));
        EXPECT_TRUE(report.ok())
            << "seed " << seed << ": " << report.toString();
    }
}

// ---------------------------------------------------------------------------
// Hazard oracle vs the static pass, on corrupted programs
// ---------------------------------------------------------------------------

/** Hazard diagnostics the static verifier reports for a stream. */
std::size_t
verifierCount(const RandomProgram &p, const char *code)
{
    const verify::Verifier verifier;
    return verifier.run(artifactsFor(p)).countCode(code);
}

std::size_t
oracleCount(const DependencyOracle &oracle, const char *code)
{
    std::size_t c = 0;
    for (const auto &h : oracle.hazards())
        c += std::string_view(h.code) == code ? 1 : 0;
    return c;
}

TEST(HazardOracle, CorruptionsMatchTheStaticPassExactly)
{
    RandomProgram p = makeRandomProgram(3);
    const Lattice &lat = *p.lattice;
    const std::size_t n = p.qubits();

    // Find an interior ancilla and its data partners.
    std::size_t anc = n;
    for (std::size_t q = 0; q < n; ++q) {
        const Coord c = lat.coord(q);
        if (lat.isAncilla(c) && c.row > 0 && c.col > 0
            && c.row + 1 < int(lat.rows())
            && c.col + 1 < int(lat.cols())) {
            anc = q;
            break;
        }
    }
    ASSERT_LT(anc, n);
    const Coord ac = lat.coord(anc);

    // 1. Measure without preparation.
    p.subCycles[0][anc] = PhysOpcode::Nop;
    p.subCycles.back()[anc] = PhysOpcode::MeasZ;
    // 2. Interaction after the measurement.
    std::vector<PhysOpcode> late(n, PhysOpcode::Nop);
    late[anc] = lat.siteType(ac) == SiteType::XAncilla
        ? qecc::cnotOpcode(Direction::North)
        : qecc::cnotTargetOpcode(Direction::North);
    p.subCycles.push_back(late);

    // 3. Two-qubit aliasing: two ancillas flanking one data qubit
    //    both claim it within a fresh sub-cycle.
    std::vector<PhysOpcode> alias(n, PhysOpcode::Nop);
    bool aliased = false;
    for (std::size_t q = 0; q < n && !aliased; ++q) {
        const Coord c = lat.coord(q);
        if (!lat.isData(c))
            continue;
        std::vector<std::pair<std::size_t, Direction>> flank;
        for (const Direction dir : qecc::allDirections)
            if (auto nb = lat.neighbour(c, dir);
                nb && lat.isAncilla(*nb))
                flank.emplace_back(lat.index(*nb), dir);
        if (flank.size() < 2)
            continue;
        for (std::size_t k = 0; k < 2; ++k) {
            const auto [aq, dir_to_anc] = flank[k];
            // The ancilla's uop points back at the data qubit.
            const Direction back = static_cast<Direction>(
                (std::size_t(dir_to_anc) + 2) % 4);
            alias[aq] =
                lat.siteType(lat.coord(aq)) == SiteType::XAncilla
                ? qecc::cnotOpcode(back)
                : qecc::cnotTargetOpcode(back);
        }
        aliased = true;
    }
    ASSERT_TRUE(aliased);
    p.subCycles.push_back(alias);

    const DependencyOracle oracle(lat, n, p.subCycles);
    EXPECT_FALSE(oracle.clean());

    // The static pass *is* the oracle now; lock the contract with an
    // exact per-code comparison through the full verifier.
    for (const char *code :
         {verify::codes::readBeforeReset,
          verify::codes::measBeforeInteraction,
          verify::codes::aliasing, verify::codes::partner}) {
        EXPECT_EQ(oracleCount(oracle, code), verifierCount(p, code))
            << code;
    }
    EXPECT_GT(oracleCount(oracle, verify::codes::readBeforeReset),
              0u);
    EXPECT_GT(
        oracleCount(oracle, verify::codes::measBeforeInteraction),
        0u);
    EXPECT_GT(oracleCount(oracle, verify::codes::aliasing), 0u);
}

TEST(HazardOracle, OffLatticePartnerIsRecorded)
{
    const Lattice lat(5, 5);
    const std::size_t n = lat.numQubits();
    // An edge ancilla pointing off the lattice.
    std::size_t edge = n;
    for (std::size_t q = 0; q < n; ++q)
        if (lat.isAncilla(lat.coord(q)) && lat.coord(q).row == 0) {
            edge = q;
            break;
        }
    ASSERT_LT(edge, n);
    std::vector<std::vector<PhysOpcode>> stream(
        1, std::vector<PhysOpcode>(n, PhysOpcode::Nop));
    stream[0][edge] = qecc::cnotOpcode(Direction::North);
    const DependencyOracle oracle(lat, n, stream);
    EXPECT_EQ(oracleCount(oracle, verify::codes::partner), 1u);
    // The uop is still tracked (it fires, latching its own slot).
    ASSERT_EQ(oracle.uops().size(), 1u);
    EXPECT_FALSE(oracle.uops()[0].hasPartner());
}

// ---------------------------------------------------------------------------
// Issue-plan structural properties + Pauli-frame reorder equivalence
// ---------------------------------------------------------------------------

/** Issue cycle of every uop id in a plan (asserts full coverage). */
std::map<std::uint32_t, std::size_t>
issueCycles(const DependencyOracle &oracle, const TileSchedule &plan,
            std::size_t rounds)
{
    std::map<std::uint32_t, std::size_t> at;
    for (std::size_t c = 0; c < plan.cycles.size(); ++c)
        for (const std::uint32_t id : plan.cycles[c])
            EXPECT_TRUE(at.emplace(id, c).second)
                << "uop " << id << " issued twice";
    EXPECT_EQ(at.size(), oracle.uops().size() * rounds);
    EXPECT_EQ(plan.issued, at.size());
    return at;
}

/** Global producer ids of a uop, including cross-round stitching —
 *  an independent reimplementation of the scheduler's edge rule. */
std::vector<std::uint32_t>
globalProducers(const DependencyOracle &oracle, std::uint32_t id)
{
    const std::size_t u = oracle.uops().size();
    const std::size_t r = id / u;
    const MicroOp &uop = oracle.uops()[id % u];
    std::set<std::uint32_t> out;
    const auto add = [&](std::int32_t prev, std::size_t qubit) {
        if (prev >= 0)
            out.insert(std::uint32_t(r * u + std::size_t(prev)));
        else if (r > 0)
            out.insert(std::uint32_t(
                (r - 1) * u
                + std::size_t(oracle.lastTouch(qubit))));
    };
    add(uop.prevOnQubit, uop.qubit);
    if (uop.hasPartner())
        add(uop.prevOnPartner, std::size_t(uop.partner));
    return {out.begin(), out.end()};
}

void
checkPlanSoundness(const DependencyOracle &oracle,
                   const TileSchedule &plan, std::size_t rounds)
{
    const auto at = issueCycles(oracle, plan, rounds);
    const std::size_t u = oracle.uops().size();

    for (const auto &[id, cycle] : at) {
        // Dependency ordering: a uop issues only after every
        // producer's waveform has completed.
        for (const std::uint32_t prod :
             globalProducers(oracle, id)) {
            const std::size_t lat = core::uopLatencyCycles(
                oracle.uops()[prod % u].op);
            EXPECT_GE(cycle, at.at(prod) + lat)
                << "uop " << id << " issued before producer " << prod
                << " completed";
        }
    }

    // Operand disjointness: no two uops issued in the same cycle
    // touch the same qubit (same master-clock firing).
    for (const auto &issue_cycle : plan.cycles) {
        std::set<std::uint32_t> touched;
        for (const std::uint32_t id : issue_cycle) {
            const MicroOp &uop = oracle.uops()[id % u];
            EXPECT_TRUE(touched.insert(uop.qubit).second);
            if (uop.hasPartner()) {
                EXPECT_TRUE(
                    touched.insert(std::uint32_t(uop.partner))
                        .second);
            }
        }
    }

    // Barrier shape: all uops of one (round, sub-cycle) fire in one
    // cycle, and the barrier order is program order.
    std::map<std::pair<std::size_t, std::uint32_t>,
             std::set<std::size_t>>
        perSub;
    for (const auto &[id, cycle] : at)
        perSub[{id / u, oracle.uops()[id % u].subCycle}].insert(cycle);
    std::size_t prev_cycle = 0;
    bool first = true;
    for (const auto &[key, cycles] : perSub) {
        EXPECT_EQ(cycles.size(), 1u)
            << "sub-cycle split across issue cycles";
        if (!first) {
            EXPECT_GT(*cycles.begin(), prev_cycle);
        }
        prev_cycle = *cycles.begin();
        first = false;
    }
}

/** Apply one uop to a Pauli frame; measurements are recorded under a
 *  stable (round, qubit) key so order of execution cannot hide a
 *  reordering bug. */
void
applyUop(const MicroOp &uop, std::size_t round,
         quantum::PauliFrame &frame,
         std::map<std::pair<std::size_t, std::uint32_t>, int> &meas)
{
    switch (uop.op) {
      case PhysOpcode::PrepZ:
      case PhysOpcode::PrepX:
        frame.reset(uop.qubit);
        break;
      case PhysOpcode::Hadamard:
        frame.h(uop.qubit);
        break;
      case PhysOpcode::Phase:
        frame.s(uop.qubit);
        break;
      case PhysOpcode::MeasZ:
        meas[{round, uop.qubit}] = frame.xError(uop.qubit) ? 1 : 0;
        break;
      case PhysOpcode::MeasX:
        meas[{round, uop.qubit}] = frame.zError(uop.qubit) ? 1 : 0;
        break;
      default:
        if (isa::isTwoQubit(uop.op) && uop.hasPartner()) {
            const auto partner = std::size_t(uop.partner);
            if (qecc::cnotTargetOpcode(
                    qecc::cnotDirection(uop.op))
                == uop.op)
                frame.cnot(partner, uop.qubit);
            else
                frame.cnot(uop.qubit, partner);
        }
        break;
    }
}

/**
 * The fuzz core: 200 seeded random programs, single- and
 * multi-round plans. Structural soundness plus functional
 * equivalence — executing the uops *in issue order* on a Pauli
 * frame seeded with random errors must reproduce the program-order
 * frame and measurement record bit for bit.
 */
TEST(SchedulerFuzz, TwoHundredRandomProgramsReplayEquivalently)
{
    const DynamicScheduler sched(SchedulerConfig{});
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle oracle(*p.lattice, p.qubits(),
                                      p.subCycles);
        ASSERT_TRUE(oracle.clean()) << "seed " << seed;

        const std::size_t rounds = 1 + seed % 3;
        const TileSchedule plan = sched.schedule(oracle, rounds);
        checkPlanSoundness(oracle, plan, rounds);

        // Functional equivalence of the issue order.
        sim::Rng noise(sim::Rng::deriveSeed(0xFA11u, seed));
        quantum::PauliFrame ref(p.qubits());
        quantum::PauliFrame got(p.qubits());
        for (std::size_t q = 0; q < p.qubits(); ++q)
            if (noise.bernoulli(0.2)) {
                const auto pauli =
                    static_cast<quantum::Pauli>(1 + noise.uniformInt(3));
                ref.inject(q, pauli);
                got.inject(q, pauli);
            }

        std::map<std::pair<std::size_t, std::uint32_t>, int> refMeas,
            gotMeas;
        const std::size_t u = oracle.uops().size();
        for (std::size_t r = 0; r < rounds; ++r)
            for (const MicroOp &uop : oracle.uops())
                applyUop(uop, r, ref, refMeas);
        for (const auto &issue_cycle : plan.cycles)
            for (const std::uint32_t id : issue_cycle)
                applyUop(oracle.uops()[id % u], id / u, got, gotMeas);

        EXPECT_EQ(refMeas, gotMeas) << "seed " << seed;
        for (std::size_t q = 0; q < p.qubits(); ++q) {
            ASSERT_EQ(ref.xError(q), got.xError(q))
                << "seed " << seed << " qubit " << q;
            ASSERT_EQ(ref.zError(q), got.zError(q))
                << "seed " << seed << " qubit " << q;
        }
    }
}

TEST(SchedulerPlan, DeterministicAcrossInstances)
{
    const RandomProgram p = makeRandomProgram(17);
    const DependencyOracle oracle(*p.lattice, p.qubits(),
                                  p.subCycles);
    const DynamicScheduler a{SchedulerConfig{}};
    const DynamicScheduler b{SchedulerConfig{}};
    const TileSchedule pa = a.schedule(oracle, 2);
    const TileSchedule pb = b.schedule(oracle, 2);
    EXPECT_EQ(pa.cycles, pb.cycles);
    EXPECT_EQ(pa.makespanCycles, pb.makespanCycles);
    EXPECT_EQ(pa.stalls.total(), pb.stalls.total());
}

/** The barrier pipeline of one tile fed at its full fetch width,
 *  in closed form: each sub-cycle takes F = ceil(qubits / width)
 *  cycles to fetch, the first fires at cycle F, and each later one
 *  fires max(F, slowest waveform of its predecessor) cycles after
 *  it. The barrier stalls for whatever of that waveform outlasts the
 *  fetch. */
struct BarrierForm
{
    std::size_t makespan = 0;
    std::uint64_t dataStalls = 0;
};

BarrierForm
barrierClosedForm(const DependencyOracle &oracle, std::size_t width,
                  std::size_t rounds)
{
    const std::size_t depth = oracle.depth();
    std::vector<std::size_t> lat(depth, 1);
    for (const MicroOp &uop : oracle.uops())
        lat[uop.subCycle] =
            std::max(lat[uop.subCycle],
                     core::uopLatencyCycles(uop.op));
    const std::size_t fetch = (oracle.numQubits() + width - 1) / width;
    BarrierForm f;
    std::size_t fire = fetch;
    for (std::size_t k = 1; k < depth * rounds; ++k) {
        const std::size_t prev = lat[(k - 1) % depth];
        fire += std::max(fetch, prev);
        f.dataStalls += prev > fetch ? prev - fetch : 0;
    }
    f.makespan = fire + lat[(depth * rounds - 1) % depth];
    return f;
}

TEST(SchedulerPlan, MakespanMatchesTheBarrierClosedForm)
{
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const RandomProgram p = makeRandomProgram(seed);
        const DependencyOracle oracle(*p.lattice, p.qubits(),
                                      p.subCycles);
        ASSERT_GT(oracle.depth(), 0u);
        for (const std::size_t width : {1u, 2u, 4u, 8u, 64u}) {
            SchedulerConfig cfg;
            cfg.fetchWidth = width;
            const DynamicScheduler sched(cfg);
            const std::size_t rounds = 1 + seed % 3;
            const TileSchedule plan = sched.schedule(oracle, rounds);
            const BarrierForm want =
                barrierClosedForm(oracle, width, rounds);
            EXPECT_EQ(plan.makespanCycles, want.makespan)
                << "seed " << seed << " width " << width;
            EXPECT_EQ(plan.stalls.data, want.dataStalls)
                << "seed " << seed << " width " << width;
        }
    }
}

TEST(SchedulerPlan, SingleTileStallsOnlyAtTheBarrier)
{
    // Fed at its own fetch width, a lone tile is never denied a
    // slot; the structural stall classes of the deleted issue queue
    // stay 0; and the stream visits every qubit every sub-cycle.
    SchedulerConfig cfg;
    cfg.fetchWidth = 32; // latency-bound: the barrier must stall
    const DynamicScheduler sched(cfg);
    MceConfig mcfg;
    mcfg.distance = 3;
    Mce mce("t", mcfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const TileSchedule plan = sched.schedule(oracle, 3);
    EXPECT_GT(plan.stalls.data, 0u);
    EXPECT_EQ(plan.stalls.bandwidthWait, 0u);
    EXPECT_EQ(plan.stalls.queueFull, 0u);
    EXPECT_EQ(plan.stalls.fetchStarved, 0u);
    EXPECT_EQ(plan.stalls.total(), plan.stalls.data);
    EXPECT_EQ(plan.slotsFetched,
              oracle.depth() * oracle.numQubits() * 3);
    EXPECT_EQ(plan.issued, oracle.uops().size() * 3);
}

TEST(SchedulerPlan, WiderFetchIsNeverSlower)
{
    for (const std::size_t d : {3u, 5u}) {
        MceConfig mcfg;
        mcfg.distance = d;
        Mce mce("t", mcfg);
        const DependencyOracle &oracle = mce.dependencyOracle();
        std::size_t prev_makespan = 0;
        std::size_t prev_issued = 0;
        for (const std::size_t width : {64u, 16u, 8u, 4u, 2u, 1u}) {
            SchedulerConfig cfg;
            cfg.fetchWidth = width;
            const TileSchedule plan =
                DynamicScheduler(cfg).schedule(oracle, 2);
            if (prev_makespan != 0) {
                EXPECT_GE(plan.makespanCycles, prev_makespan)
                    << "d=" << d << " width " << width;
                EXPECT_EQ(plan.issued, prev_issued);
            }
            prev_makespan = plan.makespanCycles;
            prev_issued = plan.issued;
        }
    }
}

TEST(SchedulerPlan, RoundsComposeLinearly)
{
    // The barrier carries nothing across a round boundary but the
    // last sub-cycle's waveform, so each further round of the same
    // program costs the same number of cycles.
    MceConfig mcfg;
    mcfg.distance = 3;
    Mce mce("t", mcfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    for (const std::size_t width : {4u, 32u}) {
        SchedulerConfig cfg;
        cfg.fetchWidth = width;
        const DynamicScheduler sched(cfg);
        const std::size_t one = sched.schedule(oracle, 1).makespanCycles;
        const std::size_t two = sched.schedule(oracle, 2).makespanCycles;
        ASSERT_GT(two, one);
        for (std::size_t r = 3; r <= 5; ++r) {
            const TileSchedule plan = sched.schedule(oracle, r);
            EXPECT_EQ(plan.makespanCycles, one + (r - 1) * (two - one))
                << "width " << width << " rounds " << r;
            EXPECT_EQ(plan.issued, oracle.uops().size() * r);
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-tile arbitration
// ---------------------------------------------------------------------------

TEST(Arbiter, ConservesBandwidthAndCoversEveryTile)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});

    const std::vector<const DependencyOracle *> tiles(4, &oracle);
    const std::vector<std::uint8_t> active(4, 1);
    const ArbitrationResult r = sched.arbitrate(tiles, active, 8, 2);
    ASSERT_EQ(r.tiles.size(), 4u);
    const std::size_t slots_per_tile =
        oracle.depth() * oracle.numQubits() * 2;
    std::uint64_t fetched = 0;
    for (const TileSchedule &t : r.tiles) {
        EXPECT_EQ(t.issued, oracle.uops().size() * 2);
        EXPECT_EQ(t.slotsFetched, slots_per_tile);
        EXPECT_LE(t.makespanCycles, r.makespanCycles);
        fetched += t.slotsFetched;
    }
    EXPECT_EQ(r.slotsGranted, fetched);
}

TEST(Arbiter, HungTileDemandsNothing)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(3, &oracle);
    const ArbitrationResult r = sched.arbitrate(tiles, {1, 0, 1}, 4);
    EXPECT_GT(r.tiles[0].issued, 0u);
    EXPECT_EQ(r.tiles[1].issued, 0u);
    EXPECT_EQ(r.tiles[1].slotsFetched, 0u);
    EXPECT_GT(r.tiles[2].issued, 0u);
}

TEST(Arbiter, ContentionStretchesMakespanAndRecordsWaits)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(4, &oracle);
    const std::vector<std::uint8_t> active(4, 1);

    const auto starved = sched.arbitrate(tiles, active, 4);
    const auto fed = sched.arbitrate(tiles, active, 16);
    EXPECT_GT(starved.makespanCycles, fed.makespanCycles);
    std::uint64_t waits = 0;
    for (const TileSchedule &t : starved.tiles)
        waits += t.stalls.bandwidthWait;
    EXPECT_GT(waits, 0u);
}

void
expectSamePlan(const ArbitrationResult &got,
               const ArbitrationResult &want)
{
    EXPECT_EQ(got.makespanCycles, want.makespanCycles);
    EXPECT_EQ(got.slotsGranted, want.slotsGranted);
    ASSERT_EQ(got.tiles.size(), want.tiles.size());
    for (std::size_t i = 0; i < want.tiles.size(); ++i) {
        SCOPED_TRACE("tile " + std::to_string(i));
        const TileSchedule &g = got.tiles[i];
        const TileSchedule &w = want.tiles[i];
        EXPECT_EQ(g.cycles, w.cycles);
        EXPECT_EQ(g.stalls.data, w.stalls.data);
        EXPECT_EQ(g.stalls.bandwidthWait, w.stalls.bandwidthWait);
        EXPECT_EQ(g.makespanCycles, w.makespanCycles);
        EXPECT_EQ(g.issued, w.issued);
        EXPECT_EQ(g.slotsFetched, w.slotsFetched);
    }
}

TEST(Arbiter, SingleTileAtItsFetchWidthIsTheSchedule)
{
    const RandomProgram p = makeRandomProgram(5);
    const DependencyOracle oracle(*p.lattice, p.qubits(),
                                  p.subCycles);
    const DynamicScheduler sched(SchedulerConfig{});
    const TileSchedule plan = sched.schedule(oracle, 2);
    ArbitrationResult want;
    want.tiles.push_back(plan);
    want.makespanCycles = plan.makespanCycles;
    want.slotsGranted = plan.slotsFetched;
    expectSamePlan(
        sched.arbitrate({&oracle}, {1}, sched.config().fetchWidth, 2),
        want);
}

TEST(Arbiter, BandwidthBeyondDemandChangesNothing)
{
    // With a budget that covers every tile's full fetch width, no
    // tile waits on another: each plan is its single-tile schedule.
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(3, &oracle);
    const std::vector<std::uint8_t> active(3, 1);
    const std::size_t demand = 3 * sched.config().fetchWidth;
    const ArbitrationResult exact = sched.arbitrate(tiles, active, demand);
    expectSamePlan(sched.arbitrate(tiles, active, 100 * demand), exact);
    const TileSchedule alone = sched.schedule(oracle);
    for (const TileSchedule &t : exact.tiles) {
        EXPECT_EQ(t.cycles, alone.cycles);
        EXPECT_EQ(t.makespanCycles, alone.makespanCycles);
        EXPECT_EQ(t.stalls.bandwidthWait, 0u);
    }
}

TEST(Arbiter, QuestbenchOverloadForwardsModeAndPolicy)
{
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(2, &oracle);
    expectSamePlan(
        sched.arbitrate(tiles, {1, 1}, core::SchedulingMode::InOrder,
                        4, ArbiterPolicy::RoundRobin, 2),
        sched.arbitrate(tiles, {1, 1}, 4, 2));
}

TEST(Arbiter, RotatingPriorityServesIdenticalTilesEvenly)
{
    // Under contention identical tiles split the budget: none is
    // starved, and the rotation keeps their finishing times within
    // one grant rotation (one fetch burst per tile) of each other.
    MceConfig cfg;
    cfg.distance = 3;
    Mce mce("t", cfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    constexpr std::size_t n = 4;
    const std::vector<const DependencyOracle *> tiles(n, &oracle);
    const ArbitrationResult r = sched.arbitrate(
        tiles, std::vector<std::uint8_t>(n, 1),
        sched.config().fetchWidth, 2);
    std::size_t lo = r.makespanCycles;
    std::size_t hi = 0;
    for (const TileSchedule &t : r.tiles) {
        EXPECT_EQ(t.issued, oracle.uops().size() * 2);
        EXPECT_GT(t.stalls.bandwidthWait, 0u);
        lo = std::min(lo, t.makespanCycles);
        hi = std::max(hi, t.makespanCycles);
    }
    EXPECT_LE(hi - lo, n);
}

// ---------------------------------------------------------------------------
// The arbiter is observational only
// ---------------------------------------------------------------------------

/** FNV-1a over the architectural observables of a master run. */
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

    void
    mixFrame(const quantum::PauliFrame &f)
    {
        for (std::size_t q = 0; q < f.numQubits(); ++q)
            mix((f.xError(q) ? 1u : 0u) | (f.zError(q) ? 2u : 0u));
    }
};

TEST(ReplayEquivalence, MasterControllerObservablesMatch)
{
    const auto run = [](std::size_t shared_bw) {
        core::MasterConfig cfg;
        cfg.numMces = 2;
        cfg.mce.distance = 3;
        cfg.mce.errorRates = quantum::ErrorRates::uniform(1e-3);
        cfg.mce.seed = 7;
        cfg.sharedFetchBandwidth = shared_bw;
        core::MasterController master(cfg);
        master.runRounds(9);
        master.decodeNow();
        Digest d;
        for (std::size_t i = 0; i < master.numMces(); ++i) {
            d.mixFrame(master.mce(i).frame());
            d.mixFrame(master.mce(i).correctionLedger());
            d.mix(master.mce(i).residualErrorWeight());
            d.mix(std::uint64_t(
                master.mce(i).qeccUopsIssued()));
        }
        d.mix(std::uint64_t(master.busBytesSyndrome()));
        d.mix(std::uint64_t(master.busBytesCorrections()));
        d.mix(std::uint64_t(master.totalBusBytes()));
        return d.h;
    };

    // The bandwidth arbiter is observational only: turning it on
    // must not perturb a single architectural byte.
    EXPECT_EQ(run(8), run(0));
}

// ---------------------------------------------------------------------------
// Master-controller edge paths under the arbiter
// ---------------------------------------------------------------------------

core::MasterConfig
arbitratedMaster(std::size_t mces, std::size_t shared_bw)
{
    core::MasterConfig cfg;
    cfg.numMces = mces;
    cfg.mce.distance = 3;
    cfg.sharedFetchBandwidth = shared_bw;
    return cfg;
}

TEST(ArbiterIntegration, HungTileRunsNoRoundsAndDemandsNoBandwidth)
{
    core::MasterConfig cfg = arbitratedMaster(3, 4);
    core::MasterController master(cfg);
    master.mce(1).wedge();

    master.runRounds(5);

    // The roundsRun guard: a wedged tile idles while its peers
    // advance, and the round counter never counts idle laps.
    EXPECT_EQ(master.mce(1).roundsRun(), 0u);
    EXPECT_EQ(master.mce(0).roundsRun(), 5u);
    EXPECT_EQ(master.roundsRun(), 5u);

    // ...and the arbiter granted it nothing: the shared budget
    // flows entirely to the live tiles.
    const ArbitrationResult &arb = master.lastArbitration();
    ASSERT_EQ(arb.tiles.size(), 3u);
    EXPECT_EQ(arb.tiles[1].issued, 0u);
    EXPECT_EQ(arb.tiles[1].slotsFetched, 0u);
    EXPECT_GT(arb.tiles[0].issued, 0u);
    EXPECT_GT(arb.tiles[2].issued, 0u);
    EXPECT_EQ(arb.slotsGranted,
              arb.tiles[0].slotsFetched + arb.tiles[2].slotsFetched);
}

TEST(ArbiterIntegration, QuarantinedTileRejoinsTheGrantRotation)
{
    core::MasterConfig cfg = arbitratedMaster(2, 4);
    cfg.heartbeatIntervalRounds = 4;
    cfg.watchdogMissThreshold = 2;
    core::MasterController master(cfg);
    master.mce(1).wedge();

    master.runRounds(16);

    // The watchdog quarantined and re-synced the wedged tile...
    EXPECT_GE(master.quarantineCount(), 1.0);
    EXPECT_EQ(master.resumeCount(), master.quarantineCount());
    EXPECT_FALSE(master.mce(1).hung());
    EXPECT_LT(master.mce(1).roundsRun(), master.mce(0).roundsRun());

    // ...and once resumed it is back in the rotation: the last
    // round's arbitration granted it a full program fetch.
    const ArbitrationResult &arb = master.lastArbitration();
    EXPECT_GT(arb.tiles[1].issued, 0u);
    EXPECT_EQ(arb.tiles[1].issued, arb.tiles[0].issued);
    EXPECT_EQ(arb.tiles[1].slotsFetched, arb.tiles[0].slotsFetched);
}

/** The sched.* metrics that recording one plan bumps. */
struct SchedTotals
{
    std::uint64_t plans = 0;
    std::uint64_t issued = 0;
    std::uint64_t cycles = 0;
    std::uint64_t stallData = 0;
    std::uint64_t stallBandwidth = 0;

    bool operator==(const SchedTotals &) const = default;

    /** What DynamicScheduler::record() adds for one tile plan. */
    void
    add(const TileSchedule &t)
    {
        ++plans;
        issued += t.issued;
        cycles += t.cycles.size();
        stallData += t.stalls.data;
        stallBandwidth += t.stalls.bandwidthWait;
    }

    static SchedTotals
    read()
    {
        auto &reg = sim::metrics::Registry::global();
        const auto c = [&reg](const char *name) {
            return reg.counter(name, "").value();
        };
        SchedTotals t;
        t.plans = c("sched.plans");
        t.issued = c("sched.issued");
        t.cycles = c("sched.cycles");
        t.stallData = c("sched.stall.data");
        t.stallBandwidth = c("sched.stall.bandwidth");
        return t;
    }

    SchedTotals
    since(const SchedTotals &b) const
    {
        return { plans - b.plans,
                 issued - b.issued,
                 cycles - b.cycles,
                 stallData - b.stallData,
                 stallBandwidth - b.stallBandwidth };
    }
};

std::uint64_t
tileBwWait(std::size_t tile)
{
    return sim::metrics::Registry::global()
        .counter("sched.tile" + std::to_string(tile)
                     + ".bw_wait_cycles",
                 "")
        .value();
}

TEST(SchedulerMetrics, ScheduleRecordsItsPlan)
{
    const RandomProgram p = makeRandomProgram(11);
    const DependencyOracle oracle(*p.lattice, p.qubits(),
                                  p.subCycles);
    SchedulerConfig cfg;
    cfg.fetchWidth = 32; // latency-bound: sched.stall.data moves
    const DynamicScheduler sched(cfg);
    const SchedTotals before = SchedTotals::read();
    const TileSchedule plan = sched.schedule(oracle, 3);
    SchedTotals want;
    want.add(plan);
    EXPECT_EQ(SchedTotals::read().since(before), want);
    EXPECT_GT(want.stallData, 0u);
}

TEST(SchedulerMetrics, RecordCountsOnePlanPerTile)
{
    MceConfig mcfg;
    mcfg.distance = 3;
    Mce mce("t", mcfg);
    const DependencyOracle &oracle = mce.dependencyOracle();
    const DynamicScheduler sched(SchedulerConfig{});
    const std::vector<const DependencyOracle *> tiles(3, &oracle);

    SchedTotals before = SchedTotals::read();
    const ArbitrationResult plan =
        sched.arbitrate(tiles, {1, 0, 1}, 4);
    const SchedTotals arbitrated = SchedTotals::read().since(before);
    SchedTotals want;
    for (const TileSchedule &t : plan.tiles)
        want.add(t);
    EXPECT_EQ(arbitrated, want);
    // A hung tile still counts as one (empty) plan.
    EXPECT_EQ(arbitrated.plans, 3u);
    EXPECT_GT(arbitrated.stallBandwidth, 0u);

    // Replaying the plan through record() moves the metrics exactly
    // as the arbitration that produced it did.
    before = SchedTotals::read();
    sched.record(plan);
    EXPECT_EQ(SchedTotals::read().since(before), arbitrated);
}

/**
 * The master memoizes its arbitration plan per (tile program
 * generation, liveness). After every round the plan it reports, and
 * the metrics it recorded, must equal a fresh arbitration over the
 * tiles as they are now -- across a wedge, a quarantine-and-resume,
 * and two mask changes landing in one round gap.
 */
TEST(ArbiterIntegration, CachedPlanEqualsFreshArbitration)
{
    core::MasterConfig cfg = arbitratedMaster(4, 8);
    cfg.mce = core::tileConfigForLogicalQubits(3);
    cfg.watchdogMissThreshold = 2;
    core::MasterController master(cfg);
    const DynamicScheduler fresh_arbiter(cfg.mce.sched);

    for (std::size_t r = 0; r < 24; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        if (r == 4)
            master.mce(1).wedge();
        if (r == 9) {
            // Two missed heartbeats: quarantine and resume.
            master.heartbeatNow();
            master.heartbeatNow();
            ASSERT_EQ(master.resumeCount(), 1.0);
            ASSERT_FALSE(master.mce(1).hung());
        }
        if (r == 14) {
            Mce &tile = master.mce(2);
            const std::uint64_t gen = tile.programGeneration();
            const int id = tile.defineLogicalQubit(Coord{2, 2});
            tile.executeLogical(isa::LogicalInstr{
                isa::LogicalOpcode::MaskMove, std::uint16_t(id) });
            ASSERT_EQ(tile.programGeneration(), gen + 2);
        }

        std::vector<std::uint64_t> wait_before;
        for (std::size_t i = 0; i < 4; ++i)
            wait_before.push_back(tileBwWait(i));
        const SchedTotals before = SchedTotals::read();
        master.stepRound();
        const SchedTotals recorded = SchedTotals::read().since(before);
        std::vector<std::uint64_t> waits;
        for (std::size_t i = 0; i < 4; ++i)
            waits.push_back(tileBwWait(i) - wait_before[i]);

        std::vector<const DependencyOracle *> oracles;
        std::vector<std::uint8_t> active;
        for (std::size_t i = 0; i < 4; ++i) {
            Mce &tile = master.mce(i);
            oracles.push_back(&tile.dependencyOracle());
            active.push_back(tile.hung() ? 0 : 1);
        }
        const ArbitrationResult fresh = fresh_arbiter.arbitrate(
            oracles, active, cfg.sharedFetchBandwidth);
        expectSamePlan(master.lastArbitration(), fresh);
        SchedTotals expected;
        for (std::size_t i = 0; i < 4; ++i) {
            expected.add(fresh.tiles[i]);
            EXPECT_EQ(waits[i], fresh.tiles[i].stalls.bandwidthWait)
                << "tile " << i;
        }
        EXPECT_EQ(recorded, expected);
    }
}

/**
 * questbench's replay_4tile configuration at 200 rounds, seed 1. The
 * expected values were generated by the build before the master
 * memoized its arbitration plan and the replay loop latched whole
 * sub-cycles; both changes must leave every one of them as it was.
 */
TEST(ArbiterIntegration, GoldenTotalsFourTiles)
{
    constexpr std::size_t tiles = 4;
    constexpr std::size_t rounds = 200;
    core::MasterConfig cfg;
    cfg.numMces = tiles;
    cfg.mce = core::tileConfigForLogicalQubits(5);
    cfg.mce.errorRates = quantum::ErrorRates{ 1e-3, 0, 0, 0, 1e-3 };
    cfg.mce.seed = 1;
    cfg.sharedFetchBandwidth = 2 * tiles;
    cfg.arbiterPolicy = ArbiterPolicy::RoundRobin;

    isa::TraceGenConfig tg;
    tg.numInstructions = 2 * rounds;
    tg.logicalQubits = tiles;
    tg.maskFraction = 0.0;
    tg.seed = 1;
    const isa::LogicalTrace app = isa::generateApplicationTrace(tg);
    const isa::LogicalTrace distill = isa::generateDistillationRound(0);

    const SchedTotals before = SchedTotals::read();
    core::QuestSystem sys(cfg);
    sys.placeLogicalQubits();
    core::MasterController &m = sys.master();
    std::uint64_t makespan = 0;
    std::uint64_t issued = 0;
    core::StallBreakdown stalls;
    std::size_t app_pos = 0;
    for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < 2 && app_pos < app.size(); ++k)
            m.dispatch(app.at(app_pos++));
        if (r % 8 == 0)
            for (std::size_t i = 0; i < tiles; ++i)
                m.dispatchBlock(i, 0, distill);
        m.broadcastSync();
        m.stepRound();
        const ArbitrationResult &arb = m.lastArbitration();
        makespan += arb.makespanCycles;
        for (const TileSchedule &t : arb.tiles) {
            issued += t.issued;
            stalls.data += t.stalls.data;
            stalls.queueFull += t.stalls.queueFull;
            stalls.fetchStarved += t.stalls.fetchStarved;
            stalls.bandwidthWait += t.stalls.bandwidthWait;
        }
    }
    m.decodeNow();
    const SchedTotals recorded = SchedTotals::read().since(before);
    const core::SystemReport rep = sys.report();

    EXPECT_EQ(makespan, 175800u);
    EXPECT_EQ(issued, 341600u);
    EXPECT_EQ(stalls.data, 0u);
    EXPECT_EQ(stalls.queueFull, 0u);
    EXPECT_EQ(stalls.fetchStarved, 0u);
    EXPECT_EQ(stalls.bandwidthWait, 347200u);

    EXPECT_EQ(rep.rounds, rounds);
    EXPECT_EQ(rep.baselineBytes, 1.4e6);
    EXPECT_EQ(rep.questBusBytes, 3764.0);
    EXPECT_EQ(rep.bytesLogical, 800.0);
    EXPECT_EQ(rep.bytesSync, 1600.0);
    EXPECT_EQ(rep.bytesSyndrome, 148.0);
    EXPECT_EQ(rep.bytesCorrections, 128.0);
    EXPECT_EQ(rep.bytesCache, 1088.0);
    EXPECT_EQ(rep.bytesScrub, 0.0);

    // One plan per tile per round, whether fresh or memoized.
    EXPECT_EQ(recorded.plans, 800u);
    EXPECT_EQ(recorded.issued, 341600u);
    EXPECT_EQ(recorded.cycles, 700800u);
    EXPECT_EQ(recorded.stallData, 0u);
    EXPECT_EQ(recorded.stallBandwidth, 347200u);

    // Latches differ by tile: transverse instructions latch their
    // footprints one qubit at a time.
    const double latches[tiles] = { 350936, 350806, 351118, 350936 };
    for (std::size_t i = 0; i < tiles; ++i) {
        SCOPED_TRACE("tile " + std::to_string(i));
        const core::QuantumExecutionUnit &xu = m.mce(i).execUnit();
        EXPECT_EQ(xu.latchCount(), latches[i]);
        EXPECT_EQ(xu.firedInstructionCount(), 85400.0);
        EXPECT_EQ(xu.masterClockCount(), 1400.0);
    }
}

} // namespace
