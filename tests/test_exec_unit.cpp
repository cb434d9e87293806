/**
 * @file
 * Tests for the prime-line execution unit model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/exec_unit.hpp"
#include "core/mce.hpp"
#include "core/microcode.hpp"
#include "core/system.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::core;
using quest::isa::PhysOpcode;

TEST(ExecUnit, LatchesHoldUntilOverwritten)
{
    quest::sim::StatGroup stats("test");
    QuantumExecutionUnit xu(4, stats);
    xu.latch(1, PhysOpcode::Hadamard);
    EXPECT_EQ(xu.latched(1), PhysOpcode::Hadamard);
    EXPECT_EQ(xu.latched(0), PhysOpcode::Nop);

    xu.masterClock();
    // Still latched after firing (switches hold their value).
    EXPECT_EQ(xu.latched(1), PhysOpcode::Hadamard);

    xu.latch(1, PhysOpcode::MeasZ);
    EXPECT_EQ(xu.latched(1), PhysOpcode::MeasZ);
}

TEST(ExecUnit, MasterClockReturnsAllLatchedUops)
{
    quest::sim::StatGroup stats("test");
    QuantumExecutionUnit xu(3, stats);
    xu.latch(0, PhysOpcode::PrepZ);
    xu.latch(2, PhysOpcode::CnotN);
    const auto &fired = xu.masterClock();
    ASSERT_EQ(fired.size(), 3u);
    EXPECT_EQ(fired[0], PhysOpcode::PrepZ);
    EXPECT_EQ(fired[1], PhysOpcode::Nop);
    EXPECT_EQ(fired[2], PhysOpcode::CnotN);
}

TEST(ExecUnit, AccountingCountsLatchesClocksAndFires)
{
    quest::sim::StatGroup stats("test");
    QuantumExecutionUnit xu(4, stats);
    xu.latch(0, PhysOpcode::PrepZ);
    xu.latch(1, PhysOpcode::Nop);
    xu.masterClock(); // fires PrepZ (1 non-NOP)
    xu.latch(2, PhysOpcode::MeasZ);
    xu.masterClock(); // fires PrepZ + MeasZ (2 non-NOP)

    EXPECT_DOUBLE_EQ(xu.latchCount(), 3.0);
    EXPECT_DOUBLE_EQ(xu.masterClockCount(), 2.0);
    EXPECT_DOUBLE_EQ(xu.firedInstructionCount(), 3.0);
}

TEST(ExecUnit, OutOfRangeLatchPanics)
{
    quest::sim::setQuiet(true);
    quest::sim::StatGroup stats("test");
    QuantumExecutionUnit xu(2, stats);
    EXPECT_THROW(xu.latch(5, PhysOpcode::PrepZ),
                 quest::sim::SimError);
    // A sub-cycle row must span the switch array exactly.
    const std::vector<PhysOpcode> narrow(1, PhysOpcode::PrepZ);
    EXPECT_THROW(xu.latchSubCycle(narrow, 1), quest::sim::SimError);
    const std::vector<PhysOpcode> wide(3, PhysOpcode::Nop);
    EXPECT_THROW(xu.latchSubCycle(wide, 0), quest::sim::SimError);
    EXPECT_EQ(xu.latchCount(), 0.0);
    quest::sim::setQuiet(false);
}

/** Per-qubit latching of `row`, the reference for latchSubCycle. */
void
latchEach(QuantumExecutionUnit &xu,
          const std::vector<PhysOpcode> &row)
{
    for (std::size_t q = 0; q < row.size(); ++q)
        xu.latch(q, row[q]);
}

void
expectSameUnit(const QuantumExecutionUnit &a,
               const QuantumExecutionUnit &b)
{
    EXPECT_EQ(a.latchCount(), b.latchCount());
    EXPECT_EQ(a.firedInstructionCount(), b.firedInstructionCount());
    EXPECT_EQ(a.masterClockCount(), b.masterClockCount());
    for (std::size_t q = 0; q < a.numQubits(); ++q)
        EXPECT_EQ(a.latched(q), b.latched(q)) << "qubit " << q;
}

TEST(ExecUnit, SubCycleLatchMatchesPerQubitLatches)
{
    using P = PhysOpcode;
    const std::vector<std::vector<P>> rows = {
        { P::Nop, P::Nop, P::Nop, P::Nop, P::Nop },          // all Nop
        { P::PrepZ, P::Hadamard, P::CnotN, P::MeasZ, P::PrepX }, // live
        { P::Nop, P::CnotN, P::Nop, P::MeasZ, P::Nop },      // masked
    };
    quest::sim::StatGroup stats("test");
    QuantumExecutionUnit whole(5, stats);
    QuantumExecutionUnit each(5, stats);
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto &row : rows) {
            std::size_t live = 0;
            for (P op : row)
                live += op != P::Nop ? 1 : 0;
            whole.latchSubCycle(row, live);
            latchEach(each, row);
            expectSameUnit(whole, each);
            whole.masterClock();
            each.masterClock();
            expectSameUnit(whole, each);
        }
        // Per-qubit latches and releases on top of a latched row
        // (the logical-instruction and out-of-order paths) fire
        // exactly what the switches then hold.
        for (QuantumExecutionUnit *xu : { &whole, &each }) {
            xu->latch(0, P::Hadamard);
            xu->latch(1, P::Nop);
            xu->release(3);
            xu->masterClock();
        }
        expectSameUnit(whole, each);
    }
    EXPECT_EQ(whole.masterClockCount(), 8.0);
    EXPECT_EQ(whole.firedInstructionCount(), 2 * (0 + 5 + 2 + 1.0));
}

/**
 * A tile with a placed logical qubit replays a masked program: its
 * uop, microcode-bit and latch accounting must equal a per-uop count
 * of that program, slot by slot, as the replay loop once did it.
 */
TEST(ExecUnit, MaskedTileReplayKeepsPerUopAccounting)
{
    auto &reg = quest::sim::metrics::Registry::global();
    auto &uops_metric = reg.counter("mce.replay.uops", "");
    auto &bits_metric = reg.counter("mce.replay.microcode_bits", "");
    const std::uint64_t uops0 = uops_metric.value();
    const std::uint64_t bits0 = bits_metric.value();

    MceConfig cfg = tileConfigForLogicalQubits(3);
    cfg.microcodeDesign = MicrocodeDesign::Ram;
    Mce mce("t", cfg);
    mce.defineLogicalQubit(quest::qecc::Coord{ 2, 2 });
    constexpr std::size_t rounds = 3;
    for (std::size_t r = 0; r < rounds; ++r)
        mce.runQeccRound();

    const quest::qecc::RoundSchedule &sched = mce.maskedSchedule();
    const std::size_t n = mce.lattice().numQubits();
    std::size_t live = 0;
    std::size_t masked_slots = 0;
    for (std::size_t s = 0; s < sched.depth(); ++s)
        for (std::size_t q = 0; q < n; ++q) {
            live += sched.subCycle(s).uops[q] != PhysOpcode::Nop;
            masked_slots += sched.subCycle(s).uops[q] == PhysOpcode::Nop
                && mce.baseSchedule().subCycle(s).uops[q]
                    != PhysOpcode::Nop;
        }
    ASSERT_GT(masked_slots, 0u); // the logical qubit masked some uops
    const std::size_t uop_bits =
        MicrocodeModel(sched.spec(), cfg.technology)
            .uopBits(cfg.microcodeDesign, n);
    const double slots = double(rounds * sched.depth() * n);

    EXPECT_EQ(mce.qeccUopsIssued(), double(rounds * live));
    EXPECT_EQ(uops_metric.value() - uops0, rounds * live);
    EXPECT_EQ(bits_metric.value() - bits0,
              std::uint64_t(slots) * uop_bits);
    EXPECT_EQ(mce.microcodeBitsStreamed(), slots * double(uop_bits));
    EXPECT_EQ(mce.execUnit().latchCount(), slots);
    EXPECT_EQ(mce.execUnit().firedInstructionCount(),
              double(rounds * live));
    EXPECT_EQ(mce.execUnit().masterClockCount(),
              double(rounds * sched.depth()));
}

} // namespace
