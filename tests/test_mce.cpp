/**
 * @file
 * Tests for the Microcoded Control Engine: QECC replay, masking,
 * logical instruction execution and the two-level decode loop.
 */

#include <gtest/gtest.h>

#include "core/mce.hpp"
#include "core/system.hpp"
#include "decode/streaming.hpp"

namespace {

using namespace quest::core;
using quest::isa::LogicalInstr;
using quest::isa::LogicalOpcode;
using quest::qecc::Coord;
using quest::decode::StreamCommit;
using quest::decode::StreamingDecoder;

MceConfig
smallConfig()
{
    MceConfig cfg;
    cfg.distance = 3;
    return cfg; // 5x5 tile, noiseless, unit-cell microcode
}

TEST(Mce, NoiselessRoundsProduceNoSyndrome)
{
    Mce mce("mce0", smallConfig());
    for (int r = 0; r < 5; ++r)
        EXPECT_FALSE(mce.runQeccRound().any());
    EXPECT_EQ(mce.roundsRun(), 5u);
}

TEST(Mce, RoundStreamsUopForEveryQubitEverySubCycle)
{
    Mce mce("mce0", smallConfig());
    mce.runQeccRound();
    const auto &spec = quest::qecc::protocolSpec(
        smallConfig().protocol);
    const double expected_latches =
        double(spec.depth() * mce.lattice().numQubits());
    // Exec unit latched one uop per qubit per sub-cycle.
    const double latches =
        mce.qeccUopsIssued(); // non-NOP only; must be <= slots
    EXPECT_LE(latches, expected_latches);
    EXPECT_GT(latches, 0.0);
    EXPECT_GT(mce.microcodeBitsStreamed(), 0.0);
}

/** Run one round through a one-round (W == S) decode window and
 *  record its correction in the tile's ledger. */
StreamCommit
decodeOneRound(Mce &mce, StreamingDecoder &streamer)
{
    const auto commit = streamer.pushRound(mce.runQeccRound());
    EXPECT_TRUE(commit.has_value());
    mce.applyCorrection(commit->correction);
    return *commit;
}

TEST(Mce, InjectedErrorIsDetectedAndLocallyDecoded)
{
    Mce mce("mce0", smallConfig());
    StreamingDecoder streamer(mce.extractor(), {1, 1, {}});
    // Clean window first.
    const StreamCommit clean = decodeOneRound(mce, streamer);
    EXPECT_EQ(clean.windowEvents, 0u);

    // Inject an isolated interior error.
    mce.frame().injectX(mce.lattice().index(Coord{2, 2}));
    const StreamCommit residual = decodeOneRound(mce, streamer);
    // The LUT resolves the isolated pair locally: no residual.
    EXPECT_EQ(residual.forwardedEvents, 0u);
    EXPECT_GT(residual.windowEvents, 0u);
    EXPECT_EQ(residual.globalWeight, 0u);
    // Ledger now cancels the physical error.
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
}

TEST(Mce, CorrectionLedgerIsNotExecutedOnQubits)
{
    // Appendix A.2: corrections accumulate classically; the frame
    // keeps reporting the error, and the ledger cancels it.
    Mce mce("mce0", smallConfig());
    StreamingDecoder streamer(mce.extractor(), {1, 1, {}});
    mce.frame().injectX(mce.lattice().index(Coord{2, 2}));
    decodeOneRound(mce, streamer);
    EXPECT_TRUE(mce.frame().xError(mce.lattice().index(Coord{2, 2})));
    EXPECT_TRUE(mce.correctionLedger().xError(
        mce.lattice().index(Coord{2, 2})));
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
}

TEST(Mce, LogicalQubitMasksAncillas)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), 0u);

    const int id = mce.defineLogicalQubit(Coord{2, 2});
    EXPECT_EQ(mce.logicalQubitCount(), 1u);
    EXPECT_GT(mce.maskTable().maskedQubitCount(), 0u);

    mce.releaseLogicalQubit(id);
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), 0u);
}

TEST(Mce, MaskedAncillasStaySilent)
{
    // An error inside a masked region must NOT produce a syndrome:
    // that is exactly what "disabling error correction" means.
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    mce.defineLogicalQubit(Coord{2, 2});

    // Inject an error on a data qubit inside defect A.
    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    const auto &round = mce.runQeccRound();
    EXPECT_FALSE(round.any());

    // The same error outside any mask is detected.
    mce.frame().injectX(mce.lattice().index(Coord{3, 3})); // cancel
    const std::size_t far_col = cfg.latticeCols - 2;
    mce.frame().injectX(mce.lattice().index(
        Coord{3, int(far_col)}));
    EXPECT_TRUE(mce.runQeccRound().any());
}

TEST(Mce, MaskChangeRebuildsTheReplayedProgram)
{
    Mce mce("mce0", tileConfigForLogicalQubits(3));
    const std::uint64_t gen = mce.programGeneration();
    const std::size_t uops = mce.dependencyOracle().uops().size();
    mce.runQeccRound();
    const double per_round = mce.qeccUopsIssued();
    // Replaying the same program leaves its generation alone.
    EXPECT_EQ(mce.programGeneration(), gen);

    mce.defineLogicalQubit(Coord{2, 2});
    EXPECT_EQ(mce.programGeneration(), gen + 1);
    // Masked qubits drop out of the program: the oracle the arbiter
    // plans against shrinks, and so does the replayed round.
    EXPECT_LT(mce.dependencyOracle().uops().size(), uops);
    mce.runQeccRound();
    EXPECT_EQ(mce.qeccUopsIssued() - per_round,
              double(mce.dependencyOracle().uops().size()));
}

TEST(Mce, TransverseInstructionTouchesFootprint)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    const double before = mce.logicalUopsIssued();
    mce.executeLogical(LogicalInstr{LogicalOpcode::Hadamard,
                                    std::uint16_t(id)});
    EXPECT_GT(mce.logicalUopsIssued(), before);
}

TEST(Mce, MaskInstructionReshapesBoundary)
{
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    const std::size_t before = mce.maskTable().maskedQubitCount();

    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskExpand,
                                    std::uint16_t(id)});
    EXPECT_GT(mce.maskTable().maskedQubitCount(), before);

    mce.executeLogical(LogicalInstr{LogicalOpcode::MaskContract,
                                    std::uint16_t(id)});
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), before);
}

TEST(Mce, DroppedMaskInstructionLeavesStateIntact)
{
    quest::sim::setQuiet(true);
    MceConfig cfg = tileConfigForLogicalQubits(3);
    Mce mce("mce0", cfg);
    const int id = mce.defineLogicalQubit(Coord{2, 2});
    // Walk the qubit east until further moves must be dropped, then
    // keep pushing: the mask must converge instead of corrupting.
    for (int i = 0; i < 40; ++i)
        mce.executeLogical(LogicalInstr{LogicalOpcode::MaskMove,
                                        std::uint16_t(id)});
    const std::size_t settled = mce.maskTable().maskedQubitCount();
    EXPECT_GT(settled, 0u);
    for (int i = 0; i < 5; ++i)
        mce.executeLogical(LogicalInstr{LogicalOpcode::MaskMove,
                                        std::uint16_t(id)});
    EXPECT_EQ(mce.maskTable().maskedQubitCount(), settled);
    EXPECT_EQ(mce.logicalQubitCount(), 1u);
    quest::sim::setQuiet(false);
}

TEST(Mce, UnknownLogicalQubitPanics)
{
    quest::sim::setQuiet(true);
    Mce mce("mce0", smallConfig());
    EXPECT_THROW(mce.executeLogical(
                     LogicalInstr{LogicalOpcode::Hadamard, 9}),
                 quest::sim::SimError);
    quest::sim::setQuiet(false);
}

TEST(Mce, NoisyRunConvergesWithDecoding)
{
    MceConfig cfg = smallConfig();
    cfg.distance = 5;
    cfg.errorRates = quest::quantum::ErrorRates{1e-3, 0, 0, 0, 0};
    cfg.seed = 42;
    Mce mce("mce0", cfg);
    // Non-overlapping d-round windows: LUT then global matching.
    StreamingDecoder streamer(mce.extractor(),
                              {cfg.distance, cfg.distance, {}});

    for (std::size_t r = 0; r < 40 * cfg.distance; ++r)
        if (auto commit = streamer.pushRound(mce.runQeccRound()))
            mce.applyCorrection(commit->correction);
    // With p=1e-3 on a d=5 tile, decoding keeps residual weight low
    // (no runaway accumulation).
    EXPECT_LE(mce.residualErrorWeight(), 3u);
}

} // namespace
