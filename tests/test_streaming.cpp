/**
 * @file
 * Equivalence suite for the streaming sliding-window decoder.
 *
 * The correctness anchor: a StreamingDecoder whose single window
 * spans the entire shot must reproduce the offline DecoderPipeline
 * bit for bit. Windowed runs must still commit every detection
 * event exactly once (the accumulated correction clears the
 * syndrome), and the deadline-overrun path must degrade to the
 * cluster decoder deterministically. The master controller decodes
 * every tile through a StreamingDecoder; its W == S cadence is pinned
 * against the collect-then-decode algorithm it replaced, kept here as
 * a reference.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/lut_decoder.hpp"
#include "decode/mwpm_decoder.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "quantum/error_model.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::ErrorChannel;
using quest::quantum::ErrorRates;
using quest::quantum::PauliFrame;

/** A noisy history of `rounds` rounds plus one quiet closing round. */
std::vector<SyndromeRound>
noisyHistory(const SyndromeExtractor &extractor, PauliFrame &frame,
             double p, std::uint64_t seed, std::size_t rounds)
{
    quest::sim::Rng rng(seed);
    ErrorChannel channel(ErrorRates{p, 0, 0, 0, p}, rng);
    auto history = extractor.runRounds(frame, &channel, rounds);
    history.push_back(extractor.runRound(frame, nullptr));
    return history;
}

/** Stream a whole history and return the accumulated correction. */
Correction
streamDecode(StreamingDecoder &streamer,
             const std::vector<SyndromeRound> &history)
{
    Correction total;
    for (const auto &round : history)
        if (auto commit = streamer.pushRound(round))
            total.merge(commit->correction);
    if (auto commit = streamer.finish())
        total.merge(commit->correction);
    return total;
}

class StreamingTest : public ::testing::Test
{
  protected:
    StreamingTest()
        : lattice(Lattice::forDistance(5)),
          schedule(buildRoundSchedule(
              lattice, protocolSpec(Protocol::Steane))),
          extractor(schedule)
    {}

    Lattice lattice;
    RoundSchedule schedule;
    SyndromeExtractor extractor;
};

TEST_F(StreamingTest, FullShotSingleWindowMatchesOfflinePipeline)
{
    DecoderPipeline pipeline(lattice);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        PauliFrame frame(lattice.numQubits());
        const auto history =
            noisyHistory(extractor, frame, 2e-3, seed, 6);

        const Correction offline = pipeline.decode(
            extractDetectionEvents(history, extractor));

        // Window larger than the shot: nothing commits until
        // finish() decodes the whole history as one window.
        StreamConfig cfg;
        cfg.windowRounds = history.size() + 1;
        cfg.strideRounds = 1;
        StreamingDecoder streamer(extractor, cfg);
        const Correction streamed = streamDecode(streamer, history);

        EXPECT_EQ(streamer.windowsDecoded(), 1u) << "seed " << seed;
        // Bit-identical, including order: both sides canonicalize
        // through Correction::merge.
        EXPECT_EQ(streamed.xFlips, offline.xFlips)
            << "seed " << seed;
        EXPECT_EQ(streamed.zFlips, offline.zFlips)
            << "seed " << seed;
    }
}

TEST_F(StreamingTest, WindowedCommitsClearTheSyndrome)
{
    // Every (window, stride) split must commit each detection event
    // exactly once: the accumulated correction plus the errors form
    // closed loops, so the final noiseless round is silent.
    const std::size_t distances[] = { 3, 5, 7 };
    const std::pair<std::size_t, std::size_t> shapes[] = {
        { 2, 1 }, { 3, 3 }, { 4, 2 }, { 6, 3 },
    };
    for (const std::size_t d : distances) {
        const Lattice lat = Lattice::forDistance(d);
        const auto sched =
            buildRoundSchedule(lat, protocolSpec(Protocol::Steane));
        const SyndromeExtractor ext(sched);
        for (const auto &[window, stride] : shapes) {
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                PauliFrame frame(lat.numQubits());
                const auto history =
                    noisyHistory(ext, frame, 2e-3,
                                 seed * 31 + d, 2 * d);

                StreamConfig cfg;
                cfg.windowRounds = window;
                cfg.strideRounds = stride;
                StreamingDecoder streamer(ext, cfg);
                applyCorrection(frame,
                                streamDecode(streamer, history));

                EXPECT_FALSE(ext.runRound(frame, nullptr).any())
                    << "d=" << d << " window=" << window
                    << " stride=" << stride << " seed=" << seed;
                EXPECT_EQ(streamer.committedRounds(),
                          streamer.roundsPushed());
                EXPECT_EQ(streamer.lagRounds(), 0u);
            }
        }
    }
}

TEST_F(StreamingTest, DeadlineOverrunFallsBackToClusterDecoder)
{
    // A 1-tick budget is below the MWPM base cost, so any window
    // with residual events must degrade -- deterministically.
    StreamConfig cfg;
    cfg.windowRounds = 3;
    cfg.strideRounds = 3;
    cfg.deadline.windowTicks = 1;

    for (int run = 0; run < 2; ++run) {
        PauliFrame frame(lattice.numQubits());
        // A chain the LUT cannot resolve locally.
        frame.injectX(lattice.index(Coord{3, 3}));
        frame.injectX(lattice.index(Coord{3, 5}));
        const auto history = extractor.runRounds(frame, nullptr, 3);

        StreamingDecoder streamer(extractor, cfg);
        bool saw_fallback = false;
        double stretch = 1.0;
        Correction total;
        for (const auto &round : history) {
            if (auto commit = streamer.pushRound(round)) {
                saw_fallback |= commit->fallback;
                stretch = std::max(stretch, commit->stretch);
                total.merge(commit->correction);
            }
        }
        if (auto commit = streamer.finish())
            total.merge(commit->correction);

        EXPECT_TRUE(saw_fallback);
        EXPECT_GT(stretch, 1.0);
        EXPECT_GT(streamer.fallbacks(), 0u);
        // The cluster decoder still clears the syndrome.
        applyCorrection(frame, total);
        EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
    }
}

TEST_F(StreamingTest, InjectedOverrunDrawsOncePerResidualWindow)
{
    // A chain the LUT cannot resolve, in the first of three
    // non-overlapping windows: only that window has residual events.
    const auto run = [&](quest::sim::Tick window_ticks,
                         quest::sim::FaultInjector &faults) {
        StreamConfig cfg{ 2, 2, {} };
        cfg.deadline.windowTicks = window_ticks;
        StreamingDecoder streamer(extractor, cfg);
        streamer.attachFaults(&faults);
        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(Coord{3, 3}));
        frame.injectX(lattice.index(Coord{3, 5}));
        Correction total;
        for (const auto &round : extractor.runRounds(frame, nullptr, 6))
            if (auto commit = streamer.pushRound(round))
                total.merge(commit->correction);
        applyCorrection(frame, total);
        EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
        return streamer.fallbacks();
    };
    quest::sim::FaultConfig always;
    always.rate(quest::sim::FaultSite::DecoderOverrun) = 1.0;

    // Deadline modelled with room to spare: the analytic check never
    // fires, the injected draw always does.
    quest::sim::FaultInjector modelled(always);
    EXPECT_EQ(run(quest::sim::Tick(1) << 40, modelled), 1u);
    EXPECT_EQ(modelled.trialCount(
                  quest::sim::FaultSite::DecoderOverrun), 1u);

    // No deadline model: nothing is drawn.
    quest::sim::FaultInjector unmodelled(always);
    EXPECT_EQ(run(0, unmodelled), 0u);
    EXPECT_EQ(unmodelled.trialCount(
                  quest::sim::FaultSite::DecoderOverrun), 0u);
}

TEST_F(StreamingTest, QuietStreamCommitsNothing)
{
    StreamConfig cfg;
    cfg.windowRounds = 2;
    cfg.strideRounds = 1;
    StreamingDecoder streamer(extractor, cfg);
    PauliFrame frame(lattice.numQubits());
    for (int r = 0; r < 5; ++r) {
        auto commit = streamer.pushRound(
            extractor.runRound(frame, nullptr));
        if (commit) {
            EXPECT_EQ(commit->windowEvents, 0u);
            EXPECT_EQ(commit->correction.weight(), 0u);
            EXPECT_FALSE(commit->fallback);
        }
    }
    auto last = streamer.finish();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->correction.weight(), 0u);
    EXPECT_EQ(streamer.lagRounds(), 0u);
}

/**
 * The collect-then-decode algorithm the master ran before every tile
 * decoded through a StreamingDecoder, kept here as the reference: a
 * standalone copy of master tile i buffers non-overlapping windows of
 * `window` rounds, differences each against the previous window's
 * last round, resolves pairs with the LUT and matches the residual
 * with MWPM. It charges the syndrome bus per residual event and the
 * correction bus per global flip.
 */
struct OfflineReference
{
    quest::core::Mce mce;
    LutDecoder lut;
    MwpmDecoder mwpm;
    std::vector<SyndromeRound> window;
    std::optional<SyndromeRound> baseline;
    std::size_t firstRound = 0;
    double syndromeBytes = 0.0;
    double correctionBytes = 0.0;

    OfflineReference(const quest::core::MasterConfig &cfg,
                     std::size_t tile)
        : mce("ref", tileConfig(cfg, tile)), lut(mce.lattice()),
          mwpm(mce.lattice())
    {}

    static quest::core::MceConfig
    tileConfig(const quest::core::MasterConfig &cfg, std::size_t tile)
    {
        quest::core::MceConfig mc = cfg.mce;
        mc.seed = cfg.mce.seed + tile * 0x9E37u;
        return mc;
    }

    void
    decode()
    {
        const DetectionEvents events = extractDetectionEventsWindow(
            window, mce.extractor(), baseline ? &*baseline : nullptr,
            firstRound);
        const LocalDecodeResult local = lut.decodeLocal(events);
        mce.applyCorrection(local.correction);
        if (local.residual.total() > 0) {
            syndromeBytes += double(local.residual.total()
                                    * detectionEventBytes);
            const Correction global = mwpm.decode(local.residual);
            correctionBytes += double(
                global.weight() * quest::core::correctionEntryBytes);
            mce.applyCorrection(global);
        }
        if (!window.empty()) {
            baseline = window.back();
            firstRound += window.size();
            window.clear();
        }
    }

    void
    run(std::size_t rounds, std::size_t window_rounds, bool flush)
    {
        for (std::size_t r = 0; r < rounds; ++r) {
            window.push_back(mce.runQeccRound());
            if (window.size() == window_rounds)
                decode();
        }
        if (flush)
            decode();
    }
};

TEST(StreamingMaster, MatchesOfflineReferenceDecode)
{
    using namespace quest::core;
    struct Case
    {
        std::size_t rounds;
        bool flush;
        bool arbitrated;
    };
    // 9 rounds are three whole windows; 7 leave one round buffered
    // for decodeNow(). The bandwidth arbiter must not perturb the
    // decode.
    for (const Case c : { Case{ 9, false, false }, Case{ 9, false, true },
                          Case{ 7, true, false },
                          Case{ 7, true, true } }) {
        MasterConfig cfg;
        cfg.numMces = 2;
        cfg.mce = tileConfigForLogicalQubits(3);
        cfg.mce.errorRates =
            quest::quantum::ErrorRates{2e-2, 0, 0, 0, 2e-2};
        cfg.decodeWindowRounds = 3;
        if (c.arbitrated)
            cfg.sharedFetchBandwidth = 4;
        MasterController master(cfg);
        master.runRounds(c.rounds);
        if (c.flush) {
            EXPECT_GT(master.streamer(0).lagRounds(), 0u);
            master.decodeNow();
        }
        EXPECT_EQ(master.streamer(0).lagRounds(), 0u);

        double syndrome = 0.0;
        double corrections = 0.0;
        for (std::size_t i = 0; i < cfg.numMces; ++i) {
            OfflineReference ref(cfg, i);
            ref.run(c.rounds, cfg.decodeWindowRounds, c.flush);
            syndrome += ref.syndromeBytes;
            corrections += ref.correctionBytes;
            const Mce &tile = master.mce(i);
            EXPECT_EQ(tile.roundsRun(), ref.mce.roundsRun());
            EXPECT_EQ(tile.correctionLedger().xWords(),
                      ref.mce.correctionLedger().xWords())
                << "tile " << i;
            EXPECT_EQ(tile.correctionLedger().zWords(),
                      ref.mce.correctionLedger().zWords())
                << "tile " << i;
            EXPECT_EQ(tile.residualErrorWeight(),
                      ref.mce.residualErrorWeight())
                << "tile " << i;
        }
        // Not vacuous: both decode stages ran.
        EXPECT_GT(syndrome, 0.0);
        EXPECT_GT(corrections, 0.0);
        EXPECT_DOUBLE_EQ(master.busBytesSyndrome(), syndrome);
        EXPECT_DOUBLE_EQ(master.busBytesCorrections(), corrections);
    }
}

/** The two window shapes the master tests run: W == S and W > S. */
constexpr std::pair<std::size_t, std::size_t> windowShapes[] = {
    { 3, 3 }, { 4, 2 }
};

TEST(StreamingMaster, LutResolvedErrorChargesNoCorrectionBytes)
{
    using namespace quest::core;
    for (const auto &[window, stride] : windowShapes) {
        MasterConfig cfg;
        cfg.numMces = 1;
        cfg.mce = tileConfigForLogicalQubits(3);
        cfg.decodeWindowRounds = window;
        cfg.decodeStrideRounds = stride;
        MasterController master(cfg);
        Mce &mce = master.mce(0);
        // One interior error: an adjacent event pair the LUT
        // resolves inside the MCE.
        mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
        master.runRounds(window);
        master.decodeNow();

        EXPECT_EQ(mce.residualErrorWeight(), 0u) << "W=" << window;
        EXPECT_TRUE(mce.correctionLedger().xError(
            mce.lattice().index(Coord{3, 3})));
        EXPECT_DOUBLE_EQ(master.busBytesSyndrome(), 0.0)
            << "W=" << window;
        EXPECT_DOUBLE_EQ(master.busBytesCorrections(), 0.0)
            << "W=" << window;
    }
}

TEST(StreamingMaster, GlobalChainChargesItsGlobalWeight)
{
    using namespace quest::core;
    for (const auto &[window, stride] : windowShapes) {
        MasterConfig cfg;
        cfg.numMces = 1;
        cfg.mce = tileConfigForLogicalQubits(3);
        cfg.decodeWindowRounds = window;
        cfg.decodeStrideRounds = stride;
        MasterController master(cfg);
        Mce &mce = master.mce(0);
        // A weight-2 chain the LUT cannot resolve locally.
        mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
        mce.frame().injectX(mce.lattice().index(Coord{3, 5}));
        master.runRounds(window);
        master.decodeNow();

        EXPECT_EQ(mce.residualErrorWeight(), 0u) << "W=" << window;
        EXPECT_DOUBLE_EQ(master.busBytesSyndrome(),
                         2.0 * double(detectionEventBytes))
            << "W=" << window;
        EXPECT_DOUBLE_EQ(master.busBytesCorrections(),
                         2.0 * double(correctionEntryBytes))
            << "W=" << window;
    }
}

TEST(StreamingMaster, DecodeNowFlushesBufferedRounds)
{
    using namespace quest::core;
    MasterConfig cfg;
    cfg.numMces = 1;
    cfg.mce = tileConfigForLogicalQubits(3);
    cfg.decodeWindowRounds = 4;
    cfg.decodeStrideRounds = 2;
    MasterController master(cfg);
    Mce &mce = master.mce(0);
    mce.frame().injectX(mce.lattice().index(Coord{3, 3}));
    mce.frame().injectX(mce.lattice().index(Coord{3, 5}));

    master.runRounds(3); // less than a window: nothing committed yet
    EXPECT_GT(master.streamer(0).lagRounds(), 0u);
    master.decodeNow(); // end-of-shot barrier: flush everything
    EXPECT_EQ(master.streamer(0).lagRounds(), 0u);
    EXPECT_EQ(mce.residualErrorWeight(), 0u);
    EXPECT_GT(master.busBytesSyndrome(), 0.0);
    EXPECT_GT(master.busBytesCorrections(), 0.0);
}

/*
 * A mask change rebuilds the MCE's syndrome extractor. The tile's
 * streamer must keep decoding across it: it used to read the freed
 * extractor (a heap-use-after-free under ASan, an "inconsistent
 * width" panic in a release build).
 */
TEST(StreamingMaster, PlacingLogicalQubitsMidStreamKeepsDecoding)
{
    using namespace quest::core;
    for (const auto &[window, stride] :
         { std::pair<std::size_t, std::size_t>{ 5, 5 }, { 4, 2 } }) {
        MasterConfig cfg;
        cfg.numMces = 1;
        cfg.mce = tileConfigForLogicalQubits(5);
        cfg.mce.errorRates =
            quest::quantum::ErrorRates{2e-3, 0, 0, 0, 2e-3};
        cfg.decodeWindowRounds = window;
        cfg.decodeStrideRounds = stride;
        QuestSystem system(cfg);
        MasterController &master = system.master();
        master.runRounds(2);
        system.placeLogicalQubits();
        ASSERT_NO_THROW(master.runRounds(20)) << "W=" << window;
        ASSERT_NO_THROW(master.decodeNow()) << "W=" << window;
        EXPECT_EQ(master.streamer(0).roundsPushed(), 22u);
        EXPECT_EQ(master.streamer(0).lagRounds(), 0u);
        EXPECT_GT(master.streamer(0).windowsDecoded(), 1u);
    }
}

TEST_F(StreamingTest, DefiningLogicalQubitMidStreamKeepsDecoding)
{
    quest::core::MceConfig cfg =
        quest::core::tileConfigForLogicalQubits(3);
    cfg.errorRates = ErrorRates{2e-3, 0, 0, 0, 2e-3};
    quest::core::Mce mce("mce0", cfg);
    StreamingDecoder streamer(mce.extractor(), StreamConfig{ 4, 2, {} });
    std::size_t windows = 0;
    for (std::size_t r = 0; r < 22; ++r) {
        if (r == 2)
            mce.defineLogicalQubit(Coord{2, 2}); // new extractor
        std::optional<StreamCommit> commit;
        ASSERT_NO_THROW(commit = streamer.pushRound(mce.runQeccRound()));
        if (commit) {
            ++windows;
            mce.applyCorrection(commit->correction);
        }
    }
    ASSERT_NO_THROW(streamer.finish());
    EXPECT_EQ(windows, 10u); // first at round 4, then every 2
    EXPECT_EQ(streamer.lagRounds(), 0u);
}

} // namespace
