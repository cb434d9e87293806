/**
 * @file
 * Tests for the batched memory-experiment engine: against the scalar
 * one-trial-at-a-time loop it replaced (kept here as the reference),
 * failures, weight sum, log-weight bits and witness must match
 * exactly, for offline and streaming decode, aligned and unaligned
 * trial ranges, and any thread count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>

#include "decode/memory_experiment.hpp"
#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "qecc/extractor.hpp"
#include "qecc/lattice.hpp"
#include "qecc/schedule.hpp"
#include "quantum/error_model.hpp"
#include "quantum/pauli_frame.hpp"
#include "sim/random.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace quest;
using decode::MemoryExperiment;
using decode::MemoryRun;
using decode::MemoryTally;

/**
 * The scalar trial loop the fleet's task runner used before the
 * engine (streaming decode as `quest simulate --stream-window` ran
 * it): one PauliFrame and one Rng substream per trial.
 */
MemoryTally
scalarReference(std::size_t d, const MemoryRun &run, std::uint64_t begin,
                std::uint64_t end)
{
    const qecc::Lattice lattice = qecc::Lattice::forDistance(d);
    const qecc::RoundSchedule schedule = qecc::buildRoundSchedule(
        lattice, qecc::protocolSpec(qecc::Protocol::Steane));
    const qecc::SyndromeExtractor extractor(schedule);
    decode::DecoderPipeline pipeline(lattice);

    MemoryTally res;
    const double p = run.errorRate;
    for (std::uint64_t t = begin; t < end; ++t) {
        sim::Rng rng = sim::Rng::substream(run.seed, t);
        quantum::PauliFrame frame(lattice.numQubits());
        quantum::ErrorChannel channel(
            quantum::ErrorRates{p, 0, 0, 0, p}, rng);
        auto history = extractor.runRounds(frame, &channel, d);
        history.push_back(extractor.runRound(frame, nullptr));
        decode::Correction corr;
        if (run.stream) {
            decode::StreamingDecoder streamer(extractor, *run.stream);
            for (const auto &round : history)
                if (auto commit = streamer.pushRound(round))
                    corr.merge(commit->correction);
            if (auto commit = streamer.finish())
                corr.merge(commit->correction);
            res.windows += streamer.windowsDecoded();
        } else {
            corr = pipeline.decode(
                decode::extractDetectionEvents(history, extractor));
        }
        decode::applyCorrection(frame, corr);

        bool failed = extractor.runRound(frame, nullptr).any();
        res.dirty += failed ? 1 : 0;
        if (!failed) {
            std::size_t x = 0, z = 0;
            for (const qecc::Coord c : lattice.logicalZSupport())
                x += frame.xError(lattice.index(c)) ? 1 : 0;
            for (const qecc::Coord c : lattice.logicalXSupport())
                z += frame.zError(lattice.index(c)) ? 1 : 0;
            failed = (x % 2) || (z % 2);
        }
        res.add(corr.weight(), failed);
    }
    return res;
}

void
expectSameTally(const MemoryTally &got, const MemoryTally &want)
{
    EXPECT_EQ(got.trials, want.trials);
    EXPECT_EQ(got.failures, want.failures);
    EXPECT_EQ(got.weightSum, want.weightSum);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.logWeight),
              std::bit_cast<std::uint64_t>(want.logWeight));
    EXPECT_EQ(got.witness, want.witness);
    EXPECT_EQ(got.dirty, want.dirty);
    EXPECT_EQ(got.windows, want.windows);
}

MemoryRun
makeRun(double p, bool streaming)
{
    MemoryRun run;
    run.errorRate = p;
    run.seed = sim::Rng::deriveSeed(2024, 7);
    if (streaming) {
        decode::StreamConfig cfg;
        cfg.windowRounds = 6;
        cfg.strideRounds = 3;
        run.stream = cfg;
    }
    return run;
}

using Case = std::tuple<std::size_t, double, std::pair<int, int>, bool>;

class MemoryEngineVsScalar : public ::testing::TestWithParam<Case>
{};

TEST_P(MemoryEngineVsScalar, TallyMatchesExactly)
{
    const auto [d, p, range, streaming] = GetParam();
    const MemoryRun run = makeRun(p, streaming);
    MemoryExperiment exp(qecc::Protocol::Steane, d);
    sim::ThreadPool pool(3);
    expectSameTally(exp.run(run, range.first, range.second, pool),
                    scalarReference(d, run, range.first, range.second));
}

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    const auto &[d, p, range, streaming] = info.param;
    return "d" + std::to_string(d) + "_p"
        + std::to_string(int(std::lround(p * 1e4))) + "e4_"
        + std::to_string(range.first) + "_"
        + std::to_string(range.second)
        + (streaming ? "_stream" : "_offline");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MemoryEngineVsScalar,
    ::testing::Combine(::testing::Values(3u, 5u, 7u),
                       ::testing::Values(3e-3, 1e-2),
                       ::testing::Values(std::make_pair(0, 64),
                                         std::make_pair(37, 200),
                                         std::make_pair(5, 6)),
                       ::testing::Bool()),
    caseName);

TEST(MemoryEngine, IdenticalTotalsAcrossPoolSizes)
{
    // A `quest simulate`-shaped run: trials [0, N) from one seed.
    for (const bool streaming : {false, true}) {
        const MemoryRun run = makeRun(1e-2, streaming);
        MemoryExperiment exp(qecc::Protocol::Steane, 5);
        sim::ThreadPool one(1), two(2), five(5);
        const MemoryTally ref = exp.run(run, 0, 700, one);
        expectSameTally(exp.run(run, 0, 700, two), ref);
        expectSameTally(exp.run(run, 0, 700, five), ref);
    }
}

TEST(MemoryEngine, LongRunFoldsAcrossPassesInTrialOrder)
{
    // Longer than one buffered pass of batches.
    const MemoryRun run = makeRun(1e-2, false);
    MemoryExperiment exp(qecc::Protocol::Steane, 3);
    sim::ThreadPool pool(2);
    expectSameTally(exp.run(run, 3, 20003, pool),
                    scalarReference(3, run, 3, 20003));
}

TEST(MemoryEngine, CustomRoundCountAndEmptyRange)
{
    MemoryRun run = makeRun(5e-3, false);
    run.rounds = 2;
    MemoryExperiment exp(qecc::Protocol::Steane, 3);
    decode::MemoryBatch batch;
    exp.sample(run, 0, batch);
    EXPECT_EQ(batch.history.size(), 3u);
    EXPECT_EQ(batch.events.size(), quantum::BatchPauliFrame::lanes);
    EXPECT_EQ(exp.run(run, 9, 9).trials, 0u);
}

TEST(MemoryEngine, FailureMaskFlagsLogicalAndSyndromeErrors)
{
    MemoryExperiment exp(qecc::Protocol::Steane, 3);
    const qecc::Lattice &lat = exp.lattice();
    quantum::BatchPauliFrame frame(lat.numQubits());
    // Lane 0: X errors down the left data column, a logical X chain
    // (no syndrome, odd parity on the top row). Lane 1: a single X
    // error (flags a syndrome).
    for (const qecc::Coord c : lat.logicalXSupport())
        frame.injectX(lat.index(c), 1u);
    frame.injectX(lat.index(lat.logicalZSupport().front()), 2u);
    std::uint64_t dirty = 0;
    EXPECT_EQ(exp.failureMask(frame, &dirty), 3u);
    EXPECT_EQ(dirty, 2u);
}

} // namespace
