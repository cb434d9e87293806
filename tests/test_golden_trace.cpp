/**
 * @file
 * Golden-trace regression tests: the observability layer's core
 * promise is that a fixed-seed workload yields a *byte-identical*
 * metrics snapshot and an identical trace-count digest regardless of
 * how many threads executed it and across repeated runs.
 *
 * The workload is the ISSUE-specified reference: a d=5 surface-code
 * tile pair run for 100 QECC rounds under the master controller
 * (single-threaded cycle model), followed by a Monte-Carlo decode
 * sweep fanned out on a ThreadPool — the part whose scheduling
 * genuinely varies with thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/master_controller.hpp"
#include "core/system.hpp"
#include "decode/detection.hpp"
#include "decode/mwpm_decoder.hpp"
#include "decode/streaming.hpp"
#include "qecc/extractor.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/thread_pool.hpp"
#include "sim/trace.hpp"

namespace {

using namespace quest;

constexpr std::uint64_t goldenSeed = 0x601Dull;
constexpr std::size_t goldenDistance = 5;
constexpr std::size_t goldenRounds = 100;
constexpr std::uint64_t goldenTrials = 32;
constexpr std::uint64_t goldenBatches = 2;
/** Rounds of the phase-5 arbitrated master: two whole W == S == 3
 *  decode windows per tile. */
constexpr std::size_t goldenArbRounds = 6;

struct GoldenRun
{
    std::string snapshot;
    std::uint64_t digest = 0;
    /** Uops the phase-5 arbiter's plans issued over all rounds. */
    std::uint64_t schedIssued = 0;
};

/** Run the reference workload on `threads` workers. */
GoldenRun
runGolden(std::size_t threads)
{
    auto &tracer = sim::Tracer::instance();
    sim::metrics::Registry::global().reset();
    tracer.clear();
    tracer.setEnabled(true);

    GoldenRun out;
    {
        // Phase 1: cycle-level system, fixed seed, 100 rounds.
        core::MasterConfig cfg;
        cfg.numMces = 2;
        cfg.mce = core::tileConfigForLogicalQubits(goldenDistance);
        cfg.mce.seed = goldenSeed;
        cfg.mce.errorRates =
            quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
        core::MasterController master(cfg);
        master.runRounds(goldenRounds);

        // Phase 2: parallel Monte-Carlo decode sweep. Each trial
        // draws from Rng::substream(seed, trial), so the sampled
        // windows — and therefore every counter bump and trace
        // event — are a pure function of the trial index.
        const qecc::Lattice lattice =
            qecc::Lattice::forDistance(goldenDistance);
        const auto schedule = qecc::buildRoundSchedule(
            lattice,
            qecc::protocolSpec(qecc::Protocol::Steane));
        const qecc::SyndromeExtractor extractor(schedule);
        const decode::MwpmDecoder decoder(lattice);
        sim::ThreadPool pool(threads);
        sim::parallelFor(pool, goldenTrials, [&](std::uint64_t i) {
            sim::Rng rng = sim::Rng::substream(goldenSeed, i);
            quantum::ErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3}, rng);
            quantum::PauliFrame frame(lattice.numQubits());
            auto history = extractor.runRounds(frame, &channel,
                                               goldenDistance);
            history.push_back(extractor.runRound(frame, nullptr));
            const decode::DetectionEvents events =
                decode::extractDetectionEvents(history, extractor);
            decoder.decode(events);
        });

        // Phase 3: the same sweep through the bit-parallel batch
        // engine — two 64-lane batches fanned out on the pool. The
        // batch counters (qecc.batch.*) and the per-lane decodes
        // must land in the snapshot identically for every thread
        // count: lane t of batch b is trial b*64 + t by
        // construction, so scheduling cannot reorder any draw.
        sim::parallelFor(pool, goldenBatches, [&](std::uint64_t b) {
            quantum::BatchPauliFrame frame(lattice.numQubits());
            quantum::BatchErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3},
                goldenSeed,
                b * quantum::BatchPauliFrame::lanes);
            auto history = extractor.runRoundsBatch(
                frame, &channel, goldenDistance);
            history.push_back(
                extractor.runRoundBatch(frame, nullptr));
            const auto events =
                decode::extractDetectionEventsBatch(history,
                                                    extractor);
            for (const auto &lane : events)
                decoder.decode(lane);
        });

        // Phase 4: streaming sliding-window decode sweep on the
        // pool. Each trial owns a StreamingDecoder fed from
        // Rng::substream(seed, trial), so the decode.stream.*
        // counters and the lag histogram are a pure function of the
        // trial set regardless of scheduling.
        const decode::StreamConfig stream_cfg{ 4, 2, {} };
        sim::parallelFor(pool, goldenTrials, [&](std::uint64_t i) {
            sim::Rng rng = sim::Rng::substream(goldenSeed + 1, i);
            quantum::ErrorChannel channel(
                quantum::ErrorRates{3e-3, 0, 0, 0, 3e-3}, rng);
            quantum::PauliFrame frame(lattice.numQubits());
            decode::StreamingDecoder streamer(extractor,
                                              stream_cfg);
            extractor.runRoundsStreaming(
                frame, &channel, goldenDistance,
                [&](const qecc::SyndromeRound &round) {
                    streamer.pushRound(round);
                });
            streamer.pushRound(extractor.runRound(frame, nullptr));
            streamer.finish();
        });

        // Phase 5: arbitrated replay. Two d=3 tiles contend for 4
        // shared fetch slots per cycle; the master plans the
        // arbitration once and replays the memoized plan every
        // round, recording one plan per tile per round. The sched.*
        // counters must land in the snapshot identically for every
        // thread count (the cycle model itself is serial).
        {
            core::MasterConfig arb_cfg;
            arb_cfg.numMces = 2;
            arb_cfg.mce.distance = 3;
            arb_cfg.mce.seed = goldenSeed + 2;
            arb_cfg.mce.errorRates =
                quantum::ErrorRates{1e-3, 0, 0, 0, 1e-3};
            arb_cfg.sharedFetchBandwidth = 4;
            core::MasterController arb(arb_cfg);
            arb.runRounds(goldenArbRounds);
            for (const core::TileSchedule &t :
                 arb.lastArbitration().tiles)
                out.schedIssued += goldenArbRounds * t.issued;
        }

        // Snapshot while the master's stat tree is still attached.
        out.snapshot = sim::metricsSnapshot();
        out.digest = tracer.countDigest();
    }
    tracer.setEnabled(false);
    return out;
}

TEST(GoldenTrace, WorkloadProducesObservableActivity)
{
    const GoldenRun r = runGolden(1);
    // The snapshot must actually witness the instrumented
    // components, not vacuously compare empty strings. Replay
    // rounds: 2 master tiles x 100 rounds plus the 2 phase-5 tiles'
    // rounds.
    EXPECT_NE(r.snapshot.find(
                  "mce.replay.rounds "
                  + std::to_string(200 + 2 * goldenArbRounds)),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("decode.mwpm.decodes"),
              std::string::npos);
    EXPECT_NE(r.snapshot.find("master.bus_bytes_syndrome"),
              std::string::npos);
    // Batched engine accounting: 2 batches x (d noisy + 1 quiet)
    // rounds must be witnessed exactly.
    EXPECT_NE(r.snapshot.find("qecc.batch.rounds 12"),
              std::string::npos)
        << r.snapshot;
    // Streaming accounting must be witnessed exactly. Phase 4: 32
    // trials x (d noisy + 1 quiet) = 192 pushed rounds and 3 windows
    // per trial (two full 4-round windows plus the flush) = 96.
    // Phase 1: the master's 2 tiles decode through streamers with
    // W == S == d = 5, so 2 x 100 = 200 pushed rounds and
    // 2 x 100 / 5 = 40 windows. Phase 5: 2 tiles x 6 rounds = 12
    // pushed rounds and 2 x 6 / 3 = 4 windows. Totals: 404 rounds,
    // 140 windows.
    EXPECT_NE(r.snapshot.find("decode.stream.rounds 404"),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("decode.stream.windows 140"),
              std::string::npos)
        << r.snapshot;
    // Arbitration accounting: one memoized plan serves all phase-5
    // rounds and is recorded once per tile per round, so sched.plans
    // witnesses 2 x 6 plans and sched.issued every round's uop count
    // (computed at runtime — the program depends on the protocol and
    // lattice).
    ASSERT_GT(r.schedIssued, 0u);
    EXPECT_NE(r.snapshot.find("sched.issued "
                              + std::to_string(r.schedIssued) + "\n"),
              std::string::npos)
        << r.snapshot;
    EXPECT_NE(r.snapshot.find("sched.plans "
                              + std::to_string(2 * goldenArbRounds)
                              + "\n"),
              std::string::npos)
        << r.snapshot;
    if (sim::traceCompiledIn()) {
        EXPECT_NE(r.digest, sim::emptyTraceDigest);
    }
}

TEST(GoldenTrace, ByteIdenticalAcrossThreadCounts)
{
    const GoldenRun one = runGolden(1);
    const GoldenRun two = runGolden(2);
    const GoldenRun five = runGolden(5);

    EXPECT_EQ(one.snapshot, two.snapshot);
    EXPECT_EQ(one.snapshot, five.snapshot);
    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.digest, five.digest);
}

TEST(GoldenTrace, ByteIdenticalAcrossRepeatedRuns)
{
    const GoldenRun first = runGolden(2);
    const GoldenRun second = runGolden(2);
    EXPECT_EQ(first.snapshot, second.snapshot);
    EXPECT_EQ(first.digest, second.digest);
}

} // namespace
