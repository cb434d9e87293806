/**
 * @file
 * Streaming-decoder lag bench: how far decoding runs behind
 * extraction for sliding-window shapes, versus the offline
 * end-of-shot pipeline. For each (window, stride) shape it streams
 * seeded d-round memory shots through decode::StreamingDecoder,
 * reporting the logical failure count, windows/sec and the
 * decode.stream.lag_rounds p50/p99 (rounds extracted but not yet
 * committed, sampled after every pushed round). The offline baseline
 * decodes the same shots through DecoderPipeline; its "lag" is the
 * whole shot by construction.
 *
 * Per distance it also times StreamingDecoder construction, the
 * set-up cost every streamed shot pays before its first round.
 *
 * A merge micro-bench rides along: Correction::merge was rewritten
 * from O(n^2) find+erase to sort-and-cancel, and this bench tracks
 * ns/merge for both so the speedup stays visible across PRs.
 *
 * Flags:
 *   --smoke      CI-sized run (d=5 only, fewer trials)
 *   --trials=N   shots per configuration
 *   --out=PATH   JSON output (default BENCH_stream_lag.json)
 *   --check      gate mode: exit 1 unless (a) the full-shot
 *                single-window stream is bit-identical to the
 *                offline pipeline on every trial, (b) every windowed
 *                shape clears the syndrome on every trial, and
 *                (c) the merge rewrite is parity-equal to the
 *                find+erase reference on randomized inputs.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "decode/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t sampleSeed = 0x57AE;

struct ConfigResult
{
    std::size_t distance = 0;
    std::string shape; ///< "offline" or "WxS"
    std::size_t window = 0;
    std::size_t stride = 0;
    std::uint64_t failures = 0;
    std::uint64_t windows = 0;
    double windowsPerSec = 0.0;
    double lagP50 = 0.0;
    double lagP99 = 0.0;
};

/** The pre-rewrite find+erase merge, kept as the timing baseline. */
void
referenceMerge(std::vector<std::size_t> &dst,
               const std::vector<std::size_t> &src)
{
    for (const std::size_t q : src) {
        const auto it = std::find(dst.begin(), dst.end(), q);
        if (it != dst.end())
            dst.erase(it);
        else
            dst.push_back(q);
    }
}

struct MergeBench
{
    std::size_t flips = 0;
    double oldNsPerOp = 0.0;
    double newNsPerOp = 0.0;
    bool parity = true;
};

MergeBench
benchMerge(std::uint64_t reps, std::size_t flips)
{
    // Deterministic pseudo-random flip lists over a 4096-qubit
    // tile. Both loops copy the same destination list from lhs; the
    // new path's source Correction is pre-built so only the merge
    // itself is timed.
    std::uint64_t state = 0x9E3779B97F4A7C15ull ^ flips;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    std::vector<std::vector<std::size_t>> lhs(reps);
    std::vector<decode::Correction> rhs(reps);
    for (std::uint64_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < flips; ++i) {
            lhs[r].push_back(next() % 4096);
            rhs[r].xFlips.push_back(next() % 4096);
        }
    }

    MergeBench mb;
    mb.flips = flips;
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    std::vector<std::vector<std::size_t>> ref(reps);
    for (std::uint64_t r = 0; r < reps; ++r) {
        ref[r] = lhs[r];
        referenceMerge(ref[r], rhs[r].xFlips);
        sink += ref[r].size();
    }
    const auto t1 = Clock::now();
    std::vector<decode::Correction> merged(reps);
    for (std::uint64_t r = 0; r < reps; ++r) {
        merged[r].xFlips = lhs[r];
        merged[r].merge(rhs[r]);
        sink += merged[r].xFlips.size();
    }
    const auto t2 = Clock::now();
    if (sink == 0) // defeat dead-code elimination
        std::cerr << "";

    const double old_ns = double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    const double new_ns = double(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1)
            .count());
    mb.oldNsPerOp = old_ns / double(reps);
    mb.newNsPerOp = new_ns / double(reps);

    // Parity equivalence: per-qubit XOR semantics must agree even
    // with repeated entries.
    for (std::uint64_t r = 0; r < reps && mb.parity; ++r) {
        std::vector<std::size_t> want = ref[r];
        std::sort(want.begin(), want.end());
        std::vector<std::size_t> folded;
        for (std::size_t i = 0; i < want.size();) {
            std::size_t j = i;
            while (j < want.size() && want[j] == want[i])
                ++j;
            if ((j - i) % 2)
                folded.push_back(want[i]);
            i = j;
        }
        mb.parity = folded == merged[r].xFlips;
    }
    return mb;
}

/** Mean wall time of one StreamingDecoder construction, in us. */
double
constructUs(const qecc::SyndromeExtractor &extractor,
            const decode::StreamConfig &cfg, std::uint64_t reps)
{
    std::size_t sink = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) {
        const decode::StreamingDecoder streamer(extractor, cfg);
        sink += streamer.roundsPushed();
    }
    const double us = std::chrono::duration<double, std::micro>(
        Clock::now() - t0).count();
    if (sink != 0) // defeat dead-code elimination
        std::cerr << "";
    return us / double(reps);
}

struct ConstructBench
{
    std::size_t distance = 0;
    double streamerUs = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bool smoke = false;
    bool check = false;
    std::uint64_t trials = 0;
    std::string out_path = "BENCH_stream_lag.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = std::stoull(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else {
            std::cerr << "unknown flag " << arg << "\n"
                      << "usage: stream_lag [--smoke] [--check] "
                         "[--trials=N] [--out=PATH]\n";
            return 1;
        }
    }
    if (trials == 0)
        trials = smoke ? 96 : 512;
    sim::metrics::Registry::global().reset();

    const double p = 2e-3;
    const std::vector<std::size_t> distances =
        smoke ? std::vector<std::size_t>{5}
              : std::vector<std::size_t>{5, 7};

    auto &lag_hist = sim::metrics::Registry::global().histogram(
        "decode.stream.lag_rounds",
        "rounds decoding ran behind extraction, per pushed round");

    int gate_failures = 0;
    std::vector<ConfigResult> results;
    std::vector<ConstructBench> constructs;
    // Shots run single-threaded through the memory-experiment
    // engine, so windows/s is the rate of one decode stream.
    sim::ThreadPool serial(1);
    for (const std::size_t d : distances) {
        decode::MemoryExperiment exp(qecc::Protocol::Steane, d);
        decode::MemoryRun run;
        run.errorRate = p;
        run.seed = sampleSeed;
        run.rounds = 2 * d;

        // Offline baseline: end-of-shot barrier.
        {
            ConfigResult r;
            r.distance = d;
            r.shape = "offline";
            const auto t0 = Clock::now();
            r.failures = exp.run(run, 0, trials, serial).failures;
            const double wall = std::chrono::duration<double>(
                Clock::now() - t0).count();
            r.windows = trials;
            r.windowsPerSec =
                wall > 0.0 ? double(trials) / wall : 0.0;
            r.lagP50 = double(run.rounds + 1);
            r.lagP99 = double(run.rounds + 1);
            results.push_back(r);
        }

        const std::vector<std::pair<std::size_t, std::size_t>>
            shapes = { { d, d }, { 2 * d, d }, { 4 * d, 2 * d } };
        {
            decode::StreamConfig cfg;
            cfg.windowRounds = 2 * d;
            cfg.strideRounds = d;
            constructs.push_back(ConstructBench{
                d, constructUs(exp.extractor(), cfg,
                               smoke ? 200 : 2000)});
        }
        for (const auto &[window, stride] : shapes) {
            ConfigResult r;
            r.distance = d;
            r.window = window;
            r.stride = stride;
            r.shape = std::to_string(window) + "x"
                + std::to_string(stride);
            decode::MemoryRun streamed = run;
            streamed.stream = decode::StreamConfig{};
            streamed.stream->windowRounds = window;
            streamed.stream->strideRounds = stride;
            lag_hist.reset();
            const auto t0 = Clock::now();
            const decode::MemoryTally tally =
                exp.run(streamed, 0, trials, serial);
            const double wall = std::chrono::duration<double>(
                Clock::now() - t0).count();
            if (check && tally.dirty != 0) {
                std::cout << "check: d=" << d << " " << r.shape << " "
                          << tally.dirty
                          << " trial(s) left residual syndrome\n";
                ++gate_failures;
            }
            r.failures = tally.failures;
            r.windows = tally.windows;
            r.windowsPerSec =
                wall > 0.0 ? double(r.windows) / wall : 0.0;
            r.lagP50 = lag_hist.percentile(0.5);
            r.lagP99 = lag_hist.percentile(0.99);
            results.push_back(r);
        }

        // Gate: a single window spanning the whole shot reproduces
        // the offline pipeline bit for bit.
        if (check) {
            decode::DecoderPipeline pipeline(exp.lattice());
            decode::StreamConfig cfg;
            cfg.windowRounds = run.rounds + 2;
            cfg.strideRounds = 1;
            decode::MemoryBatch batch;
            for (std::uint64_t t = 0; t < trials; ++t) {
                const std::size_t lane =
                    t % quantum::BatchPauliFrame::lanes;
                if (lane == 0)
                    exp.sample(run, t, batch);
                const decode::Correction offline =
                    pipeline.decode(batch.events[lane]);
                decode::StreamingDecoder streamer(exp.extractor(),
                                                  cfg);
                for (const auto &round : batch.history)
                    streamer.pushRound(round.lane(lane));
                decode::Correction streamed;
                if (auto c = streamer.finish())
                    streamed = c->correction;
                if (streamed.xFlips != offline.xFlips
                    || streamed.zFlips != offline.zFlips) {
                    std::cout << "check: d=" << d << " trial " << t
                              << " full-shot stream diverged from "
                                 "offline pipeline\n";
                    ++gate_failures;
                }
            }
        }
    }

    // Merge sizes span the regimes: a handful of flips (one quiet
    // window) where find+erase's small constant wins, through the
    // large residual batches where its O(n^2) scan dominated.
    const std::vector<std::pair<std::size_t, std::uint64_t>>
        merge_sizes = { { 16, 2000 }, { 256, 400 }, { 2048, 50 } };
    std::vector<MergeBench> merges;
    for (const auto &[flips, base_reps] : merge_sizes) {
        merges.push_back(
            benchMerge(smoke ? base_reps : base_reps * 8, flips));
        if (check && !merges.back().parity) {
            std::cout << "check: merge rewrite diverged from "
                         "find+erase parity at " << flips
                      << " flips\n";
            ++gate_failures;
        }
    }

    sim::Table table("Streaming decode lag (p=" + std::to_string(p)
                     + ", " + std::to_string(trials) + " shots)");
    table.header({ "distance", "window x stride", "failures",
                   "windows", "windows/s", "lag p50", "lag p99" });
    for (const ConfigResult &r : results) {
        char b1[32], b2[32], b3[32];
        std::snprintf(b1, sizeof(b1), "%.0f", r.windowsPerSec);
        std::snprintf(b2, sizeof(b2), "%.0f", r.lagP50);
        std::snprintf(b3, sizeof(b3), "%.0f", r.lagP99);
        table.row({ std::to_string(r.distance), r.shape,
                    std::to_string(r.failures),
                    std::to_string(r.windows), b1, b2, b3 });
    }
    table.caption("offline lag is the whole shot by construction; "
                  "sliding windows bound it by window size at the "
                  "cost of committing matches early");
    table.print(std::cout);
    for (const MergeBench &mb : merges)
        std::printf("merge @%zu flips: find+erase %.0f ns/op, "
                    "sort-and-cancel %.0f ns/op (%.1fx), parity "
                    "%s\n",
                    mb.flips, mb.oldNsPerOp, mb.newNsPerOp,
                    mb.newNsPerOp > 0.0
                        ? mb.oldNsPerOp / mb.newNsPerOp
                        : 0.0,
                    mb.parity ? "ok" : "DIVERGED");
    for (const ConstructBench &cb : constructs)
        std::printf("construct @d=%zu: StreamingDecoder %.2f us\n",
                    cb.distance, cb.streamerUs);

    sim::Json configs = sim::Json::array();
    for (const ConfigResult &r : results)
        configs.push(sim::Json::object()
                         .set("distance", r.distance)
                         .set("shape", r.shape)
                         .set("window", r.window)
                         .set("stride", r.stride)
                         .set("failures", r.failures)
                         .set("windows", r.windows)
                         .set("windows_per_sec", r.windowsPerSec)
                         .set("lag_p50", r.lagP50)
                         .set("lag_p99", r.lagP99));
    sim::Json merge = sim::Json::array();
    for (const MergeBench &mb : merges)
        merge.push(sim::Json::object()
                       .set("flips", mb.flips)
                       .set("find_erase_ns", mb.oldNsPerOp)
                       .set("sort_cancel_ns", mb.newNsPerOp)
                       .set("parity", mb.parity));
    sim::Json construct = sim::Json::array();
    for (const ConstructBench &cb : constructs)
        construct.push(sim::Json::object()
                           .set("distance", cb.distance)
                           .set("streaming_decoder_us",
                                cb.streamerUs));
    bench::writeBenchJson(out_path,
                          sim::Json::object()
                              .set("bench", "stream_lag")
                              .set("smoke", smoke)
                              .set("trials", trials)
                              .set("error_rate", p)
                              .set("configs", std::move(configs))
                              .set("merge", std::move(merge))
                              .set("construct", std::move(construct)));

    if (check) {
        if (gate_failures != 0) {
            std::cout << "check: " << gate_failures
                      << " gate failure(s)\n";
            return 1;
        }
        std::cout << "check: full-shot equivalence, syndrome "
                     "closure and merge parity all hold\n";
    }
    return 0;
}
