/**
 * @file
 * Decoder throughput bench: the binding constraint of the classical
 * control plane (cf. Das et al., "A Scalable Decoder
 * Micro-architecture for Fault-Tolerant Quantum Computing") is how
 * many syndrome windows per second the global decoder sustains.
 * This bench measures trials/sec and p50/p99 decode latency for the
 * MWPM (exact + greedy) and cluster decoders, single- and
 * multi-threaded, and emits BENCH_decoder_throughput.json so the
 * perf trajectory of the hot path is tracked across PRs.
 *
 * Each trial is a d-round memory experiment sampled through the
 * memory-experiment engine (decode::MemoryExperiment: lane t of
 * batch b carries trial b*64 + t, drawing from
 * Rng::substream(seed, b*64 + t)); the multi-thread run must
 * reproduce the single-thread
 * per-trial correction weights bit-for-bit (verified here) — the
 * determinism contract of sim/parallel.hpp.
 *
 * Measurement method: each configuration is decoded once untimed
 * (warm-up: faults the pool's worker threads awake, warms caches
 * and allocator arenas), then the timed loop repeats the whole
 * trial set enough times for the wall clock to dwarf dispatch
 * overhead (>= --min-window-ms, calibrated on the single-thread
 * run and reused for the multi-thread run so the scaling ratio
 * compares identical work). Without this, a smoke-sized window is
 * almost pure thread-pool wake latency and the "multi-thread
 * throughput" column reports the cold-dispatch artifact instead of
 * the decoder — the sub-single-thread numbers once reported at
 * d=9 were exactly that.
 *
 * A second table isolates the global layer: exact-matcher latency
 * by event count (n = 6, 10, 14 events of one type), over per-type
 * LUT residuals sampled at d=13, p=1e-2 (the matching-heavy point).
 * Full runs only; --smoke skips it.
 *
 * Flags: --smoke (CI-sized run), --threads=N (multi-thread degree,
 * default ThreadPool::defaultThreads()), --trials=N, --out=PATH,
 * --min-window-ms=N (timed-window floor, default 50),
 * --check-scaling=R (exit 1 when any config's multi/single
 * throughput ratio lands below R; skipped with a note on
 * single-core hosts where no speedup is physically available).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "decode/cluster_decoder.hpp"
#include "decode/lut_decoder.hpp"
#include "decode/memory_experiment.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/parallel.hpp"
#include "sim/table.hpp"

namespace {

using namespace quest;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t sampleSeed = 0xDEC0DE;

/**
 * Sample every trial's detection events up front through the
 * memory-experiment engine: trial i is lane i % 64 of batch i / 64,
 * drawing from Rng::substream(sampleSeed, i).
 */
std::vector<decode::DetectionEvents>
sampleAll(const decode::MemoryExperiment &exp, double p,
          std::uint64_t trials, sim::ThreadPool &pool)
{
    constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;
    decode::MemoryRun run;
    run.errorRate = p;
    run.seed = sampleSeed;
    auto per_batch =
        sim::parallelMap<std::vector<decode::DetectionEvents>>(
            pool, (trials + lanes - 1) / lanes, [&](std::uint64_t b) {
                decode::MemoryBatch batch;
                exp.sample(run, b * lanes, batch);
                return std::move(batch.events);
            });
    std::vector<decode::DetectionEvents> events;
    events.reserve(trials);
    for (std::uint64_t i = 0; i < trials; ++i)
        events.push_back(std::move(per_batch[i / lanes][i % lanes]));
    return events;
}

/** One timed run: per-trial latencies plus total wall time. */
struct Timing
{
    double trialsPerSec = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    std::size_t threads = 1;
    std::uint64_t reps = 1;      ///< timed passes over the trial set
    double wallSeconds = 0.0;    ///< total timed wall
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = std::min(
        sorted.size() - 1,
        std::size_t(q * double(sorted.size() - 1) + 0.5));
    return sorted[idx];
}

Timing
summarize(std::vector<double> latencies, double wall_seconds,
          std::size_t threads, std::uint64_t reps)
{
    Timing t;
    t.threads = threads;
    t.reps = reps;
    t.wallSeconds = wall_seconds;
    t.trialsPerSec = wall_seconds > 0.0
        ? double(latencies.size()) * double(reps) / wall_seconds
        : 0.0;
    std::sort(latencies.begin(), latencies.end());
    t.p50Ns = percentile(latencies, 0.50);
    t.p99Ns = percentile(latencies, 0.99);
    return t;
}

/**
 * Decode the pre-sampled windows on `pool` `reps` times after one
 * untimed warm-up pass, recording per-trial decode latency (final
 * pass) and the per-trial correction weight (the determinism
 * witness). The warm-up pass is what keeps smoke-sized windows
 * honest: it absorbs the pool's cold condvar wake and the
 * decoders' first-touch allocations, which otherwise dominate a
 * 64-trial measurement and invert the scaling ratio.
 */
template <typename DecodeFn>
Timing
runTrials(sim::ThreadPool &pool,
          const std::vector<decode::DetectionEvents> &events,
          const DecodeFn &decode_one,
          std::vector<std::uint64_t> &weights, std::uint64_t reps)
{
    const std::uint64_t trials = events.size();
    std::vector<double> latency(trials, 0.0);
    weights.assign(trials, 0);

    sim::parallelFor(pool, trials, [&](std::uint64_t i) {
        weights[i] = decode_one(events[i]).weight();
    });

    const auto wall0 = Clock::now();
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        const bool last = rep + 1 == reps;
        sim::parallelFor(pool, trials, [&](std::uint64_t i) {
            const auto t0 = Clock::now();
            const decode::Correction corr = decode_one(events[i]);
            const auto t1 = Clock::now();
            if (last) {
                latency[i] = double(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t1 - t0)
                        .count());
                weights[i] = corr.weight();
            }
        });
    }
    const double wall = std::chrono::duration<double>(
        Clock::now() - wall0).count();
    return summarize(std::move(latency), wall, pool.threads(), reps);
}

/**
 * Pick the rep count that stretches the timed window past
 * `min_window_s` for this configuration, from one warm
 * single-thread probe pass.
 */
std::uint64_t
calibrateReps(double probe_wall_s, double min_window_s)
{
    if (probe_wall_s <= 0.0)
        return 4096;
    const double want = min_window_s / probe_wall_s;
    if (want <= 1.0)
        return 1;
    return std::uint64_t(std::min(4096.0, want + 1.0));
}

/** Exact-matcher latency over residual sets of one size. */
struct ExactRow
{
    std::size_t events = 0; ///< events of one type per set
    std::size_t sets = 0;   ///< sampled sets of that size
    double p50Ns = 0.0;
    double p99Ns = 0.0;
};

/**
 * Time MwpmDecoder::matchEvents on the per-type LUT residuals of
 * `trials` d=13, p=1e-2 memory trials, grouped by event count:
 * up to 256 sets per count, one untimed warm-up call each, then
 * `reps` timed calls each.
 */
std::vector<ExactRow>
exactLatencyByEvents(sim::ThreadPool &pool, std::uint64_t trials,
                     std::uint64_t reps)
{
    const decode::MemoryExperiment exp(qecc::Protocol::Steane, 13);
    const decode::LutDecoder lut(exp.lattice());
    const decode::MwpmDecoder exact(exp.lattice(), 14);
    const std::vector<decode::DetectionEvents> events =
        sampleAll(exp, 1e-2, trials, pool);

    std::vector<ExactRow> rows;
    for (const std::size_t n : {6u, 10u, 14u}) {
        std::vector<std::vector<decode::DetectionEvent>> sets;
        for (const decode::DetectionEvents &e : events) {
            const decode::LocalDecodeResult local = lut.decodeLocal(e);
            for (const auto *v : {&local.residual.xEvents,
                                  &local.residual.zEvents})
                if (v->size() == n && sets.size() < 256)
                    sets.push_back(*v);
        }
        std::vector<double> latency;
        for (const auto &set : sets)
            (void)exact.matchEvents(set);
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            for (const auto &set : sets) {
                const auto t0 = Clock::now();
                (void)exact.matchEvents(set);
                const auto t1 = Clock::now();
                latency.push_back(double(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count()));
            }
        }
        std::sort(latency.begin(), latency.end());
        rows.push_back(ExactRow{n, sets.size(),
                                percentile(latency, 0.50),
                                percentile(latency, 0.99)});
    }
    return rows;
}

struct ConfigResult
{
    std::size_t distance = 0;
    std::string decoder;
    Timing single;
    Timing multi;
    double scaling = 0.0; ///< multi/single throughput ratio
    bool deterministic = false;
};

sim::Json
timingJson(const Timing &t)
{
    sim::Json out = sim::Json::object();
    out.set("threads", t.threads)
        .set("trials_per_sec", t.trialsPerSec)
        .set("p50_ns", t.p50Ns)
        .set("p99_ns", t.p99Ns);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);

    bool smoke = false;
    std::uint64_t trials = 0;
    std::size_t threads = 0;
    double min_window_ms = 50.0;
    double check_scaling = 0.0; // 0 = report only, no gate
    std::string out_path = "BENCH_decoder_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = std::size_t(std::stoul(arg.substr(10)));
        } else if (arg.rfind("--trials=", 0) == 0) {
            trials = std::stoull(arg.substr(9));
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(6);
        } else if (arg.rfind("--min-window-ms=", 0) == 0) {
            min_window_ms = std::stod(arg.substr(16));
        } else if (arg.rfind("--check-scaling=", 0) == 0) {
            check_scaling = std::stod(arg.substr(16));
        } else {
            std::cerr << "unknown flag " << arg << "\n"
                      << "usage: decoder_throughput [--smoke] "
                         "[--threads=N] [--trials=N] [--out=PATH] "
                         "[--min-window-ms=N] [--check-scaling=R]\n";
            return 1;
        }
    }
    if (trials == 0)
        trials = smoke ? 64 : 1024;
    // Start the cycle-accounting section of the output JSON from a
    // clean registry so it reflects this run only.
    sim::metrics::Registry::global().reset();
    sim::ThreadPool pool(threads ? threads
                                 : sim::ThreadPool::defaultThreads());
    sim::ThreadPool serial(1);

    const double p = 3e-3; // the decoder_comparison workload point
    const std::vector<std::size_t> distances =
        smoke ? std::vector<std::size_t>{5}
              : std::vector<std::size_t>{5, 9};

    std::vector<ConfigResult> results;
    for (const std::size_t d : distances) {
        const decode::MemoryExperiment exp(qecc::Protocol::Steane, d);
        const decode::MwpmDecoder exact(exp.lattice(), 14);
        const decode::MwpmDecoder greedy(exp.lattice(), 0);
        const decode::ClusterDecoder cluster(exp.lattice());
        const std::vector<decode::DetectionEvents> events =
            sampleAll(exp, p, trials, pool);

        const auto run = [&](const std::string &name,
                             const auto &decode_one) {
            ConfigResult r;
            r.distance = d;
            r.decoder = name;
            std::vector<std::uint64_t> w_single, w_multi;
            // Calibrate the rep count on a warm single-thread
            // probe, then time both runs over identical work.
            const Timing probe =
                runTrials(serial, events, decode_one, w_single, 1);
            const std::uint64_t reps = calibrateReps(
                probe.wallSeconds, min_window_ms / 1e3);
            r.single = runTrials(serial, events, decode_one,
                                 w_single, reps);
            r.multi = runTrials(pool, events, decode_one,
                                w_multi, reps);
            r.scaling = r.single.trialsPerSec > 0.0
                ? r.multi.trialsPerSec / r.single.trialsPerSec
                : 0.0;
            r.deterministic = w_single == w_multi;
            QUEST_ASSERT(r.deterministic,
                         "multi-thread decode diverged from "
                         "single-thread on %s d=%zu",
                         name.c_str(), d);
            results.push_back(r);
        };
        run("mwpm_exact", [&](const decode::DetectionEvents &e) {
            return exact.decode(e);
        });
        run("mwpm_greedy", [&](const decode::DetectionEvents &e) {
            return greedy.decode(e);
        });
        run("uf_cluster", [&](const decode::DetectionEvents &e) {
            return cluster.decode(e);
        });
    }

    sim::Table table("Decoder throughput (p=3e-3 memory windows, "
                     + std::to_string(trials) + " trials)");
    table.header({ "distance", "decoder", "1T trials/s", "1T p50 us",
                   "1T p99 us", std::to_string(pool.threads())
                       + "T trials/s", "scaling", "reps",
                   "deterministic" });
    for (const ConfigResult &r : results) {
        char b1[32], b2[32], b3[32], b4[32], b5[32];
        std::snprintf(b1, sizeof(b1), "%.0f", r.single.trialsPerSec);
        std::snprintf(b2, sizeof(b2), "%.1f", r.single.p50Ns / 1e3);
        std::snprintf(b3, sizeof(b3), "%.1f", r.single.p99Ns / 1e3);
        std::snprintf(b4, sizeof(b4), "%.0f", r.multi.trialsPerSec);
        std::snprintf(b5, sizeof(b5), "%.2f", r.scaling);
        table.row({ std::to_string(r.distance), r.decoder, b1, b2,
                    b3, b4, b5, std::to_string(r.single.reps),
                    r.deterministic ? "yes" : "NO" });
    }
    table.caption("single-thread latency tracks the scratch-arena + "
                  "distance-cache hot path; scaling is the "
                  "multi/single throughput ratio over identical "
                  "warmed, rep-expanded work");
    table.print(std::cout);

    std::vector<ExactRow> exact_rows;
    if (!smoke) {
        exact_rows = exactLatencyByEvents(serial, 4096, 16);
        sim::Table exact_table(
            "Exact matcher latency by event count (d=13 p=1e-2 LUT "
            "residuals, one stabilizer type)");
        exact_table.header({ "events", "sets", "p50 us", "p99 us" });
        for (const ExactRow &r : exact_rows) {
            char b1[32], b2[32];
            std::snprintf(b1, sizeof(b1), "%.2f", r.p50Ns / 1e3);
            std::snprintf(b2, sizeof(b2), "%.2f", r.p99Ns / 1e3);
            exact_table.row({ std::to_string(r.events),
                              std::to_string(r.sets), b1, b2 });
        }
        exact_table.caption("one MwpmDecoder::matchEvents call per "
                            "set, single thread, 16 timed passes");
        exact_table.print(std::cout);
    }

    sim::Json configs = sim::Json::array();
    for (const ConfigResult &r : results)
        configs.push(sim::Json::object()
                         .set("distance", r.distance)
                         .set("decoder", r.decoder)
                         .set("single_thread", timingJson(r.single))
                         .set("multi_thread", timingJson(r.multi))
                         .set("scaling", r.scaling)
                         .set("reps", r.single.reps)
                         .set("deterministic", r.deterministic));
    sim::Json exact_json = sim::Json::array();
    for (const ExactRow &r : exact_rows)
        exact_json.push(sim::Json::object()
                            .set("events", r.events)
                            .set("sets", r.sets)
                            .set("p50_ns", r.p50Ns)
                            .set("p99_ns", r.p99Ns));
    bench::writeBenchJson(
        out_path, sim::Json::object()
                      .set("bench", "decoder_throughput")
                      .set("smoke", smoke)
                      .set("trials", trials)
                      .set("error_rate", p)
                      .set("configs", std::move(configs))
                      .set("exact_by_events", std::move(exact_json)));

    if (check_scaling > 0.0) {
        if (std::thread::hardware_concurrency() < 2
            || pool.threads() < 2) {
            std::cout << "check-scaling: skipped (host offers "
                      << std::thread::hardware_concurrency()
                      << " core(s); no parallel speedup is "
                         "physically available)\n";
            return 0;
        }
        int bad = 0;
        for (const ConfigResult &r : results) {
            if (r.scaling < check_scaling) {
                std::cout << "check-scaling: d=" << r.distance
                          << " " << r.decoder << " scaled "
                          << r.scaling << "x < required "
                          << check_scaling << "x\n";
                ++bad;
            }
        }
        if (bad != 0)
            return 1;
        std::cout << "check-scaling: all configs >= "
                  << check_scaling << "x\n";
    }
    return 0;
}
