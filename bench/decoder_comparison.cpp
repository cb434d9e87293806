/**
 * @file
 * Decoder comparison: accuracy and cost of the three global
 * decoders (exact MWPM, greedy matching, union-find clustering)
 * behind the master controller. The paper's two-level decode scheme
 * leaves "complex error patterns" to the global decoder; this bench
 * quantifies the accuracy/latency trade-off of that component.
 */

#include <algorithm>
#include <vector>

#include "bench_util.hpp"
#include "decode/cluster_decoder.hpp"
#include "decode/memory_experiment.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace quest;
using decode::ClusterDecoder;
using decode::MwpmDecoder;

void
printFigure()
{
    const int trials = 600;
    const double p = 3e-3;
    sim::Table table("Global decoder comparison (phenomenological "
                     "p=3e-3, d-round memory experiment)");
    table.header({ "distance", "MWPM exact", "matching greedy",
                   "UF cluster", "mean cluster size" });

    for (std::size_t d : { 3u, 5u, 7u }) {
        decode::MemoryExperiment exp(qecc::Protocol::Steane, d);
        MwpmDecoder exact(exp.lattice(), 14);
        MwpmDecoder greedy(exp.lattice(), 0);
        ClusterDecoder cluster(exp.lattice());
        decode::MemoryRun run;
        run.errorRate = p;
        run.seed = 99;

        // Each decoder corrects its own copy of a sampled batch;
        // the engine's lane contract keeps the table bit-identical
        // for any thread count.
        struct TrialOutcome
        {
            std::uint8_t failExact = 0, failGreedy = 0,
                         failCluster = 0, hasClusters = 0;
            double clusterRatio = 0.0;
        };
        constexpr std::size_t lanes =
            quantum::BatchPauliFrame::lanes;
        const std::uint64_t num_batches =
            (std::uint64_t(trials) + lanes - 1) / lanes;
        const auto batches =
            sim::parallelMap<std::vector<TrialOutcome>>(
                num_batches, [&](std::uint64_t b) {
                    decode::MemoryBatch batch;
                    exp.sample(run, b * lanes, batch);
                    quantum::BatchPauliFrame fe = batch.frame,
                                             fg = batch.frame,
                                             fc = batch.frame;
                    const std::uint64_t count =
                        std::min<std::uint64_t>(
                            lanes,
                            std::uint64_t(trials) - b * lanes);
                    std::vector<TrialOutcome> out(count);
                    for (std::uint64_t t = 0; t < count; ++t) {
                        const auto &events = batch.events[t];
                        decode::applyCorrection(
                            fe, t, exact.decode(events));
                        decode::applyCorrection(
                            fg, t, greedy.decode(events));
                        decode::ClusterStats stats;
                        decode::applyCorrection(
                            fc, t, cluster.decode(events, stats));
                        if (stats.clusters) {
                            out[t].hasClusters = 1;
                            out[t].clusterRatio = double(events.total())
                                / double(stats.clusters);
                        }
                    }
                    const std::uint64_t me = exp.failureMask(fe),
                                        mg = exp.failureMask(fg),
                                        mc = exp.failureMask(fc);
                    for (std::uint64_t t = 0; t < count; ++t) {
                        out[t].failExact = (me >> t) & 1u;
                        out[t].failGreedy = (mg >> t) & 1u;
                        out[t].failCluster = (mc >> t) & 1u;
                    }
                    return out;
                });

        int fail_exact = 0, fail_greedy = 0, fail_cluster = 0;
        double cluster_events = 0, cluster_count = 0;
        for (const std::vector<TrialOutcome> &batch : batches)
        for (const TrialOutcome &o : batch) {
            fail_exact += o.failExact;
            fail_greedy += o.failGreedy;
            fail_cluster += o.failCluster;
            cluster_events += o.clusterRatio;
            cluster_count += o.hasClusters;
        }
        auto rate = [&](int fails) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.2e",
                          double(fails) / double(trials));
            return std::string(buf);
        };
        char mean_cluster[32];
        std::snprintf(mean_cluster, sizeof(mean_cluster), "%.2f",
                      cluster_count ? cluster_events / cluster_count
                                    : 0.0);
        table.row({ std::to_string(d), rate(fail_exact),
                    rate(fail_greedy), rate(fail_cluster),
                    mean_cluster });
    }
    table.caption("exact MWPM is the accuracy reference; the "
                  "cluster decoder trades little accuracy for "
                  "near-linear scaling");
    quest::bench::emit(table);
}

template <typename Decoder>
void
runDecoderBench(benchmark::State &state, std::size_t exact_limit)
{
    decode::MemoryExperiment exp(qecc::Protocol::Steane,
                                 std::size_t(state.range(0)));
    Decoder decoder = [&] {
        if constexpr (std::is_same_v<Decoder, MwpmDecoder>)
            return MwpmDecoder(exp.lattice(), exact_limit);
        else
            return ClusterDecoder(exp.lattice());
    }();

    // Pre-sample one batch of event sets so only decoding is timed.
    decode::MemoryRun run;
    run.errorRate = 3e-3;
    run.seed = 7;
    decode::MemoryBatch batch;
    exp.sample(run, 0, batch);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            decoder.decode(batch.events[i % batch.events.size()]));
        ++i;
    }
}

void
BM_DecodeMwpmExact(benchmark::State &state)
{
    runDecoderBench<MwpmDecoder>(state, 14);
}
BENCHMARK(BM_DecodeMwpmExact)->Arg(5)->Arg(9)->Arg(13);

void
BM_DecodeGreedy(benchmark::State &state)
{
    runDecoderBench<MwpmDecoder>(state, 0);
}
BENCHMARK(BM_DecodeGreedy)->Arg(5)->Arg(9)->Arg(13);

void
BM_DecodeCluster(benchmark::State &state)
{
    runDecoderBench<ClusterDecoder>(state, 0);
}
BENCHMARK(BM_DecodeCluster)->Arg(5)->Arg(9)->Arg(13);

} // namespace

QUEST_BENCH_MAIN(printFigure)
