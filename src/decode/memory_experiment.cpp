#include "memory_experiment.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "pipeline.hpp"
#include "sim/parallel.hpp"

namespace quest::decode {

namespace {

constexpr std::size_t lanes = quantum::BatchPauliFrame::lanes;

/** Batches per parallel pass; bounds the buffered outcomes. */
constexpr std::uint64_t passBatches = 256;

std::vector<std::size_t>
indices(const qecc::Lattice &lattice,
        const std::vector<qecc::Coord> &coords)
{
    std::vector<std::size_t> out;
    for (const qecc::Coord c : coords)
        out.push_back(lattice.index(c));
    return out;
}

} // namespace

void
MemoryTally::add(std::uint64_t weight, bool failed)
{
    ++trials;
    failures += failed ? 1 : 0;
    weightSum += weight;
    logWeight += std::log1p(double(weight));
    witness = witnessFold(witness, (weight << 1) | (failed ? 1u : 0u));
}

/** One participant's decoder and batch scratch. */
struct MemoryExperiment::Worker
{
    explicit Worker(const qecc::Lattice &lattice) : pipeline(lattice) {}

    DecoderPipeline pipeline;
    MemoryBatch batch;
};

struct MemoryExperiment::BatchOutcome
{
    std::array<std::uint64_t, lanes> weight{};
    std::uint64_t failed = 0; ///< lane masks
    std::uint64_t dirty = 0;
    std::uint64_t windows = 0;
};

MemoryExperiment::MemoryExperiment(qecc::Protocol protocol,
                                   std::size_t distance)
    : _distance(distance),
      _lattice(qecc::Lattice::forDistance(distance)),
      _schedule(qecc::buildRoundSchedule(
          _lattice, qecc::protocolSpec(protocol))),
      _extractor(_schedule),
      _logicalZ(indices(_lattice, _lattice.logicalZSupport())),
      _logicalX(indices(_lattice, _lattice.logicalXSupport()))
{}

MemoryExperiment::~MemoryExperiment() = default;

void
MemoryExperiment::sample(const MemoryRun &run, std::uint64_t first,
                         MemoryBatch &out, bool with_events) const
{
    const double p = run.errorRate;
    quantum::BatchErrorChannel channel(
        quantum::ErrorRates{p, 0, 0, 0, p}, run.seed, first);
    out.frame = quantum::BatchPauliFrame(_lattice.numQubits());
    out.history = _extractor.runRoundsBatch(
        out.frame, &channel, run.rounds ? run.rounds : _distance);
    out.history.push_back(_extractor.runRoundBatch(out.frame, nullptr));
    if (with_events)
        extractDetectionEventsBatchInto(out.history, _extractor, nullptr,
                                        0, out.events);
}

std::uint64_t
MemoryExperiment::failureMask(quantum::BatchPauliFrame &frame,
                              std::uint64_t *dirty) const
{
    const qecc::BatchSyndromeRound round =
        _extractor.runRoundBatch(frame, nullptr);
    std::uint64_t fail = 0;
    for (const std::uint64_t w : round.xFlips)
        fail |= w;
    for (const std::uint64_t w : round.zFlips)
        fail |= w;
    if (dirty)
        *dirty |= fail;
    // X errors crossing the logical Z support flip logical Z, and
    // Z errors crossing the logical X support flip logical X.
    std::uint64_t parity_z = 0, parity_x = 0;
    for (const std::size_t q : _logicalZ)
        parity_z ^= frame.measureZFlipMask(q);
    for (const std::size_t q : _logicalX)
        parity_x ^= frame.measureXFlipMask(q);
    return fail | parity_z | parity_x;
}

void
MemoryExperiment::runBatch(const MemoryRun &run, std::uint64_t first,
                           std::size_t count, Worker &w,
                           BatchOutcome &out)
{
    MemoryBatch &b = w.batch;
    sample(run, first, b, !run.stream);
    for (std::size_t l = 0; l < count; ++l) {
        Correction corr;
        if (run.stream) {
            // One streamer per shot, fed the lane's rounds in order.
            StreamingDecoder streamer(_extractor, *run.stream);
            for (const qecc::BatchSyndromeRound &round : b.history)
                if (auto commit = streamer.pushRound(round.lane(l)))
                    corr.merge(commit->correction);
            if (auto commit = streamer.finish())
                corr.merge(commit->correction);
            out.windows += streamer.windowsDecoded();
        } else {
            corr = w.pipeline.decode(b.events[l]);
        }
        applyCorrection(b.frame, l, corr);
        out.weight[l] = corr.weight();
    }
    const std::uint64_t valid =
        count == lanes ? ~0ull : (1ull << count) - 1;
    out.failed = failureMask(b.frame, &out.dirty) & valid;
    out.dirty &= valid;
}

MemoryTally
MemoryExperiment::run(const MemoryRun &run, std::uint64_t begin,
                      std::uint64_t end, sim::ThreadPool &pool)
{
    MemoryTally tally;
    std::vector<BatchOutcome> outcomes;
    for (std::uint64_t pass = begin; pass < end;
         pass += passBatches * lanes) {
        const std::uint64_t n =
            std::min(end - pass, passBatches * lanes);
        const auto count = [&](std::uint64_t i) {
            return std::size_t(std::min<std::uint64_t>(lanes,
                                                       n - i * lanes));
        };
        outcomes.assign(std::size_t((n + lanes - 1) / lanes), {});
        sim::parallelFor(
            pool, outcomes.size(),
            [&](std::uint64_t i) {
                std::unique_ptr<Worker> w;
                {
                    std::lock_guard<std::mutex> lk(_idleMutex);
                    if (!_idle.empty()) {
                        w = std::move(_idle.back());
                        _idle.pop_back();
                    }
                }
                if (!w)
                    w = std::make_unique<Worker>(_lattice);
                runBatch(run, pass + i * lanes, count(i), *w,
                         outcomes[std::size_t(i)]);
                std::lock_guard<std::mutex> lk(_idleMutex);
                _idle.push_back(std::move(w));
            },
            /*chunk=*/1);

        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const BatchOutcome &o = outcomes[i];
            for (std::size_t l = 0; l < count(i); ++l)
                tally.add(o.weight[l], (o.failed >> l) & 1u);
            tally.dirty += std::uint64_t(std::popcount(o.dirty));
            tally.windows += o.windows;
        }
    }
    return tally;
}

} // namespace quest::decode
