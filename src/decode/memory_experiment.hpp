/**
 * @file
 * The batched surface-code memory experiment: the one trial loop
 * behind `quest simulate`, the fleet sweep and the decoder benches
 * (DESIGN.md "Memory-experiment engine").
 *
 * A trial samples `rounds` noisy extraction rounds plus a noiseless
 * closing round, decodes the detection events (offline through the
 * DecoderPipeline or round by round through a StreamingDecoder),
 * applies the correction and fails if a noiseless round still flags
 * a syndrome or either logical support has odd error parity.
 *
 * Trials run 64 to a BatchPauliFrame: lane t of the batch starting at
 * trial f is trial f + t, drawing from Rng::substream(seed, f + t)
 * (BatchErrorChannel), so a trial's outcome depends only on its
 * index. Batches run under sim::parallelFor with one batch per chunk,
 * decoders are leased per batch from a free list, and outcomes are
 * folded in trial order: every total is bit-identical for any thread
 * count.
 */

#ifndef QUEST_DECODE_MEMORY_EXPERIMENT_HPP
#define QUEST_DECODE_MEMORY_EXPERIMENT_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "detection.hpp"
#include "qecc/protocol.hpp"
#include "qecc/schedule.hpp"
#include "sim/thread_pool.hpp"
#include "streaming.hpp"

namespace quest::decode {

/** Noise and decode policy of a run of memory trials. */
struct MemoryRun
{
    /** Per-round data (idle) error and readout flip probability. */
    double errorRate = 1e-3;
    /** Trial t draws only from Rng::substream(seed, t). */
    std::uint64_t seed = 1;
    /** Noisy extraction rounds per trial; 0 means the distance. */
    std::size_t rounds = 0;
    /** Sliding-window decode; nullopt decodes offline. */
    std::optional<StreamConfig> stream;
};

/** FNV-1a offset basis: the witness of an empty trial range. */
inline constexpr std::uint64_t witnessOffset = 0xCBF29CE484222325ull;

/** Order-dependent FNV fold step of the outcome witness. */
inline std::uint64_t
witnessFold(std::uint64_t acc, std::uint64_t value)
{
    return (acc ^ value) * 0x100000001B3ull;
}

/** Totals of a trial range, folded in trial order. */
struct MemoryTally
{
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
    std::uint64_t weightSum = 0; ///< total correction weight
    double logWeight = 0.0;      ///< Σ log1p(weight)
    /** witnessFold of (weight << 1 | failed) per trial. */
    std::uint64_t witness = witnessOffset;
    /** Trials whose closing round still flagged a syndrome. */
    std::uint64_t dirty = 0;
    std::uint64_t windows = 0; ///< streaming windows decoded

    /** Fold one trial's outcome. */
    void add(std::uint64_t weight, bool failed);
};

/** One sampled 64-trial batch; buffers are reused across samples. */
struct MemoryBatch
{
    quantum::BatchPauliFrame frame{0};
    /** Noisy rounds, then the noiseless closing round. */
    std::vector<qecc::BatchSyndromeRound> history;
    std::vector<DetectionEvents> events; ///< per lane
};

/** The memory experiment of one (protocol, distance) code patch. */
class MemoryExperiment
{
  public:
    MemoryExperiment(qecc::Protocol protocol, std::size_t distance);
    ~MemoryExperiment();

    MemoryExperiment(const MemoryExperiment &) = delete;
    MemoryExperiment &operator=(const MemoryExperiment &) = delete;

    const qecc::Lattice &lattice() const { return _lattice; }
    const qecc::SyndromeExtractor &extractor() const
    {
        return _extractor;
    }

    /**
     * Sample trials [first, first + 64) into `out`, with per-lane
     * detection events when `with_events`.
     */
    void sample(const MemoryRun &run, std::uint64_t first,
                MemoryBatch &out, bool with_events = true) const;

    /**
     * Lanes of a corrected frame that fail the logical check; lanes
     * whose noiseless round flags a syndrome are OR-ed into `*dirty`.
     */
    std::uint64_t failureMask(quantum::BatchPauliFrame &frame,
                              std::uint64_t *dirty = nullptr) const;

    /** Run trials [begin, end); lanes past `end` are not counted. */
    MemoryTally run(const MemoryRun &run, std::uint64_t begin,
                    std::uint64_t end,
                    sim::ThreadPool &pool = sim::ThreadPool::global());

  private:
    struct Worker;
    struct BatchOutcome;

    void runBatch(const MemoryRun &run, std::uint64_t first,
                  std::size_t count, Worker &w, BatchOutcome &out);

    std::size_t _distance;
    qecc::Lattice _lattice;
    qecc::RoundSchedule _schedule;
    qecc::SyndromeExtractor _extractor;
    /** Data-qubit indices of the logical Z / X supports. */
    std::vector<std::size_t> _logicalZ, _logicalX;

    std::mutex _idleMutex;
    /** Idle decoders and batch scratch, one per past participant. */
    std::vector<std::unique_ptr<Worker>> _idle;
};

} // namespace quest::decode

#endif // QUEST_DECODE_MEMORY_EXPERIMENT_HPP
