/**
 * @file
 * Streaming sliding-window decoder.
 *
 * The offline DecoderPipeline needs the whole syndrome history of a
 * shot before it can decode -- an end-of-shot barrier no production
 * MCE can afford: corrections must land while the errors are still
 * correctable. Following Das et al., *A Scalable Decoder
 * Micro-architecture for Fault-Tolerant Quantum Computing*
 * (PAPERS.md), this module decodes an unbounded round stream in
 * overlapping space-time windows:
 *
 *  - rounds are buffered as they are extracted; every `windowRounds`
 *    buffered rounds form one decode window, differenced against the
 *    carried baseline round via extractDetectionEventsWindow;
 *  - the first `strideRounds` rounds of a window are the *commit
 *    region*: matches whose earliest endpoint lies there are
 *    committed now. A committed match may reach into the carry
 *    region; its carry-side endpoints are recorded as consumed-ahead
 *    and filtered from the next window's extraction;
 *  - matches lying wholly in the carry region are deferred -- the
 *    window then slides by `strideRounds`, the last dropped round
 *    becomes the next baseline, and the deferred events reappear
 *    identically in the next extraction (re-differencing against
 *    the carried baseline reproduces them bit for bit);
 *  - a window whose residual event count would overrun the
 *    DecodeDeadline degrades to the union-find ClusterDecoder over
 *    the commit region only (the real-time fallback), reporting the
 *    lateness stretch for the noise model. With a fault injector
 *    attached and the deadline modelled, every window with residual
 *    events also draws one injected DecoderOverrun, which forces the
 *    same fallback.
 *
 * This class only windows the stream. Each window is one
 * DecoderPipeline::decodeWindow call, the same two-level step the
 * offline DecoderPipeline::decode runs with no carry and no
 * frontier; so a single window spanning the entire shot (or a
 * finish() on an unsliced buffer) reproduces the offline correction
 * bit for bit whenever the window extraction reproduces the offline
 * events -- what the equivalence suite in tests/test_streaming.cpp
 * pins down. The master controller decodes every tile through one
 * of these; windowRounds == strideRounds is its collect-then-decode
 * cadence.
 *
 * Lag accounting: after every pushed round the decoder records how
 * many extracted rounds are not yet committed in the
 * decode.stream.lag_rounds histogram, whose p50/p99 quantify how far
 * decoding runs behind extraction.
 */

#ifndef QUEST_DECODE_STREAMING_HPP
#define QUEST_DECODE_STREAMING_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "pipeline.hpp"
#include "qecc/extractor.hpp"
#include "sim/metrics.hpp"

namespace quest::decode {

/** Sliding-window configuration. */
struct StreamConfig
{
    /** Rounds per decode window. */
    std::size_t windowRounds = 8;
    /** Commit region / slide distance; must be in (0, windowRounds].
     *  windowRounds == strideRounds gives non-overlapping windows
     *  (the offline master's cadence). */
    std::size_t strideRounds = 4;
    /** Real-time decode budget; windowTicks == 0 disables the
     *  ClusterDecoder fallback. */
    DeadlineConfig deadline;
};

/**
 * Decode a continuous syndrome stream in overlapping windows.
 *
 * Not thread-safe: one instance per stream (per tile). Only the
 * extractor's lattice and ancilla order (a function of the lattice
 * alone) are kept, so the extractor may be rebuilt -- an MCE does so
 * on every mask change -- while the stream runs; the lattice must
 * outlive the decoder.
 */
class StreamingDecoder
{
  public:
    explicit StreamingDecoder(const qecc::SyndromeExtractor &extractor,
                              const StreamConfig &cfg = {});

    const StreamConfig &config() const { return _cfg; }

    /** Forward a mask predicate to both global decoders. */
    void
    setMaskPredicate(MwpmDecoder::MaskPredicate masked)
    {
        _pipeline.setMaskPredicate(std::move(masked));
    }

    /** Attach the classical fault source to the decode step. */
    void
    attachFaults(sim::FaultInjector *faults)
    {
        _pipeline.attachFaults(faults);
    }

    /**
     * Feed one extracted round. When the buffer reaches a full
     * window this decodes it, commits the commit region and slides;
     * otherwise returns nullopt.
     */
    std::optional<StreamCommit>
    pushRound(const qecc::SyndromeRound &round);

    /**
     * End of stream: decode everything still buffered as one final
     * window and commit all of it. The baseline/round numbering stay
     * consistent, so the same instance can keep streaming afterwards
     * (e.g. across logical instructions within one shot).
     */
    std::optional<StreamCommit> finish();

    /** Rounds fed in so far. */
    std::size_t roundsPushed() const { return _roundsPushed; }

    /** Rounds fully decoded (the commit frontier). */
    std::size_t committedRounds() const { return _frontier; }

    /** How far decoding is behind extraction right now. */
    std::size_t lagRounds() const { return _roundsPushed - _frontier; }

    /** Windows decoded so far. */
    std::size_t windowsDecoded() const { return _windows; }

    /** Windows degraded to the ClusterDecoder. */
    std::size_t fallbacks() const { return _fallbackCount; }

  private:
    /** Ancilla order of the syndrome rounds (extractor order). */
    std::vector<qecc::Coord> _xAncillas;
    std::vector<qecc::Coord> _zAncillas;
    StreamConfig _cfg;
    /** The two-level decode step every window runs. */
    DecoderPipeline _pipeline;

    /** Buffered rounds awaiting a full window; front() is round
     *  `_firstRound` of the stream. */
    std::vector<qecc::SyndromeRound> _buffer;
    /** Last round of the previous window (differencing baseline);
     *  nullopt before the first slide (difference against zero). */
    std::optional<qecc::SyndromeRound> _baseline;
    /** Stream round number of _buffer.front(). */
    std::size_t _firstRound = 0;
    std::size_t _roundsPushed = 0;
    /** Commit frontier: rounds below this are fully decoded. */
    std::size_t _frontier = 0;
    /** Events up to (exclusive) this round were already forwarded /
     *  charged in an earlier window. */
    std::size_t _chargedThrough = 0;
    /** Carry-region events already corrected by a committed match;
     *  filtered out of the next window's extraction. */
    std::vector<DetectionEvent> _consumed;

    std::size_t _windows = 0;
    std::size_t _fallbackCount = 0;

    // decode.stream.* registry metrics, bound at construction.
    sim::metrics::Counter &_mWindows;
    sim::metrics::Counter &_mRounds;
    sim::metrics::Counter &_mEvents;
    sim::metrics::Counter &_mEventsLocal;
    sim::metrics::Counter &_mForwarded;
    sim::metrics::Counter &_mDeferred;
    sim::metrics::Counter &_mFallbacks;
    sim::metrics::Counter &_mCommittedWeight;
    sim::metrics::Histogram &_mLag;
    sim::metrics::Histogram &_mWindowEvents;

    /**
     * Decode the buffered window. `flush` decodes the whole buffer
     * with an unbounded commit region; otherwise exactly
     * `windowRounds` rounds are buffered and the commit region is
     * the first `strideRounds` of them.
     */
    std::optional<StreamCommit> decodeWindow(bool flush);

    /** Drop consumed-ahead events from a fresh extraction. */
    void filterConsumed(std::vector<DetectionEvent> &events);
};

} // namespace quest::decode

#endif // QUEST_DECODE_STREAMING_HPP
