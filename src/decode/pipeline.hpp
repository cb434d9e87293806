/**
 * @file
 * Two-level error-decoder pipeline (Section 4.2).
 *
 * Each MCE runs the local LUT decoder; residual (complex) patterns
 * are forwarded over the global bus to the master controller's MWPM
 * decoder. The pipeline accounts for the syndrome bytes that cross
 * the global bus so the system model can charge them against the
 * bandwidth budget.
 *
 * DecoderPipeline::decodeWindow is the only two-level decode step:
 * the offline decode of a whole shot is the window with no carry
 * region and no commit frontier, and StreamingDecoder feeds it one
 * sliding window at a time.
 */

#ifndef QUEST_DECODE_PIPELINE_HPP
#define QUEST_DECODE_PIPELINE_HPP

#include <algorithm>
#include <vector>

#include "cluster_decoder.hpp"
#include "lut_decoder.hpp"
#include "mwpm_decoder.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace quest::sim {
class FaultInjector;
}

namespace quest::decode {

/**
 * Real-time deadline model for the global decode (Section 3.4: the
 * correction must land before the errors compound). The greedy MWPM
 * matcher is O(E^2) in the residual event count, so its decode time
 * is modelled as base + perEventSq * E^2 against the decode-window
 * budget; the union-find cluster decoder is the nearly-linear
 * fallback the decode degrades to when MWPM would overrun.
 */
struct DeadlineConfig
{
    /** Decode budget in ticks (the decode window); 0 disables. */
    sim::Tick windowTicks = 0;
};

/** Deadline arithmetic shared by the master and the benches. */
class DecodeDeadline
{
  public:
    /** Modelled MWPM cost: base + perEventSq * E^2. */
    static constexpr sim::Tick mwpmBaseTicks = sim::nanoseconds(50);
    static constexpr sim::Tick mwpmTicksPerEventSq = sim::nanoseconds(20);

    DecodeDeadline() = default;
    explicit DecodeDeadline(const DeadlineConfig &cfg) : _cfg(cfg) {}

    const DeadlineConfig &config() const { return _cfg; }

    /** Modelled MWPM decode time for a residual batch. */
    sim::Tick
    mwpmTicks(std::size_t events) const
    {
        return mwpmBaseTicks
            + mwpmTicksPerEventSq * sim::Tick(events) * sim::Tick(events);
    }

    /** Would an MWPM decode of this batch miss the window? */
    bool
    overruns(std::size_t events) const
    {
        return _cfg.windowTicks != 0
            && mwpmTicks(events) > _cfg.windowTicks;
    }

    /**
     * Lateness as a round-stretch factor (>= 1): the same measure
     * host::DeliveryPath uses to inflate the effective error rate
     * of a tile whose correction arrived late.
     */
    double
    stretch(std::size_t events) const
    {
        if (_cfg.windowTicks == 0)
            return 1.0;
        return std::max(1.0, double(mwpmTicks(events))
                                 / double(_cfg.windowTicks));
    }

  private:
    DeadlineConfig _cfg;
};

/**
 * What one two-level decode committed. DecoderPipeline fills the
 * decode fields; StreamingDecoder adds the window's place in the
 * stream.
 */
struct StreamCommit
{
    /** Committed corrections (canonical: sorted, duplicate-free). */
    Correction correction;
    /** First round of the decoded window. */
    std::size_t windowFirstRound = 0;
    /** Commit frontier after this window: rounds below this are
     *  fully decoded. */
    std::size_t commitEndRound = 0;
    /** Detection events in the window (after consumed-ahead
     *  filtering). */
    std::size_t windowEvents = 0;
    /** Events the LUT stage resolved. */
    std::size_t localEvents = 0;
    /** Newly-seen post-LUT events forwarded to the global stage --
     *  what the master charges against the syndrome bus. */
    std::size_t forwardedEvents = 0;
    /** Weight of the global stage's share of `correction` -- what
     *  the master sends back over the bus. The LUT share never
     *  leaves the MCE. */
    std::size_t globalWeight = 0;
    /** Carry-region events deferred to the next window. */
    std::size_t deferredEvents = 0;
    /** True when the deadline degraded this window to the
     *  ClusterDecoder. */
    bool fallback = false;
    /** Lateness factor (>= 1) for the noise-stretch model; only
     *  meaningful when `fallback`. */
    double stretch = 1.0;
};

/**
 * The two-level decode step: LUT on the commit region, then the
 * global matcher -- or, past the deadline, the cluster decoder --
 * on the residual, with bus accounting.
 *
 * Not thread-safe: one instance per decoding thread or stream.
 */
class DecoderPipeline
{
  public:
    explicit DecoderPipeline(const qecc::Lattice &lattice,
                             const DeadlineConfig &deadline = {});

    /** Forward a mask predicate to both global decoders. */
    void setMaskPredicate(MwpmDecoder::MaskPredicate masked);

    /**
     * Attach the classical fault source: while the deadline is
     * modelled, each decode with residual events draws one
     * DecoderOverrun trial before its global stage.
     */
    void attachFaults(sim::FaultInjector *faults) { _faults = faults; }

    /**
     * Offline decode of a whole shot: decodeWindow() with no carry
     * region and no frontier. Only this entry counts into
     * decode.pipeline.*.
     */
    Correction decode(const DetectionEvents &events);

    /**
     * One two-level window decode. Events at or past `frontier`
     * form the carry region: they skip the LUT (a partner may not
     * be extracted yet) and only the global matcher sees them,
     * after the commit region's residual. Matches whose earlier
     * endpoint lies before the frontier are committed; their carry
     * endpoints are appended to `consumed`, and the other carry
     * events are deferred. A deadline overrun decodes the commit
     * region's residual with the cluster decoder and defers the
     * whole carry. Events of rounds below `charged` were forwarded
     * by an earlier window and are not charged again.
     */
    StreamCommit decodeWindow(const DetectionEvents &events,
                              std::size_t frontier, std::size_t charged,
                              std::vector<DetectionEvent> &consumed);

  private:
    LutDecoder _local;
    MwpmDecoder _global;
    ClusterDecoder _cluster;
    DecodeDeadline _deadline;
    sim::FaultInjector *_faults = nullptr;
    /** Commit-region scratch of a window with a carry region. */
    DetectionEvents _commitRegion;

    // Registry counters are bound at construction, never in the hot
    // path: a function-local `static auto &` binds once per process
    // and silently keeps pointing at whatever entry existed at first
    // call -- a lifetime hazard the registry-lifetime regression
    // test guards against.
    sim::metrics::Counter &_mEventsLocal;
    sim::metrics::Counter &_mEventsGlobal;
    sim::metrics::Counter &_mBusBytes;
};

} // namespace quest::decode

#endif // QUEST_DECODE_PIPELINE_HPP
