#include "pipeline.hpp"

#include "sim/fault_injector.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

DecoderPipeline::DecoderPipeline(const qecc::Lattice &lattice,
                                 const DeadlineConfig &deadline)
    : _local(lattice), _global(lattice), _cluster(lattice),
      _deadline(deadline),
      _mEventsLocal(sim::metrics::Registry::global().counter(
          "decode.pipeline.events_local",
          "events resolved by the MCE-local LUT decoder")),
      _mEventsGlobal(sim::metrics::Registry::global().counter(
          "decode.pipeline.events_global",
          "residual events escalated to the global decoder")),
      _mBusBytes(sim::metrics::Registry::global().counter(
          "decode.pipeline.syndrome_bus_bytes",
          "syndrome bytes crossing the global bus"))
{}

void
DecoderPipeline::setMaskPredicate(MwpmDecoder::MaskPredicate masked)
{
    _global.setMaskPredicate(masked);
    _cluster.setMaskPredicate(std::move(masked));
}

Correction
DecoderPipeline::decode(const DetectionEvents &events)
{
    std::vector<DetectionEvent> none;
    StreamCommit c =
        decodeWindow(events, MwpmDecoder::noFrontier, 0, none);
    _mEventsLocal += c.localEvents;
    _mEventsGlobal += c.forwardedEvents;
    _mBusBytes += c.forwardedEvents * detectionEventBytes;
    return std::move(c.correction);
}

StreamCommit
DecoderPipeline::decodeWindow(const DetectionEvents &events,
                              std::size_t frontier, std::size_t charged,
                              std::vector<DetectionEvent> &consumed)
{
    QUEST_TRACE_SCOPE("decode", "pipeline_decode");
    StreamCommit out;
    out.windowEvents = events.total();

    // Extraction order is round-major, so each type list splits into
    // a commit-region prefix and a carry-region suffix.
    const auto carryOf = [frontier](const std::vector<DetectionEvent> &v) {
        return std::find_if(v.begin(), v.end(),
                            [frontier](const DetectionEvent &e) {
                                return e.round >= frontier;
                            });
    };
    const auto xCarry = carryOf(events.xEvents);
    const auto zCarry = carryOf(events.zEvents);
    const std::size_t carried = std::size_t(events.xEvents.end() - xCarry)
        + std::size_t(events.zEvents.end() - zCarry);
    if (carried > 0) {
        _commitRegion.xEvents.assign(events.xEvents.begin(), xCarry);
        _commitRegion.zEvents.assign(events.zEvents.begin(), zCarry);
    }
    // The LUT sees the commit region only: a carry event's partner
    // may not be extracted yet.
    LocalDecodeResult local =
        _local.decodeLocal(carried > 0 ? _commitRegion : events);
    out.localEvents = local.resolvedEvents;
    const std::size_t residual = local.residual.total() + carried;

    // An injected overrun is drawn before the global stage, once per
    // decode with residual events, and only when the deadline is
    // modelled.
    const bool injected = residual > 0 && _faults != nullptr
        && _deadline.config().windowTicks != 0
        && _faults->fire(sim::FaultSite::DecoderOverrun);
    out.fallback =
        residual > 0 && (injected || _deadline.overruns(residual));
    Correction global;
    if (out.fallback) {
        // Degrade to the near-linear cluster decoder over the commit
        // region; the whole carry region is deferred (it reappears
        // identically in the next window).
        out.stretch = _deadline.stretch(residual);
        global = _cluster.decode(local.residual);
    }
    // The carry joins the residual: the matcher sees it after the
    // commit region's residual, and the bus accounting counts it.
    local.residual.xEvents.insert(local.residual.xEvents.end(), xCarry,
                                  events.xEvents.end());
    local.residual.zEvents.insert(local.residual.zEvents.end(), zCarry,
                                  events.zEvents.end());
    const std::size_t consumedBefore = consumed.size();
    if (!out.fallback)
        global = _global.decode(local.residual, frontier, &consumed);
    out.deferredEvents = carried - (consumed.size() - consumedBefore);

    // Bus accounting: an event is forwarded once, by the first decode
    // that sees it past the LUT (carry events skip the LUT, so they
    // are forwarded as soon as they are seen).
    const auto fresh = [charged](const std::vector<DetectionEvent> &v) {
        return std::size_t(std::count_if(
            v.begin(), v.end(),
            [charged](const DetectionEvent &e) {
                return e.round >= charged;
            }));
    };
    out.forwardedEvents =
        fresh(local.residual.xEvents) + fresh(local.residual.zEvents);
    out.globalWeight = global.weight();
    out.correction = std::move(local.correction);
    out.correction.merge(global);
    return out;
}

} // namespace quest::decode
