#include "streaming.hpp"

#include <algorithm>

#include "sim/logging.hpp"
#include "sim/trace.hpp"

namespace quest::decode {

StreamingDecoder::StreamingDecoder(
    const qecc::SyndromeExtractor &extractor, const StreamConfig &cfg)
    : _xAncillas(extractor.xAncillas()),
      _zAncillas(extractor.zAncillas()), _cfg(cfg),
      _pipeline(extractor.lattice(), cfg.deadline),
      _mWindows(sim::metrics::Registry::global().counter(
          "decode.stream.windows", "sliding decode windows decoded")),
      _mRounds(sim::metrics::Registry::global().counter(
          "decode.stream.rounds",
          "syndrome rounds pushed into streaming decoders")),
      _mEvents(sim::metrics::Registry::global().counter(
          "decode.stream.events",
          "detection events observed in decode windows")),
      _mEventsLocal(sim::metrics::Registry::global().counter(
          "decode.stream.events_local",
          "events resolved by the in-window LUT stage")),
      _mForwarded(sim::metrics::Registry::global().counter(
          "decode.stream.events_forwarded",
          "newly-seen residual events forwarded to the global stage")),
      _mDeferred(sim::metrics::Registry::global().counter(
          "decode.stream.events_deferred",
          "carry-region events deferred to the next window")),
      _mFallbacks(sim::metrics::Registry::global().counter(
          "decode.stream.fallbacks",
          "windows the deadline degraded to the cluster decoder")),
      _mCommittedWeight(sim::metrics::Registry::global().counter(
          "decode.stream.committed_weight",
          "total weight of committed streaming corrections")),
      _mLag(sim::metrics::Registry::global().histogram(
          "decode.stream.lag_rounds",
          "rounds decoding ran behind extraction, per pushed round")),
      _mWindowEvents(sim::metrics::Registry::global().histogram(
          "decode.stream.window_events",
          "detection events per decoded window"))
{
    QUEST_ASSERT(_cfg.windowRounds > 0,
                 "stream window must be nonzero");
    QUEST_ASSERT(_cfg.strideRounds > 0
                     && _cfg.strideRounds <= _cfg.windowRounds,
                 "stream stride %zu must be in (0, window %zu]",
                 _cfg.strideRounds, _cfg.windowRounds);
}

std::optional<StreamCommit>
StreamingDecoder::pushRound(const qecc::SyndromeRound &round)
{
    QUEST_TRACE_SCOPE("decode", "stream_push");
    _buffer.push_back(round);
    ++_roundsPushed;
    ++_mRounds;
    std::optional<StreamCommit> out;
    if (_buffer.size() >= _cfg.windowRounds)
        out = decodeWindow(false);
    _mLag.record(lagRounds());
    return out;
}

std::optional<StreamCommit>
StreamingDecoder::finish()
{
    QUEST_TRACE_SCOPE("decode", "stream_finish");
    std::optional<StreamCommit> out = decodeWindow(true);
    _frontier = _roundsPushed;
    return out;
}

void
StreamingDecoder::filterConsumed(std::vector<DetectionEvent> &events)
{
    if (_consumed.empty() || events.empty())
        return;
    std::size_t w = 0;
    for (std::size_t r = 0; r < events.size(); ++r) {
        const auto it = std::find(_consumed.begin(), _consumed.end(),
                                  events[r]);
        if (it != _consumed.end())
            _consumed.erase(it); // each consumed-ahead entry cancels
                                 // exactly one reappearance
        else
            events[w++] = events[r];
    }
    events.resize(w);
}

std::optional<StreamCommit>
StreamingDecoder::decodeWindow(bool flush)
{
    const std::size_t take = _buffer.size();
    if (take == 0)
        return std::nullopt;
    QUEST_ASSERT(flush || take == _cfg.windowRounds,
                 "window decode triggered with %zu of %zu rounds",
                 take, _cfg.windowRounds);
    const std::size_t commit_end =
        flush ? _firstRound + take : _firstRound + _cfg.strideRounds;

    DetectionEvents ev = extractDetectionEventsWindow(
        _buffer, _xAncillas, _zAncillas,
        _baseline ? &*_baseline : nullptr, _firstRound);
    filterConsumed(ev.xEvents);
    filterConsumed(ev.zEvents);

    StreamCommit commit = _pipeline.decodeWindow(
        ev, commit_end, _chargedThrough, _consumed);
    commit.windowFirstRound = _firstRound;
    commit.commitEndRound = commit_end;
    _chargedThrough = std::max(_chargedThrough, _firstRound + take);

    // Slide: the last dropped round becomes the next baseline, so
    // deferred events re-difference into existence bit for bit.
    const std::size_t drop = flush ? take : _cfg.strideRounds;
    _baseline = _buffer[drop - 1];
    _buffer.erase(_buffer.begin(),
                  _buffer.begin() + std::ptrdiff_t(drop));
    _firstRound += drop;
    _frontier = commit_end;
    // Consumed-ahead entries always reappear in the very next
    // extraction; anything older is unreachable -- purge so the
    // list cannot grow without bound.
    std::erase_if(_consumed, [&](const DetectionEvent &e) {
        return e.round < _firstRound;
    });

    ++_windows;
    ++_mWindows;
    _mEvents += commit.windowEvents;
    _mWindowEvents.record(commit.windowEvents);
    _mEventsLocal += commit.localEvents;
    _mForwarded += commit.forwardedEvents;
    _mDeferred += commit.deferredEvents;
    _mCommittedWeight += commit.correction.weight();
    if (commit.fallback) {
        ++_fallbackCount;
        ++_mFallbacks;
    }
    return commit;
}

} // namespace quest::decode
