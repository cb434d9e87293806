#include "trace.hpp"

#if QUEST_TRACE_ENABLED

#include <algorithm>
#include <chrono>

namespace quest::sim {

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint32_t tid)
    : _ring(capacity ? capacity : 1), _tid(tid)
{}

void
TraceBuffer::push(const char *category, const char *name,
                  std::uint64_t start_ns, std::uint64_t duration_ns)
{
    TraceEvent &slot = _ring[_head % _ring.size()];
    slot.category = category;
    slot.name = name;
    slot.startNs = start_ns;
    slot.durationNs = duration_ns;
    ++_head;
    ++_counts[{category, name}];
}

std::uint64_t
TraceBuffer::dropped() const
{
    return _head > _ring.size() ? _head - _ring.size() : 0;
}

void
TraceBuffer::visitResident(
    const std::function<void(const TraceEvent &)> &fn) const
{
    const std::uint64_t first = dropped();
    for (std::uint64_t i = first; i < _head; ++i)
        fn(_ring[i % _ring.size()]);
}

void
TraceBuffer::clear()
{
    _head = 0;
    _counts.clear();
}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
Tracer::setBufferCapacity(std::size_t events)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _capacity = events ? events : 1;
}

TraceBuffer &
Tracer::registerThread()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _buffers.push_back(std::make_unique<TraceBuffer>(
        _capacity, std::uint32_t(_buffers.size())));
    return *_buffers.back();
}

TraceBuffer &
Tracer::localBuffer()
{
    // The pointer is cached per OS thread; clear() zeroes buffers
    // in place rather than deleting them, so a cached pointer never
    // dangles even after the registry is reset between runs.
    thread_local TraceBuffer *buffer = nullptr;
    if (buffer == nullptr)
        buffer = &registerThread();
    return *buffer;
}

void
Tracer::instant(const char *category, const char *name)
{
    const std::uint64_t now = nowNs();
    localBuffer().push(category, name, now, 0);
}

Json
Tracer::chromeTrace() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Json events = Json::array();
    for (const auto &buffer : _buffers) {
        buffer->visitResident([&](const TraceEvent &e) {
            // Chrome-trace timestamps are microseconds.
            Json event = Json::object();
            event.set("name", e.name)
                .set("cat", e.category)
                .set("ph", "X")
                .set("ts", double(e.startNs) / 1e3)
                .set("dur", double(e.durationNs) / 1e3)
                .set("pid", 0)
                .set("tid", buffer->tid());
            events.push(std::move(event));
        });
    }
    Json trace = Json::object();
    trace.set("traceEvents", std::move(events));
    return trace;
}

std::map<std::string, std::uint64_t>
Tracer::eventCounts() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::map<std::string, std::uint64_t> total;
    for (const auto &buffer : _buffers)
        for (const auto &[key, count] : buffer->counts())
            total[std::string(key.first) + ":" + key.second] += count;
    return total;
}

std::uint64_t
Tracer::countDigest() const
{
    // FNV-1a over "category:name=count\n" in sorted key order: the
    // same events fired the same number of times => the same digest,
    // independent of thread count, timestamps or ring capacity.
    std::uint64_t hash = emptyTraceDigest;
    const auto mix = [&hash](const std::string &s) {
        for (const char c : s) {
            hash ^= std::uint64_t(std::uint8_t(c));
            hash *= 1099511628211ull;
        }
    };
    for (const auto &[key, count] : eventCounts()) {
        mix(key);
        mix("=");
        mix(std::to_string(count));
        mix("\n");
    }
    return hash;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t dropped = 0;
    for (const auto &buffer : _buffers)
        dropped += buffer->dropped();
    return dropped;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (auto &buffer : _buffers)
        buffer->clear();
}

} // namespace quest::sim

#endif // QUEST_TRACE_ENABLED
