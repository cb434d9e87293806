/**
 * @file
 * Unit tests for the observability layer: sim/trace.hpp (scoped
 * event tracing, ring buffers, count digests, Chrome export) and
 * sim/metrics.hpp (registry, counters, gauges, histograms, StatGroup
 * absorption), plus the EventQueue's dispatch attribution.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "decode/pipeline.hpp"
#include "decode/streaming.hpp"
#include "qecc/extractor.hpp"
#include "sim/event_queue.hpp"
#include "sim/json.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace {

using namespace quest::sim;
using metrics::Registry;
using metrics::Stability;

/** Every tracer test starts disabled with empty buffers. */
class TracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    void TearDown() override { SetUp(); }
};

/** The exported trace, parsed back from its text form. */
Json
exportedTrace()
{
    Json doc;
    EXPECT_TRUE(
        Json::parse(Tracer::instance().chromeTrace().dump(), doc));
    return doc;
}

#if QUEST_TRACE_ENABLED

TEST(TraceBuffer, RecordsAndCounts)
{
    TraceBuffer buf(8, 0);
    buf.push("cat", "a", 10, 5);
    buf.push("cat", "b", 20, 1);
    buf.push("cat", "a", 30, 2);
    EXPECT_EQ(buf.recorded(), 3u);
    EXPECT_EQ(buf.dropped(), 0u);

    std::size_t seen = 0;
    buf.visitResident([&](const TraceEvent &e) {
        ++seen;
        EXPECT_STREQ(e.category, "cat");
    });
    EXPECT_EQ(seen, 3u);

    const auto &counts = buf.counts();
    EXPECT_EQ(counts.at({"cat", "a"}), 2u);
    EXPECT_EQ(counts.at({"cat", "b"}), 1u);
}

TEST(TraceBuffer, WrapDropsOldestButKeepsCounting)
{
    TraceBuffer buf(4, 0);
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.push("cat", "e", i, 0);
    EXPECT_EQ(buf.recorded(), 6u);
    EXPECT_EQ(buf.dropped(), 2u);

    // Resident events are the most recent 4, oldest first.
    std::vector<std::uint64_t> starts;
    buf.visitResident([&](const TraceEvent &e) {
        starts.push_back(e.startNs);
    });
    EXPECT_EQ(starts, (std::vector<std::uint64_t>{2, 3, 4, 5}));

    // The per-name count reflects the whole run, not the ring.
    EXPECT_EQ(buf.counts().at({"cat", "e"}), 6u);
}

TEST(TraceBuffer, ClearZeroesInPlace)
{
    TraceBuffer buf(4, 0);
    buf.push("cat", "e", 1, 1);
    buf.clear();
    EXPECT_EQ(buf.recorded(), 0u);
    EXPECT_TRUE(buf.counts().empty());
}

TEST_F(TracerTest, ScopeRecordsNothingWhileDisabled)
{
    {
        QUEST_TRACE_SCOPE("test", "disabled_scope");
    }
    EXPECT_TRUE(Tracer::instance().eventCounts().empty());
    EXPECT_EQ(Tracer::instance().countDigest(), emptyTraceDigest);
}

TEST_F(TracerTest, ScopeRecordsWhenEnabled)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "enabled_scope");
    }
    {
        QUEST_TRACE_SCOPE("test", "enabled_scope");
    }
    QUEST_TRACE_INSTANT("test", "marker");
    Tracer::instance().setEnabled(false);

    const auto counts = Tracer::instance().eventCounts();
    EXPECT_EQ(counts.at("test:enabled_scope"), 2u);
    EXPECT_EQ(counts.at("test:marker"), 1u);
    EXPECT_NE(Tracer::instance().countDigest(), emptyTraceDigest);
}

TEST_F(TracerTest, DigestDependsOnCountsOnly)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    const std::uint64_t first = Tracer::instance().countDigest();

    Tracer::instance().clear();
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    const std::uint64_t second = Tracer::instance().countDigest();
    Tracer::instance().setEnabled(false);

    // Same event fired the same number of times: identical digest
    // even though the timestamps differ.
    EXPECT_EQ(first, second);

    // One more fire: different digest.
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "digest_scope");
    }
    Tracer::instance().setEnabled(false);
    EXPECT_NE(Tracer::instance().countDigest(), first);
}

TEST_F(TracerTest, ChromeExportIsWellFormed)
{
    Tracer::instance().setEnabled(true);
    {
        QUEST_TRACE_SCOPE("test", "export_scope");
    }
    Tracer::instance().setEnabled(false);

    const Json doc = exportedTrace();
    const Json &events = doc.get("traceEvents");
    ASSERT_EQ(events.size(), 1u);
    const Json &e = events.at(0);
    EXPECT_EQ(e.get("name").asString(), "export_scope");
    EXPECT_EQ(e.get("cat").asString(), "test");
    EXPECT_EQ(e.get("ph").asString(), "X");
    EXPECT_GE(e.get("dur").asDouble(), 0.0);
    EXPECT_EQ(e.get("pid").asU64(), 0u);
    EXPECT_TRUE(e.has("tid"));
}

TEST_F(TracerTest, ChromeExportKeepsNanosecondTimestamps)
{
    // Regression: ts was printed with 6 significant digits, so on a
    // host up for hours every span shared one millisecond-rounded
    // timestamp. Exported ts (microseconds) must locate the span
    // inside the window read around it, to the nanosecond.
    Tracer::instance().setEnabled(true);
    const std::uint64_t before = Tracer::nowNs();
    {
        QUEST_TRACE_SCOPE("test", "timed_scope");
    }
    const std::uint64_t after = Tracer::nowNs();
    Tracer::instance().setEnabled(false);

    const Json doc = exportedTrace();
    ASSERT_EQ(doc.get("traceEvents").size(), 1u);
    const double ts_ns =
        doc.get("traceEvents").at(0).get("ts").asDouble() * 1e3;
    EXPECT_GE(ts_ns, double(before) - 1.0);
    EXPECT_LE(ts_ns, double(after) + 1.0);
}

#endif // QUEST_TRACE_ENABLED

TEST_F(TracerTest, DisabledTracerExportsEmptyTrace)
{
    // Holds in both build modes: a quiescent tracer produces a
    // loadable, empty Chrome trace and the canonical empty digest.
    const Json doc = exportedTrace();
    EXPECT_EQ(doc.get("traceEvents").type(), Json::Type::Array);
    EXPECT_EQ(doc.get("traceEvents").size(), 0u);
    EXPECT_EQ(Tracer::instance().countDigest(), emptyTraceDigest);
    EXPECT_EQ(Tracer::instance().droppedEvents(), 0u);
}

TEST(MetricsCounter, AccumulatesAndResets)
{
    metrics::Counter c;
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsHistogram, EmptyPercentileIsDefinedSentinel)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    // The regression this guards: percentile on an empty histogram
    // must return the documented sentinel, not read out of bounds.
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.percentile(1.0)));
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(MetricsHistogram, SingleSamplePercentileIsThatSample)
{
    metrics::Histogram h;
    h.record(37);
    EXPECT_EQ(h.count(), 1u);
    for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0})
        EXPECT_EQ(h.percentile(q), 37.0) << "q=" << q;
}

TEST(MetricsHistogram, BucketsMinMaxMean)
{
    metrics::Histogram h;
    h.record(0);
    h.record(1);
    h.record(100, 2);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 201u);
    EXPECT_EQ(h.minSample(), 0u);
    EXPECT_EQ(h.maxSample(), 100u);
    EXPECT_DOUBLE_EQ(h.mean(), 201.0 / 4.0);
    // Percentiles resolve to bucket bounds clamped to [min, max].
    EXPECT_EQ(h.percentile(1.0), 100.0);
    EXPECT_LE(h.percentile(0.25), 1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
}

TEST(MetricsRegistry, ReturnsStableReferences)
{
    auto &reg = Registry::global();
    metrics::Counter &a =
        reg.counter("test.registry.stable", "test counter");
    metrics::Counter &b =
        reg.counter("test.registry.stable", "test counter");
    EXPECT_EQ(&a, &b);
    a.reset();
    ++b;
    EXPECT_EQ(a.value(), 1u);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic)
{
    auto &reg = Registry::global();
    reg.counter("test.snapshot.zz", "later name").reset();
    reg.counter("test.snapshot.aa", "earlier name").reset();
    reg.counter("test.snapshot.aa", "earlier name") += 7;

    const std::string snap = metricsSnapshot();
    const auto pos_a = snap.find("test.snapshot.aa 7\n");
    const auto pos_z = snap.find("test.snapshot.zz 0\n");
    ASSERT_NE(pos_a, std::string::npos);
    ASSERT_NE(pos_z, std::string::npos);
    EXPECT_LT(pos_a, pos_z);
    EXPECT_EQ(snap, metricsSnapshot());
}

TEST(MetricsRegistry, WallclockExcludedFromDefaultSnapshot)
{
    auto &reg = Registry::global();
    auto &wall = reg.gauge("test.wallclock.latency",
                           "host-timing gauge",
                           Stability::Wallclock);
    wall.set(123.0);
    EXPECT_EQ(metricsSnapshot().find("test.wallclock.latency"),
              std::string::npos);
    EXPECT_NE(metricsSnapshot(true).find("test.wallclock.latency"),
              std::string::npos);
    wall.reset();
}

TEST(MetricsRegistry, JsonIsWellFormedAndExpandsHistograms)
{
    auto &reg = Registry::global();
    auto &h = reg.histogram("test.json.hist", "histogram for JSON");
    h.reset();
    h.record(5);
    h.record(9);

    Json doc;
    ASSERT_TRUE(Json::parse(reg.toJson(true).dump(), doc));
    EXPECT_EQ(doc.get("test.json.hist.count").type(), Json::Type::Uint);
    EXPECT_EQ(doc.get("test.json.hist.count").asU64(), 2u);
    EXPECT_EQ(doc.get("test.json.hist.sum").asU64(), 14u);
    EXPECT_EQ(doc.get("test.json.hist.min").asU64(), 5u);
    EXPECT_EQ(doc.get("test.json.hist.max").asU64(), 9u);
    EXPECT_DOUBLE_EQ(doc.get("test.json.hist.mean").asDouble(), 7.0);
    EXPECT_TRUE(doc.get("test.json.hist.p50").isNumber());
    EXPECT_TRUE(doc.get("test.json.hist.p99").isNumber());

    // Empty histograms omit percentile keys rather than emit NaN.
    h.reset();
    ASSERT_TRUE(Json::parse(reg.toJson(true).dump(), doc));
    EXPECT_FALSE(doc.has("test.json.hist.p50"));
    EXPECT_FALSE(doc.has("test.json.hist.p99"));
    EXPECT_EQ(doc.get("test.json.hist.count").asU64(), 0u);
}

TEST(MetricsRegistry, AbsorbsAttachedStatGroups)
{
    StatGroup group("test_group");
    Scalar &s = group.scalar("absorbed", "a component stat");
    s += 3.0;
    {
        metrics::ScopedGroupAttach attach(group);
        const std::string snap = metricsSnapshot();
        EXPECT_NE(snap.find("test_group.absorbed 3"),
                  std::string::npos);
    }
    // Detached: gone from the next snapshot.
    EXPECT_EQ(metricsSnapshot().find("test_group.absorbed"),
              std::string::npos);
}

TEST(EventQueueAttribution, DispatchCountsPerLabel)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; }, defaultPriority, "tick");
    q.schedule(20, [&] { ++fired; }, defaultPriority, "tick");
    q.schedule(30, [&] { ++fired; }, defaultPriority, "decode");
    q.scheduleIn(5, [&] { ++fired; }); // default label

    EXPECT_EQ(q.run(), 4u);
    EXPECT_EQ(fired, 4);
    const auto &counts = q.dispatchCounts();
    EXPECT_EQ(counts.at("tick"), 2u);
    EXPECT_EQ(counts.at("decode"), 1u);
    EXPECT_EQ(counts.at("event"), 1u);

    q.clear();
    EXPECT_TRUE(q.dispatchCounts().empty());
}

TEST(EventQueueAttribution, GlobalCountersTrackScheduling)
{
    auto &reg = Registry::global();
    auto &scheduled =
        reg.counter("sim.queue.scheduled", "events entered into any "
                                           "queue");
    auto &executed =
        reg.counter("sim.queue.executed", "events dispatched by any "
                                          "queue");
    const std::uint64_t sched0 = scheduled.value();
    const std::uint64_t exec0 = executed.value();

    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(Tick(i), [] {}, defaultPriority, "counted");
    q.run();

    EXPECT_EQ(scheduled.value() - sched0, 5u);
    EXPECT_EQ(executed.value() - exec0, 5u);
}

TEST(MetricsRegistry, DecoderCountersRegisterAtConstruction)
{
    // Regression guard for the function-local `static auto &`
    // pattern the decoder hot paths used to carry: metrics must be
    // registered when the component is constructed (so snapshots are
    // deterministic regardless of whether a decode ever ran), and
    // the member-bound references must keep writing into the live
    // registry entries across a Registry::reset().
    auto &reg = Registry::global();
    const quest::qecc::Lattice lattice =
        quest::qecc::Lattice::forDistance(3);
    const auto schedule = quest::qecc::buildRoundSchedule(
        lattice,
        quest::qecc::protocolSpec(quest::qecc::Protocol::Steane));
    const quest::qecc::SyndromeExtractor extractor(schedule);

    quest::decode::DecoderPipeline pipeline(lattice);
    quest::decode::StreamingDecoder streamer(extractor);

    // Registered before any decode ran.
    const std::string snap = reg.snapshot();
    EXPECT_NE(snap.find("decode.pipeline.events_local"),
              std::string::npos);
    EXPECT_NE(snap.find("decode.mwpm.decodes"), std::string::npos);
    EXPECT_NE(snap.find("decode.stream.rounds"), std::string::npos);

    auto &rounds = reg.counter(
        "decode.stream.rounds",
        "syndrome rounds pushed into streaming decoders");
    rounds.reset();
    const std::uint64_t before = rounds.value();
    quest::quantum::PauliFrame frame(lattice.numQubits());
    streamer.pushRound(extractor.runRound(frame, nullptr));
    EXPECT_EQ(rounds.value() - before, 1u);
}

} // namespace
