/**
 * @file
 * Tests for the two-level decoder pipeline and its bus accounting.
 */

#include <gtest/gtest.h>

#include "decode/pipeline.hpp"
#include "qecc/extractor.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;

/** A decode.pipeline.* registry counter. */
std::uint64_t
pipelineCounter(const std::string &name)
{
    return quest::sim::metrics::Registry::global()
        .counter("decode.pipeline." + name, "")
        .value();
}

class PipelineTest : public ::testing::Test
{
  protected:
    PipelineTest()
        : lattice(Lattice::forDistance(5)),
          schedule(buildRoundSchedule(lattice,
                                      protocolSpec(Protocol::Steane))),
          extractor(schedule),
          pipeline(lattice), local0(pipelineCounter("events_local")),
          global0(pipelineCounter("events_global")),
          bytes0(pipelineCounter("syndrome_bus_bytes"))
    {}

    std::uint64_t local() const
    {
        return pipelineCounter("events_local") - local0;
    }
    std::uint64_t global() const
    {
        return pipelineCounter("events_global") - global0;
    }
    std::uint64_t busBytes() const
    {
        return pipelineCounter("syndrome_bus_bytes") - bytes0;
    }

    DetectionEvents
    eventsFor(PauliFrame &frame)
    {
        const auto history = extractor.runRounds(frame, nullptr, 1);
        return extractDetectionEvents(history, extractor);
    }

    Lattice lattice;
    RoundSchedule schedule;
    SyndromeExtractor extractor;
    DecoderPipeline pipeline;
    std::uint64_t local0, global0, bytes0;
};

TEST_F(PipelineTest, IsolatedErrorStaysLocal)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    const Correction corr = pipeline.decode(eventsFor(frame));
    EXPECT_EQ(corr.weight(), 1u);
    EXPECT_GT(local(), 0u);
    EXPECT_EQ(global(), 0u);
    EXPECT_EQ(busBytes(), 0u);
}

TEST_F(PipelineTest, ChainsGenerateBusTraffic)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    pipeline.decode(eventsFor(frame));
    EXPECT_GT(busBytes(), 0u);
    EXPECT_GT(global(), 0u);
}

TEST_F(PipelineTest, CombinedCorrectionClearsSyndrome)
{
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    frame.injectZ(lattice.index(Coord{5, 5}));
    const Correction corr = pipeline.decode(eventsFor(frame));
    applyCorrection(frame, corr);
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

TEST_F(PipelineTest, StatsAccumulateAcrossDecodes)
{
    for (int i = 0; i < 3; ++i) {
        PauliFrame frame(lattice.numQubits());
        frame.injectX(lattice.index(Coord{3, 3}));
        pipeline.decode(eventsFor(frame));
    }
    EXPECT_EQ(local() + global(), 6u);
}

} // namespace
