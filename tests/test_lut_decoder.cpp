/**
 * @file
 * Tests for the per-MCE lookup-table decoder: it must fully resolve
 * the isolated single-error patterns the paper assigns to it and
 * defer everything ambiguous to the global decoder, and its
 * round-local passes must reproduce whole-list quadratic scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "decode/lut_decoder.hpp"
#include "decode/memory_experiment.hpp"
#include "decode/mwpm_decoder.hpp"
#include "qecc/extractor.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;
using quest::sim::Rng;

class LutTest : public ::testing::Test
{
  protected:
    LutTest()
        : lattice(Lattice::forDistance(5)),
          schedule(buildRoundSchedule(lattice,
                                      protocolSpec(Protocol::Steane))),
          extractor(schedule),
          lut(lattice)
    {}

    DetectionEvents
    eventsFor(PauliFrame &frame, std::size_t rounds = 1)
    {
        const auto history =
            extractor.runRounds(frame, nullptr, rounds);
        return extractDetectionEvents(history, extractor);
    }

    Lattice lattice;
    RoundSchedule schedule;
    SyndromeExtractor extractor;
    LutDecoder lut;
};

TEST_F(LutTest, ResolvesIsolatedInteriorError)
{
    PauliFrame frame(lattice.numQubits());
    const Coord data{3, 3};
    frame.injectX(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.zEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    EXPECT_EQ(result.residual.total(), 0u);
    ASSERT_EQ(result.correction.xFlips.size(), 1u);
    EXPECT_EQ(result.correction.xFlips[0], lattice.index(data));
}

TEST_F(LutTest, ResolvesBoundaryAdjacentError)
{
    // A corner-ish data error produces one lone event one step from
    // the boundary; the LUT handles it.
    PauliFrame frame(lattice.numQubits());
    const Coord data{0, 0};
    frame.injectX(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.zEvents.size(), 1u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 1u);
    EXPECT_EQ(result.residual.total(), 0u);
    ASSERT_EQ(result.correction.xFlips.size(), 1u);
    // The correction must have the same syndrome as the error: a
    // boundary data qubit adjacent to the flipped check.
    applyCorrection(frame, result.correction);
    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

TEST_F(LutTest, ResolvesMeasurementFlipPair)
{
    // A time-like pair (same check, consecutive rounds) is a
    // measurement error: consumed with no data correction.
    DetectionEvents events;
    events.zEvents.push_back(
        DetectionEvent{1, Coord{3, 2}, SiteType::ZAncilla});
    events.zEvents.push_back(
        DetectionEvent{2, Coord{3, 2}, SiteType::ZAncilla});
    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    EXPECT_EQ(result.correction.weight(), 0u);
    EXPECT_EQ(result.residual.total(), 0u);
}

TEST_F(LutTest, DefersChainsToGlobalDecoder)
{
    // A two-qubit error chain produces events the LUT cannot pair
    // unambiguously; they must be forwarded, not guessed.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3}));
    frame.injectX(lattice.index(Coord{3, 5}));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_GE(events.zEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    // The shared middle check makes local pairing ambiguous for at
    // least part of the pattern.
    EXPECT_GT(result.residual.total(), 0u);
}

TEST_F(LutTest, HandlesZErrorsViaXChecks)
{
    PauliFrame frame(lattice.numQubits());
    const Coord data{3, 3};
    frame.injectZ(lattice.index(data));
    const DetectionEvents events = eventsFor(frame);
    ASSERT_EQ(events.xEvents.size(), 2u);

    const LocalDecodeResult result = lut.decodeLocal(events);
    EXPECT_EQ(result.resolvedEvents, 2u);
    ASSERT_EQ(result.correction.zFlips.size(), 1u);
    EXPECT_EQ(result.correction.zFlips[0], lattice.index(data));
}

TEST_F(LutTest, EmptyInputProducesEmptyOutput)
{
    const LocalDecodeResult result = lut.decodeLocal(DetectionEvents{});
    EXPECT_EQ(result.resolvedEvents, 0u);
    EXPECT_EQ(result.correction.weight(), 0u);
    EXPECT_EQ(result.residual.total(), 0u);
}

TEST_F(LutTest, LocalPlusGlobalEqualsCleanState)
{
    // The two-level scheme end to end: LUT first, MWPM on residual.
    PauliFrame frame(lattice.numQubits());
    frame.injectX(lattice.index(Coord{3, 3})); // isolated -> LUT
    frame.injectX(lattice.index(Coord{7, 1})); // chain part 1
    frame.injectX(lattice.index(Coord{7, 3})); // chain part 2
    const DetectionEvents events = eventsFor(frame);

    const LocalDecodeResult local = lut.decodeLocal(events);
    applyCorrection(frame, local.correction);

    const MwpmDecoder global(lattice);
    applyCorrection(frame, global.decode(local.residual));

    EXPECT_FALSE(extractor.runRound(frame, nullptr).any());
}

// --- Differential: round-local passes against quadratic scans -------

std::size_t
checkDistance(const DetectionEvent &a, const DetectionEvent &b)
{
    return std::size_t(std::abs(a.ancilla.row - b.ancilla.row)
                       + std::abs(a.ancilla.col - b.ancilla.col))
        / 2;
}

/**
 * The LUT's three passes as scans over every event of the type, in
 * index order, with the isolation scan before the boundary test: the
 * reference the round-local passes must reproduce flip for flip.
 */
void
quadraticDecodeType(const Lattice &lattice,
                    const std::vector<DetectionEvent> &events,
                    std::vector<std::size_t> &flips,
                    std::vector<DetectionEvent> &residual,
                    std::size_t &resolved)
{
    const std::size_t n = events.size();
    std::vector<std::uint8_t> consumed(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        std::size_t partner = 0, neighbours = 0;
        for (std::size_t j = 0; j < n; ++j)
            if (j != i && !consumed[j]
                && events[j].round == events[i].round
                && checkDistance(events[i], events[j]) == 1) {
                ++neighbours;
                partner = j;
            }
        if (neighbours != 1)
            continue;
        std::size_t other = 0;
        for (std::size_t j = 0; j < n; ++j)
            if (j != partner && !consumed[j]
                && events[j].round == events[partner].round
                && checkDistance(events[partner], events[j]) == 1)
                ++other;
        if (other == 1) {
            const Coord data{
                (events[i].ancilla.row + events[partner].ancilla.row) / 2,
                (events[i].ancilla.col + events[partner].ancilla.col) / 2};
            flips.push_back(lattice.index(data));
            consumed[i] = consumed[partner] = 1;
            resolved += 2;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (!consumed[j] && events[j].ancilla == events[i].ancilla
                && (events[j].round == events[i].round + 1
                    || events[i].round == events[j].round + 1)) {
                consumed[i] = consumed[j] = 1;
                resolved += 2;
                break;
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        bool isolated = true;
        for (std::size_t j = 0; j < n && isolated; ++j)
            if (j != i && !consumed[j]
                && checkDistance(events[i], events[j]) <= 2)
                isolated = false;
        if (!isolated)
            continue;
        const Coord c = events[i].ancilla;
        const int rows = int(lattice.rows()), cols = int(lattice.cols());
        std::optional<Coord> data;
        if (events[i].type == SiteType::ZAncilla) {
            if (c.row == 1)
                data = Coord{0, c.col};
            else if (c.row == rows - 2)
                data = Coord{c.row + 1, c.col};
        } else {
            if (c.col == 1)
                data = Coord{c.row, 0};
            else if (c.col == cols - 2)
                data = Coord{c.row, c.col + 1};
        }
        if (data) {
            flips.push_back(lattice.index(*data));
            consumed[i] = 1;
            resolved += 1;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        if (!consumed[i])
            residual.push_back(events[i]);
}

/** Same flips, residual and resolved count as the quadratic scans. */
void
expectSameAsQuadratic(const Lattice &lattice, const DetectionEvents &events,
                      const std::string &where)
{
    LocalDecodeResult ref;
    quadraticDecodeType(lattice, events.zEvents, ref.correction.xFlips,
                        ref.residual.zEvents, ref.resolvedEvents);
    quadraticDecodeType(lattice, events.xEvents, ref.correction.zFlips,
                        ref.residual.xEvents, ref.resolvedEvents);
    const LocalDecodeResult got = LutDecoder(lattice).decodeLocal(events);
    EXPECT_EQ(got.correction.xFlips, ref.correction.xFlips) << where;
    EXPECT_EQ(got.correction.zFlips, ref.correction.zFlips) << where;
    EXPECT_TRUE(got.residual.xEvents == ref.residual.xEvents) << where;
    EXPECT_TRUE(got.residual.zEvents == ref.residual.zEvents) << where;
    EXPECT_EQ(got.resolvedEvents, ref.resolvedEvents) << where;
}

/**
 * n distinct events of one type, round-major, over `rounds` rounds
 * and a run of about 2n consecutive checks (so that same-round,
 * time-like and boundary patterns all occur).
 */
std::vector<DetectionEvent>
clusteredRoundMajor(const Lattice &lattice, SiteType type,
                    std::size_t n, std::size_t rounds, Rng &rng)
{
    const std::vector<Coord> sites = lattice.sites(type);
    const std::size_t span = std::min(sites.size(), 2 * n + 2);
    const std::size_t first = rng.uniformInt(sites.size() - span + 1);
    std::set<std::pair<std::size_t, std::size_t>> picked;
    while (picked.size() < std::min(n, span * rounds))
        picked.insert({rng.uniformInt(rounds),
                       first + rng.uniformInt(span)});
    std::vector<DetectionEvent> out;
    for (const auto &[round, k] : picked)
        out.push_back(DetectionEvent{round, sites[k], type});
    return out;
}

TEST(LutDifferential, RoundLocalPassesMatchQuadraticOnRandomSets)
{
    for (const std::size_t d : {5u, 9u, 13u}) {
        const Lattice lattice = Lattice::forDistance(d);
        Rng rng(0x107 + d);
        for (std::size_t n = 1; n <= 14; ++n) {
            for (const std::size_t rounds : {1u, 2u, 3u, 6u}) {
                for (int trial = 0; trial < 4; ++trial) {
                    DetectionEvents events;
                    events.xEvents = clusteredRoundMajor(
                        lattice, SiteType::XAncilla, n, rounds, rng);
                    events.zEvents = clusteredRoundMajor(
                        lattice, SiteType::ZAncilla, n, rounds, rng);
                    expectSameAsQuadratic(
                        lattice, events,
                        "d=" + std::to_string(d) + " n="
                            + std::to_string(n) + " rounds="
                            + std::to_string(rounds) + " trial="
                            + std::to_string(trial));
                }
            }
        }
    }
}

TEST(LutDifferential, RoundLocalPassesMatchQuadraticOnSampledShots)
{
    // Whole d=13, p=1e-2 memory shots: about 90 events of each type
    // over 13 rounds, where every pass fires.
    MemoryExperiment exp(Protocol::Steane, 13);
    MemoryRun run;
    run.errorRate = 1e-2;
    run.seed = 21;
    MemoryBatch batch;
    for (std::uint64_t b = 0; b < 2; ++b) {
        exp.sample(run, b * 64, batch);
        for (std::size_t lane = 0; lane < batch.events.size(); ++lane)
            expectSameAsQuadratic(exp.lattice(), batch.events[lane],
                                  "batch " + std::to_string(b)
                                      + " lane "
                                      + std::to_string(lane));
    }
}

} // namespace
