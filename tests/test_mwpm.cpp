/**
 * @file
 * Tests for the global MWPM decoder: exhaustive single/double error
 * correction on small codes, exact-vs-greedy consistency, and the
 * distance-respecting property sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <utility>

#include "decode/mwpm_decoder.hpp"
#include "qecc/distance.hpp"
#include "sim/logging.hpp"
#include "sim/random.hpp"

namespace {

using namespace quest::decode;
using namespace quest::qecc;
using quest::quantum::PauliFrame;
using quest::sim::Rng;

/** Everything needed to decode on a distance-d code. */
struct Harness
{
    explicit Harness(std::size_t d)
        : lattice(Lattice::forDistance(d)),
          schedule(buildRoundSchedule(lattice,
                                      protocolSpec(Protocol::Steane))),
          extractor(schedule),
          decoder(lattice)
    {}

    /** Decode the syndrome of `frame` and return the residual. */
    PauliFrame
    decodeResidual(PauliFrame frame, std::size_t rounds = 1)
    {
        const auto history =
            extractor.runRounds(frame, nullptr, rounds);
        const DetectionEvents events =
            extractDetectionEvents(history, extractor);
        const Correction corr = decoder.decode(events);
        applyCorrection(frame, corr);
        return frame;
    }

    /**
     * @return true when the residual on `frame` is a logical error:
     * the syndrome is clean but the residual anticommutes with a
     * logical operator (odd overlap with the crossing chain).
     */
    bool
    isLogicalError(PauliFrame &frame)
    {
        const SyndromeRound check = extractor.runRound(frame, nullptr);
        if (check.any())
            return true; // not even back in the code space
        std::size_t x_overlap = 0, z_overlap = 0;
        for (const Coord c : lattice.logicalZSupport())
            if (frame.xError(lattice.index(c)))
                ++x_overlap; // X residual crossing logical Z
        for (const Coord c : lattice.logicalXSupport())
            if (frame.zError(lattice.index(c)))
                ++z_overlap;
        return (x_overlap % 2) || (z_overlap % 2);
    }

    Lattice lattice;
    RoundSchedule schedule;
    SyndromeExtractor extractor;
    MwpmDecoder decoder;
};

TEST(Mwpm, DistanceMetricCountsDataQubits)
{
    Harness h(5);
    const DetectionEvent a{0, Coord{1, 0}, SiteType::ZAncilla};
    const DetectionEvent b{0, Coord{1, 4}, SiteType::ZAncilla};
    const DetectionEvent c{2, Coord{3, 0}, SiteType::ZAncilla};
    EXPECT_EQ(h.decoder.distance(a, b), 2u); // two columns over
    EXPECT_EQ(h.decoder.distance(a, c), 3u); // one row + two rounds
}

TEST(Mwpm, BoundaryDistances)
{
    Harness h(5); // 9x9 lattice
    // Z check at row 1: one data qubit from the north boundary.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{1, 2}, SiteType::ZAncilla}),
              1u);
    // Z check at row 7: one from the south boundary.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{7, 2}, SiteType::ZAncilla}),
              1u);
    // Middle row 3: min(2, 3) == 2.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{3, 2}, SiteType::ZAncilla}),
              2u);
    // X checks use the east/west boundaries.
    EXPECT_EQ(h.decoder.boundaryDistance(
                  DetectionEvent{0, Coord{2, 1}, SiteType::XAncilla}),
              1u);
}

TEST(Mwpm, PathBetweenChecksIsLShaped)
{
    Harness h(5);
    std::vector<std::size_t> path;
    h.decoder.pathBetween(Coord{1, 0}, Coord{5, 4}, path);
    // Two row steps + two column steps = 4 data qubits.
    EXPECT_EQ(path.size(), 4u);
    for (std::size_t q : path)
        EXPECT_TRUE(h.lattice.isData(h.lattice.coord(q)));
}

TEST(Mwpm, PathToBoundaryLengthMatchesDistance)
{
    Harness h(5);
    for (const Coord c : h.lattice.sites(SiteType::ZAncilla)) {
        const DetectionEvent e{0, c, SiteType::ZAncilla};
        std::vector<std::size_t> path;
        h.decoder.pathToBoundary(c, path);
        EXPECT_EQ(path.size(), h.decoder.boundaryDistance(e));
    }
}

/**
 * Reference for the arithmetic distance queries: the all-pairs
 * ancilla table MwpmDecoder used to build in its constructor. Compact
 * ancilla ids, (dr+dc)/2 for every ancilla pair and each ancilla's
 * data-qubit count to the nearest lattice edge of its type. Weights
 * are applied at lookup, as the decoder did.
 */
struct ReferenceDistanceTable
{
    /** The decoder only built the table below this many pairs. */
    static constexpr std::size_t maxCachedPairs = std::size_t(1) << 24;

    static std::uint32_t
    edgeDistance(const Lattice &lattice, Coord c)
    {
        if (lattice.siteType(c) == SiteType::ZAncilla)
            return std::uint32_t(std::min(
                (c.row + 1) / 2, (int(lattice.rows()) - c.row) / 2));
        return std::uint32_t(std::min(
            (c.col + 1) / 2, (int(lattice.cols()) - c.col) / 2));
    }

    static std::uint32_t
    spatialDistance(Coord a, Coord b)
    {
        return std::uint32_t(std::abs(a.row - b.row)
                             + std::abs(a.col - b.col))
            / 2;
    }

    explicit ReferenceDistanceTable(const Lattice &lattice)
        : lattice(&lattice)
    {
        const std::size_t sites = lattice.numQubits();
        ancillaId.assign(sites, noAncilla);
        for (std::size_t idx = 0; idx < sites; ++idx)
            if (lattice.isAncilla(lattice.coord(idx)))
                ancillaId[idx] = std::uint32_t(numAncilla++);
        spatial.assign(numAncilla * numAncilla, 0);
        edge.assign(numAncilla, 0);
        for (std::size_t ia = 0; ia < sites; ++ia) {
            const std::uint32_t a = ancillaId[ia];
            if (a == noAncilla)
                continue;
            const Coord ca = lattice.coord(ia);
            edge[a] = edgeDistance(lattice, ca);
            for (std::size_t ib = 0; ib < sites; ++ib) {
                const std::uint32_t b = ancillaId[ib];
                if (b != noAncilla)
                    spatial[a * numAncilla + b] =
                        spatialDistance(ca, lattice.coord(ib));
            }
        }
    }

    std::uint64_t
    distance(const DetectionEvent &a, const DetectionEvent &b,
             std::uint64_t space_weight,
             std::uint64_t time_weight) const
    {
        const std::uint32_t ia = ancillaId[lattice->index(a.ancilla)];
        const std::uint32_t ib = ancillaId[lattice->index(b.ancilla)];
        const std::uint64_t dt = a.round > b.round ? a.round - b.round
                                                   : b.round - a.round;
        return space_weight * spatial[ia * numAncilla + ib]
            + time_weight * dt;
    }

    std::uint64_t
    boundaryDistance(const DetectionEvent &e,
                     std::uint64_t space_weight) const
    {
        return space_weight * edge[ancillaId[lattice->index(e.ancilla)]];
    }

    static constexpr std::uint32_t noAncilla = ~std::uint32_t(0);
    const Lattice *lattice;
    std::vector<std::uint32_t> ancillaId;
    std::vector<std::uint32_t> spatial;
    std::vector<std::uint32_t> edge;
    std::size_t numAncilla = 0;
};

/** The two edge-weight settings every distance check runs under. */
constexpr std::pair<std::uint64_t, std::uint64_t> edgeWeightCases[] = {
    {1, 1}, {2, 3}};

/**
 * distance() and boundaryDistance() equal the former per-lattice
 * table for every same-type ancilla pair and every ancilla, at every
 * size where the decoder used to build it.
 */
class DistanceMatchesTable
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DistanceMatchesTable, EveryPairAndBoundary)
{
    const Lattice lattice = Lattice::forDistance(GetParam());
    const ReferenceDistanceTable ref(lattice);
    ASSERT_LE(ref.numAncilla * ref.numAncilla,
              ReferenceDistanceTable::maxCachedPairs)
        << "the decoder built its table at this size";
    for (const auto &[space_w, time_w] : edgeWeightCases) {
        MwpmDecoder decoder(lattice);
        decoder.setEdgeWeights(space_w, time_w);
        for (const SiteType type :
             {SiteType::ZAncilla, SiteType::XAncilla}) {
            const std::vector<Coord> checks = lattice.sites(type);
            for (std::size_t i = 0; i < checks.size(); ++i) {
                const DetectionEvent a{i % 4, checks[i], type};
                ASSERT_EQ(decoder.boundaryDistance(a),
                          ref.boundaryDistance(a, space_w))
                    << "check (" << checks[i].row << ","
                    << checks[i].col << ")";
                for (std::size_t j = 0; j < checks.size(); ++j) {
                    const DetectionEvent b{j % 3, checks[j], type};
                    ASSERT_EQ(decoder.distance(a, b),
                              ref.distance(a, b, space_w, time_w))
                        << "checks " << i << " and " << j;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FormerTableSizes, DistanceMatchesTable,
                         ::testing::Values(3, 5, 9, 13));

TEST(Mwpm, DistanceAtSizeBeyondFormerTableCap)
{
    // d=47 has more ancillas than the former table allowed, so the
    // decoder always computed these distances arithmetically. Check
    // every ancilla's boundary distance and its distance to the
    // corner, centre and last checks of its type.
    const Lattice lattice = Lattice::forDistance(47);
    std::size_t ancillas = 0;
    for (std::size_t idx = 0; idx < lattice.numQubits(); ++idx)
        ancillas += lattice.isAncilla(lattice.coord(idx));
    ASSERT_GT(ancillas * ancillas, ReferenceDistanceTable::maxCachedPairs);

    for (const auto &[space_w, time_w] : edgeWeightCases) {
        MwpmDecoder decoder(lattice);
        decoder.setEdgeWeights(space_w, time_w);
        for (const SiteType type :
             {SiteType::ZAncilla, SiteType::XAncilla}) {
            const std::vector<Coord> checks = lattice.sites(type);
            const Coord anchors[] = {checks.front(),
                                     checks[checks.size() / 2],
                                     checks.back()};
            for (std::size_t i = 0; i < checks.size(); ++i) {
                const DetectionEvent a{i % 4, checks[i], type};
                ASSERT_EQ(decoder.boundaryDistance(a),
                          space_w
                              * ReferenceDistanceTable::edgeDistance(
                                  lattice, checks[i]));
                for (const Coord anchor : anchors) {
                    const DetectionEvent b{1, anchor, type};
                    const std::uint64_t dt = a.round > 1 ? a.round - 1
                                                         : 1 - a.round;
                    ASSERT_EQ(decoder.distance(a, b),
                              space_w
                                      * ReferenceDistanceTable::
                                          spatialDistance(checks[i],
                                                          anchor)
                                  + time_w * dt);
                }
            }
        }
    }
}

/** Exhaustive: every single data error on d=3 and d=5 is corrected. */
class SingleErrorSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SingleErrorSweep, EverySingleErrorCorrected)
{
    Harness h(GetParam());
    for (const Coord data : h.lattice.sites(SiteType::Data)) {
        for (int pauli = 0; pauli < 3; ++pauli) {
            PauliFrame frame(h.lattice.numQubits());
            if (pauli == 0 || pauli == 2)
                frame.injectX(h.lattice.index(data));
            if (pauli == 1 || pauli == 2)
                frame.injectZ(h.lattice.index(data));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.isLogicalError(residual))
                << "d=" << GetParam() << " data (" << data.row << ","
                << data.col << ") pauli " << pauli;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, SingleErrorSweep,
                         ::testing::Values(3u, 5u));

/** Exhaustive: every X error pair on d=5 is corrected. */
TEST(Mwpm, EveryDoubleXErrorCorrectedAtDistance5)
{
    Harness h(5);
    const auto data = h.lattice.sites(SiteType::Data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        for (std::size_t j = i + 1; j < data.size(); ++j) {
            PauliFrame frame(h.lattice.numQubits());
            frame.injectX(h.lattice.index(data[i]));
            frame.injectX(h.lattice.index(data[j]));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.isLogicalError(residual))
                << "pair " << i << "," << j;
        }
    }
}

/** Random errors up to the correction guarantee never fail. */
TEST(MwpmProperty, RandomErrorsWithinGuaranteeCorrected)
{
    Rng rng(99);
    for (std::size_t d : { 3u, 5u, 7u }) {
        Harness h(d);
        const auto data = h.lattice.sites(SiteType::Data);
        const std::size_t t = correctableErrors(d);
        for (int trial = 0; trial < 60; ++trial) {
            PauliFrame frame(h.lattice.numQubits());
            // Inject up to t distinct X errors.
            std::set<std::size_t> picked;
            while (picked.size() < t)
                picked.insert(rng.uniformInt(data.size()));
            for (std::size_t k : picked)
                frame.injectX(h.lattice.index(data[k]));
            PauliFrame residual = h.decodeResidual(frame);
            EXPECT_FALSE(h.isLogicalError(residual))
                << "d=" << d << " trial " << trial;
        }
    }
}

TEST(Mwpm, GreedyMatchesAllEvents)
{
    // Force the greedy path with a low exact limit.
    Harness h(7);
    MwpmDecoder greedy(h.lattice, /*exact_limit=*/0);
    PauliFrame frame(h.lattice.numQubits());
    const auto data = h.lattice.sites(SiteType::Data);
    for (std::size_t i = 0; i < data.size(); i += 5)
        frame.injectX(h.lattice.index(data[i]));
    const auto history = h.extractor.runRounds(frame, nullptr, 1);
    const DetectionEvents events =
        extractDetectionEvents(history, h.extractor);
    const Correction corr = greedy.decode(events);
    applyCorrection(frame, corr);
    // Whatever the matching quality, the syndrome must be cleared.
    const SyndromeRound after = h.extractor.runRound(frame, nullptr);
    EXPECT_FALSE(after.any());
}

TEST(Mwpm, ExactAndGreedyAgreeOnTotalWeightForEasyCases)
{
    Harness h(5);
    MwpmDecoder exact(h.lattice, 14);
    MwpmDecoder greedy(h.lattice, 0);
    // An adjacent mid-lattice pair: pairing (weight 1) strictly
    // beats any boundary match (weight 2 each side), so both
    // matchers must find it.
    std::vector<DetectionEvent> events = {
        {0, Coord{3, 2}, SiteType::ZAncilla},
        {0, Coord{3, 4}, SiteType::ZAncilla},
    };
    EXPECT_EQ(exact.matchEvents(events).totalWeight, 1u);
    EXPECT_EQ(greedy.matchEvents(events).totalWeight, 1u);
}

TEST(Mwpm, ExactBeatsOrTiesGreedy)
{
    Harness h(7);
    Rng rng(5);
    MwpmDecoder exact(h.lattice, 14);
    MwpmDecoder greedy(h.lattice, 0);
    const auto zs = h.lattice.sites(SiteType::ZAncilla);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<DetectionEvent> events;
        std::set<std::size_t> picked;
        while (picked.size() < 6)
            picked.insert(rng.uniformInt(zs.size()));
        for (std::size_t k : picked)
            events.push_back(DetectionEvent{
                rng.uniformInt(3), zs[k], SiteType::ZAncilla});
        EXPECT_LE(exact.matchEvents(events).totalWeight,
                  greedy.matchEvents(events).totalWeight)
            << "trial " << trial;
    }
}

TEST(Mwpm, ExactLimitAboveDpCapRejected)
{
    // The bitmask DP allocates 2^exact_limit table entries: 30 would
    // be a multi-GiB allocation, 64 shifts past the word width (UB).
    // Construction must reject anything above the documented cap.
    quest::sim::setQuiet(true);
    Harness h(5);
    EXPECT_THROW(MwpmDecoder(h.lattice, 25), quest::sim::SimError);
    EXPECT_THROW(MwpmDecoder(h.lattice, 30), quest::sim::SimError);
    EXPECT_THROW(MwpmDecoder(h.lattice, 64), quest::sim::SimError);
    EXPECT_NO_THROW(MwpmDecoder(h.lattice,
                                MwpmDecoder::maxExactLimit));
    EXPECT_EQ(MwpmDecoder::maxExactLimit, 24u);
    quest::sim::setQuiet(false);
}

/** Every event index appears in exactly one match. */
bool
matchesCoverAllEvents(const MatchingResult &mr, std::size_t n)
{
    std::vector<int> seen(n, 0);
    for (const Match &m : mr.matches) {
        ++seen[m.a];
        if (!m.toBoundary)
            ++seen[m.b];
    }
    for (std::size_t i = 0; i < n; ++i)
        if (seen[i] != 1)
            return false;
    return true;
}

TEST(Mwpm, ExactVsGreedyEquivalenceAtLimitBoundary)
{
    // A decoder with exact_limit L runs the optimal DP for exactly L
    // events and falls back to the greedy matcher at L+1. At the
    // boundary both regimes must produce complete matchings, the
    // L-event result must equal a reference exact matcher's weight,
    // and the (L+1)-event greedy result may only be heavier than the
    // reference optimum.
    constexpr std::size_t limit = 8;
    Harness h(9);
    MwpmDecoder boundary(h.lattice, limit);
    MwpmDecoder reference(h.lattice, 14); // exact for both sizes
    Rng rng(1234);
    const auto zs = h.lattice.sites(SiteType::ZAncilla);
    for (int trial = 0; trial < 30; ++trial) {
        for (const std::size_t n : { limit, limit + 1 }) {
            std::vector<DetectionEvent> events;
            std::set<std::size_t> picked;
            while (picked.size() < n)
                picked.insert(rng.uniformInt(zs.size()));
            for (std::size_t k : picked)
                events.push_back(DetectionEvent{
                    rng.uniformInt(3), zs[k], SiteType::ZAncilla});

            const MatchingResult got = boundary.matchEvents(events);
            const MatchingResult ref = reference.matchEvents(events);
            EXPECT_TRUE(matchesCoverAllEvents(got, n))
                << "trial " << trial << " n=" << n;
            EXPECT_TRUE(matchesCoverAllEvents(ref, n))
                << "trial " << trial << " n=" << n;
            if (n <= limit)
                EXPECT_EQ(got.totalWeight, ref.totalWeight)
                    << "trial " << trial << ": exact side of the "
                    << "boundary must be optimal";
            else
                EXPECT_GE(got.totalWeight, ref.totalWeight)
                    << "trial " << trial << ": greedy side may not "
                    << "beat the optimum";
        }
    }
}

TEST(Mwpm, MeasurementErrorPairNeedsNoDataCorrection)
{
    Harness h(3);
    // Two time-like events at the same check: pure measurement flip.
    std::vector<DetectionEvent> events = {
        {1, Coord{1, 2}, SiteType::ZAncilla},
        {2, Coord{1, 2}, SiteType::ZAncilla},
    };
    DetectionEvents all;
    all.zEvents = events;
    const Correction corr = h.decoder.decode(all);
    EXPECT_EQ(corr.weight(), 0u);
}

TEST(Mwpm, EmptyEventsYieldEmptyCorrection)
{
    Harness h(3);
    const Correction corr = h.decoder.decode(DetectionEvents{});
    EXPECT_EQ(corr.weight(), 0u);
}

} // namespace
