/**
 * @file
 * Global minimum-weight perfect-matching decoder (Appendix A.2).
 *
 * "Pairs of flipped syndromes are connected to generate a weighted
 * graph. To find the exact locations of the errors, the minimum
 * weight matching algorithm is run on the graph." Each detection
 * event must be matched either to another event of the same
 * stabilizer type or to the nearest code boundary; edge weights are
 * space-time Manhattan distances (data qubits crossed plus rounds
 * spanned), computed from coordinates on every query; construction
 * is O(1).
 *
 * Matching strategy: exact minimum-weight matching by bitmask
 * dynamic programming for up to `exactLimit` events (optimal), and a
 * greedy globally-shortest-edge-first matcher beyond that (the
 * standard scalable approximation). Both support boundary matches.
 * The DP is solved top-down from the full event set and memoises
 * only the subsets its recursion reaches (drop the lowest event and
 * at most one partner): F(n+2) subsets at O(n) each, 987 of the
 * 16384 at the default limit of 14, against 2^n for a bottom-up
 * fill. The 2^n table is still allocated and cleared per call.
 */

#ifndef QUEST_DECODE_MWPM_DECODER_HPP
#define QUEST_DECODE_MWPM_DECODER_HPP

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "detection.hpp"
#include "qecc/lattice.hpp"
#include "sim/metrics.hpp"

namespace quest::decode {

/** One pairing decision made by the matcher. */
struct Match
{
    std::size_t a = 0;      ///< index into the event list
    std::size_t b = 0;      ///< partner index; ignored if boundary
    bool toBoundary = false;
    std::uint64_t weight = 0;
};

/** Result of decoding one stabilizer type's events. */
struct MatchingResult
{
    std::vector<Match> matches;
    std::uint64_t totalWeight = 0;
};

/**
 * The correction of two per-qubit parity maps: the qubits whose X
 * (`xflip`) or Z (`zflip`) parity is odd, in ascending order.
 */
Correction flipsToCorrection(const std::vector<std::uint8_t> &xflip,
                             const std::vector<std::uint8_t> &zflip);

/**
 * The global decoder living in the master controller.
 *
 * Thread safety: decode()/fold()/matchEvents() and the distance/path
 * queries are const and keep their mutable working state in
 * thread-local scratch arenas, so one decoder instance may decode
 * from many threads concurrently (the parallel Monte-Carlo sweeps
 * rely on this). The setters are not synchronised; configure the
 * decoder before sharing it.
 */
class MwpmDecoder
{
  public:
    /** Predicate: is syndrome generation masked on this qubit? */
    using MaskPredicate = std::function<bool(std::size_t)>;

    /**
     * Hard cap on `exact_limit`: the bitmask DP table holds
     * 2^exact_limit entries, so anything beyond this is a multi-GiB
     * allocation (and, past 63, undefined behaviour in the shift
     * computing the table size).
     */
    static constexpr std::size_t maxExactLimit = 24;

    /**
     * @param lattice Code geometry (must outlive the decoder).
     * @param exact_limit Largest event count decoded by the exact
     *        bitmask DP; larger sets fall back to greedy matching.
     *        Must be <= maxExactLimit.
     */
    explicit MwpmDecoder(const qecc::Lattice &lattice,
                         std::size_t exact_limit = 14);

    /**
     * Make the decoder defect-aware: masked (syndrome-disabled)
     * regions act as additional open boundaries where error chains
     * can terminate, exactly like the lattice edge. The predicate is
     * re-evaluated on every decode so it may track a live mask
     * table.
     */
    void
    setMaskPredicate(MaskPredicate masked)
    {
        _masked = std::move(masked);
    }

    /**
     * Relative cost of crossing one round in time vs one data qubit
     * in space. Matching weights are -log(p) ratios: when the
     * measurement flip rate is lower than the data error rate,
     * time-like edges should cost more than space-like ones (and
     * vice versa). Both weights default to 1 (the balanced
     * phenomenological model).
     */
    void
    setEdgeWeights(std::uint64_t space_weight,
                   std::uint64_t time_weight)
    {
        QUEST_ASSERT(space_weight > 0 && time_weight > 0,
                     "edge weights must be positive");
        _spaceWeight = space_weight;
        _timeWeight = time_weight;
    }

    std::uint64_t spaceWeight() const { return _spaceWeight; }
    std::uint64_t timeWeight() const { return _timeWeight; }

    /** Commit frontier of a decode that commits every match. */
    static constexpr std::size_t noFrontier =
        std::numeric_limits<std::size_t>::max();

    /**
     * Decode detection events into a correction: Z-check events
     * yield X corrections and vice versa. With a commit `frontier`,
     * only the matches fold() commits contribute (see there).
     * Counts one decode.mwpm.decodes.
     */
    Correction decode(const DetectionEvents &events,
                      std::size_t frontier = noFrontier,
                      std::vector<DetectionEvent> *consumed = nullptr)
        const;

    /**
     * Match one stabilizer type's events and fold the data-qubit
     * paths of the committed matches into `bits` (one parity byte
     * per data qubit). A match commits when its earlier endpoint
     * lies before `frontier`; the rest are deferred. The endpoints
     * of committed matches at or past the frontier are appended to
     * `*consumed` (the consumed-ahead events), so every event past
     * the frontier is either deferred or consumed.
     */
    void fold(const std::vector<DetectionEvent> &events,
              std::vector<std::uint8_t> &bits,
              std::size_t frontier = noFrontier,
              std::vector<DetectionEvent> *consumed = nullptr) const;

    /** Match one same-type event set (exposed for tests/benches). */
    MatchingResult matchEvents(
        const std::vector<DetectionEvent> &events) const;

    /**
     * Space-time distance between two same-type events: data qubits
     * crossed between the checks, (|drow| + |dcol|) / 2, plus rounds
     * spanned, each scaled by its edge weight.
     */
    std::uint64_t distance(const DetectionEvent &a,
                           const DetectionEvent &b) const;

    /**
     * Data qubits crossed to reach the nearest open boundary: the
     * nearer lattice edge of the check's type, or a masked check.
     */
    std::uint64_t boundaryDistance(const DetectionEvent &e) const;

    /**
     * Append the data-qubit path between two same-type checks
     * (L-shaped: rows first, then columns) onto `out`.
     */
    void pathBetween(qecc::Coord a, qecc::Coord b,
                     std::vector<std::size_t> &out) const;

    /** Append the path from a check to its nearest boundary. */
    void pathToBoundary(qecc::Coord a,
                        std::vector<std::size_t> &out) const;

  private:
    const qecc::Lattice *_lattice;
    std::size_t _exactLimit;
    MaskPredicate _masked;
    std::uint64_t _spaceWeight = 1;
    std::uint64_t _timeWeight = 1;

    // Registry counters, bound once at construction rather than via
    // function-local statics (which outlive registry resets).
    sim::metrics::Counter &_mExactMatchings;
    sim::metrics::Counter &_mGreedyMatchings;
    sim::metrics::Counter &_mEventsMatched;
    sim::metrics::Counter &_mMatchedWeight;
    sim::metrics::Counter &_mDecodes;

    MatchingResult matchExact(
        const std::vector<DetectionEvent> &events) const;
    MatchingResult matchGreedy(
        const std::vector<DetectionEvent> &events) const;

    /** Distance to the lattice edge only (ignores masks). */
    std::uint64_t edgeDistance(const DetectionEvent &e) const;

    /**
     * Nearest same-type masked check, if any: defect boundaries
     * terminate chains just like lattice edges.
     * @return (distance, coord) or nullopt when nothing is masked.
     */
    std::optional<std::pair<std::uint64_t, qecc::Coord>>
    nearestMaskedCheck(const DetectionEvent &e) const;
};

} // namespace quest::decode

#endif // QUEST_DECODE_MWPM_DECODER_HPP
