#include "lut_decoder.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "sim/logging.hpp"

namespace quest::decode {

using qecc::Coord;
using qecc::SiteType;

namespace {

/** Check-grid Manhattan distance (data qubits crossed) in space. */
std::uint64_t
spatialDistance(const DetectionEvent &a, const DetectionEvent &b)
{
    const std::uint64_t dr = std::uint64_t(std::abs(a.ancilla.row
                                                    - b.ancilla.row));
    const std::uint64_t dc = std::uint64_t(std::abs(a.ancilla.col
                                                    - b.ancilla.col));
    return (dr + dc) / 2;
}

/** The single data qubit between two checks at spatial distance 1. */
Coord
sharedDataQubit(const DetectionEvent &a, const DetectionEvent &b)
{
    return Coord{(a.ancilla.row + b.ancilla.row) / 2,
                 (a.ancilla.col + b.ancilla.col) / 2};
}

/** One past the last event that shares `events[begin]`'s round. */
std::size_t
roundEnd(const std::vector<DetectionEvent> &events, std::size_t begin)
{
    std::size_t end = begin;
    while (end < events.size() && events[end].round == events[begin].round)
        ++end;
    return end;
}

} // namespace

void
LutDecoder::decodeType(const std::vector<DetectionEvent> &events,
                       std::vector<std::size_t> &flips,
                       std::vector<DetectionEvent> &residual,
                       std::size_t &resolved) const
{
    QUEST_DEBUG_ASSERT(
        std::adjacent_find(
            events.begin(), events.end(),
            [this](const DetectionEvent &a, const DetectionEvent &b) {
                return std::pair(a.round, _lattice->index(a.ancilla))
                    >= std::pair(b.round, _lattice->index(b.ancilla));
            })
            == events.end(),
        "LUT input is not in round-major, ancilla-index order");
    const std::size_t n = events.size();
    std::vector<std::uint8_t> consumed(n, 0);

    // Pass 1: same-round adjacent pairs (a single data error flips
    // exactly the two checks it touches). Both the pairing and its
    // ambiguity test look only at the round's own range [lo, hi).
    for (std::size_t lo = 0, hi; lo < n; lo = hi) {
        hi = roundEnd(events, lo);
        for (std::size_t i = lo; i < hi; ++i) {
            if (consumed[i])
                continue;
            std::size_t partner = 0;
            std::size_t neighbours = 0;
            for (std::size_t j = lo; j < hi; ++j) {
                if (j == i || consumed[j])
                    continue;
                if (spatialDistance(events[i], events[j]) == 1) {
                    ++neighbours;
                    partner = j;
                }
            }
            // Only act when the pairing is unambiguous.
            if (neighbours != 1)
                continue;
            std::size_t other_neighbours = 0;
            const auto &e2 = events[partner];
            for (std::size_t j = lo; j < hi; ++j) {
                if (j == partner || consumed[j])
                    continue;
                if (spatialDistance(e2, events[j]) == 1)
                    ++other_neighbours;
            }
            if (other_neighbours == 1) {
                flips.push_back(
                    _lattice->index(sharedDataQubit(events[i], e2)));
                consumed[i] = 1;
                consumed[partner] = 1;
                resolved += 2;
            }
        }
    }

    // Pass 2: time-like pairs (measurement flips) -- same check,
    // consecutive rounds. No data correction needed. A later partner
    // can only lie in the next round's range [hi, next_end).
    for (std::size_t lo = 0, hi; lo < n; lo = hi) {
        hi = roundEnd(events, lo);
        const std::size_t next_end =
            hi < n && events[hi].round == events[lo].round + 1
            ? roundEnd(events, hi) : hi;
        for (std::size_t i = lo; i < hi; ++i) {
            if (consumed[i])
                continue;
            for (std::size_t j = hi; j < next_end; ++j) {
                if (!consumed[j] && events[j].ancilla == events[i].ancilla) {
                    consumed[i] = 1;
                    consumed[j] = 1;
                    resolved += 2;
                    break;
                }
            }
        }
    }

    // Pass 3: isolated boundary-adjacent events. The O(1) boundary
    // test runs before the O(n) isolation scan.
    for (std::size_t i = 0; i < n; ++i) {
        if (consumed[i])
            continue;
        const Coord c = events[i].ancilla;
        Coord data;
        if (events[i].type == SiteType::ZAncilla) {
            if (c.row == 1)
                data = Coord{0, c.col};
            else if (c.row == int(_lattice->rows()) - 2)
                data = Coord{c.row + 1, c.col};
            else
                continue;
        } else {
            if (c.col == 1)
                data = Coord{c.row, 0};
            else if (c.col == int(_lattice->cols()) - 2)
                data = Coord{c.row, c.col + 1};
            else
                continue;
        }
        bool isolated = true;
        for (std::size_t j = 0; j < n && isolated; ++j) {
            if (j == i || consumed[j])
                continue;
            if (spatialDistance(events[i], events[j]) <= 2)
                isolated = false;
        }
        if (isolated) {
            flips.push_back(_lattice->index(data));
            consumed[i] = 1;
            resolved += 1;
        }
    }

    for (std::size_t i = 0; i < n; ++i)
        if (!consumed[i])
            residual.push_back(events[i]);
}

LocalDecodeResult
LutDecoder::decodeLocal(const DetectionEvents &events) const
{
    LocalDecodeResult out;
    // Z-check events locate X errors; X-check events locate Z errors.
    decodeType(events.zEvents, out.correction.xFlips,
               out.residual.zEvents, out.resolvedEvents);
    decodeType(events.xEvents, out.correction.zFlips,
               out.residual.xEvents, out.resolvedEvents);
    return out;
}

} // namespace quest::decode
