#include "exec_unit.hpp"

#include <algorithm>

#include "sim/logging.hpp"

namespace quest::core {

QuantumExecutionUnit::QuantumExecutionUnit(std::size_t num_qubits,
                                           sim::StatGroup &parent)
    : _latched(num_qubits, isa::PhysOpcode::Nop),
      _stats("exec_unit"),
      _latches(_stats.scalar("latches", "uops latched onto switches")),
      _clocks(_stats.scalar("master_clocks", "master clock firings")),
      _fired(_stats.scalar("fired_instructions",
                           "non-NOP quantum instructions executed"))
{
    QUEST_ASSERT(num_qubits > 0, "execution unit needs qubits");
    parent.addChild(_stats);
}

void
QuantumExecutionUnit::latch(std::size_t q, isa::PhysOpcode op)
{
    QUEST_ASSERT(q < _latched.size(),
                 "latch target %zu beyond switch array size %zu",
                 q, _latched.size());
    _live += std::size_t(op != isa::PhysOpcode::Nop);
    _live -= std::size_t(_latched[q] != isa::PhysOpcode::Nop);
    _latched[q] = op;
    ++_latches;
}

void
QuantumExecutionUnit::latchSubCycle(
    const std::vector<isa::PhysOpcode> &row, std::size_t live)
{
    QUEST_ASSERT(row.size() == _latched.size(),
                 "sub-cycle row of %zu uops for a switch array of %zu",
                 row.size(), _latched.size());
    QUEST_DEBUG_ASSERT(
        live == std::size_t(std::count_if(
            row.begin(), row.end(),
            [](isa::PhysOpcode op) {
                return op != isa::PhysOpcode::Nop;
            })),
        "sub-cycle non-Nop count %zu is stale", live);
    _latched = row;
    _live = live;
    // A sum of integers below 2^53: one add of n equals n
    // increments exactly.
    _latches += double(row.size());
}

void
QuantumExecutionUnit::release(std::size_t q)
{
    QUEST_ASSERT(q < _latched.size(),
                 "release target %zu beyond switch array size %zu",
                 q, _latched.size());
    _live -= std::size_t(_latched[q] != isa::PhysOpcode::Nop);
    _latched[q] = isa::PhysOpcode::Nop;
}

const std::vector<isa::PhysOpcode> &
QuantumExecutionUnit::masterClock()
{
    ++_clocks;
    _fired += double(_live);
    return _latched;
}

} // namespace quest::core
