/**
 * @file
 * Quantum execution unit: the prime-line architecture (Section 2.3,
 * Figure 4; execution steps 1-3 of Figure 8a).
 *
 * An arbitrary waveform generator continuously drives a prime-line
 * analog bus; a matrix of microwave switches multiplexes waveforms
 * onto qubits. Executing a physical instruction means (1) reading
 * the uop from microcode memory, (2) latching it onto the target
 * switch, and (3) firing the master clock so all latched switches
 * pass their waveform simultaneously -- the lockstep VLIW execution
 * model. This class models the latch array and the master clock
 * with full accounting; the analog path is abstracted to "which
 * waveform reached which qubit this cycle".
 */

#ifndef QUEST_CORE_EXEC_UNIT_HPP
#define QUEST_CORE_EXEC_UNIT_HPP

#include <vector>

#include "isa/opcodes.hpp"
#include "sim/stats.hpp"

namespace quest::core {

/** The switch-matrix execution unit of one MCE. */
class QuantumExecutionUnit
{
  public:
    QuantumExecutionUnit(std::size_t num_qubits, sim::StatGroup &parent);

    std::size_t numQubits() const { return _latched.size(); }

    /**
     * Latch a uop onto qubit q's microwave switch (steps 1-2).
     * Overwrites whatever was latched before; switches hold their
     * value until the next latch.
     */
    void latch(std::size_t q, isa::PhysOpcode op);

    /**
     * Latch a whole sub-cycle at once: row[q] onto every switch q,
     * exactly as numQubits() calls of latch(q, row[q]). `live` is
     * the row's non-Nop count, which the caller precomputes once
     * per program (the replay loop latches the same rows every
     * round). The row must span the whole switch array.
     */
    void latchSubCycle(const std::vector<isa::PhysOpcode> &row,
                       std::size_t live);

    /**
     * Fire the master clock (step 3): every switch passes its
     * latched waveform. @return the uops applied this cycle,
     * indexed by qubit.
     */
    const std::vector<isa::PhysOpcode> &masterClock();

    /** uop currently latched on a switch. */
    isa::PhysOpcode latched(std::size_t q) const
    {
        return _latched.at(q);
    }

    double latchCount() const { return _latches.value(); }
    double firedInstructionCount() const { return _fired.value(); }
    double masterClockCount() const { return _clocks.value(); }

  private:
    std::vector<isa::PhysOpcode> _latched;
    /** Non-Nop switches in _latched: what the next clock fires. */
    std::size_t _live = 0;
    sim::StatGroup _stats;
    sim::Scalar &_latches;
    sim::Scalar &_clocks;
    sim::Scalar &_fired; ///< non-NOP instructions executed
};

} // namespace quest::core

#endif // QUEST_CORE_EXEC_UNIT_HPP
