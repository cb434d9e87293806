/**
 * @file
 * Logical instruction traces.
 *
 * A LogicalTrace is the stream of 2-byte fault-tolerant
 * instructions the master controller dispatches to MCEs. Traces are
 * produced synthetically (the paper consumed ScaffCC/QuRE traces we
 * do not have; see DESIGN.md substitution table) by generators that
 * match the published statistical structure: ILP of 2-3, T-gates
 * every ~3rd instruction, and 100-200-instruction recursive
 * distillation subroutines with deterministic control flow.
 */

#ifndef QUEST_ISA_TRACE_HPP
#define QUEST_ISA_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "instructions.hpp"
#include "sim/random.hpp"

namespace quest::isa {

/** A stream of logical instructions plus summary statistics. */
class LogicalTrace
{
  public:
    LogicalTrace() = default;

    void append(LogicalInstr instr) { _instrs.push_back(instr); }

    void
    append(LogicalOpcode op, std::uint16_t operand)
    {
        _instrs.push_back(LogicalInstr{op, operand});
    }

    std::size_t size() const { return _instrs.size(); }
    bool empty() const { return _instrs.empty(); }
    const LogicalInstr &at(std::size_t i) const { return _instrs.at(i); }

    auto begin() const { return _instrs.begin(); }
    auto end() const { return _instrs.end(); }

    /** Total wire bytes of the trace (2 bytes per instruction). */
    std::size_t
    bytes() const
    {
        return _instrs.size() * sizeof(std::uint16_t);
    }

    /** Count of instructions with the given opcode. */
    std::size_t count(LogicalOpcode op) const;

    /** Fraction of T instructions in the trace. */
    double tFraction() const;

    /** Serialize to the wire format. */
    std::vector<std::uint16_t> encodeAll() const;

    /** Rebuild a trace from wire words. */
    static LogicalTrace decodeAll(const std::vector<std::uint16_t> &words);

    /**
     * Write the trace to a binary file: an 8-byte magic/version
     * header followed by the 2-byte wire words. Raises SimError on
     * I/O failure.
     */
    void saveBinary(const std::string &path) const;

    /**
     * Load a trace saved with saveBinary. Raises SimError when the
     * file cannot be read, lacks the magic, or its body is empty or
     * ends mid-instruction (a cut file).
     */
    static LogicalTrace loadBinary(const std::string &path);

  private:
    std::vector<LogicalInstr> _instrs;
};

/** Configuration for the synthetic application trace generator. */
struct TraceGenConfig
{
    std::size_t numInstructions = 1000;
    std::size_t logicalQubits = 16;
    double tFraction = 0.28;   ///< paper: T gates are 25-30% of the stream
    double cnotFraction = 0.3; ///< braided two-qubit operations
    double maskFraction = 0.05; ///< explicit mask manipulation
    std::uint64_t seed = 1;
};

/**
 * Generate a synthetic application trace with the published opcode
 * mix (Section 5.2).
 */
LogicalTrace generateApplicationTrace(const TraceGenConfig &cfg);

/**
 * Generate the logical instruction body of one 15-to-1 distillation
 * round: a deterministic sequence of 100-200 instructions
 * (Section 5.3) operating on 16 logical qubits of a T-factory.
 * Identical calls return identical traces — the property the
 * software-managed instruction cache exploits.
 */
LogicalTrace generateDistillationRound(std::uint16_t factory_base_qubit);

} // namespace quest::isa

#endif // QUEST_ISA_TRACE_HPP
