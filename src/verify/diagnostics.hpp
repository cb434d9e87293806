/**
 * @file
 * Diagnostics for the static verification layer.
 *
 * Every check in src/verify emits Diagnostic records into a Report
 * instead of logging or asserting: a verification run never mutates
 * the artifacts it inspects and never stops at the first finding, so
 * one pass over a corrupted program surfaces every defect site. Each
 * diagnostic carries a stable machine-readable code (the contract the
 * negative-test suite and the CI `verify` gate key on) plus an
 * anchoring site inside the artifact (sub-cycle, qubit, stream
 * index).
 *
 * Codes are grouped by pass:
 *   equiv.*   symbolic-replay equivalence (RAM <-> FIFO / unit cell)
 *   budget.*  capacity / bandwidth budgets vs the JJ memory model
 *   hazard.*  schedule hazards on the expanded uop stream
 *   mask.*    mask-table rows (logical qubit regions)
 *   isa.*     logical instruction traces
 *   timing.*  static worst-case issue bounds vs the round deadline
 *   contention.*  shared fetch-slot admission for co-resident tiles
 */

#ifndef QUEST_VERIFY_DIAGNOSTICS_HPP
#define QUEST_VERIFY_DIAGNOSTICS_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "sim/json.hpp"

namespace quest::verify {

/** How bad a finding is. */
enum class Severity
{
    Error,   ///< the artifact must not be loaded
    Warning, ///< suspicious but loadable
};

/** Display name: "error" / "warning". */
std::string severityName(Severity s);

/**
 * Stable diagnostic codes. Each names one defect class; the
 * negative-test suite corrupts one artifact per code and asserts the
 * exact code fires.
 */
namespace codes {

/** FIFO stream length differs from depth x qubits. */
inline constexpr const char *fifoLength = "equiv.fifo.length";
/** FIFO expansion disagrees with the RAM baseline at a slot. */
inline constexpr const char *fifoUop = "equiv.fifo.uop";
/** Unit-cell expansion disagrees with the RAM baseline at a slot. */
inline constexpr const char *cellUop = "equiv.cell.uop";
/** RAM uop address out of range or duplicated within a sub-cycle. */
inline constexpr const char *ramAddress = "equiv.ram.address";

/** Stored program does not fit the JJ memory configuration. */
inline constexpr const char *capacity = "budget.capacity";
/** Replay bandwidth misses the syndrome-cycle deadline. */
inline constexpr const char *bandwidth = "budget.bandwidth";

/** Ancilla measured without a preceding reset/preparation. */
inline constexpr const char *readBeforeReset =
    "hazard.read_before_reset";
/** Ancilla interaction scheduled after its measurement. */
inline constexpr const char *measBeforeInteraction =
    "hazard.meas_before_interaction";
/** Qubit touched by more than one two-qubit uop in a sub-cycle. */
inline constexpr const char *aliasing = "hazard.aliasing";
/** Two-qubit uop whose partner is off-lattice or not a data qubit. */
inline constexpr const char *partner = "hazard.partner";

/** Mask-table row references out-of-lattice qubits. */
inline constexpr const char *maskOutOfLattice = "mask.out_of_lattice";
/** Two mask-table rows overlap (regions would silently merge). */
inline constexpr const char *maskOverlap = "mask.overlap";

/** Logical instruction with an opcode outside the ISA. */
inline constexpr const char *unknownOpcode = "isa.unknown_opcode";
/** Logical operand exceeds the 12-bit wire field. */
inline constexpr const char *operandRange = "isa.operand_range";
/** Rotation decomposition exceeds the icache line budget. */
inline constexpr const char *rotationBudget = "isa.rotation_budget";

/** Dataflow critical path alone misses the round deadline. */
inline constexpr const char *timingDeadline = "timing.deadline";
/** The fetch width stretches the worst case past the deadline. */
inline constexpr const char *timingWidthBound = "timing.width_bound";

/** Aggregate fetch demand of co-resident tiles exceeds the shared
 *  bandwidth. */
inline constexpr const char *contentionOvercommit =
    "contention.overcommit";
/** Aggregate demand fits, but worst-case arbitration phasing pushes
 *  a tile past its deadline. */
inline constexpr const char *contentionStarvation =
    "contention.starvation";

} // namespace codes

/**
 * Where a diagnostic anchors inside its artifact. Negative fields
 * mean "not applicable" (e.g. a budget diagnostic has no sub-cycle).
 */
struct Site
{
    std::string artifact;     ///< e.g. "fifo-program", "mask-table"
    std::ptrdiff_t subCycle = -1;
    std::ptrdiff_t qubit = -1; ///< linear lattice index
    std::ptrdiff_t index = -1; ///< stream / trace / row index

    std::string toString() const;
};

/** One verification finding. */
struct Diagnostic
{
    std::string code; ///< one of verify::codes
    Severity severity = Severity::Error;
    std::string message;
    Site site;

    std::string toString() const;
};

/** The accumulated result of one verification run. */
class Report
{
  public:
    /** Record one finding. */
    void add(Diagnostic d);

    /** Convenience: error-severity finding. */
    void error(const char *code, Site site, std::string message);

    /** Convenience: warning-severity finding. */
    void warning(const char *code, Site site, std::string message);

    /** Record that a pass ran (shows up in the JSON even if clean). */
    void notePass(const std::string &name);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return _diagnostics;
    }

    const std::vector<std::string> &passesRun() const
    {
        return _passes;
    }

    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** @return true when no error-severity diagnostic was recorded. */
    bool ok() const { return errorCount() == 0; }

    /** Findings with the given code. */
    std::size_t countCode(const std::string &code) const;
    bool has(const std::string &code) const
    {
        return countCode(code) > 0;
    }

    /** Fold another report into this one (multi-artifact runs). */
    void merge(const Report &other);

    /**
     * Machine-readable form:
     *   { "ok": bool, "errors": n, "warnings": n,
     *     "passes": [...], "diagnostics": [ {code, severity,
     *     artifact, sub_cycle, qubit, index, message}, ... ] }
     */
    sim::Json toJson() const;

    /** Human-readable multi-line summary. */
    std::string toString() const;

  private:
    std::vector<Diagnostic> _diagnostics;
    std::vector<std::string> _passes;
};

} // namespace quest::verify

#endif // QUEST_VERIFY_DIAGNOSTICS_HPP
