/**
 * @file
 * Microcoded Control Engine (paper Section 4, Figures 7-8).
 *
 * An MCE owns a tiled subsection of the quantum substrate and is
 * solely responsible for its QECC instruction delivery: the
 * microcode pipeline replays the QECC-uop program every round with
 * no master-controller involvement; the mask table suppresses
 * syndrome generation where logical qubits live; the instruction
 * pipeline decodes 2-byte logical instructions into transverse
 * physical uops or mask updates. The error decoder pipeline's local
 * LUT stage is modelled, with the master's global matcher, by the
 * tile's decode::StreamingDecoder in the master controller; the MCE
 * hands it every extracted round and keeps the correction ledger.
 *
 * The MCE here is cycle-faithful at QECC-round granularity: every
 * round streams one micro-op per qubit per sub-cycle through the
 * execution unit's latch/master-clock model, evolves a Pauli frame
 * under the configured noise, and records real syndromes.
 */

#ifndef QUEST_CORE_MCE_HPP
#define QUEST_CORE_MCE_HPP

#include <map>
#include <memory>
#include <string>

#include "decode/detection.hpp"
#include "exec_unit.hpp"
#include "icache.hpp"
#include "isa/instructions.hpp"
#include "isa/trace.hpp"
#include "mask_table.hpp"
#include "microcode.hpp"
#include "qecc/extractor.hpp"
#include "qecc/logical_mask.hpp"
#include "quantum/error_model.hpp"
#include "scheduler.hpp"
#include "sim/metrics.hpp"
#include "sim/stats.hpp"

namespace quest::sim {
class FaultInjector;
}

namespace quest::core {

/** Configuration of one MCE tile. */
struct MceConfig
{
    std::size_t distance = 3;  ///< code distance of the tile
    /** Tile dimensions; 0 means the (2d-1)x(2d-1) default. */
    std::size_t latticeRows = 0;
    std::size_t latticeCols = 0;

    qecc::Protocol protocol = qecc::Protocol::Steane;
    tech::Technology technology = tech::Technology::ProjectedD;
    MicrocodeDesign microcodeDesign = MicrocodeDesign::UnitCell;
    tech::MemoryConfig memoryConfig{4, 1024};
    MaskLayout maskLayout = MaskLayout::Full;

    quantum::ErrorRates errorRates = quantum::ErrorRates::none();
    std::size_t icacheCapacity = 1024; ///< instructions; 0 disables
    std::uint64_t seed = 1;

    /** Pipeline timing model of the per-round microcode replay.
     *  In-order is the only one; the field stays while questbench
     *  passes it to the arbiter (ROADMAP item 8). */
    SchedulingMode scheduling = SchedulingMode::InOrder;
    /** Fetch width of the pipeline model the arbiter plans with. */
    SchedulerConfig sched;

    /** Run the installed pre-flight verifier over the tile's
     *  artifacts at construction (see setPreflightVerifier). */
    bool verifyOnLoad = false;
};

class Mce;

/**
 * Pre-flight verification hook. The static verifier (src/verify)
 * sits above this library in the link order, so the load-path gate
 * is dependency-injected: verify::installPreflightGate() registers
 * a function here, and any Mce constructed with
 * `MceConfig::verifyOnLoad` runs it before accepting the tile. The
 * hook must raise sim::SimError to reject the artifacts.
 */
using PreflightVerifier = void (*)(const Mce &mce);

/** Install (or clear, with nullptr) the pre-flight hook. */
void setPreflightVerifier(PreflightVerifier fn);

/** The installed hook, or nullptr. */
PreflightVerifier preflightVerifier();

/** One Microcoded Control Engine. */
class Mce
{
  public:
    Mce(std::string name, const MceConfig &cfg);

    const std::string &name() const { return _name; }
    const MceConfig &config() const { return _cfg; }
    const qecc::Lattice &lattice() const { return *_lattice; }

    /** The canonical (unmasked) QECC microcode program this tile
     *  replays — what the pre-flight verifier inspects. */
    const qecc::RoundSchedule &baseSchedule() const
    {
        return *_baseSchedule;
    }

    /** The mask-filtered program actually replayed each round (what
     *  the arbiter plans against). */
    const qecc::RoundSchedule &maskedSchedule() const
    {
        return *_maskedSchedule;
    }

    /**
     * Qubit-dependence oracle of the masked program — lazily built
     * (and rebuilt after every mask change). The master's bandwidth
     * arbiter consumes it.
     */
    const verify::DependencyOracle &dependencyOracle();

    /**
     * Program generation: bumped on every masked-schedule rebuild
     * (every mask change), so two equal generations mean the same
     * replayed program and the same dependencyOracle(). Plans
     * derived from the program key on it.
     */
    std::uint64_t programGeneration() const { return _generation; }

    quantum::PauliFrame &frame() { return _frame; }
    LogicalInstructionCache &icache() { return _icache; }
    MaskTable &maskTable() { return _mask; }
    const QuantumExecutionUnit &execUnit() const { return _execUnit; }
    sim::StatGroup &stats() { return _stats; }

    /** @name Logical qubit management (mask instructions). */
    ///@{

    /**
     * Create a double-defect logical qubit anchored at `anchor`.
     * @return the logical qubit id used by later instructions.
     */
    int defineLogicalQubit(qecc::Coord anchor);

    /** Remove a logical qubit and re-enable QECC on its footprint. */
    void releaseLogicalQubit(int id);

    std::size_t logicalQubitCount() const { return _logical.size(); }
    ///@}

    /**
     * Execute one 2-byte logical instruction (the instruction
     * pipeline path, steps 4-6 of Figure 8a). Transverse
     * instructions act across the operand logical qubit's footprint;
     * mask instructions reshape its boundary.
     */
    void executeLogical(const isa::LogicalInstr &instr);

    /** Run a block of logical instructions through the icache. */
    ICacheAccess executeBlock(std::uint32_t block_id,
                              const isa::LogicalTrace &body);

    /**
     * Execute a braided logical CNOT (Section 5.1, Figure 12c):
     * drag the control qubit's defect A around the target qubit's
     * defect A along a planned loop, one mask update plus d QECC
     * rounds per step. The moving defect is temporarily contracted
     * to thread the channel between the target's defects (a
     * distance/routing trade the defect encoding permits).
     *
     * @return the number of braid steps executed, or 0 when no
     *         valid loop exists on this tile (the instruction is
     *         dropped with a warning, like any other infeasible
     *         mask instruction).
     */
    std::size_t braidCnot(int control_id, int target_id);

    /**
     * Run one full QECC round: the microcode pipeline streams a uop
     * per qubit per sub-cycle (QECC program or masked), the
     * execution unit fires, the Pauli frame evolves under noise and
     * the ancilla syndromes are recorded.
     */
    const qecc::SyndromeRound &runQeccRound();

    /** Rounds executed so far. */
    std::size_t roundsRun() const { return _roundsRun; }

    /** The syndrome extractor replaying this tile's microcode (it
     *  is rebuilt on every mask change). */
    const qecc::SyndromeExtractor &extractor() const
    {
        return *_extractor;
    }

    /**
     * Record a decoded correction. Following the paper
     * (Appendix A.2), corrections are not executed on the qubits:
     * they accumulate in a classical Pauli ledger that is folded in
     * when a qubit is finally measured. This keeps syndrome
     * differencing consistent across decode windows.
     */
    void applyCorrection(const decode::Correction &corr);

    /** The classical correction ledger. */
    const quantum::PauliFrame &correctionLedger() const
    {
        return _ledger;
    }

    /**
     * Residual error weight after folding the ledger into the live
     * frame (0 means every tracked error has been cancelled).
     */
    std::size_t residualErrorWeight() const;

    /** @name Accounting. */
    ///@{
    double microcodeBitsStreamed() const
    {
        return _microcodeBits.value();
    }
    double qeccUopsIssued() const { return _qeccUops.value(); }
    /** Stored bits per streamed uop under the tile's design. */
    std::size_t uopBits() const { return _uopBits; }
    double logicalUopsIssued() const { return _logicalUops.value(); }
    double seuUopErrors() const { return _seuUopErrors.value(); }
    ///@}

    /** @name Classical resilience (fault injection hooks). */
    ///@{

    /**
     * Attach the classical fault source. SEU-corrupted microcode
     * words mis-steer one uop per replay only while an injector is
     * attached (its placement stream picks the victim qubit).
     */
    void attachFaults(sim::FaultInjector *faults)
    {
        _faults = faults;
    }

    /** The parity-protected microcode memory image. */
    MicrocodeStore &microcodeStore() { return _microcodeStore; }
    const MicrocodeStore &microcodeStore() const
    {
        return _microcodeStore;
    }

    /**
     * Inject a control hang: the engine stops streaming microcode
     * and answering heartbeats; its tile idles uncorrected until
     * the master's watchdog quarantines and recovers it.
     */
    void wedge() { _hung = true; }

    bool hung() const { return _hung; }

    /**
     * Watchdog recovery: clear the hang and rewrite the microcode
     * image (the master re-synced it over the bus).
     */
    void
    recover()
    {
        _hung = false;
        _microcodeStore.repair();
    }

    /**
     * Inflate this tile's noise by `factor` for the next `rounds`
     * QECC rounds -- the host::delivery stretch model applied to a
     * tile whose global correction arrived after the decode
     * deadline.
     */
    void stretchNoise(double factor, std::size_t rounds);
    ///@}

  private:
    std::string _name;
    MceConfig _cfg;

    std::unique_ptr<qecc::Lattice> _lattice;
    std::unique_ptr<qecc::RoundSchedule> _baseSchedule;
    std::unique_ptr<qecc::RoundSchedule> _maskedSchedule;
    std::unique_ptr<qecc::SyndromeExtractor> _extractor;

    /** Dependence oracle of the masked program; invalidated by
     *  every mask change, rebuilt on demand. */
    std::unique_ptr<verify::DependencyOracle> _oracle;
    std::uint64_t _generation = 0;

    /** Per-round replay constants of the masked program, refreshed
     *  with it: each sub-cycle's non-Nop count, their sum, and the
     *  stored bits per streamed uop. */
    std::vector<std::size_t> _subCycleUops;
    std::uint64_t _roundUops = 0;
    std::size_t _uopBits = 0;

    sim::Rng _rng;
    quantum::PauliFrame _frame;
    quantum::PauliFrame _ledger; ///< decoded-but-unexecuted corrections
    quantum::ErrorChannel _channel;
    MicrocodeStore _microcodeStore;
    sim::FaultInjector *_faults = nullptr;
    bool _hung = false;
    double _stretchFactor = 1.0;
    std::size_t _stretchRounds = 0;

    sim::StatGroup _stats;
    MaskTable _mask;
    QuantumExecutionUnit _execUnit;
    LogicalInstructionCache _icache;

    std::map<int, qecc::LogicalQubit> _logical;
    int _nextLogicalId = 0;

    std::size_t _roundsRun = 0;
    qecc::SyndromeRound _lastRound;

    sim::Scalar &_microcodeBits;
    sim::Scalar &_qeccUops;
    sim::Scalar &_logicalUops;
    sim::Scalar &_roundsStat;
    sim::Scalar &_seuUopErrors;

    // Registry counters bound at construction; never function-local
    // statics (those outlive registry resets -- see the
    // registry-lifetime regression test).
    sim::metrics::Counter &_mReplayRounds;
    sim::metrics::Counter &_mReplayUops;
    sim::metrics::Counter &_mReplayUcodeBits;
    sim::metrics::Counter &_mReplayHungRounds;
    sim::metrics::Counter &_mReplaySeuErrors;
    sim::metrics::Counter &_mLogicalInstrs;

    /** Rebuild the mask-filtered schedule after mask changes. */
    void rebuildMaskedSchedule();

    /**
     * Recompute the mask table from every live logical qubit, then
     * rebuild the schedule. Overlapping footprints (e.g. a braiding
     * defect passing another qubit's perimeter) make incremental
     * unmasking unsound, so all mask mutations funnel through here.
     */
    void rebuildMask();

    /** Apply a transverse gate across a logical footprint. */
    void applyTransverse(isa::LogicalOpcode op,
                         const qecc::LogicalQubit &lq);
};

} // namespace quest::core

#endif // QUEST_CORE_MCE_HPP
