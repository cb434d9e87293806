/**
 * @file
 * Static verification layer tests.
 *
 * Two halves, mirroring the verifier's contract:
 *
 *  - Zero false positives: every in-repo protocol x design x
 *    technology combination at feasible distances verifies clean
 *    (the equivalence proof RAM <-> FIFO <-> unit cell included).
 *  - One true positive per diagnostic class: a table of corruptions,
 *    each breaking exactly one property of an otherwise-clean tile,
 *    with the exact diagnostic code asserted.
 *
 * Plus coverage of the report/JSON plumbing and the verify-on-load
 * pre-flight gate dependency-injected into core::Mce.
 */

#include <algorithm>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "core/mce.hpp"
#include "qecc/protocol.hpp"
#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "verify/program.hpp"
#include "verify/timing.hpp"
#include "verify/verifier.hpp"

namespace quest {
namespace {

using isa::PhysOpcode;
using sim::Json;
using verify::Report;
using verify::TileBundle;

core::MceConfig
cleanConfig()
{
    return core::MceConfig{}; // Steane, d=3, unit cell, 1Kb x 4
}

/** Set (or insert) qubit q's stored uop in RAM sub-cycle s. */
void
setRamUop(verify::RamProgram &ram, std::size_t s, std::size_t q,
          PhysOpcode op)
{
    for (isa::PhysInstr &instr : ram.subCycles.at(s))
        if (instr.qubit == q) {
            instr.opcode = op;
            return;
        }
    ram.subCycles.at(s).push_back(
        {op, static_cast<std::uint32_t>(q)});
}

/** The same directional CNOT issued from the opposite side. */
PhysOpcode
mirroredCnot(PhysOpcode op)
{
    switch (op) {
      case PhysOpcode::CnotN: return PhysOpcode::CnotS;
      case PhysOpcode::CnotS: return PhysOpcode::CnotN;
      case PhysOpcode::CnotE: return PhysOpcode::CnotW;
      case PhysOpcode::CnotW: return PhysOpcode::CnotE;
      case PhysOpcode::CnotTargetN: return PhysOpcode::CnotTargetS;
      case PhysOpcode::CnotTargetS: return PhysOpcode::CnotTargetN;
      case PhysOpcode::CnotTargetE: return PhysOpcode::CnotTargetW;
      case PhysOpcode::CnotTargetW: return PhysOpcode::CnotTargetE;
      default: sim::panic("not a two-qubit opcode");
    }
}

// ------------------------------------------------------------------
// Zero false positives on everything the repo ships.
// ------------------------------------------------------------------

TEST(VerifyClean, AllProtocolsDesignsTechnologiesAtD3)
{
    for (const qecc::Protocol p : qecc::allProtocols)
        for (const core::MicrocodeDesign d :
             core::allMicrocodeDesigns)
            for (const tech::Technology t : tech::allTechnologies) {
                core::MceConfig cfg = cleanConfig();
                cfg.protocol = p;
                cfg.microcodeDesign = d;
                cfg.technology = t;
                const Report report = verify::verifyConfig(cfg);
                EXPECT_TRUE(report.ok())
                    << qecc::protocolName(p) << "/"
                    << core::microcodeDesignName(d) << "/"
                    << tech::technologyName(t) << "\n"
                    << report.toString();
                EXPECT_TRUE(report.diagnostics().empty());
            }
}

TEST(VerifyClean, CompressedDesignsScaleToD5)
{
    // RAM at d=5 genuinely exceeds the 4 Kb budget (that is the
    // paper's point); the compressed designs must stay clean.
    for (const qecc::Protocol p : qecc::allProtocols)
        for (const core::MicrocodeDesign d :
             {core::MicrocodeDesign::Fifo,
              core::MicrocodeDesign::UnitCell}) {
            core::MceConfig cfg = cleanConfig();
            cfg.distance = 5;
            cfg.protocol = p;
            cfg.microcodeDesign = d;
            const Report report = verify::verifyConfig(cfg);
            EXPECT_TRUE(report.ok())
                << qecc::protocolName(p) << "/"
                << core::microcodeDesignName(d) << "\n"
                << report.toString();
        }
}

TEST(VerifyClean, UnitCellCompilesToCompressedCell)
{
    for (const qecc::Protocol p : qecc::allProtocols) {
        core::MceConfig cfg = cleanConfig();
        cfg.protocol = p;
        const TileBundle bundle = verify::buildTileBundle(cfg);
        // The checkerboard schedules are site-parity periodic: the
        // search must find the 2x2 cell, not fall back to the
        // whole-lattice degenerate cell.
        EXPECT_LE(bundle.artifacts.cell.cellSites(), 4u)
            << qecc::protocolName(p);
        EXPECT_LT(bundle.artifacts.cell.cellSites(),
                  bundle.lattice->numQubits());
    }
}

TEST(VerifyClean, SymbolicReplayMatchesByConstruction)
{
    for (const qecc::Protocol p : qecc::allProtocols) {
        core::MceConfig cfg = cleanConfig();
        cfg.protocol = p;
        const TileBundle bundle = verify::buildTileBundle(cfg);
        const verify::ExpandedStream baseline =
            verify::expandRam(bundle.artifacts.ram);
        EXPECT_EQ(baseline,
                  verify::expandFifo(bundle.artifacts.fifo));
        EXPECT_EQ(baseline,
                  verify::expandUnitCell(bundle.artifacts.cell,
                                         *bundle.lattice));
    }
}

// ------------------------------------------------------------------
// One corrupted artifact per diagnostic class.
// ------------------------------------------------------------------

struct Corruption
{
    const char *name;
    const char *code;
    std::function<void(TileBundle &)> corrupt;
};

const Corruption kCorruptions[] = {
    {"fifo stream truncated", verify::codes::fifoLength,
     [](TileBundle &b) { b.artifacts.fifo.stream.pop_back(); }},

    {"fifo opcode flipped", verify::codes::fifoUop,
     [](TileBundle &b) {
         PhysOpcode &op = b.artifacts.fifo.stream.front();
         op = op == PhysOpcode::Hadamard ? PhysOpcode::Phase
                                         : PhysOpcode::Hadamard;
     }},

    {"unit-cell slot flipped", verify::codes::cellUop,
     [](TileBundle &b) {
         PhysOpcode &op = b.artifacts.cell.subCycles.at(0).at(0);
         op = op == PhysOpcode::Hadamard ? PhysOpcode::Phase
                                         : PhysOpcode::Hadamard;
     }},

    {"ram uop addressed off-lattice", verify::codes::ramAddress,
     [](TileBundle &b) {
         b.artifacts.ram.subCycles.at(0).push_back(
             {PhysOpcode::Hadamard,
              static_cast<std::uint32_t>(b.artifacts.ram.qubits
                                         + 7)});
     }},

    {"ram uop address duplicated", verify::codes::ramAddress,
     [](TileBundle &b) {
         auto &sub = b.artifacts.ram.subCycles.at(0);
         ASSERT_FALSE(sub.empty());
         sub.push_back(sub.front());
     }},

    {"ancilla prep removed", verify::codes::readBeforeReset,
     [](TileBundle &b) {
         for (auto &sub : b.artifacts.ram.subCycles)
             for (isa::PhysInstr &instr : sub)
                 if (instr.opcode == PhysOpcode::PrepZ
                     || instr.opcode == PhysOpcode::PrepX) {
                     instr.opcode = PhysOpcode::Nop;
                     return;
                 }
         FAIL() << "no preparation uop found to corrupt";
     }},

    {"measurement hoisted before interaction",
     verify::codes::measBeforeInteraction,
     [](TileBundle &b) {
         auto &subs = b.artifacts.ram.subCycles;
         for (std::size_t s = subs.size(); s-- > 0;)
             for (const isa::PhysInstr &instr : subs[s])
                 if (isa::isTwoQubit(instr.opcode)) {
                     setRamUop(b.artifacts.ram, 0, instr.qubit,
                               PhysOpcode::MeasZ);
                     return;
                 }
         FAIL() << "no two-qubit uop found to corrupt";
     }},

    {"two cnots aliased onto one data qubit",
     verify::codes::aliasing,
     [](TileBundle &b) {
         const qecc::Lattice &lattice = *b.lattice;
         auto &subs = b.artifacts.ram.subCycles;
         for (std::size_t s = 0; s < subs.size(); ++s)
             for (const isa::PhysInstr &instr : subs[s]) {
                 if (!isa::isTwoQubit(instr.opcode))
                     continue;
                 const qecc::Coord a = lattice.coord(instr.qubit);
                 const auto dir = qecc::cnotDirection(instr.opcode);
                 const auto data = lattice.neighbour(a, dir);
                 if (!data)
                     continue;
                 // The ancilla two steps away shares this data
                 // qubit; aim its CNOT back at it.
                 const auto mirror = lattice.neighbour(*data, dir);
                 if (!mirror)
                     continue;
                 setRamUop(b.artifacts.ram, s,
                           lattice.index(*mirror),
                           mirroredCnot(instr.opcode));
                 return;
             }
         FAIL() << "no aliasable two-qubit uop found";
     }},

    {"cnot aimed off the lattice", verify::codes::partner,
     [](TileBundle &b) {
         const qecc::Lattice &lattice = *b.lattice;
         for (auto &sub : b.artifacts.ram.subCycles)
             for (isa::PhysInstr &instr : sub) {
                 if (!isa::isTwoQubit(instr.opcode))
                     continue;
                 const qecc::Coord c = lattice.coord(instr.qubit);
                 for (const PhysOpcode op :
                      {PhysOpcode::CnotN, PhysOpcode::CnotE,
                       PhysOpcode::CnotS, PhysOpcode::CnotW})
                     if (!lattice.neighbour(
                             c, qecc::cnotDirection(op))) {
                         instr.opcode = op;
                         return;
                     }
             }
         FAIL() << "no boundary two-qubit uop found";
     }},

    {"mask row off the lattice", verify::codes::maskOutOfLattice,
     [](TileBundle &b) {
         b.artifacts.maskRows.push_back(
             {7, qecc::MaskSquare{{-1, 0}, 2},
              qecc::MaskSquare{{2, 2}, 1}});
     }},

    {"mask rows overlapping", verify::codes::maskOverlap,
     [](TileBundle &b) {
         b.artifacts.maskRows.push_back(
             {1, qecc::MaskSquare{{0, 0}, 2},
              qecc::MaskSquare{{3, 3}, 1}});
         b.artifacts.maskRows.push_back(
             {2, qecc::MaskSquare{{1, 1}, 2},
              qecc::MaskSquare{{0, 3}, 1}});
     }},

    {"logical opcode outside the ISA", verify::codes::unknownOpcode,
     [](TileBundle &b) {
         isa::LogicalTrace trace;
         trace.append(isa::LogicalInstr{
             static_cast<isa::LogicalOpcode>(20), 0});
         b.artifacts.trace = trace;
     }},

    {"logical operand beyond 12 bits", verify::codes::operandRange,
     [](TileBundle &b) {
         isa::LogicalTrace trace;
         trace.append(isa::LogicalInstr{isa::LogicalOpcode::X,
                                        0x1FFF});
         b.artifacts.trace = trace;
     }},

    {"rotation decomposition over icache budget",
     verify::codes::rotationBudget,
     [](TileBundle &b) {
         b.artifacts.icacheCapacity = 10;
         b.artifacts.rotationEpsilon = 1e-10;
     }},

    {"deadline below the dataflow critical path",
     verify::codes::timingDeadline,
     [](TileBundle &b) {
         b.artifacts.timing.deadlineCycles = 1;
     }},

    {"single-slot fetch against a mid-range deadline",
     verify::codes::timingWidthBound,
     [](TileBundle &b) {
         // Wide enough for the waveform chain (the critical path),
         // far too tight for a one-slot-per-cycle fetch stream.
         b.artifacts.timing.sched.fetchWidth = 1;
         b.artifacts.timing.deadlineCycles = 60;
     }},

    {"one-deep issue queue at the width-tier deadline",
     verify::codes::timingQueueBound,
     [](TileBundle &b) {
         b.artifacts.timing.scheduling =
             core::SchedulingMode::OutOfOrder;
         b.artifacts.timing.sched.queueCapacity = 1;
         // Deadline exactly at the unbounded-queue bound: only the
         // capacity term can push the worst case past it.
         const verify::ExpandedStream stream =
             verify::expandRam(b.artifacts.ram);
         const verify::DependencyOracle oracle(
             *b.artifacts.lattice, stream.qubits,
             stream.subCycles);
         const verify::TimingBound bound =
             verify::TimingOracle(b.artifacts.timing.sched)
                 .bound(oracle, core::SchedulingMode::OutOfOrder);
         ASSERT_GT(bound.totalBoundCycles,
                   bound.widthBoundCycles);
         b.artifacts.timing.deadlineCycles =
             bound.widthBoundCycles;
     }},

    {"64 tenants on one shared fetch slot",
     verify::codes::contentionOvercommit,
     [](TileBundle &b) {
         b.artifacts.timing.contentionTiles = 64;
         b.artifacts.timing.sharedFetchBandwidth = 1;
         b.artifacts.timing.deadlineCycles = 200;
     }},

    {"8 tenants fit aggregate bandwidth but not the phasing",
     verify::codes::contentionStarvation,
     [](TileBundle &b) {
         b.artifacts.timing.contentionTiles = 8;
         b.artifacts.timing.sharedFetchBandwidth = 8;
         b.artifacts.timing.deadlineCycles = 300;
     }},
};

TEST(VerifyNegative, EachCorruptionFiresItsExactCode)
{
    for (const Corruption &entry : kCorruptions) {
        TileBundle bundle = verify::buildTileBundle(cleanConfig());
        entry.corrupt(bundle);
        const Report report =
            verify::Verifier().run(bundle.artifacts);
        EXPECT_FALSE(report.ok()) << entry.name;
        EXPECT_TRUE(report.has(entry.code))
            << entry.name << " did not raise " << entry.code << "\n"
            << report.toString();
    }
}

TEST(VerifyNegative, RamAtDistance5ExceedsCapacity)
{
    core::MceConfig cfg = cleanConfig();
    cfg.microcodeDesign = core::MicrocodeDesign::Ram;
    cfg.distance = 5;
    const Report report = verify::verifyConfig(cfg);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(verify::codes::capacity))
        << report.toString();
    // Capacity is the only deficiency: the stream itself is sound.
    EXPECT_EQ(report.errorCount(), 1u);
}

TEST(VerifyNegative, SingleSlowChannelMissesBandwidth)
{
    core::MceConfig cfg = cleanConfig();
    cfg.protocol = qecc::Protocol::Shor;
    cfg.technology = tech::Technology::ExperimentalS;
    cfg.distance = 33;
    cfg.memoryConfig = tech::MemoryConfig{1, 1 << 20};
    const Report report = verify::verifyConfig(cfg);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(verify::codes::bandwidth))
        << report.toString();
}

// ------------------------------------------------------------------
// Report plumbing.
// ------------------------------------------------------------------

TEST(VerifyReport, JsonCarriesDiagnosticsAndPasses)
{
    TileBundle bundle = verify::buildTileBundle(cleanConfig());
    bundle.artifacts.fifo.stream.pop_back();
    const Report report = verify::Verifier().run(bundle.artifacts);

    sim::Json doc;
    ASSERT_TRUE(sim::Json::parse(report.toJson().dump(), doc));
    EXPECT_FALSE(doc.get("ok").asBool());
    EXPECT_EQ(doc.get("errors").asU64(), report.errorCount());
    EXPECT_EQ(doc.get("warnings").asU64(), report.warningCount());

    const Json &passes = doc.get("passes");
    ASSERT_EQ(passes.size(), report.passesRun().size());
    bool saw_equivalence = false;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        EXPECT_EQ(passes.at(i).asString(), report.passesRun()[i]);
        saw_equivalence |= passes.at(i).asString() == "equivalence";
    }
    EXPECT_TRUE(saw_equivalence);

    const Json &diags = doc.get("diagnostics");
    ASSERT_EQ(diags.size(), report.diagnostics().size());
    bool saw_fifo_length = false;
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const verify::Diagnostic &d = report.diagnostics()[i];
        const Json &j = diags.at(i);
        EXPECT_EQ(j.get("code").asString(), d.code);
        EXPECT_EQ(j.get("severity").asString(),
                  verify::severityName(d.severity));
        EXPECT_EQ(j.get("artifact").asString(), d.site.artifact);
        EXPECT_EQ(j.get("sub_cycle").asI64(), d.site.subCycle);
        EXPECT_EQ(j.get("qubit").asI64(), d.site.qubit);
        EXPECT_EQ(j.get("index").asI64(), d.site.index);
        EXPECT_EQ(j.get("message").asString(), d.message);
        saw_fifo_length |= d.code == verify::codes::fifoLength;
    }
    EXPECT_TRUE(saw_fifo_length);
}

TEST(VerifyReport, MergeDeduplicatesPassesAcrossRuns)
{
    Report combined;
    combined.merge(verify::verifyConfig(cleanConfig()));
    EXPECT_TRUE(combined.ok());
    const std::size_t once = combined.passesRun().size();
    EXPECT_EQ(once, 7u);

    core::MceConfig bad = cleanConfig();
    bad.microcodeDesign = core::MicrocodeDesign::Ram;
    bad.distance = 5;
    combined.merge(verify::verifyConfig(bad));
    EXPECT_FALSE(combined.ok());
    EXPECT_EQ(combined.countCode(verify::codes::capacity), 1u);

    // Order-preserving dedup: a multi-tile merge still lists each
    // pass exactly once, in first-seen pipeline order.
    EXPECT_EQ(combined.passesRun().size(), once);
    EXPECT_EQ(combined.passesRun().front(), "equivalence");
    EXPECT_EQ(combined.passesRun().back(), "contention");
    std::vector<std::string> sorted = combined.passesRun();
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());
}

TEST(VerifyReport, MetricsCountRunsAndErrors)
{
    auto &registry = sim::metrics::Registry::global();
    auto &runs = registry.counter("verify.runs", "");
    auto &errors = registry.counter("verify.errors", "");
    const auto runs_before = runs.value();
    const auto errors_before = errors.value();

    core::MceConfig bad = cleanConfig();
    bad.microcodeDesign = core::MicrocodeDesign::Ram;
    bad.distance = 5;
    (void)verify::verifyConfig(bad);

    EXPECT_EQ(runs.value(), runs_before + 1);
    EXPECT_EQ(errors.value(), errors_before + 1);
}

// ------------------------------------------------------------------
// The verify-on-load pre-flight gate.
// ------------------------------------------------------------------

class PreflightGateTest : public ::testing::Test
{
  protected:
    void TearDown() override { core::setPreflightVerifier(nullptr); }
};

TEST_F(PreflightGateTest, RejectsWhenNoVerifierInstalled)
{
    core::setPreflightVerifier(nullptr);
    core::MceConfig cfg = cleanConfig();
    cfg.verifyOnLoad = true;
    EXPECT_THROW(core::Mce("mce0", cfg), sim::SimError);
}

TEST_F(PreflightGateTest, AcceptsCleanTile)
{
    verify::installPreflightGate();
    core::MceConfig cfg = cleanConfig();
    cfg.verifyOnLoad = true;
    EXPECT_NO_THROW(core::Mce("mce0", cfg));
}

TEST_F(PreflightGateTest, RejectsOverCapacityTile)
{
    verify::installPreflightGate();
    core::MceConfig cfg = cleanConfig();
    cfg.verifyOnLoad = true;
    cfg.microcodeDesign = core::MicrocodeDesign::Ram;
    cfg.distance = 5;
    EXPECT_THROW(core::Mce("mce0", cfg), sim::SimError);
}

TEST_F(PreflightGateTest, OffByDefault)
{
    core::setPreflightVerifier(nullptr);
    // verifyOnLoad defaults to false: tiles load without a verifier.
    EXPECT_NO_THROW(core::Mce("mce0", cleanConfig()));
}

} // namespace
} // namespace quest
