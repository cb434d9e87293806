#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "sim/logging.hpp"

namespace quest::isa {

namespace {

/** File magic: "QTRACE" + 2-byte format version. */
constexpr char traceMagic[8] = {'Q', 'T', 'R', 'A', 'C', 'E', 0, 1};

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

std::size_t
LogicalTrace::count(LogicalOpcode op) const
{
    std::size_t n = 0;
    for (const auto &ins : _instrs)
        if (ins.opcode == op)
            ++n;
    return n;
}

double
LogicalTrace::tFraction() const
{
    if (_instrs.empty())
        return 0.0;
    return double(count(LogicalOpcode::T)) / double(_instrs.size());
}

std::vector<std::uint16_t>
LogicalTrace::encodeAll() const
{
    std::vector<std::uint16_t> words;
    words.reserve(_instrs.size());
    for (const auto &ins : _instrs)
        words.push_back(ins.encode());
    return words;
}

LogicalTrace
LogicalTrace::decodeAll(const std::vector<std::uint16_t> &words)
{
    LogicalTrace out;
    for (std::uint16_t w : words)
        out.append(LogicalInstr::decode(w));
    return out;
}

void
LogicalTrace::saveBinary(const std::string &path) const
{
    FileHandle f(std::fopen(path.c_str(), "wb"));
    if (!f)
        sim::fatal("cannot open '%s' for writing", path.c_str());
    const std::vector<std::uint16_t> words = encodeAll();
    if (std::fwrite(traceMagic, 1, sizeof(traceMagic), f.get())
            != sizeof(traceMagic)
        || std::fwrite(words.data(), sizeof(std::uint16_t),
                       words.size(), f.get()) != words.size())
        sim::fatal("short write to '%s'", path.c_str());
}

LogicalTrace
LogicalTrace::loadBinary(const std::string &path)
{
    FileHandle f(std::fopen(path.c_str(), "rb"));
    if (!f)
        sim::fatal("cannot open '%s' for reading", path.c_str());

    char magic[sizeof(traceMagic)];
    if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic)
        || std::memcmp(magic, traceMagic, sizeof(magic)) != 0)
        sim::fatal("'%s' is not a QuEST trace file", path.c_str());

    std::vector<char> body;
    char chunk[4096];
    std::size_t got = 0;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f.get())) > 0)
        body.insert(body.end(), chunk, chunk + got);
    // An odd-length body ends in half an instruction: the file was
    // cut, and replaying the whole words before the cut would run a
    // silently shorter program.
    if (body.size() % sizeof(std::uint16_t) != 0)
        sim::fatal("'%s' is truncated: its %zu-byte body after the "
                   "header is not a whole number of 2-byte "
                   "instructions",
                   path.c_str(), body.size());
    // trace-gen writes at least one instruction, so a header with no
    // body is a cut file, not an empty program.
    if (body.empty())
        sim::fatal("'%s' is truncated: it holds the header and no "
                   "instructions",
                   path.c_str());
    std::vector<std::uint16_t> words(body.size()
                                     / sizeof(std::uint16_t));
    std::memcpy(words.data(), body.data(), body.size());
    return decodeAll(words);
}

LogicalTrace
generateApplicationTrace(const TraceGenConfig &cfg)
{
    QUEST_ASSERT(cfg.logicalQubits > 1, "need at least two logical qubits");
    QUEST_ASSERT(cfg.tFraction + cfg.cnotFraction + cfg.maskFraction <= 1.0,
                 "opcode mix fractions exceed 1");

    sim::Rng rng(cfg.seed);
    LogicalTrace trace;
    auto rand_qubit = [&] {
        return static_cast<std::uint16_t>(
            rng.uniformInt(cfg.logicalQubits) & maxLogicalOperand);
    };

    static const LogicalOpcode clifford_pool[] = {
        LogicalOpcode::Hadamard, LogicalOpcode::X, LogicalOpcode::Z,
        LogicalOpcode::Phase, LogicalOpcode::PrepZ, LogicalOpcode::MeasZ,
    };

    for (std::size_t i = 0; i < cfg.numInstructions; ++i) {
        const double u = rng.uniform();
        if (u < cfg.tFraction) {
            trace.append(LogicalOpcode::T, rand_qubit());
        } else if (u < cfg.tFraction + cfg.cnotFraction) {
            trace.append(LogicalOpcode::Cnot, rand_qubit());
        } else if (u < cfg.tFraction + cfg.cnotFraction
                       + cfg.maskFraction) {
            static const LogicalOpcode mask_pool[] = {
                LogicalOpcode::MaskExpand, LogicalOpcode::MaskContract,
                LogicalOpcode::MaskMove,
            };
            trace.append(mask_pool[rng.uniformInt(std::size(mask_pool))],
                         rand_qubit());
        } else {
            trace.append(
                clifford_pool[rng.uniformInt(std::size(clifford_pool))],
                rand_qubit());
        }
    }
    return trace;
}

LogicalTrace
generateDistillationRound(std::uint16_t factory_base_qubit)
{
    // The Bravyi-Kitaev 15-to-1 round on qubits [base, base+15]:
    // prepare 15 noisy |T> inputs, run the Reed-Muller encoder
    // (a fixed Clifford network), measure 14 syndromes and output
    // one distilled state. The exact gate network below is a
    // faithful instruction-count model of that circuit: 16 preps,
    // 15 T injections, 35 CNOT braids, H/S dressing and 15
    // measurements -- 148 instructions, inside the 100-200 window
    // the paper quotes for a typical distillation algorithm.
    LogicalTrace trace;
    const std::uint16_t base = factory_base_qubit;
    auto q = [&](std::uint16_t i) {
        return static_cast<std::uint16_t>((base + i) & maxLogicalOperand);
    };

    // Input preparation.
    for (std::uint16_t i = 0; i < 16; ++i)
        trace.append(LogicalOpcode::PrepZ, q(i));
    for (std::uint16_t i = 1; i < 16; ++i)
        trace.append(LogicalOpcode::T, q(i));

    // Reed-Muller encoding network: each data qubit interacts with
    // the parity structure of RM(1,4). 35 CNOTs with interleaved
    // Hadamards reproduce the circuit's depth profile.
    for (std::uint16_t i = 1; i < 16; ++i)
        trace.append(LogicalOpcode::Hadamard, q(i));
    std::uint16_t cnots = 0;
    for (std::uint16_t i = 1; i < 16 && cnots < 35; ++i) {
        for (std::uint16_t j = 1; j < 16 && cnots < 35; j <<= 1) {
            if ((i & j) && i != j) {
                trace.append(LogicalOpcode::Cnot, q(i));
                ++cnots;
            }
        }
    }
    while (cnots < 35) {
        trace.append(LogicalOpcode::Cnot, q(1 + cnots % 15));
        ++cnots;
    }
    for (std::uint16_t i = 1; i < 16; ++i)
        trace.append(LogicalOpcode::Phase, q(i));

    // Syndrome measurement and output.
    for (std::uint16_t i = 1; i < 16; ++i)
        trace.append(LogicalOpcode::MeasX, q(i));
    trace.append(LogicalOpcode::SyncToken, q(0));

    return trace;
}

} // namespace quest::isa
