/**
 * @file
 * Master controller (Section 4.2, Figure 7).
 *
 * The master controller sits in the 77 K CMOS domain and
 * orchestrates all logical operations: it dispatches 2-byte logical
 * instructions to the owning MCE over the packet-switched global
 * bus, decodes each tile's syndrome stream -- the MCE's local LUT
 * stage and its own global matcher, both modelled by one
 * decode::StreamingDecoder per tile -- and returns corrections.
 * Everything crossing the global bus is accounted by category so
 * the system model can reproduce the paper's bandwidth comparison.
 */

#ifndef QUEST_CORE_MASTER_CONTROLLER_HPP
#define QUEST_CORE_MASTER_CONTROLLER_HPP

#include <memory>
#include <utility>
#include <vector>

#include "decode/streaming.hpp"
#include "mce.hpp"
#include "network.hpp"
#include "sim/fault_injector.hpp"

namespace quest::core {

/** Configuration of the whole control processor. */
struct MasterConfig
{
    std::size_t numMces = 4;
    MceConfig mce;
    /** Rounds per decode window of each tile's StreamingDecoder;
     *  0 means one code distance's worth. */
    std::size_t decodeWindowRounds = 0;

    /** Rounds between window commits (the slide); 0 means the
     *  window, i.e. non-overlapping windows -- the collect-then-
     *  decode cadence. Must not exceed the window. */
    std::size_t decodeStrideRounds = 0;

    /** Global interconnect parameters (mceCount is overridden to
     *  numMces at construction). */
    NetworkConfig network;

    /** @name Classical fault model & resilience knobs.
     *  Defaults keep the whole layer off: all-zero fault rates,
     *  no scrub, no watchdog, no deadline modeling -- bit-identical
     *  to the fault-free design. */
    ///@{

    /** Per-site classical fault rates and replay seed. */
    sim::FaultConfig faults;

    /** Rounds between microcode parity scrubs (0 disables). The
     *  scrub polls every MCE's parity flag and re-uploads the full
     *  image of any corrupted tile over the bus. */
    std::size_t scrubIntervalRounds = 0;

    /** Rounds between MCE heartbeats (0 disables the watchdog). */
    std::size_t heartbeatIntervalRounds = 0;

    /** Missed heartbeats before a tile is quarantined/re-synced. */
    std::size_t watchdogMissThreshold = 2;

    /** Model the global decoder's real-time deadline (stride x
     *  round duration): an MWPM decode that would overrun it, or an
     *  injected DecoderOverrun, degrades the window to the
     *  union-find cluster decoder and the tile's noise is stretched
     *  for the late window (host::delivery's inflation model). */
    bool modelDecodeDeadline = false;
    ///@}

    /** @name Multi-tile fetch arbitration.
     *  When sharedFetchBandwidth is nonzero, every stepRound() also
     *  runs the cycle-level arbiter: all live tiles' replay
     *  pipelines contend for that many shared JJ-memory fetch slots
     *  per cycle, producing per-tile bandwidth-wait counters and
     *  slack gauges. Purely observational — the functional replay is
     *  untouched — and off by default (0), keeping the golden traces
     *  bit-identical. */
    ///@{

    /** Shared fetch slots per cycle across all tiles (0 disables
     *  arbitration). */
    std::size_t sharedFetchBandwidth = 0;

    /** Grant policy when tiles contend. Round-robin is the only
     *  one; the field stays while questbench sets it (ROADMAP
     *  item 8). */
    ArbiterPolicy arbiterPolicy = ArbiterPolicy::RoundRobin;
    ///@}
};

/** Bytes on the bus per forwarded correction entry. */
inline constexpr std::size_t correctionEntryBytes = 4;

/** Supervisor re-issues after the link-level retry budget fails. */
inline constexpr std::size_t maxBusEscalations = 8;

/** The 77 K master controller plus its array of MCEs. */
class MasterController
{
  public:
    explicit MasterController(const MasterConfig &cfg);

    /** Detaches the stat tree from the global metrics registry. */
    ~MasterController();

    std::size_t numMces() const { return _mces.size(); }
    Mce &mce(std::size_t i) { return *_mces.at(i); }
    const Mce &mce(std::size_t i) const { return *_mces.at(i); }

    /**
     * Dispatch one logical instruction. The operand's low bits
     * select the MCE (operand % numMces); the remaining bits are the
     * MCE-local logical qubit id. Charges one 2-byte packet to the
     * global bus.
     */
    void dispatch(const isa::LogicalInstr &instr);

    /** Dispatch a whole trace instruction by instruction. */
    void dispatchTrace(const isa::LogicalTrace &trace);

    /**
     * Dispatch a distillation block to an MCE through its icache;
     * only the miss traffic (or a replay token) crosses the bus.
     */
    ICacheAccess dispatchBlock(std::size_t mce_idx,
                               std::uint32_t block_id,
                               const isa::LogicalTrace &body);

    /** Send one synchronization token to every MCE. */
    void broadcastSync();

    /**
     * Move a logical qubit from one MCE tile to another -- the
     * cross-MCE operation the paper leaves unevaluated (footnote 9),
     * modelled here as a teleportation-based transfer: the master
     * sends the channel-setup and measurement instructions to both
     * tiles (four 2-byte packets plus a sync token each), the
     * destination allocates fresh defects, both tiles run one code
     * distance of QECC rounds to complete the fault-tolerant hand-
     * off, and the source defects are retired.
     *
     * @return the logical qubit's id on the destination MCE.
     */
    int transferLogicalQubit(std::size_t src_mce, int src_id,
                             std::size_t dst_mce,
                             qecc::Coord dst_anchor);

    /**
     * Advance every MCE one QECC round, then hand each extracted
     * round to its tile's streaming decoder and send the corrections
     * of every window that commits.
     */
    void stepRound();

    /** Run n rounds. */
    void
    runRounds(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            stepRound();
    }

    /** Force a global decode immediately: flush every tile's
     *  streaming decoder (an end-of-shot barrier), committing all
     *  buffered rounds. */
    void decodeNow();

    /** Tile i's streaming decoder. */
    const decode::StreamingDecoder &streamer(std::size_t i) const
    {
        return *_streamers.at(i);
    }

    /** True when the shared-bandwidth arbiter runs each round. */
    bool arbitrating() const
    {
        return _cfg.sharedFetchBandwidth > 0;
    }

    /** The arbiter's plan for the last stepRound(). Asserts that
     *  arbitration is on and at least one round has run. The plan
     *  is memoized: it is recomputed only when some tile's program
     *  generation or liveness changed since it was made. */
    const ArbitrationResult &lastArbitration() const;

    /** @name Classical resilience. */
    ///@{

    /**
     * Run one heartbeat sweep now: ping every MCE, count misses,
     * and quarantine/re-sync any tile past the miss threshold.
     */
    void heartbeatNow();

    /**
     * Run one microcode scrub now: poll every MCE's parity flag and
     * re-upload the full image of any corrupted tile.
     */
    void scrubNow();

    sim::FaultInjector &faultInjector() { return _faults; }
    sim::StatGroup &faultStats() { return _faultStats; }

    double seuInjected() const { return _seuInjected.value(); }
    double seuDetected() const { return _seuDetected.value(); }
    double seuSilentRepaired() const { return _seuSilent.value(); }
    double scrubCount() const { return _scrubs.value(); }
    double decoderOverruns() const { return _decoderOverruns.value(); }
    double decoderFallbacks() const
    {
        return _decoderFallbacks.value();
    }
    double heartbeatsSent() const { return _heartbeats.value(); }
    double heartbeatsMissed() const
    {
        return _heartbeatsMissed.value();
    }
    double hangsInjected() const { return _hangsInjected.value(); }
    double quarantineCount() const { return _quarantines.value(); }
    double resumeCount() const { return _resumes.value(); }
    double busEscalations() const { return _busEscalations.value(); }
    double packetsAbandoned() const
    {
        return _packetsAbandoned.value();
    }
    ///@}

    /** @name Global bus accounting (bytes). */
    ///@{
    double busBytesLogical() const { return _bytesLogical.value(); }
    double busBytesSync() const { return _bytesSync.value(); }
    double busBytesSyndrome() const { return _bytesSyndrome.value(); }
    double busBytesCorrections() const
    {
        return _bytesCorrections.value();
    }
    double busBytesCacheTraffic() const
    {
        return _bytesCache.value();
    }
    /** Microcode scrub polls and image re-uploads. */
    double busBytesScrub() const { return _bytesScrub.value(); }
    double totalBusBytes() const;
    ///@}

    /**
     * Bytes the baseline software-managed design would have
     * streamed for the rounds executed so far: one byte-sized
     * instruction per qubit per sub-cycle (Section 3.3).
     */
    double baselineEquivalentBytes() const;

    std::size_t roundsRun() const { return _roundsRun; }

    /** The packet-switched interconnect carrying all bus traffic. */
    PacketNetwork &network() { return _network; }

    sim::StatGroup &stats() { return _stats; }

  private:
    MasterConfig _cfg;
    std::vector<std::unique_ptr<Mce>> _mces;
    /** Per-tile decoders: the MCE's LUT stage and the master's
     *  global matcher of that tile. */
    std::vector<std::unique_ptr<decode::StreamingDecoder>> _streamers;
    /** This step's extracted round per tile, awaiting the decode
     *  point (null when the tile was wedged). */
    std::vector<const qecc::SyndromeRound *> _extracted;
    /** Tiles whose buffered rounds no longer line up with the decode
     *  cadence (they missed rounds while wedged, or were flushed at
     *  quarantine); flushed at the next decode point. */
    std::vector<std::uint8_t> _offCadence;

    std::size_t _roundsRun = 0;
    std::size_t _roundsSinceDecode = 0;

    sim::FaultInjector _faults;
    std::vector<std::size_t> _missedHeartbeats;

    /** Shared-bandwidth arbiter state (sharedFetchBandwidth > 0). */
    std::unique_ptr<DynamicScheduler> _arbiter;
    ArbitrationResult _lastArbitration;
    bool _arbValid = false;
    /** Per tile, the (program generation, live) pair
     *  _lastArbitration was planned for. */
    std::vector<std::pair<std::uint64_t, std::uint8_t>> _arbKey;
    // Per-tile contention metrics, bound at construction (registry
    // references, never function-local statics).
    std::vector<sim::metrics::Counter *> _mTileBwWait;
    std::vector<sim::metrics::Gauge *> _mTileSlack;

    sim::StatGroup _stats;
    PacketNetwork _network;
    sim::Scalar &_bytesLogical;
    sim::Scalar &_bytesSync;
    sim::Scalar &_bytesSyndrome;
    sim::Scalar &_bytesCorrections;
    sim::Scalar &_bytesCache;
    sim::Scalar &_bytesScrub;

    sim::StatGroup _faultStats;
    sim::Scalar &_seuInjected;
    sim::Scalar &_seuDetected;
    sim::Scalar &_seuSilent;
    sim::Scalar &_scrubs;
    sim::Scalar &_decoderOverruns;
    sim::Scalar &_decoderFallbacks;
    sim::Scalar &_heartbeats;
    sim::Scalar &_heartbeatsMissed;
    sim::Scalar &_hangsInjected;
    sim::Scalar &_quarantines;
    sim::Scalar &_resumes;
    sim::Scalar &_busEscalations;
    sim::Scalar &_packetsAbandoned;

    /** Resolved commit/slide distance (the decode cadence). */
    std::size_t decodeStride() const
    {
        return _streamers.front()->config().strideRounds;
    }

    /** Bus/fault accounting for one window commit. */
    void commitStream(std::size_t mce_idx,
                      const decode::StreamCommit &commit);

    /**
     * The decode point, after heartbeat and scrub: push each tile's
     * extracted round, in tile order, and commit any window that
     * fills; every stride rounds also flush off-cadence tiles.
     */
    void decodePoint();

    /**
     * Send one bus packet, charging `category`, with supervisor
     * re-issues when the link-level retry budget is exhausted.
     */
    void sendOnBus(std::size_t mce_idx, std::size_t bytes,
                   sim::Scalar &category);

    /** Per-round classical fault arrivals (hangs, SEUs). */
    void injectRoundFaults();

    /** Plan this round's shared-bandwidth arbitration (or replay the
     *  memoized plan) and export its per-tile metrics. */
    void arbitrateRound();

    /** Set every live tile's slack gauge from the granted shares of
     *  a fresh plan (a memoized plan leaves them as they are). */
    void exportSlack();

    /** Flush tile i's streaming decoder (commit everything). */
    void decodeTile(std::size_t mce_idx);

    /** Quarantine a wedged tile: re-sync microcode and resume. */
    void quarantineAndResync(std::size_t mce_idx);
};

} // namespace quest::core

#endif // QUEST_CORE_MASTER_CONTROLLER_HPP
