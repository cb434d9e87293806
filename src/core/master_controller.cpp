#include "master_controller.hpp"

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "tech/jj_memory.hpp"
#include "tech/parameters.hpp"

namespace quest::core {

namespace {

NetworkConfig
networkConfigFor(const MasterConfig &cfg)
{
    NetworkConfig net = cfg.network;
    net.mceCount = cfg.numMces;
    return net;
}

/**
 * Decode deadline: the real-time budget for one window is the
 * wall-clock the stride's worth of rounds takes to extract -- the
 * decoder must keep up with the slide rate. windowTicks 0 (no
 * deadline model) disables the deadline arithmetic.
 */
decode::DeadlineConfig
deadlineFor(const MasterConfig &cfg, std::size_t stride)
{
    decode::DeadlineConfig dl;
    if (!cfg.modelDecodeDeadline)
        return dl;
    const auto &spec = qecc::protocolSpec(cfg.mce.protocol);
    const auto lat = tech::gateLatencies(cfg.mce.technology);
    dl.windowTicks = sim::Tick(stride) * spec.roundDuration(lat);
    return dl;
}

/** Heartbeat ping/response token size (a sync-class packet). */
constexpr std::size_t heartbeatBytes = tech::logicalInstrBytes;

/** Microcode parity status poll size. */
constexpr std::size_t scrubPollBytes = tech::logicalInstrBytes;

} // namespace

MasterController::MasterController(const MasterConfig &cfg)
    : _cfg(cfg),
      _extracted(cfg.numMces, nullptr),
      _offCadence(cfg.numMces, 0),
      _faults(cfg.faults),
      _missedHeartbeats(cfg.numMces, 0),
      _stats("master"),
      _network(networkConfigFor(cfg), _stats),
      _bytesLogical(_stats.scalar(
          "bus_bytes_logical", "logical instruction packets (bytes)")),
      _bytesSync(_stats.scalar("bus_bytes_sync",
                               "synchronization tokens (bytes)")),
      _bytesSyndrome(_stats.scalar(
          "bus_bytes_syndrome", "residual syndrome uploads (bytes)")),
      _bytesCorrections(_stats.scalar(
          "bus_bytes_corrections", "correction downloads (bytes)")),
      _bytesCache(_stats.scalar(
          "bus_bytes_cache",
          "distillation block fills and replay tokens (bytes)")),
      _bytesScrub(_stats.scalar(
          "bus_bytes_scrub",
          "microcode parity polls and image re-uploads (bytes)")),
      _faultStats("faults"),
      _seuInjected(_faultStats.scalar(
          "seu_injected", "microcode SEU bit-flips injected")),
      _seuDetected(_faultStats.scalar(
          "seu_detected", "parity-failed words caught by scrubbing")),
      _seuSilent(_faultStats.scalar(
          "seu_silent_repaired",
          "parity-masked flips cleared by an image rewrite")),
      _scrubs(_faultStats.scalar(
          "scrubs", "microcode image re-uploads")),
      _decoderOverruns(_faultStats.scalar(
          "decoder_overruns", "global decodes past the window deadline")),
      _decoderFallbacks(_faultStats.scalar(
          "decoder_fallbacks",
          "windows degraded to the union-find cluster decoder")),
      _heartbeats(_faultStats.scalar(
          "heartbeats", "watchdog heartbeats sent")),
      _heartbeatsMissed(_faultStats.scalar(
          "heartbeats_missed", "heartbeats a wedged MCE failed to answer")),
      _hangsInjected(_faultStats.scalar(
          "hangs_injected", "MCE control hangs injected")),
      _quarantines(_faultStats.scalar(
          "quarantines", "tiles quarantined by the watchdog")),
      _resumes(_faultStats.scalar(
          "resumes", "quarantined tiles re-synced and resumed")),
      _busEscalations(_faultStats.scalar(
          "bus_escalations",
          "supervisor re-issues after the link retry budget failed")),
      _packetsAbandoned(_faultStats.scalar(
          "packets_abandoned",
          "bus packets abandoned to the out-of-band slow path"))
{
    QUEST_ASSERT(cfg.numMces > 0, "need at least one MCE");
    _network.attachFaults(&_faults);
    if (cfg.sharedFetchBandwidth > 0) {
        _arbiter = std::make_unique<DynamicScheduler>(cfg.mce.sched);
        auto &reg = sim::metrics::Registry::global();
        for (std::size_t i = 0; i < cfg.numMces; ++i) {
            const std::string tile =
                "sched.tile" + std::to_string(i);
            _mTileBwWait.push_back(&reg.counter(
                tile + ".bw_wait_cycles",
                "cycles this tile demanded fetch slots the arbiter "
                "granted elsewhere"));
            _mTileSlack.push_back(&reg.gauge(
                tile + ".slack",
                "replay bandwidth headroom under the tile's granted "
                "share (available/required - 1)"));
        }
        _arbKey.resize(cfg.numMces);
    }
    for (std::size_t i = 0; i < cfg.numMces; ++i) {
        MceConfig mc = cfg.mce;
        mc.seed = cfg.mce.seed + i * 0x9E37u;
        _mces.push_back(std::make_unique<Mce>(
            "mce" + std::to_string(i), mc));
        _mces.back()->attachFaults(&_faults);
        _stats.addChild(_mces.back()->stats());
    }
    decode::StreamConfig sc;
    sc.windowRounds = cfg.decodeWindowRounds ? cfg.decodeWindowRounds
                                             : cfg.mce.distance;
    sc.strideRounds = cfg.decodeStrideRounds ? cfg.decodeStrideRounds
                                             : sc.windowRounds;
    sc.deadline = deadlineFor(cfg, sc.strideRounds);
    for (const auto &m : _mces) {
        _streamers.push_back(std::make_unique<decode::StreamingDecoder>(
            m->extractor(), sc));
        _streamers.back()->attachFaults(&_faults);
        // Defect awareness: masked regions are open boundaries for
        // the global decoder.
        Mce *mce = m.get();
        _streamers.back()->setMaskPredicate([mce](std::size_t q) {
            return mce->maskTable().masked(q);
        });
    }
    // Link-level retry counters, mirrored so the faults group is the
    // one-stop report a fault sweep reads.
    _faultStats.formula("network_retransmits",
                        "link-level retransmissions",
                        [this] { return _network.retransmits(); });
    _faultStats.formula("network_lost", "packets dropped in flight",
                        [this] { return _network.lostPackets(); });
    _faultStats.formula("network_corrupted",
                        "packets rejected by CRC",
                        [this] {
                            return _network.corruptedPackets();
                        });
    _faultStats.formula("network_failures",
                        "packets past the link retry budget",
                        [this] {
                            return _network.deliveryFailures();
                        });
    _faultStats.formula("network_overhead_bytes",
                        "CRC/ACK protocol bytes",
                        [this] {
                            return _network.protocolOverheadBytes();
                        });
    _stats.addChild(_faultStats);
    // The whole stat tree (bus categories, per-MCE groups, network,
    // faults) becomes visible through the global metrics registry:
    // metricsSnapshot() reports "master.*" rows alongside the
    // registry's own counters.
    sim::metrics::Registry::global().attachGroup(_stats);
}

MasterController::~MasterController()
{
    sim::metrics::Registry::global().detachGroup(_stats);
}

void
MasterController::sendOnBus(std::size_t mce_idx, std::size_t bytes,
                            sim::Scalar &category)
{
    category += double(bytes);
    PacketTiming timing = _network.send(mce_idx, bytes);
    // The link-level ARQ gives up after its retry budget; the master
    // then re-issues the whole packet (a supervisor retransmission)
    // a bounded number of times before abandoning delivery to the
    // out-of-band slow path.
    for (std::size_t esc = 0;
         !timing.delivered && esc < maxBusEscalations; ++esc) {
        ++_busEscalations;
        category += double(bytes);
        timing = _network.send(mce_idx, bytes);
    }
    if (!timing.delivered) {
        ++_packetsAbandoned;
        sim::warn("abandoning %zu-byte packet to MCE %zu after %zu "
                  "supervisor re-issues",
                  bytes, mce_idx, maxBusEscalations);
    }
}

void
MasterController::dispatch(const isa::LogicalInstr &instr)
{
    const std::size_t target = instr.operand % _mces.size();
    isa::LogicalInstr local = instr;
    local.operand = std::uint16_t(instr.operand / _mces.size());
    if (instr.opcode == isa::LogicalOpcode::SyncToken) {
        sendOnBus(target, tech::logicalInstrBytes, _bytesSync);
        return;
    }
    sendOnBus(target, tech::logicalInstrBytes, _bytesLogical);
    _mces[target]->executeLogical(local);
}

void
MasterController::dispatchTrace(const isa::LogicalTrace &trace)
{
    for (const auto &instr : trace)
        dispatch(instr);
}

ICacheAccess
MasterController::dispatchBlock(std::size_t mce_idx,
                                std::uint32_t block_id,
                                const isa::LogicalTrace &body)
{
    const ICacheAccess access =
        _mces.at(mce_idx)->executeBlock(block_id, body);
    sendOnBus(mce_idx, access.bytesFetched, _bytesCache);
    return access;
}

void
MasterController::broadcastSync()
{
    for (std::size_t i = 0; i < _mces.size(); ++i)
        sendOnBus(i, tech::logicalInstrBytes, _bytesSync);
}

int
MasterController::transferLogicalQubit(std::size_t src_mce,
                                       int src_id,
                                       std::size_t dst_mce,
                                       qecc::Coord dst_anchor)
{
    QUEST_ASSERT(src_mce < _mces.size() && dst_mce < _mces.size(),
                 "transfer between unknown MCEs %zu -> %zu",
                 src_mce, dst_mce);
    QUEST_ASSERT(src_mce != dst_mce,
                 "intra-MCE moves use mask instructions, not "
                 "transfers");

    // Destination defects first: the channel needs both endpoints.
    const int dst_id = _mces[dst_mce]->defineLogicalQubit(dst_anchor);

    // Channel setup + Bell measurement + Pauli fix-up commands to
    // both endpoints (4 logical packets), plus a sync token each.
    constexpr std::size_t transfer_packets = 4;
    for (std::size_t ep : { src_mce, dst_mce }) {
        sendOnBus(ep, transfer_packets * tech::logicalInstrBytes,
                  _bytesLogical);
        sendOnBus(ep, tech::logicalInstrBytes, _bytesSync);
    }

    // One code distance of rounds completes the fault-tolerant
    // hand-off; every tile keeps error-correcting meanwhile.
    runRounds(_cfg.mce.distance);

    _mces[src_mce]->releaseLogicalQubit(src_id);
    return dst_id;
}

void
MasterController::injectRoundFaults()
{
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        if (!_mces[i]->hung()
            && _faults.fire(sim::FaultSite::MceHang)) {
            _mces[i]->wedge();
            ++_hangsInjected;
        }
        if (_faults.fire(sim::FaultSite::MicrocodeSeu)) {
            _mces[i]->microcodeStore().flipRandomBit(
                _faults.rng(sim::FaultSite::MicrocodeSeu));
            ++_seuInjected;
        }
    }
}

const ArbitrationResult &
MasterController::lastArbitration() const
{
    QUEST_ASSERT(_arbValid,
                 "no arbitration has run (sharedFetchBandwidth off "
                 "or no rounds stepped)");
    return _lastArbitration;
}

void
MasterController::arbitrateRound()
{
    QUEST_TRACE_SCOPE("master", "arbitrate");
    // arbitrate() is a pure function of the tiles' programs and
    // liveness (the bandwidth is fixed at construction), and a
    // tile's program changes only with its generation. So while no tile's (generation, live) pair moved,
    // the last plan is this round's plan: replay it, recording the
    // same metrics a fresh plan would.
    bool hit = _arbValid;
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        const std::pair<std::uint64_t, std::uint8_t> key{
            _mces[i]->programGeneration(),
            _mces[i]->hung() ? 0 : 1};
        hit = hit && _arbKey[i] == key;
        _arbKey[i] = key;
    }
    if (hit) {
        _arbiter->record(_lastArbitration);
    } else {
        std::vector<const verify::DependencyOracle *> oracles;
        std::vector<std::uint8_t> active;
        oracles.reserve(_mces.size());
        active.reserve(_mces.size());
        for (std::size_t i = 0; i < _mces.size(); ++i) {
            oracles.push_back(&_mces[i]->dependencyOracle());
            active.push_back(_arbKey[i].second);
        }
        _lastArbitration = _arbiter->arbitrate(
            oracles, active, _cfg.sharedFetchBandwidth);
        _arbValid = true;
        exportSlack();
    }
    for (std::size_t i = 0; i < _mces.size(); ++i)
        *_mTileBwWait[i] +=
            _lastArbitration.tiles[i].stalls.bandwidthWait;
}

void
MasterController::exportSlack()
{
    // The budget-pass slack math, scaled by the share of fetch
    // slots the arbiter granted each tile.
    std::size_t total_slots = 0;
    for (const TileSchedule &t : _lastArbitration.tiles)
        total_slots += t.slotsFetched;
    const tech::JJMemoryModel mem;
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        const TileSchedule &t = _lastArbitration.tiles[i];
        if (!_arbKey[i].second || total_slots == 0)
            continue;
        const Mce &m = *_mces[i];
        const auto &spec =
            qecc::protocolSpec(m.config().protocol);
        const double round_seconds =
            sim::ticksToSeconds(spec.roundDuration(
                tech::gateLatencies(m.config().technology)));
        const double required =
            double(m.lattice().numQubits())
            * double(spec.uopsPerQubit);
        const double share =
            double(t.slotsFetched) / double(total_slots);
        const double available =
            mem.uopsPerSecond(m.config().memoryConfig, m.uopBits())
            * round_seconds * share;
        _mTileSlack[i]->set(
            required > 0 ? available / required - 1.0 : 0.0);
    }
}

void
MasterController::stepRound()
{
    QUEST_TRACE_SCOPE("master", "step_round");
    if (_faults.enabled())
        injectRoundFaults();
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        Mce &m = *_mces[i];
        const std::size_t before = m.roundsRun();
        const qecc::SyndromeRound &round = m.runQeccRound();
        // A wedged engine extracts nothing (roundsRun stalls); the
        // stale round it returns must not enter the stream, and the
        // tile's buffer falls behind the decode cadence.
        if (m.roundsRun() > before)
            _extracted[i] = &round;
        else
            _offCadence[i] = 1;
    }
    if (arbitrating())
        arbitrateRound();
    ++_roundsRun;
    ++_roundsSinceDecode;
    if (_cfg.heartbeatIntervalRounds
        && _roundsRun % _cfg.heartbeatIntervalRounds == 0)
        heartbeatNow();
    if (_cfg.scrubIntervalRounds
        && _roundsRun % _cfg.scrubIntervalRounds == 0)
        scrubNow();
    decodePoint();
}

void
MasterController::decodePoint()
{
    // Rounds are pushed here rather than as they are extracted, so
    // window decodes (and their injected-overrun draws) follow any
    // quarantine flush of this round's heartbeat, and bus sends keep
    // tile order.
    const bool cadence = _roundsSinceDecode >= decodeStride();
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        if (const qecc::SyndromeRound *round = _extracted[i]) {
            _extracted[i] = nullptr;
            if (auto commit = _streamers[i]->pushRound(*round))
                commitStream(i, *commit);
        }
        // A tile that missed rounds holds a partial window that
        // will never fill on cadence: decode it now.
        if (cadence && _offCadence[i])
            decodeTile(i);
    }
    if (cadence)
        _roundsSinceDecode = 0;
}

void
MasterController::heartbeatNow()
{
    QUEST_TRACE_SCOPE("master", "heartbeat");
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        ++_heartbeats;
        sendOnBus(i, heartbeatBytes, _bytesSync);
        if (_mces[i]->hung()) {
            // No response: the engine is wedged.
            ++_heartbeatsMissed;
            if (++_missedHeartbeats[i]
                >= _cfg.watchdogMissThreshold)
                quarantineAndResync(i);
            continue;
        }
        _missedHeartbeats[i] = 0;
        // Healthy engines answer with a status token.
        sendOnBus(i, heartbeatBytes, _bytesSync);
    }
}

void
MasterController::quarantineAndResync(std::size_t mce_idx)
{
    ++_quarantines;
    _missedHeartbeats[mce_idx] = 0;
    Mce &m = *_mces[mce_idx];
    // Quarantine: stop trusting the tile's state, re-upload its
    // full microcode image, reset the engine, then decode whatever
    // syndrome accumulated while it was wedged before resuming.
    sendOnBus(mce_idx, m.microcodeStore().imageBytes(), _bytesScrub);
    m.recover();
    decodeTile(mce_idx);
    // The flush restarts the tile's window mid-cadence.
    _offCadence[mce_idx] = 1;
    ++_resumes;
}

void
MasterController::scrubNow()
{
    QUEST_TRACE_SCOPE("master", "scrub");
    for (std::size_t i = 0; i < _mces.size(); ++i) {
        sendOnBus(i, scrubPollBytes, _bytesScrub);
        MicrocodeStore &store = _mces[i]->microcodeStore();
        if (store.parityErrorWords() == 0)
            continue; // parity-clean (even-flip corruption is silent)
        _seuDetected += double(store.parityErrorWords());
        _seuSilent += double(store.silentBits());
        sendOnBus(i, store.imageBytes(), _bytesScrub);
        store.repair();
        ++_scrubs;
    }
}

void
MasterController::commitStream(std::size_t mce_idx,
                               const decode::StreamCommit &commit)
{
    // The syndrome bus carries each residual event once, in the
    // window that first forwards it past the local LUT stage.
    if (commit.forwardedEvents > 0)
        sendOnBus(mce_idx,
                  commit.forwardedEvents
                      * decode::detectionEventBytes,
                  _bytesSyndrome);
    if (commit.fallback) {
        // The exact matcher would miss the window: the streamer
        // degraded it to the union-find cluster decoder; charge the
        // lateness as stretched noise on the tile.
        ++_decoderOverruns;
        ++_decoderFallbacks;
        _mces[mce_idx]->stretchNoise(commit.stretch, decodeStride());
    }
    // Only the global share crosses the bus: LUT corrections are
    // resolved inside the MCE.
    if (commit.globalWeight > 0)
        sendOnBus(mce_idx, commit.globalWeight * correctionEntryBytes,
                  _bytesCorrections);
    _mces[mce_idx]->applyCorrection(commit.correction);
}

void
MasterController::decodeTile(std::size_t mce_idx)
{
    QUEST_TRACE_SCOPE("master", "decode_tile");
    _offCadence[mce_idx] = 0;
    if (auto commit = _streamers[mce_idx]->finish())
        commitStream(mce_idx, *commit);
}

void
MasterController::decodeNow()
{
    for (std::size_t i = 0; i < _mces.size(); ++i)
        decodeTile(i);
    _roundsSinceDecode = 0;
}

double
MasterController::totalBusBytes() const
{
    return _bytesLogical.value() + _bytesSync.value()
        + _bytesSyndrome.value() + _bytesCorrections.value()
        + _bytesCache.value() + _bytesScrub.value();
}

double
MasterController::baselineEquivalentBytes() const
{
    double bytes = 0.0;
    for (const auto &m : _mces) {
        const auto &spec = qecc::protocolSpec(m->config().protocol);
        bytes += double(m->roundsRun()) * double(spec.depth())
            * double(m->lattice().numQubits())
            * double(tech::physicalInstrBytes);
    }
    return bytes;
}

} // namespace quest::core
