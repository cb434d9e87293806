#include "manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <poll.h>
#include <sstream>

#include "sim/logging.hpp"

namespace quest::fleet {

namespace {

using metrics = sim::metrics::Registry;
using sim::metrics::Stability;

} // namespace

/** One TCP peer: a worker, a submitting client, or not yet known. */
struct Manager::Conn
{
    enum class Role
    {
        Unknown, ///< connected, no frame yet
        Worker,
        Client,
    };

    Socket sock;
    FrameReader reader;
    Role role = Role::Unknown;
    std::string name;
    std::int64_t lastSeenMs = 0;
    bool quarantined = false;
    bool dead = false; ///< swept at the end of the loop iteration
    /** Task ids currently leased to this worker (0 or 1 normally). */
    std::vector<std::uint64_t> inFlight;
};

/** Scheduling state of one task (results live in the merger). */
struct Manager::TaskState
{
    enum class Phase
    {
        Pending,
        Leased,
        Done,
    };

    Phase phase = Phase::Pending;
    int attempts = 0;             ///< dispatches so far
    std::int64_t notBeforeMs = 0; ///< backoff gate while Pending
    std::int64_t deadlineMs = 0;  ///< lease expiry while Leased
    std::int64_t dispatchedMs = 0;
    int leaseMs = 0;    ///< current lease length (grows per attempt)
    int leases = 0;     ///< concurrent leases (straggler re-issue)
    bool reissued = false; ///< straggler re-issue already queued
};

Manager::Manager(const FleetConfig &cfg)
    : _cfg(cfg),
      _mTasksTotal(metrics::global().counter(
          "fleet.tasks_total", "tasks sharded from the sweep spec")),
      _mTasksCompleted(metrics::global().counter(
          "fleet.tasks_completed", "tasks merged (first result)")),
      _mPoints(metrics::global().counter(
          "fleet.points", "sweep grid points")),
      _mRedispatches(metrics::global().counter(
          "fleet.redispatches",
          "tasks re-queued after lease expiry or worker loss",
          Stability::Wallclock)),
      _mLeaseExpiries(metrics::global().counter(
          "fleet.lease_expiries", "leases that timed out",
          Stability::Wallclock)),
      _mStragglers(metrics::global().counter(
          "fleet.straggler_redispatches",
          "second leases issued past the p99 latency gate",
          Stability::Wallclock)),
      _mDuplicates(metrics::global().counter(
          "fleet.duplicates_dropped",
          "results discarded because the task was already merged",
          Stability::Wallclock)),
      _mDisconnects(metrics::global().counter(
          "fleet.worker_disconnects", "worker connections lost",
          Stability::Wallclock)),
      _mQuarantines(metrics::global().counter(
          "fleet.quarantines", "idle workers that went silent",
          Stability::Wallclock)),
      _mReadmissions(metrics::global().counter(
          "fleet.readmissions", "quarantined workers heard again",
          Stability::Wallclock)),
      _mLocalTasks(metrics::global().counter(
          "fleet.local_tasks",
          "tasks executed in-process (fallback or budget)",
          Stability::Wallclock)),
      _mWorkersPeak(metrics::global().gauge(
          "fleet.workers_peak", "max concurrently usable workers",
          Stability::Wallclock)),
      _mMergeLagPeak(metrics::global().gauge(
          "fleet.merge_lag_peak",
          "max accepted-but-unfolded results",
          Stability::Wallclock))
{
    _jitter.seed(
        sim::Rng::deriveSeed(_cfg.schedulerSeed, 0xF1EE7ull));
    _listener = listenTcp(_cfg.port, _port);
    if (!_listener.valid())
        sim::fatal("fleet: cannot listen on 127.0.0.1:%u",
                   unsigned(_cfg.port));
    setNonBlocking(_listener);
}

Manager::~Manager() = default;

std::int64_t
Manager::nowMs() const
{
    // Scheduling clock only: lease ages, backoff gates, heartbeat
    // windows. Results never depend on it.
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

int
Manager::backoffMs(int attempt)
{
    const int shift = std::min(attempt > 0 ? attempt - 1 : 0, 16);
    const double base =
        double(_cfg.backoffBaseMs) * double(1u << shift);
    const double j =
        std::clamp(_cfg.backoffJitter, 0.0, 1.0);
    // Deterministic jitter: seeded stream, so identically-seeded
    // managers facing the same failure pattern back off alike.
    return int(base * (1.0 - j + j * _jitter.uniform()));
}

std::size_t
Manager::usableWorkers() const
{
    std::size_t n = 0;
    for (const Conn &c : _conns)
        if (!c.dead && c.role == Conn::Role::Worker
            && !c.quarantined)
            ++n;
    return n;
}

void
Manager::acceptPending()
{
    for (;;) {
        Socket sock = acceptClient(_listener);
        if (!sock.valid())
            return;
        setNonBlocking(sock);
        Conn conn;
        conn.sock = std::move(sock);
        conn.lastSeenMs = nowMs();
        _conns.push_back(std::move(conn));
    }
}

void
Manager::requeueTask(std::uint64_t id, bool throughBackoff)
{
    TaskState &st = _states[std::size_t(id)];
    if (st.phase == TaskState::Phase::Done)
        return;
    if (st.leases > 1) {
        // A second lease is still live (straggler re-issue); let it
        // race, don't triple-dispatch.
        --st.leases;
        return;
    }
    st.leases = 0;
    st.phase = TaskState::Phase::Pending;
    st.reissued = false;
    st.notBeforeMs =
        throughBackoff ? nowMs() + backoffMs(st.attempts) : nowMs();
    ++_mRedispatches;
}

void
Manager::dropConnection(std::size_t index)
{
    Conn &conn = _conns[index];
    if (conn.dead)
        return;
    conn.dead = true;
    if (conn.role == Conn::Role::Worker) {
        ++_mDisconnects;
        // Fail fast: a dead worker's leases re-queue immediately,
        // no need to wait out the lease timer.
        for (const std::uint64_t id : conn.inFlight)
            requeueTask(id, /*throughBackoff=*/false);
        conn.inFlight.clear();
    }
}

void
Manager::handleFrame(Conn &conn, const Json &msg)
{
    if (msg.type() != Json::Type::Object || !msg.has("type"))
        return;
    const std::string type = msg.get("type").asString();
    conn.lastSeenMs = nowMs();

    if (type == "hello") {
        conn.role = Conn::Role::Worker;
        conn.name = msg.getString("worker", "worker");
        _lastWorkerMs = conn.lastSeenMs;
        _mWorkersPeak.set(std::max(_mWorkersPeak.value(),
                                   double(usableWorkers())));
        return;
    }
    if (type == "heartbeat") {
        if (conn.quarantined) {
            conn.quarantined = false;
            ++_mReadmissions;
        }
        if (conn.role == Conn::Role::Worker)
            _lastWorkerMs = conn.lastSeenMs;
        return;
    }
    if (type == "result") {
        if (conn.quarantined) {
            conn.quarantined = false;
            ++_mReadmissions;
        }
        _lastWorkerMs = conn.lastSeenMs;
        TaskResult result;
        if (!TaskResult::fromJson(msg, result) || _merger == nullptr)
            return;
        const std::uint64_t id = result.taskId;
        auto &fl = conn.inFlight;
        fl.erase(std::remove(fl.begin(), fl.end(), id), fl.end());

        const SweepMerger::Accept verdict = _merger->accept(result);
        if (verdict == SweepMerger::Accept::Duplicate) {
            ++_mDuplicates;
            return;
        }
        if (verdict == SweepMerger::Accept::Invalid)
            return;
        TaskState &st = _states[std::size_t(id)];
        st.phase = TaskState::Phase::Done;
        st.leases = 0;
        _latenciesMs.push_back(double(nowMs() - st.dispatchedMs));
        ++_mTasksCompleted;
        _mMergeLagPeak.set(std::max(_mMergeLagPeak.value(),
                                    double(_merger->mergeLag())));
        return;
    }
    if (type == "submit") {
        conn.role = Conn::Role::Client;
        return; // serveOnce() inspects the frame itself
    }
}

void
Manager::pumpConnections()
{
    for (std::size_t i = 0; i < _conns.size(); ++i) {
        Conn &conn = _conns[i];
        if (conn.dead)
            continue;
        const bool alive = conn.reader.pump(conn.sock);
        Json msg;
        while (conn.reader.next(msg))
            handleFrame(conn, msg);
        if (!alive || conn.reader.poisoned())
            dropConnection(i);
    }
}

void
Manager::expireLeases()
{
    const std::int64_t now = nowMs();
    for (std::uint64_t id = 0; id < _states.size(); ++id) {
        TaskState &st = _states[std::size_t(id)];
        if (st.phase != TaskState::Phase::Leased
            || now <= st.deadlineMs)
            continue;
        ++_mLeaseExpiries;
        // Forget who held it; their eventual result (if any) is
        // still welcome and merges first-wins.
        for (Conn &conn : _conns) {
            auto &fl = conn.inFlight;
            fl.erase(std::remove(fl.begin(), fl.end(), id),
                     fl.end());
        }
        if (st.attempts >= _cfg.redispatchBudget) {
            // The fleet had its chances; stop risking the sweep's
            // latency on it and compute the task here.
            runTaskLocally(id);
            continue;
        }
        st.leases = 1; // collapse straggler double-leases
        requeueTask(id, /*throughBackoff=*/true);
    }
}

void
Manager::checkHeartbeats()
{
    const std::int64_t now = nowMs();
    const std::int64_t window = std::int64_t(_cfg.heartbeatMs)
        * std::int64_t(_cfg.quarantineMisses);
    for (Conn &conn : _conns) {
        if (conn.dead || conn.role != Conn::Role::Worker
            || conn.quarantined || !conn.inFlight.empty())
            continue; // busy workers answer to the lease instead
        if (now - conn.lastSeenMs > window) {
            conn.quarantined = true;
            ++_mQuarantines;
        }
    }
}

double
Manager::latencyP99() const
{
    if (_latenciesMs.empty())
        return 0.0;
    std::vector<double> sorted = _latenciesMs;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx =
        std::min(sorted.size() - 1,
                 std::size_t(double(sorted.size()) * 0.99));
    return sorted[idx];
}

void
Manager::reissueStragglers()
{
    const std::size_t done = std::size_t(_mTasksCompleted.value());
    const std::size_t gate =
        std::max<std::size_t>(8, _states.size() / 4);
    if (done < gate)
        return; // not enough samples to call anything a straggler
    const double p99 = latencyP99();
    if (p99 <= 0.0)
        return;
    const std::int64_t now = nowMs();
    const double limit = p99 * _cfg.stragglerFactor;
    for (std::uint64_t id = 0; id < _states.size(); ++id) {
        TaskState &st = _states[std::size_t(id)];
        if (st.phase != TaskState::Phase::Leased || st.reissued
            || st.leases != 1)
            continue;
        if (double(now - st.dispatchedMs) > limit) {
            st.reissued = true;
            _extraQueue.push_back(id);
            ++_mStragglers;
        }
    }
}

void
Manager::dispatchReady()
{
    const std::int64_t now = nowMs();
    for (Conn &conn : _conns) {
        if (conn.dead || conn.role != Conn::Role::Worker
            || conn.quarantined || !conn.inFlight.empty())
            continue;

        // Straggler re-issues first (they are the oldest work),
        // then the lowest-id ready pending task.
        std::uint64_t id = 0;
        bool found = false, extra = false;
        while (!_extraQueue.empty()) {
            const std::uint64_t cand = _extraQueue.front();
            if (_states[std::size_t(cand)].phase
                == TaskState::Phase::Leased) {
                id = cand;
                found = extra = true;
                break;
            }
            _extraQueue.erase(_extraQueue.begin()); // stale
        }
        if (!found) {
            for (std::uint64_t cand = 0; cand < _states.size();
                 ++cand) {
                TaskState &st = _states[std::size_t(cand)];
                if (st.phase == TaskState::Phase::Pending
                    && now >= st.notBeforeMs) {
                    id = cand;
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            return; // nothing ready for anyone

        TaskState &st = _states[std::size_t(id)];
        Json frame = _tasks[std::size_t(id)].toJson();
        frame.set("type", Json("task"));
        if (!sendFrame(conn.sock, frame)) {
            dropConnection(std::size_t(&conn - _conns.data()));
            continue;
        }
        if (extra) {
            _extraQueue.erase(_extraQueue.begin());
            ++st.leases;
        } else {
            st.phase = TaskState::Phase::Leased;
            st.leases = 1;
            ++st.attempts;
            st.dispatchedMs = now;
            st.leaseMs = int(
                double(_cfg.leaseMs)
                * std::pow(std::max(1.0, _cfg.leaseGrowth),
                           double(st.attempts - 1)));
            st.deadlineMs = now + st.leaseMs;
        }
        conn.inFlight.push_back(id);
    }
}

void
Manager::runTaskLocally(std::uint64_t id)
{
    TaskState &st = _states[std::size_t(id)];
    if (st.phase == TaskState::Phase::Done)
        return;
    const TaskResult result =
        _localRunner.run(_tasks[std::size_t(id)]);
    st.phase = TaskState::Phase::Done;
    st.leases = 0;
    ++_mLocalTasks;
    if (_merger->accept(result) == SweepMerger::Accept::Accepted)
        ++_mTasksCompleted;
    else
        ++_mDuplicates;
}

void
Manager::localFallback()
{
    if (usableWorkers() > 0)
        return;
    const std::int64_t now = nowMs();
    if (now - _lastWorkerMs < _cfg.localFallbackMs)
        return;
    // One task per loop iteration keeps the manager responsive: a
    // worker connecting mid-drain still gets the rest of the queue.
    for (std::uint64_t id = 0; id < _states.size(); ++id) {
        TaskState &st = _states[std::size_t(id)];
        if (st.phase == TaskState::Phase::Pending) {
            runTaskLocally(id);
            return;
        }
    }
    // Only leased tasks left: nobody usable will deliver them, so
    // take the oldest one back rather than waiting out its lease.
    for (std::uint64_t id = 0; id < _states.size(); ++id) {
        if (_states[std::size_t(id)].phase
            == TaskState::Phase::Leased) {
            runTaskLocally(id);
            return;
        }
    }
}

void
Manager::finishJob()
{
    // Every connection but the client is told to stop, including
    // workers still in the accept queue or whose hello is unread: a
    // worker that connects as the last task lands would otherwise
    // wait for work that never comes.
    acceptPending();
    Json bye = Json::object();
    bye.set("type", Json("shutdown"));
    for (std::size_t i = 0; i < _conns.size(); ++i) {
        Conn &conn = _conns[i];
        if (!conn.dead && conn.role != Conn::Role::Client)
            sendFrame(conn.sock, bye);
    }
}

void
Manager::driveJob()
{
    while (!_merger->complete()) {
        std::vector<pollfd> fds;
        fds.push_back({_listener.fd(), POLLIN, 0});
        for (const Conn &conn : _conns)
            if (!conn.dead)
                fds.push_back({conn.sock.fd(), POLLIN, 0});
        ::poll(fds.data(), nfds_t(fds.size()), 50);

        acceptPending();
        pumpConnections();
        expireLeases();
        checkHeartbeats();
        reissueStragglers();
        dispatchReady();
        localFallback();

        _conns.erase(
            std::remove_if(_conns.begin(), _conns.end(),
                           [](const Conn &c) {
                               return c.dead
                                   && c.role != Conn::Role::Client;
                           }),
            _conns.end());
    }
    finishJob();
}

sim::Table
Manager::runSweep(const SweepSpec &spec)
{
    SweepMerger merger(spec);
    _merger = &merger;
    _tasks = shardSweep(spec);
    _states.assign(_tasks.size(), TaskState{});
    _extraQueue.clear();
    _latenciesMs.clear();
    _lastWorkerMs = nowMs();
    _mTasksTotal += _tasks.size();
    _mPoints += spec.pointCount();

    driveJob();
    _merger = nullptr;
    return merger.table();
}

bool
Manager::serveOnce()
{
    const std::int64_t start = nowMs();
    // Phase 1: collect connections until a client submits a job.
    for (;;) {
        std::vector<pollfd> fds;
        fds.push_back({_listener.fd(), POLLIN, 0});
        for (const Conn &conn : _conns)
            if (!conn.dead)
                fds.push_back({conn.sock.fd(), POLLIN, 0});
        ::poll(fds.data(), nfds_t(fds.size()), 50);
        acceptPending();

        SweepSpec spec;
        std::size_t clientIdx = _conns.size();
        for (std::size_t i = 0; i < _conns.size(); ++i) {
            Conn &conn = _conns[i];
            if (conn.dead)
                continue;
            const bool alive = conn.reader.pump(conn.sock);
            Json msg;
            while (conn.reader.next(msg)) {
                if (msg.type() == Json::Type::Object
                    && msg.has("type")
                    && msg.get("type").asString() == "submit"
                    && msg.has("spec")
                    && SweepSpec::fromJson(msg.get("spec"), spec)
                    && clientIdx == _conns.size()) {
                    conn.role = Conn::Role::Client;
                    clientIdx = i;
                } else {
                    handleFrame(conn, msg);
                }
            }
            if (!alive || conn.reader.poisoned())
                dropConnection(i);
        }

        if (clientIdx != _conns.size()) {
            // runSweep's loop compacts _conns, so re-find the
            // client by role afterwards instead of by index.
            const sim::Table table = runSweep(spec);
            std::ostringstream os;
            table.printCsv(os);
            Json reply = Json::object();
            reply.set("type", Json("table"));
            reply.set("csv", Json(os.str()));
            reply.set("tasks",
                      Json(std::uint64_t(_tasks.size())));
            for (Conn &conn : _conns) {
                if (!conn.dead && conn.role == Conn::Role::Client) {
                    sendFrame(conn.sock, reply);
                    break;
                }
            }
            return true;
        }
        if (_cfg.submitTimeoutMs >= 0
            && nowMs() - start > _cfg.submitTimeoutMs)
            return false;
    }
}

} // namespace quest::fleet
