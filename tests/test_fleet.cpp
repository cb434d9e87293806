/**
 * @file
 * Tests for the distributed Monte-Carlo fleet: wire protocol
 * framing, sweep sharding and the deterministic task runner, the
 * first-result-wins merger, and the manager's failure machinery
 * (worker kill, result drop, stall past the lease, duplicate
 * delivery) — all of which must leave the merged table
 * byte-identical to a single-process run of the same spec.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <thread>

#include <sys/socket.h>

#include "fleet/manager.hpp"
#include "fleet/protocol.hpp"
#include "fleet/sweep.hpp"
#include "fleet/worker.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace quest;
using namespace quest::fleet;

std::string
tableCsv(const sim::Table &table)
{
    std::ostringstream os;
    table.printCsv(os);
    return os.str();
}

/** The small grid every byte-identity test below farms out. */
SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.protocols = {qecc::Protocol::Steane};
    spec.distances = {3};
    spec.errorRates = {2e-3};
    spec.trialsPerPoint = 48;
    spec.grain = 8;
    spec.seed = 77;
    return spec;
}

/** Fast-failure manager tuning so chaos tests converge quickly. */
FleetConfig
testConfig()
{
    FleetConfig cfg;
    cfg.port = 0;
    cfg.leaseMs = 250;
    cfg.backoffBaseMs = 20;
    cfg.redispatchBudget = 2;
    cfg.heartbeatMs = 100;
    cfg.localFallbackMs = 150;
    return cfg;
}

std::uint64_t
counterValue(const char *name)
{
    return sim::metrics::Registry::global()
        .counter(name, "", sim::metrics::Stability::Wallclock)
        .value();
}

// --- Framing --------------------------------------------------------

TEST(FleetProtocol, FramesRoundTripOverLoopback)
{
    std::uint16_t port = 0;
    Socket listener = listenTcp(0, port);
    ASSERT_TRUE(listener.valid());

    Socket client = connectTcp("127.0.0.1", port, 2000);
    ASSERT_TRUE(client.valid());
    Socket server = acceptClient(listener);
    ASSERT_TRUE(server.valid());

    Json msg = Json::object();
    msg.set("type", Json("hello"));
    msg.set("worker", Json("w0"));
    ASSERT_TRUE(sendFrame(client, msg));

    Json got;
    ASSERT_EQ(recvFrame(server, got, 2000), 1);
    EXPECT_EQ(got.get("type").asString(), "hello");
    EXPECT_EQ(got.get("worker").asString(), "w0");

    // Timeout with no data pending.
    EXPECT_EQ(recvFrame(server, got, 50), 0);
}

TEST(FleetProtocol, HostileLengthPoisonsTheReader)
{
    std::uint16_t port = 0;
    Socket listener = listenTcp(0, port);
    Socket client = connectTcp("127.0.0.1", port, 2000);
    Socket server = acceptClient(listener);
    ASSERT_TRUE(server.valid());
    setNonBlocking(server);

    // A 1 GiB frame announcement must poison the stream without
    // any attempt to buffer toward it.
    const unsigned char evil[4] = {0, 0, 0, 0x40};
    ASSERT_EQ(::send(client.fd(), evil, 4, 0), 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    FrameReader reader;
    EXPECT_FALSE(reader.pump(server));
    EXPECT_TRUE(reader.poisoned());
}

// --- Sharding and the task runner -----------------------------------

TEST(FleetSweep, SpecRejectsMalformedGrids)
{
    // Every entry point funnels through valid(): even or
    // out-of-range distances, NaN or out-of-range rates, empty
    // axes and zero budgets must all be rejected before sharding.
    EXPECT_TRUE(testSpec().valid());

    SweepSpec s = testSpec();
    s.distances = {4};
    EXPECT_FALSE(s.valid());
    s.distances = {65};
    EXPECT_FALSE(s.valid());
    s.distances = {};
    EXPECT_FALSE(s.valid());

    s = testSpec();
    s.errorRates = {1.5};
    EXPECT_FALSE(s.valid());
    s.errorRates = {std::nan("")};
    EXPECT_FALSE(s.valid());

    s = testSpec();
    s.trialsPerPoint = 0;
    EXPECT_FALSE(s.valid());
    s = testSpec();
    s.grain = 0;
    EXPECT_FALSE(s.valid());

    // fromJson applies the same gate to submitted jobs.
    SweepSpec bad = testSpec();
    bad.distances = {4};
    SweepSpec out;
    EXPECT_FALSE(SweepSpec::fromJson(bad.toJson(), out));
}

TEST(FleetSweep, ShardingCoversEveryTrialExactlyOnce)
{
    SweepSpec spec = testSpec();
    spec.trialsPerPoint = 50; // not a multiple of the grain
    spec.distances = {3, 5};
    const auto tasks = shardSweep(spec);
    ASSERT_EQ(tasks.size(),
              spec.pointCount() * spec.tasksPerPoint());

    std::vector<std::uint64_t> covered(spec.pointCount(), 0);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].id, i); // ids are the merge slots
        EXPECT_LT(tasks[i].trialBegin, tasks[i].trialEnd);
        covered[tasks[i].point.index] += tasks[i].trials();
    }
    for (const std::uint64_t n : covered)
        EXPECT_EQ(n, spec.trialsPerPoint);
}

TEST(FleetSweep, SpecAndResultsSurviveTheWire)
{
    const SweepSpec spec = testSpec();
    SweepSpec spec2;
    ASSERT_TRUE(SweepSpec::fromJson(spec.toJson(), spec2));
    EXPECT_EQ(tableCsv(runSweepLocal(spec)),
              tableCsv(runSweepLocal(spec2)));

    const auto tasks = shardSweep(spec);
    TaskRunner runner;
    for (const TaskSpec &task : tasks) {
        TaskSpec task2;
        ASSERT_TRUE(TaskSpec::fromJson(task.toJson(), task2));
        const TaskResult a = runner.run(task);
        const TaskResult b = runner.run(task2);
        TaskResult c;
        ASSERT_TRUE(TaskResult::fromJson(a.toJson(), c));
        // Same task, same bytes — including the float partials.
        EXPECT_EQ(a.witness, b.witness);
        EXPECT_EQ(a.failures, b.failures);
        EXPECT_EQ(a.logWeight, b.logWeight);
        EXPECT_EQ(c.witness, a.witness);
        EXPECT_EQ(c.logWeight, a.logWeight);
    }
}

TEST(FleetSweep, RunnerIsExecutorIndependent)
{
    // A fresh runner (fresh process, re-dispatch after a crash)
    // must reproduce another runner's bytes exactly.
    const auto tasks = shardSweep(testSpec());
    TaskRunner warm;
    for (const TaskSpec &task : tasks) {
        TaskRunner cold;
        const TaskResult a = warm.run(task);
        const TaskResult b = cold.run(task);
        EXPECT_EQ(a.witness, b.witness);
        EXPECT_EQ(a.weightSum, b.weightSum);
        EXPECT_EQ(a.logWeight, b.logWeight);
    }
}

// --- Merger ---------------------------------------------------------

TEST(FleetMerger, ArrivalOrderAndDuplicatesCannotChangeTheTable)
{
    const SweepSpec spec = testSpec();
    const auto tasks = shardSweep(spec);
    TaskRunner runner;
    std::vector<TaskResult> results;
    for (const TaskSpec &task : tasks)
        results.push_back(runner.run(task));

    SweepMerger inOrder(spec);
    for (const TaskResult &r : results)
        EXPECT_EQ(inOrder.accept(r), SweepMerger::Accept::Accepted);

    // Reversed arrival with a duplicate after every accept.
    SweepMerger shuffled(spec);
    EXPECT_EQ(shuffled.mergeLag(), 0u);
    for (auto it = results.rbegin(); it != results.rend(); ++it) {
        EXPECT_EQ(shuffled.accept(*it),
                  SweepMerger::Accept::Accepted);
        EXPECT_EQ(shuffled.accept(*it),
                  SweepMerger::Accept::Duplicate);
    }
    EXPECT_TRUE(shuffled.complete());
    EXPECT_EQ(shuffled.mergeLag(), 0u);
    EXPECT_EQ(tableCsv(shuffled.table()), tableCsv(inOrder.table()));
    EXPECT_EQ(tableCsv(inOrder.table()),
              tableCsv(runSweepLocal(spec)));

    // Unknown and shape-mismatched results are refused.
    TaskResult bogus = results[0];
    bogus.taskId = tasks.size() + 5;
    EXPECT_EQ(inOrder.accept(bogus), SweepMerger::Accept::Invalid);
    bogus = results[0];
    bogus.trials += 1;
    SweepMerger fresh(spec);
    EXPECT_EQ(fresh.accept(bogus), SweepMerger::Accept::Invalid);
}

TEST(FleetMerger, MergeLagTracksTheUnfoldableBacklog)
{
    const SweepSpec spec = testSpec();
    const auto tasks = shardSweep(spec);
    TaskRunner runner;
    SweepMerger merger(spec);
    // Accept everything except task 0: nothing is foldable.
    for (std::size_t i = 1; i < tasks.size(); ++i)
        merger.accept(runner.run(tasks[i]));
    EXPECT_EQ(merger.mergeLag(), tasks.size() - 1);
    merger.accept(runner.run(tasks[0]));
    EXPECT_EQ(merger.mergeLag(), 0u);
    EXPECT_TRUE(merger.complete());
}

// --- Manager + workers over loopback --------------------------------

/**
 * Run a manager sweep with in-process workers; return the CSV. Each
 * worker runs on its own thread or, with `serial`, all of them run
 * one after another on one thread (a worker returns once it is
 * killed or the manager is gone).
 */
std::string
fleetCsv(const SweepSpec &spec, const FleetConfig &cfg,
         std::vector<WorkerConfig> workerCfgs, bool serial = false)
{
    auto manager = std::make_unique<Manager>(cfg);
    for (WorkerConfig &wc : workerCfgs) {
        wc.port = manager->port();
        // The manager listens from its constructor on, so a refused
        // connection means it is already gone: one attempt, not the
        // default 10 s of retries a late-starting thread would spend
        // before the join below returns.
        wc.connectTimeoutMs = 0;
    }
    std::vector<std::thread> threads;
    if (serial) {
        threads.emplace_back([workerCfgs] {
            for (const WorkerConfig &wc : workerCfgs)
                runWorker(wc);
        });
    } else {
        for (const WorkerConfig &wc : workerCfgs)
            threads.emplace_back([wc] { runWorker(wc); });
    }
    const sim::Table table = manager->runSweep(spec);
    // Close the manager's sockets before joining: a worker that only
    // connected after the sweep finished sees the disconnect instead
    // of waiting for work forever.
    manager.reset();
    for (std::thread &t : threads)
        t.join();
    return tableCsv(table);
}

TEST(FleetManager, LocalFallbackMatchesLocalRun)
{
    // No workers ever connect; the manager drains the queue itself.
    const std::string golden = tableCsv(runSweepLocal(testSpec()));
    EXPECT_EQ(fleetCsv(testSpec(), testConfig(), {}), golden);
}

TEST(FleetManager, ByteIdenticalAcrossWorkerCounts)
{
    const std::string golden = tableCsv(runSweepLocal(testSpec()));

    WorkerConfig clean;
    clean.heartbeatMs = 50;
    EXPECT_EQ(fleetCsv(testSpec(), testConfig(), {clean}), golden);

    std::vector<WorkerConfig> four(4, clean);
    for (int i = 0; i < 4; ++i)
        four[std::size_t(i)].name = "w" + std::to_string(i);
    EXPECT_EQ(fleetCsv(testSpec(), testConfig(), four), golden);
}

TEST(FleetManager, SurvivesWorkerKillMidSweep)
{
    const std::string golden = tableCsv(runSweepLocal(testSpec()));
    const std::uint64_t redispatches0 =
        counterValue("fleet.redispatches");

    WorkerConfig killer;
    killer.name = "killer";
    killer.heartbeatMs = 50;
    killer.chaos.seed = 99;
    killer.chaos.rate(sim::FaultSite::WorkerKill) = 1.0;
    WorkerConfig clean;
    clean.name = "steady";
    clean.heartbeatMs = 50;

    // The killer runs alone until it dies on its first lease; only
    // then does the clean worker start, on the same thread, and take
    // the rest. With the local fallback out of reach, neither the
    // clean worker nor the manager can drain the queue before the
    // killer gets a task, however the host schedules the threads.
    FleetConfig cfg = testConfig();
    cfg.localFallbackMs = 60000;
    EXPECT_EQ(fleetCsv(testSpec(), cfg, {killer, clean}, true), golden);
    // The kill actually happened and cost a re-dispatch.
    EXPECT_GT(counterValue("fleet.redispatches"), redispatches0);
}

TEST(FleetManager, SurvivesDroppedAndDuplicatedResults)
{
    const std::string golden = tableCsv(runSweepLocal(testSpec()));
    const std::uint64_t expiries0 =
        counterValue("fleet.lease_expiries");

    // Both workers draw ResultDrop from seed 7, whose stream first
    // fires on its second draw: each worker drops the result of the
    // second task it runs. However the host schedules the two
    // threads, the workers run all 6 tasks between them, so one of
    // them runs at least 3 and drops a result that only its lease
    // expiry can recover.
    // The local fallback is put out of reach so that the manager
    // cannot drain the queue itself while a worker thread is slow
    // to connect.
    FleetConfig cfg = testConfig();
    cfg.localFallbackMs = 60000;
    std::vector<WorkerConfig> lossy(2);
    for (std::size_t i = 0; i < lossy.size(); ++i) {
        lossy[i].name = "lossy" + std::to_string(i);
        lossy[i].heartbeatMs = 50;
        lossy[i].chaos.seed = 7;
        lossy[i].chaos.rate(sim::FaultSite::ResultDrop) = 0.5;
        lossy[i].chaos.rate(sim::FaultSite::DuplicateResult) = 0.5;
    }

    EXPECT_EQ(fleetCsv(testSpec(), cfg, lossy), golden);
    EXPECT_GT(counterValue("fleet.lease_expiries"), expiries0);
}

TEST(FleetManager, SurvivesStallPastTheLease)
{
    const std::string golden = tableCsv(runSweepLocal(testSpec()));

    WorkerConfig staller;
    staller.name = "staller";
    staller.heartbeatMs = 50;
    staller.stallMs = 400; // > testConfig().leaseMs
    staller.chaos.seed = 13;
    staller.chaos.rate(sim::FaultSite::WorkerStall) = 0.4;
    WorkerConfig clean;
    clean.name = "steady";
    clean.heartbeatMs = 50;

    EXPECT_EQ(fleetCsv(testSpec(), testConfig(), {staller, clean}),
              golden);
}

TEST(FleetManager, ServesSubmittedJobsOverTheSamePort)
{
    FleetConfig cfg = testConfig();
    cfg.submitTimeoutMs = 10000;
    auto manager = std::make_unique<Manager>(cfg);

    WorkerConfig wc;
    wc.port = manager->port();
    wc.heartbeatMs = 50;
    std::thread worker([wc] { runWorker(wc); });

    const SweepSpec spec = testSpec();
    std::string received;
    std::thread client([&] {
        Socket sock =
            connectTcp("127.0.0.1", manager->port(), 2000);
        ASSERT_TRUE(sock.valid());
        Json msg = Json::object();
        msg.set("type", Json("submit"));
        msg.set("spec", spec.toJson());
        ASSERT_TRUE(sendFrame(sock, msg));
        Json reply;
        ASSERT_EQ(recvFrame(sock, reply, 60000), 1);
        EXPECT_EQ(reply.getString("type", ""), "table");
        received = reply.getString("csv", "");
    });

    EXPECT_TRUE(manager->serveOnce());
    client.join();
    manager.reset(); // as in fleetCsv: close sockets, then join
    worker.join();
    EXPECT_EQ(received, tableCsv(runSweepLocal(spec)));
}

} // namespace
