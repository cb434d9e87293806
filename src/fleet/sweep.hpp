/**
 * @file
 * Fleet sweep jobs: grid specs, trial-range task sharding, the
 * deterministic task executor and the order-independent merge.
 *
 * A sweep job is a protocol × distance × error-rate grid (the
 * fig14/fig15/fault-sweep shapes) of surface-code memory
 * experiments, `trialsPerPoint` Monte-Carlo trials per grid point.
 * The job is sharded into trial-range tasks of `grain` trials; task
 * (point k, trials [a, b)) is a *pure function* of the spec:
 * trial t draws only from `Rng::substream(deriveSeed(seed, k), t)`,
 * so any worker — or the manager's local fallback, or a re-dispatch
 * after a worker died — reproduces the exact bytes any other
 * executor would have produced.
 *
 * The merge is the PR-2 fixed-association reduction lifted across
 * process boundaries: partial results are slotted by task id and
 * folded in task order at finalization, so the merged table is
 * byte-identical regardless of worker count, arrival order,
 * duplicate deliveries (first result wins) or mid-sweep failures.
 * Every per-trial quantity that could expose association (the
 * floating-point log-weight sum, the FNV witness digest) is folded
 * left-to-right in trial order inside a task and in task order
 * across tasks — the same association for every execution plan.
 */

#ifndef QUEST_FLEET_SWEEP_HPP
#define QUEST_FLEET_SWEEP_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qecc/protocol.hpp"
#include "sim/json.hpp"
#include "sim/table.hpp"

namespace quest::decode {
class MemoryExperiment;
} // namespace quest::decode

namespace quest::fleet {

using sim::Json;

/** One sweep job: the grid, the budget and the replay seed. */
struct SweepSpec
{
    std::vector<qecc::Protocol> protocols{qecc::Protocol::Steane};
    std::vector<std::size_t> distances{3, 5};
    std::vector<double> errorRates{1e-3};
    std::uint64_t trialsPerPoint = 256;
    std::uint64_t grain = 64; ///< trials per task
    std::uint64_t seed = 1;

    /** Grid points in canonical (protocol, distance, rate) order. */
    std::size_t
    pointCount() const
    {
        return protocols.size() * distances.size()
            * errorRates.size();
    }

    /** Tasks per point under the configured grain. */
    std::uint64_t
    tasksPerPoint() const
    {
        const std::uint64_t g = grain == 0 ? 1 : grain;
        return (trialsPerPoint + g - 1) / g;
    }

    /**
     * Grid well-formedness: non-empty axes, odd distances in
     * [3, 63], error rates in [0, 1], positive trials and grain.
     * Every entry point (CLI flags, submitted JSON) must check this
     * before sharding — an even distance has no valid lattice.
     */
    bool valid() const;

    Json toJson() const;
    static bool fromJson(const Json &j, SweepSpec &out);
};

/** One grid point, with its derived substream family seed. */
struct SweepPointSpec
{
    std::uint32_t index = 0;
    qecc::Protocol protocol = qecc::Protocol::Steane;
    std::size_t distance = 3;
    double errorRate = 1e-3;
    std::uint64_t pointSeed = 0; ///< Rng::deriveSeed(spec.seed, index)
};

/** Expand the grid in canonical order. */
std::vector<SweepPointSpec> sweepPoints(const SweepSpec &spec);

/** One trial-range task; self-contained (carries its point spec). */
struct TaskSpec
{
    std::uint64_t id = 0; ///< global shard index (merge slot)
    SweepPointSpec point;
    std::uint64_t trialBegin = 0;
    std::uint64_t trialEnd = 0;

    std::uint64_t trials() const { return trialEnd - trialBegin; }

    Json toJson() const;
    static bool fromJson(const Json &j, TaskSpec &out);
};

/** Shard the job: point-major, contiguous trial ranges of `grain`. */
std::vector<TaskSpec> shardSweep(const SweepSpec &spec);

/** Partial result of one task (pure function of the TaskSpec). */
struct TaskResult
{
    std::uint64_t taskId = 0;
    std::uint32_t pointIndex = 0;
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
    std::uint64_t weightSum = 0; ///< total correction weight
    /** Σ log1p(weight) folded in trial order (association witness). */
    double logWeight = 0.0;
    /** FNV fold of per-trial outcomes, order-dependent. */
    std::uint64_t witness = 0;

    Json toJson() const;
    static bool fromJson(const Json &j, TaskResult &out);
};

/**
 * Deterministic task executor, shared by `quest worker`, the
 * manager's local fallback and the tests: a task is one
 * decode::MemoryExperiment run, and the per-point experiment (lattice,
 * schedule, decoders) is cached across tasks.
 */
class TaskRunner
{
  public:
    TaskRunner();
    ~TaskRunner();

    /** Execute one task; bit-identical on every host/executor. */
    TaskResult run(const TaskSpec &task);

  private:
    std::map<std::pair<std::size_t, std::size_t>,
             std::unique_ptr<decode::MemoryExperiment>>
        _cache; ///< keyed by (protocol, distance)
};

/**
 * Incremental first-result-wins merge with fixed association.
 * Results may arrive in any order, more than once, or from
 * different executors; the finalized table depends only on the
 * spec.
 */
class SweepMerger
{
  public:
    enum class Accept
    {
        Accepted,  ///< first result for this task
        Duplicate, ///< already have this task (dropped)
        Invalid,   ///< unknown task id or shape mismatch
    };

    explicit SweepMerger(const SweepSpec &spec);

    Accept accept(const TaskResult &result);

    std::size_t tasksTotal() const { return _slots.size(); }
    std::size_t tasksDone() const { return _accepted; }
    bool complete() const { return _accepted == _slots.size(); }

    /**
     * Accepted results not yet absorbed into their point's
     * contiguous fold prefix — how far the incremental merge runs
     * behind arrival (the fleet.merge_lag gauge).
     */
    std::size_t mergeLag() const;

    /** The merged per-point table; requires complete(). */
    sim::Table table() const;

    /** The table in CSV form (the byte-identity artifact). */
    std::string csv() const;

  private:
    SweepSpec _spec;
    std::vector<SweepPointSpec> _points;
    std::vector<TaskSpec> _tasks;
    std::vector<std::optional<TaskResult>> _slots;
    std::vector<std::size_t> _prefixDone; ///< per point
    std::size_t _accepted = 0;
};

/** Run a whole sweep in-process (the no-fleet reference path). */
sim::Table runSweepLocal(const SweepSpec &spec);

} // namespace quest::fleet

#endif // QUEST_FLEET_SWEEP_HPP
