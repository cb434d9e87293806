/**
 * @file
 * Statistics package.
 *
 * Modeled after gem5's stats: named, self-describing counters that
 * components register into a StatGroup and that can be dumped as a
 * formatted report. Supported kinds:
 *  - Scalar: a single accumulating value.
 *  - Vector: a fixed-size array of scalars with per-bucket names.
 *  - Histogram: bucketed distribution with mean/stddev.
 *  - Formula: a derived value computed from other stats at dump time.
 */

#ifndef QUEST_SIM_STATS_HPP
#define QUEST_SIM_STATS_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace quest::sim {

/** Abstract named statistic. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}

    virtual ~StatBase() = default;

    const std::string &name() const { return _name; }
    const std::string &description() const { return _desc; }

    /** Write one or more "name value # desc" lines. */
    virtual void print(std::ostream &os) const = 0;

    /** Visitor for "flat name, value" pairs. */
    using ValueVisitor =
        std::function<void(const std::string &, double)>;

    /**
     * Emit every value this stat exposes (a Scalar emits one pair,
     * a Vector one per bucket plus the total, ...). This is how the
     * metrics registry (metrics.hpp) folds attached StatGroups into
     * its snapshots.
     */
    virtual void visitValues(const ValueVisitor &emit) const = 0;

    /** Reset to the zero state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single accumulating counter. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    void set(double v) { _value = v; }
    double value() const { return _value; }

    void print(std::ostream &os) const override;
    void visitValues(const ValueVisitor &emit) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A fixed-size vector of counters with optional bucket names. */
class Vector : public StatBase
{
  public:
    Vector(std::string name, std::string desc, std::size_t size)
        : StatBase(std::move(name), std::move(desc)), _values(size, 0.0)
    {}

    void
    subnames(std::vector<std::string> names)
    {
        _subnames = std::move(names);
    }

    double &operator[](std::size_t i) { return _values.at(i); }
    double at(std::size_t i) const { return _values.at(i); }
    std::size_t size() const { return _values.size(); }
    double total() const;

    void print(std::ostream &os) const override;
    void visitValues(const ValueVisitor &emit) const override;
    void reset() override;

  private:
    std::vector<double> _values;
    std::vector<std::string> _subnames;
};

/** A bucketed distribution over [min, max). */
class Histogram : public StatBase
{
  public:
    Histogram(std::string name, std::string desc, double min, double max,
              std::size_t buckets);

    /** Record one sample (clamped into the outer buckets). */
    void sample(double v, std::uint64_t count = 1);

    std::uint64_t samples() const { return _samples; }
    double mean() const;
    double stddev() const;
    double minSample() const { return _minSample; }
    double maxSample() const { return _maxSample; }
    std::uint64_t bucketCount(std::size_t i) const
    {
        return _buckets.at(i);
    }

    /**
     * The q-quantile (q in [0, 1]) interpolated within the bucket
     * holding the ceil(q * samples)-th sample, clamped to the
     * observed [minSample, maxSample] range.
     *
     * Defined for every histogram state — no unchecked indexing:
     * an empty histogram returns the NaN sentinel (emptySentinel())
     * and a single-sample histogram returns that sample for all q.
     */
    double percentile(double q) const;

    /** The defined result of percentile() on an empty histogram. */
    static double emptySentinel();

    void print(std::ostream &os) const override;
    void visitValues(const ValueVisitor &emit) const override;
    void reset() override;

  private:
    double _min;
    double _max;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    // Welford running moments: the naive E[x^2] - E[x]^2 formula
    // catastrophically cancels for large-offset samples (picosecond
    // timestamps near 1e9 leave stddev with no significant bits).
    double _mean = 0.0;
    double _m2 = 0.0; ///< sum of squared deviations from the mean
    double _minSample = 0.0;
    double _maxSample = 0.0;
};

/** A derived value evaluated lazily at dump time. */
class Formula : public StatBase
{
  public:
    using Fn = std::function<double()>;

    Formula(std::string name, std::string desc, Fn fn)
        : StatBase(std::move(name), std::move(desc)), _fn(std::move(fn))
    {}

    double value() const { return _fn ? _fn() : 0.0; }

    void print(std::ostream &os) const override;
    void visitValues(const ValueVisitor &emit) const override;
    void reset() override {}

  private:
    Fn _fn;
};

/**
 * An owning, hierarchical registry of statistics. Components create
 * their stats through a group so a whole model can be dumped or
 * reset with one call.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    Scalar &scalar(const std::string &name, const std::string &desc);
    Vector &vector(const std::string &name, const std::string &desc,
                   std::size_t size);
    Histogram &histogram(const std::string &name, const std::string &desc,
                         double min, double max, std::size_t buckets);
    Formula &formula(const std::string &name, const std::string &desc,
                     Formula::Fn fn);

    /** Attach a child group (not owned). */
    void addChild(StatGroup &child) { _children.push_back(&child); }

    const std::string &name() const { return _name; }

    /** Find a stat by (dotted) name within this group only. */
    const StatBase *find(const std::string &name) const;

    /** Dump this group and all children. */
    void dump(std::ostream &os) const;

    /** Visit every value in this group and all children. */
    void visitValues(const StatBase::ValueVisitor &emit) const;

    /** Reset this group and all children. */
    void resetAll();

  private:
    std::string _name;
    std::vector<std::unique_ptr<StatBase>> _stats;
    std::vector<StatGroup *> _children;
};

/** A two-sided confidence interval on a proportion. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Wilson score interval for `hits` out of `trials` Bernoulli trials
 * (z = 1.96 gives 95%); stays inside [0, 1] and is well-behaved at
 * zero hits, unlike the normal approximation. Zero trials give
 * [0, 1].
 */
Interval wilsonInterval(std::uint64_t hits, std::uint64_t trials,
                        double z = 1.96);

} // namespace quest::sim

#endif // QUEST_SIM_STATS_HPP
