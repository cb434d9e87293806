#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>

#include "logging.hpp"

namespace quest::sim {

namespace {

void
printLine(std::ostream &os, const std::string &name, double value,
          const std::string &desc)
{
    os << std::left << std::setw(44) << name << " "
       << std::setw(16) << std::setprecision(10) << value
       << " # " << desc << "\n";
}

} // namespace

void
Scalar::print(std::ostream &os) const
{
    printLine(os, name(), _value, description());
}

void
Scalar::visitValues(const ValueVisitor &emit) const
{
    emit(name(), _value);
}

double
Vector::total() const
{
    double t = 0.0;
    for (double v : _values)
        t += v;
    return t;
}

void
Vector::print(std::ostream &os) const
{
    for (std::size_t i = 0; i < _values.size(); ++i) {
        std::string sub = i < _subnames.size()
            ? _subnames[i] : std::to_string(i);
        printLine(os, name() + "::" + sub, _values[i], description());
    }
    printLine(os, name() + "::total", total(), description());
}

void
Vector::reset()
{
    for (double &v : _values)
        v = 0.0;
}

void
Vector::visitValues(const ValueVisitor &emit) const
{
    for (std::size_t i = 0; i < _values.size(); ++i) {
        const std::string sub = i < _subnames.size()
            ? _subnames[i] : std::to_string(i);
        emit(name() + "::" + sub, _values[i]);
    }
    emit(name() + "::total", total());
}

Histogram::Histogram(std::string name, std::string desc, double min,
                     double max, std::size_t buckets)
    : StatBase(std::move(name), std::move(desc)),
      _min(min), _max(max), _buckets(buckets, 0)
{
    QUEST_ASSERT(max > min, "histogram range must be non-empty");
    QUEST_ASSERT(buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(double v, std::uint64_t count)
{
    if (_samples == 0) {
        _minSample = v;
        _maxSample = v;
    } else {
        _minSample = std::min(_minSample, v);
        _maxSample = std::max(_maxSample, v);
    }
    // Welford update, batched for `count` identical samples.
    const double c = double(count);
    const double prev = double(_samples);
    const double total = prev + c;
    const double delta = v - _mean;
    _mean += delta * (c / total);
    _m2 += delta * delta * (prev * c / total);
    _samples += count;

    double span = _max - _min;
    auto idx = static_cast<std::int64_t>((v - _min) / span
                                         * double(_buckets.size()));
    idx = std::max<std::int64_t>(0,
        std::min<std::int64_t>(idx,
                               std::int64_t(_buckets.size()) - 1));
    _buckets[std::size_t(idx)] += count;
}

double
Histogram::mean() const
{
    return _samples ? _mean : 0.0;
}

double
Histogram::stddev() const
{
    if (_samples < 2)
        return 0.0;
    const double var = _m2 / double(_samples);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

double
Histogram::emptySentinel()
{
    return std::numeric_limits<double>::quiet_NaN();
}

double
Histogram::percentile(double q) const
{
    // Every path below is bounds-checked against the bucket array;
    // the empty case short-circuits to the sentinel so no caller
    // can be handed an out-of-range read.
    if (_samples == 0)
        return emptySentinel();
    if (_samples == 1)
        return _minSample;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::uint64_t(
        std::max(1.0, std::ceil(q * double(_samples))));
    const double span = _max - _min;
    const double bucket_width = span / double(_buckets.size());
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (_buckets[i] == 0)
            continue;
        if (seen + _buckets[i] >= rank) {
            // Interpolate within the bucket by sample rank.
            const double lo = _min + bucket_width * double(i);
            const double frac = double(rank - seen)
                / double(_buckets[i]);
            const double v = lo + bucket_width * frac;
            return std::clamp(v, _minSample, _maxSample);
        }
        seen += _buckets[i];
    }
    return _maxSample;
}

void
Histogram::print(std::ostream &os) const
{
    printLine(os, name() + "::samples", double(_samples), description());
    printLine(os, name() + "::mean", mean(), description());
    printLine(os, name() + "::stddev", stddev(), description());
    double span = _max - _min;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        if (!_buckets[i])
            continue;
        double lo = _min + span * double(i) / double(_buckets.size());
        printLine(os, name() + "::bucket[" + std::to_string(lo) + "]",
                  double(_buckets[i]), description());
    }
}

void
Histogram::visitValues(const ValueVisitor &emit) const
{
    emit(name() + "::samples", double(_samples));
    emit(name() + "::mean", mean());
    emit(name() + "::stddev", stddev());
    emit(name() + "::min", _samples ? _minSample : 0.0);
    emit(name() + "::max", _samples ? _maxSample : 0.0);
}

void
Histogram::reset()
{
    for (auto &b : _buckets)
        b = 0;
    _samples = 0;
    _mean = 0.0;
    _m2 = 0.0;
    _minSample = 0.0;
    _maxSample = 0.0;
}

void
Formula::print(std::ostream &os) const
{
    printLine(os, name(), value(), description());
}

void
Formula::visitValues(const ValueVisitor &emit) const
{
    emit(name(), value());
}

Scalar &
StatGroup::scalar(const std::string &name, const std::string &desc)
{
    auto stat = std::make_unique<Scalar>(_name + "." + name, desc);
    Scalar &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Vector &
StatGroup::vector(const std::string &name, const std::string &desc,
                  std::size_t size)
{
    auto stat = std::make_unique<Vector>(_name + "." + name, desc, size);
    Vector &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Histogram &
StatGroup::histogram(const std::string &name, const std::string &desc,
                     double min, double max, std::size_t buckets)
{
    auto stat = std::make_unique<Histogram>(_name + "." + name, desc,
                                            min, max, buckets);
    Histogram &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

Formula &
StatGroup::formula(const std::string &name, const std::string &desc,
                   Formula::Fn fn)
{
    auto stat = std::make_unique<Formula>(_name + "." + name, desc,
                                          std::move(fn));
    Formula &ref = *stat;
    _stats.push_back(std::move(stat));
    return ref;
}

const StatBase *
StatGroup::find(const std::string &name) const
{
    for (const auto &s : _stats) {
        if (s->name() == name || s->name() == _name + "." + name)
            return s.get();
    }
    return nullptr;
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &s : _stats)
        s->print(os);
    for (const StatGroup *child : _children)
        child->dump(os);
}

void
StatGroup::visitValues(const StatBase::ValueVisitor &emit) const
{
    for (const auto &s : _stats)
        s->visitValues(emit);
    for (const StatGroup *child : _children)
        child->visitValues(emit);
}

void
StatGroup::resetAll()
{
    for (auto &s : _stats)
        s->reset();
    for (StatGroup *child : _children)
        child->resetAll();
}

Interval
wilsonInterval(std::uint64_t hits, std::uint64_t trials, double z)
{
    if (trials == 0)
        return Interval{0.0, 1.0};
    const double n = double(trials);
    const double p = double(hits) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double centre = p + z2 / (2.0 * n);
    const double radius =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
    return Interval{std::max(0.0, (centre - radius) / denom),
                    std::min(1.0, (centre + radius) / denom)};
}

} // namespace quest::sim
