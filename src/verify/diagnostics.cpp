#include "diagnostics.hpp"

#include <algorithm>
#include <sstream>

#include "sim/logging.hpp"

namespace quest::verify {

std::string
severityName(Severity s)
{
    switch (s) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
    }
    sim::panic("invalid severity %d", int(s));
}

std::string
Site::toString() const
{
    std::string out = artifact;
    if (subCycle >= 0)
        out += " sub-cycle " + std::to_string(subCycle);
    if (qubit >= 0)
        out += " q" + std::to_string(qubit);
    if (index >= 0)
        out += " #" + std::to_string(index);
    return out;
}

std::string
Diagnostic::toString() const
{
    return severityName(severity) + " [" + code + "] "
        + site.toString() + ": " + message;
}

void
Report::add(Diagnostic d)
{
    _diagnostics.push_back(std::move(d));
}

void
Report::error(const char *code, Site site, std::string message)
{
    add(Diagnostic{code, Severity::Error, std::move(message),
                   std::move(site)});
}

void
Report::warning(const char *code, Site site, std::string message)
{
    add(Diagnostic{code, Severity::Warning, std::move(message),
                   std::move(site)});
}

void
Report::notePass(const std::string &name)
{
    _passes.push_back(name);
}

std::size_t
Report::errorCount() const
{
    std::size_t n = 0;
    for (const auto &d : _diagnostics)
        if (d.severity == Severity::Error)
            ++n;
    return n;
}

std::size_t
Report::warningCount() const
{
    return _diagnostics.size() - errorCount();
}

std::size_t
Report::countCode(const std::string &code) const
{
    std::size_t n = 0;
    for (const auto &d : _diagnostics)
        if (d.code == code)
            ++n;
    return n;
}

void
Report::merge(const Report &other)
{
    for (const auto &d : other._diagnostics)
        _diagnostics.push_back(d);
    // Multi-tile merges fold N identical pipelines into one report;
    // passesRun() lists each pass once, in first-seen order, so the
    // JSON "passes" array stays a catalogue rather than a tally.
    for (const auto &p : other._passes)
        if (std::find(_passes.begin(), _passes.end(), p)
            == _passes.end())
            _passes.push_back(p);
}

sim::Json
Report::toJson() const
{
    sim::Json passes = sim::Json::array();
    for (const std::string &p : _passes)
        passes.push(p);
    sim::Json diagnostics = sim::Json::array();
    for (const Diagnostic &d : _diagnostics)
        diagnostics.push(sim::Json::object()
                             .set("code", d.code)
                             .set("severity", severityName(d.severity))
                             .set("artifact", d.site.artifact)
                             .set("sub_cycle", d.site.subCycle)
                             .set("qubit", d.site.qubit)
                             .set("index", d.site.index)
                             .set("message", d.message));
    sim::Json out = sim::Json::object();
    out.set("ok", ok())
        .set("errors", errorCount())
        .set("warnings", warningCount())
        .set("passes", std::move(passes))
        .set("diagnostics", std::move(diagnostics));
    return out;
}

std::string
Report::toString() const
{
    std::ostringstream os;
    os << (ok() ? "PASS" : "FAIL") << " (" << errorCount()
       << " errors, " << warningCount() << " warnings, "
       << _passes.size() << " passes)";
    for (const auto &d : _diagnostics)
        os << "\n  " << d.toString();
    return os.str();
}

} // namespace quest::verify
