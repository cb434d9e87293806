/**
 * @file
 * Error-correction lab: Monte-Carlo study of the QECC substrate.
 *
 * Runs the library's memory experiment (decode::MemoryExperiment:
 * surface-code lattice, syndrome-extraction schedule, batched
 * Pauli-frame noise and the two-level decoder) to measure the
 * logical error rate of distance-3/5/7 codes as a function of the
 * physical error rate, and reports how much of the decoding the
 * per-MCE lookup table handles without bothering the global MWPM
 * decoder (read from the decoder's metrics-registry counters). This is the experiment behind the paper's premise that a
 * short, fixed QECC program plus a small local decoder suffices for
 * the common case.
 *
 * Run: ./build/examples/error_correction_lab [trials]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "decode/memory_experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"

namespace {

/** Current value of a decoder registry counter. */
double
counter(const char *name)
{
    return double(
        quest::sim::metrics::Registry::global().counter(name, "").value());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace quest;

    const int trials = argc > 1 ? std::atoi(argv[1]) : 2000;

    sim::Table table("Logical error rate vs physical error rate "
                     "(Steane-style extraction, two-level decode)");
    table.header({ "p (physical)", "d=3", "d=5", "d=7",
                   "LUT coverage d=5" });

    // Sweep across the code's threshold (~1e-2): above it, more
    // distance hurts; below it, distance suppresses exponentially.
    for (double p : { 2e-2, 1e-2, 5e-3, 2e-3, 5e-4 }) {
        std::vector<std::string> row{ sim::formatCount(p) };
        std::string lut_coverage;
        for (std::size_t d : { 3u, 5u, 7u }) {
            decode::MemoryExperiment exp(qecc::Protocol::Steane, d);
            decode::MemoryRun run;
            run.errorRate = p;
            run.seed = 2027;
            const double local0 = counter("decode.pipeline.events_local");
            const double global0 =
                counter("decode.pipeline.events_global");
            const decode::MemoryTally tally =
                exp.run(run, 0, std::uint64_t(std::max(trials, 1)));
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.2e",
                          double(tally.failures) / double(tally.trials));
            row.push_back(cell);
            if (d == 5) {
                const double local =
                    counter("decode.pipeline.events_local") - local0;
                const double global =
                    counter("decode.pipeline.events_global") - global0;
                char cov[32];
                std::snprintf(cov, sizeof(cov), "%.0f%%",
                              100.0 * local / std::max(1.0, local + global));
                lut_coverage = cov;
            }
        }
        row.push_back(lut_coverage);
        table.row(std::move(row));
    }
    table.caption("expected: below threshold, higher distance "
                  "suppresses the logical rate; the MCE-local LUT "
                  "resolves most detection events");
    table.print(std::cout);
    return 0;
}
