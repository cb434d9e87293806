/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches.
 *
 * Every bench binary prints its paper artifact as an aligned table
 * (the series the paper plots, so results can be compared by eye or
 * scripted from the CSV block) and then runs its google-benchmark
 * timing kernels, so iterating the bench binaries
 * regenerates the whole evaluation.
 */

#ifndef QUEST_BENCH_UTIL_HPP
#define QUEST_BENCH_UTIL_HPP

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/json.hpp"
#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"

namespace quest::bench {

/** Print the table in both human and CSV form. */
inline void
emit(const sim::Table &table)
{
    table.print(std::cout);
    std::cout << "--- CSV ---\n";
    table.printCsv(std::cout);
    std::cout << std::endl;
}

/**
 * Write a BENCH_*.json artifact: `doc` plus the global metrics
 * registry (Wallclock metrics included) under "metrics". The figure
 * benches record their plotted series (and the cycle accounting the
 * run accumulated) as registry entries, so the JSON carries both the
 * paper numbers and the breakdown behind them.
 */
inline void
writeBenchJson(const std::string &path, sim::Json doc)
{
    doc.set("metrics", sim::metrics::Registry::global().toJson(true));
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << path << "\n";
}

/**
 * Standard bench main body: print the figure, then run the
 * registered google-benchmark kernels.
 */
inline int
runBench(int argc, char **argv, void (*print_figure)())
{
    quest::sim::setQuiet(true);
    print_figure();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

} // namespace quest::bench

#define QUEST_BENCH_MAIN(print_figure)                                      \
    int main(int argc, char **argv)                                        \
    {                                                                       \
        return quest::bench::runBench(argc, argv, print_figure);            \
    }

#endif // QUEST_BENCH_UTIL_HPP
