#!/usr/bin/env python3
"""QuEST benchmark: run one workload and print its metrics.

    python3 questbench/run.py --workload memory_d5 --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source tree. The script builds the tree's
libraries, the `quest` CLI and the `questbench` harness into
.bench_build/questbench (RelWithDebInfo), runs the workload for
--seconds, checks its outputs and prints every metric by name and
unit. The last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. Workloads, metrics and checks are described in README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "questbench")
HARNESS = os.path.join(BUILD, "questbench")
QUEST = os.path.join(BUILD, "quest", "tools", "quest")

# Sources the benchmark builds; without them it exits nonzero.
REQUIRED_SOURCES = ["CMakeLists.txt", "src/CMakeLists.txt",
                    "tools/quest_cli.cpp"]

# Per-chunk sizes: each chunk is one process doing a fixed amount of
# work (about 0.2 s on a 2.1 GHz Xeon core; a replay chunk is one
# 1000-round replay per path, each in its own process), so a run is a
# series of chunks.
MEMORY_WORKLOADS = {
    "memory_d5": {
        "simulate": ["--distance", "5", "--error-rate", "3e-3"],
        "simulate_trials": 12000,
        "inproc": "sweep",
        "inproc_trials": 12000,
    },
    "memory_d13": {
        "simulate": ["--distance", "13", "--error-rate", "1e-2"],
        "simulate_trials": 600,
        "inproc": "sweep",
        "inproc_trials": 600,
    },
    "stream_d9": {
        "simulate": ["--distance", "9", "--error-rate", "5e-3",
                     "--stream-window", "6", "--stream-stride", "3"],
        "simulate_trials": 600,
        "inproc": "stream",
        "inproc_trials": 600,
    },
}
WORKLOADS = list(MEMORY_WORKLOADS) + ["replay_4tile"]

MIN_CHUNKS = 3            # chunks per run, even past --seconds
SETUP_SECONDS = 0.05      # repeated set-up measurement per chunk
CHILD_TIMEOUT_S = 120     # kill a hung child well inside 180 s
WILSON_Z = 5.0            # one-sided; false alarms < 2e-4 per check here
MIN_COVERAGE = 0.95       # traced layer spans over trial/round time


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Child:
    """A finished subprocess: exit code, output, wall time, peak RSS."""

    def __init__(self, rc, out, err, wall_s, rss_mib):
        self.rc = rc
        self.out = out
        self.err = err
        self.wall_s = wall_s
        self.rss_mib = rss_mib

    def json(self):
        lines = self.out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def spawn(cmd, cpu=None, timeout=CHILD_TIMEOUT_S):
    """Run cmd to completion; reap it with wait4 for its own peak RSS.

    With `cpu`, the child is pinned to that CPU (it inherits the
    affinity this process has while forking).
    """
    out_path = os.path.join(BUILD, "child.out")
    err_path = os.path.join(BUILD, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        mask = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        finally:
            os.sched_setaffinity(0, mask)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(),
                     err.read().decode(), wall, usage.ru_maxrss / 1024.0)


def build():
    """Configure once, then bring the two binaries up to date."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "questbench",
                  "quest_cli", "-j", jobs])
    with open(os.path.join(BUILD, "build.log"), "w") as build_log:
        for step in steps:
            rc = subprocess.run(step, cwd=ROOT, stdout=build_log,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log("build failed (%s); see %s" %
                    (" ".join(step), build_log.name))
                return False
    return True


def source_id():
    """The git commit when there is one, and always a source digest."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return commit, "sha256:" + digest.hexdigest()[:16]


def wilson_lower(failures, trials, z):
    """Lower end of the Wilson score interval for failures/trials."""
    if trials == 0:
        return 0.0
    p = failures / trials
    denom = 1 + z * z / trials
    centre = p + z * z / (2 * trials)
    radius = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    return (centre - radius) / denom


def lower_quartile(values):
    """25th percentile, interpolated within the sample's range."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Run:
    """Counts operations and collects check results for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []     # (name, ok, detail)
        self.rss_mib = 0.0

    def child(self, cmd, cpu=None):
        self.attempted += 1
        child = spawn(cmd, cpu)
        self.rss_mib = max(self.rss_mib, child.rss_mib)
        if child.rc != 0:
            self.failed += 1
            log("operation failed (exit %d): %s\n%s" %
                (child.rc, " ".join(cmd), child.err.strip()[-2000:]))
            return None
        return child

    def check(self, name, ok, detail):
        self.checks.append((name, bool(ok), detail))

    def ler_check(self, name, failures, trials, reference):
        """One-sided: fail only if LER is significantly above reference."""
        ref = reference["failures"] / reference["trials"]
        lower = wilson_lower(failures, trials, WILSON_Z)
        self.check(name, lower <= ref,
                   "%d/%d failures, Wilson lower bound %.3e vs reference "
                   "%.3e" % (failures, trials, lower, ref))

    @property
    def correct(self):
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


def end_to_end(workload, args, run, reference):
    """Alternate set-up and workload chunks until --seconds have passed.

    On a shared host one process runs at two or more speeds that switch
    every few seconds, and how much of a run lands in the slow state
    varies, so a run's median or mean drifts by 10-20% between runs.
    The slow state is present in every run, so each throughput is the
    lower quartile over the run's chunks: the rate 75% of chunks met,
    with ten or more chunks below it in a 25 s run.
    Chunk i is pinned to CPU i mod n of the affinity mask, so every run
    samples the CPUs alike; set-up time is the median over chunks.
    """
    cpus = sorted(os.sched_getaffinity(0))
    samples = {"throughput_p25": [], "inproc_throughput_p25": [],
               "setup_s": []}
    equal_reports = []
    sim_fail = sim_trials = in_fail = in_trials = 0
    min_chunks = max(MIN_CHUNKS, min(len(cpus), 8))
    start = time.perf_counter()
    chunk = 0
    while True:
        t0 = time.perf_counter()
        cpu = cpus[chunk % len(cpus)]
        seed = str(args.seed * 1_000_003 + chunk)

        c = run.child([HARNESS, "setup", "--workload", workload,
                       "--seed", seed, "--seconds", str(SETUP_SECONDS)],
                      cpu)
        if c:
            samples["setup_s"].append(c.json()["setup_s"])
        if workload == "replay_4tile":
            reports = []
            for path, name in (("lib", "throughput_p25"),
                               ("loop", "inproc_throughput_p25")):
                c = run.child([HARNESS, "replay", "--seed", seed,
                               "--path", path], cpu)
                if c:
                    r = c.json()
                    samples[name].append(r["tile_rounds"] / r["wall_s"])
                    reports.append(r["report"])
            if len(reports) == 2:
                equal_reports.append(reports[0] == reports[1])
        else:
            spec = MEMORY_WORKLOADS[workload]
            n = spec["simulate_trials"]
            c = run.child([QUEST, "simulate"] + spec["simulate"] +
                          ["--trials", str(n), "--seed", seed], cpu)
            if c:
                samples["throughput_p25"].append(n / c.wall_s)
                fields = dict(kv.split("=", 1) for kv in c.out.split()
                              if "=" in kv)
                sim_trials += n
                sim_fail += round(float(fields["logical_error_rate"]) * n)
            c = run.child([HARNESS, spec["inproc"], "--workload", workload,
                           "--seed", seed,
                           "--trials", str(spec["inproc_trials"])], cpu)
            if c:
                r = c.json()
                samples["inproc_throughput_p25"].append(
                    r["trials"] / r["wall_s"])
                in_trials += int(r["trials"])
                in_fail += int(r["failures"])
        chunk += 1
        now = time.perf_counter()
        if chunk >= min_chunks and now + (now - t0) > start + args.seconds:
            break

    if workload == "replay_4tile":
        run.check("replay reports", all(equal_reports),
                  "%d of %d benchmark-loop SystemReports equal "
                  "runMixedWorkload's" % (sum(equal_reports),
                                          len(equal_reports)))
    else:
        run.ler_check("simulate LER", sim_fail, sim_trials, reference)
        run.ler_check("%s LER" % MEMORY_WORKLOADS[workload]["inproc"],
                      in_fail, in_trials, reference)
    values = {name: lower_quartile(v) for name, v in samples.items()
              if v and name != "setup_s"}
    if samples["setup_s"]:
        values["setup_s"] = statistics.median(samples["setup_s"])
    values["peak_rss_mib"] = run.rss_mib
    return values, samples


def traced(workload, args, run, reference):
    spans = os.path.join(BUILD, "spans-%s.tsv" % workload)
    c = run.child([HARNESS, "trace", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--spans-out", spans])
    if not c:
        return {}, {}
    r = c.json()
    values = dict(r["metrics"])
    values["trace.attributable"] = 1.0 if r["attributable"] else 0.0
    if workload == "replay_4tile":
        run.check("traced replay report", r["attributable"],
                  "traced loop SystemReport equals runMixedWorkload's")
    else:
        run.check("traced memory mirror", r["attributable"],
                  "traced loop: %d failures, weight %d; reference: %d, %d"
                  % (r["failures"], r["weight"], r["ref_failures"],
                     r["ref_weight"]))
        run.ler_check("traced LER", int(r["failures"]), int(r["trials"]),
                      reference)
    for b in r.get("model_bins", []):
        print("mwpm latency / model, E in [%d, %d]: %.2f over %d calls"
              % (b["e_lo"], b["e_hi"], b["ratio_p50"], b["calls"]))
    coverage = values.get("trace.coverage", 0.0)
    if coverage < MIN_COVERAGE:
        log("warning: layer spans cover %.1f%% of traced time (< %.0f%%)"
            % (100 * coverage, 100 * MIN_COVERAGE))
    return values, {"model_bins": r.get("model_bins", []),
                    "spans_file": os.path.relpath(spans, ROOT),
                    "spans": r["spans"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in REQUIRED_SOURCES + ["BENCHMARK.json"]
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        log("not a QuEST source tree (missing %s)" % ", ".join(missing))
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f).get(args.workload)
    if not build():
        return 2

    run = Run()
    host = run.child([HARNESS, "host"])
    host = host.json() if host else {}
    host["commit"], host["source_digest"] = source_id()
    print("host: " + json.dumps(host, sort_keys=True))

    if args.trace:
        declared = spec["per_layer"]
        values, extra = traced(args.workload, args, run, reference)
    else:
        declared = spec["end_to_end"]
        values, extra = end_to_end(args.workload, args, run, reference)

    # Every declared metric is printed; a layer the workload does not
    # call reads 0 (see README.md).
    metrics = {}
    for m in declared:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-44s %.6g %s" % (m["name"], value, m["unit"]))
    for name, ok, detail in run.checks:
        print("check %-38s %s  %s" % (name, "ok" if ok else "FAIL", detail))

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  checks=run.checks, detail=extra)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
