#!/usr/bin/env python3
"""Campaign benchmark: end-to-end and per-layer metrics of FFIS campaigns.

Run from the repository root:

    python3 campaign_bench/run.py --workload syscall-campaign --seed 1 \
        --seconds 10 --trace 0

Builds the benchmark package (campaign_bench/CMakeLists.txt) into
.bench_build on first use, then:

  1. computes the classic-path tallies for the workload at this seed (the
     correctness oracle; cached per seed under .bench_build/oracle);
  2. for fleet-warm, fills a per-invocation checkpoint store (untimed);
  3. runs timed repetitions, each in a fresh process, until --seconds have
     passed (at least MIN_REPS), checking every repetition's per-cell
     tallies against the oracle and, for fleet-warm, that the warm store was
     not re-persisted;
  4. with --trace 1, alternates untraced repetitions with traced ones and
     reports the per-layer metrics (see NOTES.md) instead.

--workload all measures every workload in turn (each within its own time
budget) and prefixes the metric names in the result line with the workload.

Prints every metric by name and unit, writes the full record to
campaign_bench/results/, and prints one JSON result as the last line.  Exits
1 when a tally, replica or store check fails, or when anything errors.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "campaign_bench")
ORACLE_DIR = os.path.join(BUILD_DIR, "oracle")
RESULTS_DIR = os.path.join(HERE, "results")

WORKLOADS = ("syscall-campaign", "media-campaign", "fleet-warm")
# Engine pool size: fixed so runs compare across commits, never above nproc.
# Two, because on a 4-core host three made single repetitions swing by +-15 %.
POOL_THREADS = 2
MIN_REPS = 3
# Wall-clock budget of one invocation once the build is done.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "setup_s": "s",
    "campaign_s": "s",
    "peak_rss_mib": "MiB",
}
TALLY_KEYS = ("label", "runs", "benign", "detected", "sdc", "crash", "detected_crc")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ffis", "exp", "engine.hpp")):
        raise BenchError("FFIS sources (src/ffis) not found next to campaign_bench")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(os.path.join(BUILD_DIR, "build.log"), "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed; see .bench_build/build.log")


class Child:
    """Runs campaign_bench modes within the invocation's deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def run(self, mode, workload, seed, threads=None, store=None):
        cmd = [BINARY, mode, "--workload", workload, "--seed", str(seed)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if store is not None:
            cmd += ["--store", store]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("time budget exhausted before " + mode)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(mode + " run timed out")
        if proc.returncode != 0:
            raise BenchError("%s run failed (exit %d): %s"
                             % (mode, proc.returncode, proc.stderr.strip()[-2000:]))
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(mode + " run printed no result")
        return json.loads(lines[-1])


def tallies(result):
    return [{k: cell[k] for k in TALLY_KEYS} for cell in result["cells"]]


def oracle_tallies(child, workload, seed, nproc):
    """Classic-path tallies (no checkpoints, no diff classification)."""
    path = os.path.join(ORACLE_DIR, "%s-%d.json" % (workload, seed))
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    result = child.run("oracle", workload, seed, threads=nproc)
    if result["failed_runs"] != 0:
        raise BenchError("oracle run failed %d runs" % result["failed_runs"])
    expected = tallies(result)
    os.makedirs(ORACLE_DIR, exist_ok=True)
    tmp = "%s.tmp.%d" % (path, os.getpid())
    with open(tmp, "w") as f:
        json.dump(expected, f)
    os.replace(tmp, path)
    return expected


def store_entries(store):
    """Entry names, sizes and inodes: a re-persisted entry is renamed into
    place from a fresh temp file, so even identical bytes get a new inode."""
    entries = []
    for name in os.listdir(store):
        st = os.stat(os.path.join(store, name))
        entries.append((name, st.st_size, st.st_ino))
    return sorted(entries)


def check_tallies(result, expected, problems, what):
    got = tallies(result)
    if got != expected:
        for g, e in zip(got, expected):
            if g != e:
                problems.append("%s: %s tallies %s differ from the classic path %s"
                                % (what, g["label"], g, e))
                return
        problems.append("%s: cell list differs from the classic path" % what)


def source_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def measure(workload, args, child, threads, store, snapshot, expected, problems):
    """Timed repetitions; returns (untraced reps, traced reps)."""
    fleet = workload == "fleet-warm"
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if args.trace else MIN_REPS)
        if elapsed >= args.seconds and enough and (traced or not args.trace):
            break
        modes = ["fleet" if fleet else "engine"] + (["trace"] if args.trace else [])
        for mode in modes:
            result = child.run(mode, workload, args.seed,
                               threads=None if mode == "fleet" else threads, store=store)
            what = "%s repetition %d" % (mode, len(traced if mode == "trace" else untraced) + 1)
            check_tallies(result, expected, problems, what)
            if fleet and store_entries(store) != snapshot:
                problems.append(what + ": the warm store was re-persisted")
            if mode == "trace":
                if not result["replica_match"]:
                    problems.append(what + ": replica differs: " + result["replica_mismatch"])
                traced.append(result)
            else:
                untraced.append(result)
    return untraced, traced


def bench_workload(workload, args):
    """Measures one workload; prints its metrics, writes its record and
    returns (attempted, failed, metrics, problems)."""
    child = Child(time.monotonic() + BUDGET_S)
    nproc = len(os.sched_getaffinity(0))
    threads = min(POOL_THREADS, nproc)
    expected = oracle_tallies(child, workload, args.seed, nproc)

    problems = []
    store = None
    snapshot = None
    try:
        if workload == "fleet-warm":
            store = tempfile.mkdtemp(prefix="store-", dir=BUILD_DIR)
            child.run("fill", workload, args.seed, threads=nproc, store=store)
            snapshot = store_entries(store)
        untraced, traced = measure(workload, args, child, threads, store, snapshot,
                                   expected, problems)
    finally:
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)

    config = untraced[0]
    attempted = sum(rep["planned_runs"] for rep in untraced)
    failed = sum(rep["failed_runs"] for rep in untraced)
    failed_run_share = failed / attempted
    medians = {key: statistics.median(rep["metrics"][key] for rep in untraced)
               for key in END_TO_END_UNITS}
    if failed:
        problems.append("%d of %d planned runs produced no outcome" % (failed, attempted))

    if args.trace:
        per_layer = {}
        for key in traced[0]["per_layer"]:
            per_layer[key] = statistics.median(t["per_layer"][key] for t in traced)
        per_layer["trace_overhead"] = (statistics.median(t["traced_runs_per_s"] for t in traced)
                                       / medians["runs_per_s"])
        per_layer["failed_run_share"] = failed_run_share
        metrics = {key: {"value": value, "unit": unit_of(key)}
                   for key, value in sorted(per_layer.items())}
    else:
        metrics = {key: {"value": medians[key], "unit": unit}
                   for key, unit in END_TO_END_UNITS.items()}

    print("campaign_bench %s seed=%d nproc=%d threads=%s workers=%d runs_per_cell=%d reps=%d"
          % (workload, args.seed, config["nproc"],
             "-" if workload == "fleet-warm" else threads,
             config["workers"], config["runs_per_cell"], len(untraced)))
    for key, unit in END_TO_END_UNITS.items():
        print("  %-18s %14.6f %s" % (key, medians[key], unit))
    print("  %-18s %14.6f %s" % ("failed_run_share", failed_run_share, "ratio"))
    if args.trace:
        for key, entry in metrics.items():
            print("  %-40s %16.6f %s" % (key, entry["value"], entry["unit"]))
    for problem in problems:
        print("CHECK FAILED: " + problem)

    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": config["nproc"],
        "pool_threads": None if workload == "fleet-warm" else threads,
        "workers": config["workers"],
        "unit_runs": config["unit_runs"],
        "runs_per_cell": config["runs_per_cell"],
        "git_revision": source_revision(),
        "source_sha256": source_digest(),
        "repetitions": [dict(rep["metrics"], planned_runs=rep["planned_runs"],
                             failed_runs=rep["failed_runs"]) for rep in untraced],
        "failed_run_share": failed_run_share,
        "problems": problems,
        "metrics": metrics,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json"
                           % (workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    return attempted, failed, metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.workload != "all":
        attempted, failed, metrics, problems = bench_workload(args.workload, args)
    else:
        # Every workload in turn; metric names are prefixed with the workload.
        attempted, failed, metrics, problems = 0, 0, {}, []
        for workload in WORKLOADS:
            a, f, m, p = bench_workload(workload, args)
            attempted += a
            failed += f
            metrics.update({workload + "." + key: value for key, value in m.items()})
            problems += [workload + ": " + problem for problem in p]
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not problems else 1


def unit_of(key):
    if key.endswith(".calls") or key.startswith("dist.frames.") or key in (
            "vfs.chunk_detaches", "core.arena_slabs_allocated", "vfs.sectors_faulted",
            "vfs.crc_detected", "dist.units_regranted"):
        return "count"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_us"):
        return "us"
    if key in ("core.checkpoint_bytes", "vfs.cow_bytes_per_run", "dist.wire_bytes_per_run"):
        return "B"
    return "ratio"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("campaign_bench: " + str(e))
        sys.exit(1)
