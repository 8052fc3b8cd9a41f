#!/usr/bin/env python3
"""End-to-end benchmark of the lockdown pipeline.

One run measures one workload on a simulated campus made from --seed:

    python3 e2ebench/run.py --workload collect --seed 2020 --seconds 20 --trace 0

It builds lockdown_e2e (e2ebench/CMakeLists.txt) into .bench_build/, runs the
workload's set-up and its timed job, each in a process of its own, checks the
outputs, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones of a traced run.

    python3 e2ebench/run.py --report [--seed N]   # every workload, one table
    python3 e2ebench/run.py --selfcheck           # small-scale check of this file

See e2ebench/README.md for the workloads, metrics and how to read a trace.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "lockdown_e2e")

WORKLOADS = ("collect", "analyze", "ingest")
STUDENTS = 400
THREADS = min(4, os.cpu_count() or 1)
# Campuses per run; setup_s is the median over all their set-ups.
CAMPUSES = 3
CAMPUS_STRIDE = 1000003  # campus i of a run has seed `seed + i * CAMPUS_STRIDE`
# Set-ups per campus before the jobs, each in its own process. The host's
# speed swings by up to a third within seconds, so one set-up per campus gives
# too few samples. collect's set-up feeds no job, so it runs before each job
# instead: spread over the run, its samples see the jobs' mix of speeds.
SETUPS_PER_CAMPUS = {"collect": 0, "analyze": 2, "ingest": 2}
# analyze loads a snapshot many times once it is written, so one untimed job
# runs first: the first load after the set-up is slower than every later one.
# ingest reads its logs once, as a real ingest does, so its first job counts.
WARMUP_JOBS = {"collect": 0, "analyze": 1, "ingest": 0}
CHILD_TIMEOUT_S = 170
# Kept flows and retained devices of seed 2020, as recorded when the
# benchmark was written; a run on one of these campuses must reproduce them.
PINNED = {
    (400, 2020): {"kept_flows": 1508540, "devices": 1265},
    (1200, 2020): {"kept_flows": 4354167, "devices": 3732},
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
    "load_s": "s", "batch_s": "s", "stream_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build -----------------------------------------------------------------------

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j", str(THREADS),
                  "--target", "lockdown_e2e"])
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=880).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build failed: {e}")
            if rc != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd[:2])}):\n{tail}")


# --- Child processes ---------------------------------------------------------------

def run_binary(args, work):
    """Runs lockdown_e2e; returns (its last-line JSON, its peak RSS in MiB, its
    elapsed seconds)."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    start = time.monotonic()
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen([BINARY] + args, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(err_path) as f:
            raise BenchError(f"lockdown_e2e {' '.join(args[:2])} exited {proc.returncode}: "
                             f"{f.read()[-2000:]}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0, elapsed


def config_args(work, seed, students):
    return ["--work", work, "--seed", str(seed), "--students", str(students),
            "--threads", str(THREADS)]


# --- Checks ----------------------------------------------------------------------

class Checks:
    """Operations attempted and failed across every process of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, result):
        ops = result["ops"]
        self.attempted += int(ops["attempted"])
        self.failed += int(ops["failed"])
        self.failures += ops["failures"]

    def mismatch(self, what):
        self.failed += 1
        self.failures.append(what)

    def figures(self, got, want, what):
        """One failure per figure call whose digest differs from the reference."""
        for name, digest in want.items():
            if name in got and got[name] != digest:
                self.mismatch(f"{what}: {name} digest {got[name]} != {digest}")


# --- One run -----------------------------------------------------------------------

def campus_seeds(seed, count):
    """The campuses one run measures: the seed's own and derived ones, so one
    run's medians do not rest on the size of a single simulated campus."""
    return [seed + i * CAMPUS_STRIDE for i in range(count)]


def campus_dir(work, seed):
    path = os.path.join(work, f"campus{seed}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_once(workload, work, seed, students, checks, reference=False):
    cwork = campus_dir(work, seed)
    result, _, _ = run_binary(["setup", workload] + config_args(cwork, seed, students)
                              + (["--reference"] if reference else []), cwork)
    checks.add(result)
    return result


def setup(workload, work, seeds, students, checks):
    """SETUPS_PER_CAMPUS set-ups per campus. Returns their times in seconds
    and, per campus seed, the collect path's figures that the first analyze
    or ingest set-up of the campus computes untimed: the reference for this
    run's jobs."""
    seconds, refs = [], {}
    for seed in seeds:
        for i in range(SETUPS_PER_CAMPUS[workload]):
            result = setup_once(workload, work, seed, students, checks, reference=i == 0)
            seconds.append(result["setup_s"])
            if "figures" in result:
                refs[seed] = result["figures"]
    return seconds, refs


def check_job(job, checks, students, seed, refs, first):
    """Checks one job against its campus's reference from this run's set-up
    (collect has none: its jobs are the collect path), against the campus's
    first job in this run, and, for a pinned campus, its kept flows and
    devices."""
    if seed in refs:
        checks.figures(job["figures"], refs[seed], f"{job['workload']} vs collect path")
    if first.setdefault(seed, job["figures"]) != job["figures"]:
        checks.mismatch(f"{job['workload']}: figures differ between repeated jobs")
    for key, want in PINNED.get((students, seed), {}).items():
        if int(job[key]) != want:
            checks.mismatch(f"{job['workload']}: {key} {int(job[key])} != {want}")


def run_jobs(workload, work, seeds, students, seconds, checks, refs, first, setup_s):
    """Repeats the timed job, one process each and cycling over the campuses,
    until its processes have run for `seconds` (at least one job). collect's
    set-up runs before each job; its times go to `setup_s`."""
    args = lambda seed: ["job", workload] + config_args(campus_dir(work, seed), seed, students)
    for _ in range(WARMUP_JOBS[workload]):
        job, _, _ = run_binary(args(seeds[0]), campus_dir(work, seeds[0]))
        checks.add(job)
        check_job(job, checks, students, seeds[0], refs, first)
    jobs, rss, measured = [], [], 0.0
    while not jobs or measured < seconds:
        seed = seeds[len(jobs) % len(seeds)]
        if workload == "collect":
            setup_s.append(setup_once(workload, work, seed, students, checks)["setup_s"])
        job, peak, elapsed = run_binary(args(seed), campus_dir(work, seed))
        checks.add(job)
        check_job(job, checks, students, seed, refs, first)
        jobs.append(job)
        rss.append(peak)
        measured += elapsed
    return jobs, rss


def run_workload(workload, seed, seconds, trace, students=STUDENTS):
    """Returns (checks, metrics, manifest) for one run."""
    checks = Checks()
    work = os.path.join(BUILD_DIR, "work", f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    seeds = campus_seeds(seed, 1 if trace else CAMPUSES)
    first = {}
    try:
        setup_s, refs = setup(workload, work, seeds, students, checks)
        jobs, rss = run_jobs(workload, work, seeds, students, 0 if trace else seconds,
                             checks, refs, first, setup_s)
        if trace:
            trace_out = os.path.join(BUILD_DIR, "runs", f"trace-{workload}-seed{seed}.json")
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            cwork = campus_dir(work, seed)
            traced, _, _ = run_binary(["trace", workload] + config_args(cwork, seed, students)
                                   + ["--trace-out", trace_out], cwork)
            checks.add(traced)
            check_job(traced, checks, students, seed, refs, first)
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = {"value": traced["wall_s"] - jobs[0]["wall_s"],
                                           "unit": "s"}
        else:
            med = lambda key: statistics.median(j[key] for j in jobs)
            values = {"wall_s": med("wall_s"), "setup_s": statistics.median(setup_s),
                      "peak_rss_mib": statistics.median(rss), "load_s": med("load_s"),
                      "batch_s": med("batch_s"), "stream_s": med("stream_s")}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        manifest = dict(jobs[0]["manifest"], seed=seed, campus_seeds=seeds, workload=workload,
                        trace=trace, jobs=len(jobs), setups=len(setup_s),
                        batch_digest=jobs[0]["batch_digest"],
                        **host_manifest())
        return checks, metrics, manifest
    finally:
        shutil.rmtree(work, ignore_errors=True)


# --- Manifest ------------------------------------------------------------------------

def host_manifest():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "tree_digest": tree_digest()}


def tree_digest():
    """SHA-256 over the program and benchmark sources: names the code a run
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


# --- Modes ---------------------------------------------------------------------------

def single_run(args):
    build()
    checks, metrics, manifest = run_workload(args.workload, args.seed, args.seconds,
                                             args.trace, args.students)
    record = {"manifest": manifest, "attempted": checks.attempted, "failed": checks.failed,
              "failures": checks.failures, "metrics": metrics}
    runs = os.path.join(BUILD_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    with open(os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)
    for failure in checks.failures:
        log(f"FAILED: {failure}")
    print(json.dumps({"manifest": manifest}))
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def report(args):
    """Every workload, untraced then traced: one table of every metric."""
    build()
    rows, doc = [], {"runs": []}
    for workload in WORKLOADS:
        for trace in (0, 1):
            checks, metrics, manifest = run_workload(workload, args.seed, args.seconds,
                                                     trace, args.students)
            doc["runs"].append({"manifest": manifest, "attempted": checks.attempted,
                                "failed": checks.failed, "failures": checks.failures,
                                "metrics": metrics})
            if trace == 0:
                rows.append((workload, "ops", checks.attempted, "count"))
                rows.append((workload, "ops_failed", checks.failed, "count"))
            for name, m in metrics.items():
                rows.append((workload, name, m["value"], m["unit"]))
    doc["manifest"] = {k: v for k, v in doc["runs"][0]["manifest"].items()
                       if k not in ("workload", "trace", "runs", "setups")}
    print(json.dumps(doc["manifest"]))
    for workload, name, value, unit in rows:
        print(f"{workload:8} {name:30} {value:>16.6g} {unit}")
    out = args.out or os.path.join(BUILD_DIR, "report.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=1)
    log(f"report written to {out}")
    return 0 if all(r["failed"] == 0 for r in doc["runs"]) else 1


def selfcheck(args):
    """Small campus: every named metric emitted with its unit, no failed
    operation, one figure digest on all three workloads, and trace spans
    covering at least 90% of each traced job."""
    build()
    want = spec()
    problems, digests = [], {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            checks, metrics, manifest = run_workload(workload, args.seed, 1, trace,
                                                     args.students)
            digests.setdefault(manifest["batch_digest"], []).append(f"{workload}/{trace}")
            if checks.failed:
                problems.append(f"{workload} trace={trace}: {checks.failures}")
            for m in want[key]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or "
                                    f"not in {m['unit']}: {got}")
            extra = set(metrics) - {m["name"] for m in want[key]}
            if extra:
                problems.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")
            if trace and metrics.get("trace.coverage", {}).get("value", 0) < 0.9:
                problems.append(f"{workload}: trace.coverage {metrics['trace.coverage']}")
            log(f"selfcheck {workload} trace={trace}: {checks.attempted} ops, "
                f"{checks.failed} failed")
    if len(digests) != 1:
        problems.append(f"batch figure digests differ between workloads: {digests}")
    for p in problems:
        print(f"SELFCHECK FAIL: {p}")
    print("SELFCHECK PASS" if not problems else f"SELFCHECK FAIL ({len(problems)})")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--students", type=int, default=None)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="--report: where to write the JSON report")
    args = parser.parse_args()
    if args.students is None:
        args.students = 50 if args.selfcheck else STUDENTS
    try:
        if args.selfcheck:
            return selfcheck(args)
        if args.report:
            return report(args)
        if args.workload is None:
            parser.error("--workload, --report or --selfcheck is required")
        return single_run(args)
    except BenchError as e:
        log(f"e2ebench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
