"""monogen benchmark: drive the CLI in-process over one seeded workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up runs gen.py in a subprocess (inputs plus independently computed
answers) and times cold start in fresh interpreters.  The run then calls
``monogen.cli.main(argv)`` for one job at a time with stdout captured: a
closed loop with one client, in one process and one thread.  It repeats
whole passes over the workload's fixed job list until S seconds have gone
by, and checks every output.

The last line of stdout is the result JSON.  With ``--trace 0`` it holds the
end-to-end metrics; with ``--trace 1`` passes alternate untraced and traced,
and it holds the per-layer metrics of the traced passes.  The line before
it is a report: machine facts, input hash, sample counts, per-class
latencies and, when tracing, the trace accounting.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check  # noqa: E402
from gen import WORKLOADS  # noqa: E402

# Cold starts, spread over the run (one before the first pass, one after a
# pass whenever another ninth of the time has gone by, the rest at the end)
# so that set-up time sees the same machine states as the passes.
SETUP_SAMPLES = 9
# A run times at least this many jobs, in whole passes.
MIN_JOBS = 100
CHILD_TIMEOUT = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description="monogen benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_child(args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=CHILD_TIMEOUT
    )
    if proc.returncode != 0:
        raise SystemExit(f"{args[0]} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def input_hash(work: Path, doc):
    h = hashlib.sha256(json.dumps(doc["jobs"], sort_keys=True).encode())
    for path in sorted((work / "inputs").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cold_start_seconds(src: Path, work: Path, jobs):
    inputs = sorted({str(work / "inputs" / j["input"]) for j in jobs if j["input"]})
    return float(run_child([str(HERE / "coldstart.py"), str(src), *inputs]))


def import_monogen(src: Path):
    sys.path.insert(0, str(src))
    import monogen
    import monogen.cli

    if Path(monogen.__file__).resolve().parent != (src / "monogen").resolve():
        raise SystemExit(f"imported monogen from {monogen.__file__}, not from {src}")
    return monogen.cli


class Runner:
    """Runs passes over the job list, timing each job and checking its output."""

    def __init__(self, cli, work: Path, jobs):
        self.cli = cli
        self.jobs = jobs
        self.argvs = [
            [j["cmd"], *([str(work / "inputs" / j["input"])] if j["input"] else []), *j["args"]]
            for j in jobs
        ]
        self.outputs = {}  # job index -> stdout of its first run
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = defaultdict(int)  # reason -> count

    def run_pass(self, tracer=None):
        """Returns the per-job latencies in seconds."""
        latencies = []
        for i, argv in enumerate(self.argvs):
            out, err = io.StringIO(), io.StringIO()
            error = None
            if tracer is not None:
                tracer.begin_job()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a raising job is a failed job, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            self._account(i, rc, error, out.getvalue(), err.getvalue())
        return latencies

    def _account(self, i, rc, error, stdout, stderr):
        self.attempted += 1
        job = self.jobs[i]
        if error is None and rc not in (0, None):
            error = f"exit {rc}: {stderr.strip()[:200]}"
        if error is None:
            first = self.outputs.setdefault(i, stdout)
            if first != stdout:
                error = "output differs from the first pass"
            else:
                try:
                    error = check(job["check"], stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error is not None:
                self.wrong += 1
        if error is not None:
            self.failed += 1
            self.failures[f"{job['class']}: {error.splitlines()[0][:160]}"] += 1


def declared_units():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def percentile(values, q):
    """q-th percentile, linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_facts():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


def measure(runner, seconds, trace, cold_start):
    """Whole passes that fit in `seconds`; tracing alternates passes.

    Returns the tracer, the pass times by traced or not, the job latencies
    of each untraced pass and the set-up samples taken by `cold_start()`.
    """
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    walls = {False: [], True: []}
    passes = []
    start = time.perf_counter()
    setup = [cold_start()]
    k = 0
    while (
        k < (2 if trace else 1)
        or (not trace and len(passes) * len(runner.jobs) < MIN_JOBS)
        # start another pass only if it should end within the time budget
        or (time.perf_counter() - start) * (k + 1) / k <= seconds
    ):
        traced = bool(trace) and k % 2 == 1
        if traced:
            tracer.install()
        try:
            lat = runner.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(lat))
        if not traced:
            passes.append(lat)
        k += 1
        if (len(setup) < SETUP_SAMPLES
                and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES):
            setup.append(cold_start())
    setup += [cold_start() for _ in range(SETUP_SAMPLES - len(setup))]
    return tracer, walls, passes, setup


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "monogen" / "__init__.py").is_file():
        print(f"no monogen sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    phases = [("start", time.perf_counter())]
    try:
        run_child([str(HERE / "gen.py"), "--workload", args.workload, "--seed",
                   str(args.seed), "--out", str(work), "--src", str(src)])
        doc = json.loads((work / "jobs.json").read_text(encoding="utf-8"))
        jobs = doc["jobs"]
        digest = input_hash(work, doc)
        phases.append(("gen", time.perf_counter()))
        runner = Runner(import_monogen(src), work, jobs)
        tracer, walls, passes, setup = measure(
            runner, args.seconds, args.trace, lambda: cold_start_seconds(src, work, jobs)
        )
        phases.append(("measure", time.perf_counter()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    # A job's latency is its mean over the run's passes.  Passes run at
    # different machine speeds; percentiles of the pooled samples jump with
    # how many of the slow jobs happened to run in a fast phase, while
    # per-job means move only with the run's average speed, as wall_s does.
    job_latency = [statistics.mean(ts) for ts in zip(*passes)]
    by_class = defaultdict(list)
    for job, t in zip(jobs, job_latency):
        by_class[job["class"]].append(t)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "input_sha256": digest,
        "machine": machine_facts(),
        "jobs_per_pass": len(jobs),
        "pass_s": walls[False],
        "traced_pass_s": walls[True],
        "latency_samples": len(passes) * len(jobs),
        "setup_samples_s": setup,
        "class_median_ms": {
            c: round(1000 * statistics.median(v), 3) for c, v in sorted(by_class.items())
        },
        "failures": dict(runner.failures),
        "phase_s": {b[0]: round(b[1] - a[1], 3) for a, b in zip(phases, phases[1:])},
    }
    if args.trace:
        traced, untraced = statistics.median(walls[True]), statistics.median(walls[False])
        report["trace"] = {
            "overhead_s": traced - untraced,
            "untraced_wall_s": untraced,
            "traced_wall_s": traced,
            "uncovered_frac": 1 - tracer.root_time / sum(walls[True]),
            "bindings": len(tracer.bound),
        }
        values = tracer.metrics(len(walls[True]))
    else:
        values = {
            "setup_s": statistics.median(setup),
            # the mean pass, not the median: over short passes the median flips
            # between the machine's fast and slow phases, the mean averages them
            "wall_s": statistics.mean(walls[False]),
            "job_p50_ms": 1000 * statistics.median(job_latency),
            "job_p90_ms": 1000 * percentile(job_latency, 90),
            "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    units = declared_units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
