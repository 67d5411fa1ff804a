"""braidforge benchmark: time to verdict for CLI jobs over generated documents.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 10 --trace 0

Each job is one in-process call to ``braidforge.cli.main(argv)`` on
documents this benchmark wrote; its output is checked against the
expectation `oracle` computed.  Jobs run as a closed loop from one
client: whole rounds of the workload's jobs, one after another, until
``--seconds`` have passed.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` then replays one round with spans around
braidforge's public functions and prints the per-layer metrics instead.  The
last line of stdout is one JSON object; a summary goes to stderr.

The end-to-end times are quoted at a fixed reference speed of the
machine.  Every `SAMPLE_EVERY_S` the run times a fixed snippet shaped
like a small job that does not touch braidforge (`Speedometer`); each job's wall
time is multiplied by `REFERENCE_S` over the snippet's time around that
job.  On a shared host whose speed drifts, this removes the drift and
keeps every change to braidforge's own cost.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics with their units
END_TO_END = [
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 15
#: jobs of a round run during each set-up, to warm caches and lazy state
WARMUP_JOBS = 4
#: the reference snippet's time, in seconds, at the speed end-to-end times are quoted at
REFERENCE_S = 0.001
#: documents the reference snippet reads and prints per timing
REFERENCE_REPEATS = 10
#: seconds between two samples of the machine's speed
SAMPLE_EVERY_S = 0.1
#: the samples within this many seconds of a job, on either side, give its speed
SPEED_WINDOW_S = 1.0
WORK_ROOT = ".bench_work"
SPAN_ROOT = ".bench_spans"


def import_program():
    """A fresh import of braidforge; returns ``cli.main``."""
    for name in [n for n in sys.modules if n == "braidforge" or n.startswith("braidforge.")]:
        del sys.modules[name]
    return importlib.import_module("braidforge.cli").main


def run_job(main, job, round_index):
    """(seconds, mismatch or None, stdout) of one job; runs its after-hook on success."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(job.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    try:
        doc = json.loads(text) if text else None
    except ValueError:
        doc = None
    problem = workloads.mismatch(job, code, doc)
    if problem is None and job.after is not None:
        job.after(text, round_index)
    return elapsed, problem, text


class Speedometer:
    """Samples of the machine's speed: the median of three timings of a
    fixed snippet shaped like a small job, which reads a JSON document from
    a file, parses it and prints it again to a captured stdout.  The median
    tracks the jobs' slowdown better than the best timing, which catches
    quiet moments a longer job does not get."""

    def __init__(self, workdir):
        rng = random.Random(0)
        entries = [[i, rng.randrange(64), f"{rng.randrange(-9, 10)}/{rng.randrange(1, 10)}"] for i in range(64)]
        doc = {"kind": "operator", "scalars": "exact", "shape": [4, 4, 4], "entries": entries}
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, "reference.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.samples = []  # (perf_counter, seconds)
        self.spent_s = 0.0
        self.last = -math.inf

    def reference(self):
        for _ in range(REFERENCE_REPEATS):
            with open(self.path, encoding="utf-8") as fh:
                doc = json.load(fh)
            with contextlib.redirect_stdout(io.StringIO()):
                print(json.dumps(doc))

    def sample(self):
        start = time.perf_counter()
        timings = []
        for _ in range(3):
            t = time.perf_counter()
            self.reference()
            timings.append(time.perf_counter() - t)
        self.last = time.perf_counter()
        self.samples.append((self.last, statistics.median(timings)))
        self.spent_s += self.last - start

    def maybe_sample(self):
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, end):
        """REFERENCE_S over the snippet's median time within SPEED_WINDOW_S of [start, end].
        A sample precedes every job by less than SAMPLE_EVERY_S, so there is one."""
        near = [s for t, s in self.samples if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        return REFERENCE_S / statistics.median(near)


class Phase:
    """Job times and failures of one pass over the rounds, and the first round's outputs."""

    def __init__(self):
        self.times = []
        self.spans = []  # (start, end) of each job
        self.failures = []
        self.outputs = []
        self.rounds = 0
        self.wall_s = 0.0

    def scaled_times(self, speed):
        return [t * speed.factor(a, b) for t, (a, b) in zip(self.times, self.spans)]


def run_rounds(main, rnd, seconds, tracer=None, speed=None):
    """Whole rounds, at least one, until `seconds` have passed.  With `speed`
    the machine's speed is sampled between jobs, and `wall_s` leaves that out."""
    phase = Phase()
    start = time.perf_counter()
    spent = speed.spent_s if speed is not None else 0.0
    while True:
        for job in rnd.jobs:
            if tracer is not None:
                tracer.job = len(phase.times)
            if speed is not None:
                speed.maybe_sample()
            began = time.perf_counter()
            elapsed, problem, text = run_job(main, job, phase.rounds)
            phase.times.append(elapsed)
            phase.spans.append((began, began + elapsed))
            if phase.rounds == 0:
                phase.outputs.append(text)
            if problem is not None:
                phase.failures.append(f"{job.label}: {problem}")
        phase.rounds += 1
        phase.wall_s = time.perf_counter() - start
        if speed is not None:
            phase.wall_s -= speed.spent_s - spent
        if phase.wall_s >= seconds:
            if speed is not None:
                speed.sample()  # the last jobs' speed
            return phase


def _strip_elapsed(value):
    if isinstance(value, dict):
        return {k: _strip_elapsed(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_strip_elapsed(v) for v in value]
    return value


def normalized(text):
    try:
        return json.dumps(_strip_elapsed(json.loads(text)), sort_keys=True)
    except ValueError:
        return text


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup(rnd, speed):
    """Import braidforge, write the inputs and warm up; returns (cli.main, seconds
    at the reference speed)."""
    speed.sample()
    start = time.perf_counter()
    main = import_program()
    rnd.write()
    for job in rnd.jobs[:WARMUP_JOBS]:
        run_job(main, job, -1)
    end = time.perf_counter()
    speed.sample()
    return main, (end - start) * speed.factor(start, end)


def execute(name, seed, seconds, trace, tiny=False, corrupt=False):
    """One benchmark run; returns the result object."""
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    try:
        start = time.perf_counter()
        rnd = workloads.WORKLOADS[name](seed, workdir, tiny)
        oracle_s = time.perf_counter() - start
        speed = Speedometer(workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            main, took = setup(rnd, speed)
            setups.append(took)
        if corrupt:  # flip one verdict that no after-hook rewrites
            job = next(j for j in rnd.jobs if "holds" in j.expect)
            job.expect["holds"] = not job.expect["holds"]
        # the collector skips the benchmark's own objects, as it would in a CLI process
        gc.collect()
        gc.freeze()
        plain = run_rounds(main, rnd, seconds, speed=speed)
        failures = list(plain.failures)
        attempted = len(plain.times)
        if trace:
            # replay one round with spans; compare against the first round's untraced outputs
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_main = sys.modules["braidforge.cli"].main
                traced = run_rounds(traced_main, rnd, 0, tracer)
            finally:
                tracer.uninstall()
            attempted += len(traced.times)
            failures += traced.failures
            for i, (a, b) in enumerate(zip(plain.outputs, traced.outputs)):
                if normalized(a) != normalized(b):
                    failures.append(f"{rnd.jobs[i].label}: traced output differs from the untraced one")
            values = tracer.layer_metrics(traced.wall_s, plain.wall_s / plain.rounds, len(traced.times))
            metrics = {n: {"value": values[n], "unit": u} for n, u in spans.metric_names()}
            os.makedirs(SPAN_ROOT, exist_ok=True)
            tracer.dump(os.path.join(SPAN_ROOT, f"{name}-{seed}.jsonl"))
        else:
            scaled = plain.scaled_times(speed)
            values = {
                "jobs_per_s": len(scaled) / sum(scaled),
                "job_p50_ms": percentile(scaled, 0.5) * 1000.0,
                "job_p90_ms": percentile(scaled, 0.9) * 1000.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": statistics.median(setups),
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{name} seed={seed}: {len(plain.times)} jobs in {plain.rounds} rounds, "
        f"{plain.wall_s:.2f} s; {len(failures)} failed; oracle {oracle_s:.2f} s; "
        f"unscaled wall p50 {percentile(plain.times, 0.5) * 1000.0:.2f} ms, "
        f"p90 {percentile(plain.times, 0.9) * 1000.0:.2f} ms; "
        f"reference snippet median {statistics.median(s for _, s in speed.samples) * 1000.0:.3f} ms "
        f"over {len(speed.samples)} samples",
        file=sys.stderr,
    )
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "braidforge", "cli.py")):
        print("error: src/braidforge not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    result = execute(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
