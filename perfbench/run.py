#!/usr/bin/env python3
"""Benchmark of the branchalg CLI: seeded workloads run end to end, in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tree|finite|enumerate --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client runs the workload's jobs back to back (a closed loop) through
``branchalg.cli.main(argv)``, with stdout captured and checked against the
expected output.  The seed only chooses the inputs; every pass of a run
repeats the same job list.

With ``--trace 0`` it runs ``round(S / PASS_SECONDS[workload])`` passes (at
least two; ``PASS_SECONDS`` in ``workloads.py``), which takes about ``S``
seconds, and reports the end-to-end metrics:

- ``wall_s``: the job list back to back, each job at its fastest pass, in
  calibrated seconds (below); the uncalibrated times are printed as well;
- ``setup_s``: median over five fresh processes of the time from process
  start through imports and input generation to the first job, in
  calibrated seconds.  The probes run between jobs, spread over the run;
- ``peak_rss_mb``: peak resident set of the measuring process.

Calibrated seconds: the host this was built on runs the same code up to 2x
slower for tens of seconds at a time, as other machines' load comes and
goes, so no reading taken within one run escapes a slow phase that covers
it.  A fixed pure-Python loop is timed before every job and around every
set-up probe, and each time is scaled by ``REFERENCE_S`` over the loop's
median time around that moment: the time the work would have taken with
the host at its reference speed.

With ``--trace 1`` it runs one pass untraced and the same pass again with
every layer wrapped (see ``tracing.py``), and reports the per-layer metrics,
the tracing overhead (the difference of the two passes in calibrated
seconds) among them.  ``--workload all`` runs each workload in
its own process.  The harness self-test is ``python3 -m pytest perfbench``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 2 means the program
could not be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 25  # BENCHMARK.json's run_seconds
SETUP_PROBES = 5
MIN_PASSES = 2
RUN_LIMIT_S = 150  # never start a pass expected to end after this
REFERENCE_LOOPS = 30_000
REFERENCE_S = 0.002  # the loop's usual time on the 2-core Xeon VM the benchmark was built on
REFERENCE_WINDOW = 4  # readings on each side of a moment that give the host's speed then

# (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's reading compares with ours.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_program():
    src = ROOT / "src"
    if not (src / "branchalg" / "cli.py").is_file():
        print(f"error: no branchalg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    os.environ["BRANCHALG_KERNEL"] = "numpy"  # the one backend measured here
    from branchalg import cli  # noqa: F401


def _workdir(workload: str, seed: int) -> Path:
    return ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"


def run_jobs(jobs, tracer=None, before_job=None) -> tuple[float, list]:
    """Run jobs back to back; return the summed job time and per-job records
    (kind, seconds, error or None).  Outputs are checked after the pass;
    ``before_job()``, if given, runs untimed before each job."""
    from branchalg import cli

    raw = []
    for index, job in enumerate(jobs):
        if before_job is not None:
            before_job()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(job.argv)
                else:
                    rc = tracer.job_span(job.kind, lambda: cli.main(job.argv))
            exc = None
        except Exception as e:  # a crash fails the job, not the benchmark
            rc, exc = None, e
        raw.append((time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), exc))
    records = []
    for job, (dt, rc, out, err, exc) in zip(jobs, raw):
        if exc is not None:
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            error = job.check(rc, out)
            if error and err.strip():
                error += f" (stderr: {err.strip()})"
        records.append((job.kind, dt, error))
    return sum(dt for _, dt, _ in records), records


def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    """Child process of ``SetupProbes``: import, build the first pass's
    inputs, print the clock and exit."""
    _import_program()
    from workloads import Inputs

    workdir = _workdir(workload, seed)
    try:
        Inputs(workload, workdir, tiny).jobs(seed)
        print(repr(_clock()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class HostSpeed:
    """Readings of the reference loop, in the order they were taken."""

    def __init__(self):
        self.readings: list[float] = []

    def read(self) -> int:
        """Time the reference loop once; return the reading's index."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        self.readings.append(time.perf_counter() - t0)
        return len(self.readings) - 1

    def scale(self, k: int) -> float:
        """Factor that turns a time measured between readings ``k`` and
        ``k + 1`` into calibrated seconds."""
        lo = max(0, k - REFERENCE_WINDOW)
        return REFERENCE_S / statistics.median(self.readings[lo:k + 2 + REFERENCE_WINDOW])


class SetupProbes:
    """Start-to-first-job times of fresh processes, one at a time, each
    between two readings of ``speed``.  ``poll`` takes one when ``spacing``
    seconds have passed since the last, so the probes meet the host at
    different moments of the run; ``finish`` takes whatever is still missing
    and returns the (raw, calibrated) times."""

    def __init__(self, workload: str, seed: int, tiny: bool, speed: HostSpeed,
                 spacing: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        if tiny:
            self.argv.append("--tiny")
        self.speed = speed
        self.spacing = spacing
        self.taken: list[tuple[float, int]] = []  # (seconds, reading before)
        self._next = 0.0

    def _probe(self) -> None:
        k = self.speed.read()
        t0 = _clock()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.taken.append((float(proc.stdout.split()[-1]) - t0, k))
        self._next = _clock() + self.spacing

    def poll(self) -> None:
        if len(self.taken) < SETUP_PROBES and _clock() >= self._next:
            self._probe()

    def finish(self) -> tuple[list[float], list[float]]:
        while len(self.taken) < SETUP_PROBES:
            self._probe()
            self.speed.read()
        return ([t for t, _ in self.taken],
                [t * self.speed.scale(k) for t, k in self.taken])


def timed_pass(jobs, speed: HostSpeed, tracer=None, poll=None) -> tuple[float, list, list[int]]:
    """One pass over ``jobs`` with a reading of ``speed`` before each job
    (after ``poll()``, if given).  Return the pass as ``run_jobs`` gives it
    and the index of the reading taken before each job; once a reading has
    followed the last job, ``calibrated`` turns the job times into
    calibrated seconds."""
    marks: list[int] = []

    def before_job():
        if poll is not None:
            poll()
        marks.append(speed.read())

    wall, records = run_jobs(jobs, tracer, before_job)
    return wall, records, marks


def calibrated(speed: HostSpeed, records, marks) -> list[float]:
    return [dt * speed.scale(k) for (_, dt, _), k in zip(records, marks)]


def measure(jobs, n_passes: int, probes: SetupProbes) -> tuple[list, list[float]]:
    """Untraced passes over ``jobs``, taking set-up probes between jobs.
    Return the passes, as ``run_jobs`` gives them, and each job's fastest
    calibrated time."""
    speed = probes.speed
    runs = []
    start = time.perf_counter()
    while len(runs) < n_passes:
        runs.append(timed_pass(jobs, speed, poll=probes.poll))
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_PASSES and elapsed + runs[-1][0] > RUN_LIMIT_S:
            break
    speed.read()
    best = [min(times) for times in zip(*(calibrated(speed, r, m) for _, r, m in runs))]
    return [(wall, records) for wall, records, _ in runs], best


def _kinds(records) -> str:
    """Seconds per CLI subcommand (``suite_s``, ``check_law_s``, ...), summed
    over the given job records."""
    out: dict[str, float] = {}
    for kind, dt, _ in records:
        key = kind.replace("-", "_") + "_s"
        out[key] = out.get(key, 0.0) + dt
    return " ".join(f"{k}={v:.4f} s" for k, v in out.items())


def run_workload(args) -> dict:
    _import_program()
    from workloads import PASS_SECONDS, Inputs

    workdir = _workdir(args.workload, args.seed)
    passes = []  # (wall, records) per pass
    try:
        jobs = Inputs(args.workload, workdir, args.tiny).jobs(args.seed)
        if args.trace:
            from tracing import PER_LAYER, Tracer

            speed = HostSpeed()
            runs = [timed_pass(jobs, speed)]
            tracer = Tracer()
            tracer.install()
            try:
                runs.append(timed_pass(jobs, speed, tracer))
            finally:
                tracer.uninstall()
            speed.read()
            passes = [(wall, records) for wall, records, _ in runs]
            (ROOT / ".perfbench").mkdir(exist_ok=True)
            tracer.save(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.npz")
            untraced_s, traced_s = (sum(calibrated(speed, r, m)) for _, r, m in runs)
            metrics = tracer.metrics(traced_s, untraced_s)
            units = {name: unit for name, unit, _ in PER_LAYER}
            notes = [
                f"{label} pass, uncalibrated: wall_s={wall:.4f} s " + _kinds(recs)
                for label, (wall, recs) in zip(("untraced", "traced"), passes)
            ]
        else:
            pass_s = PASS_SECONDS[args.workload]
            n_passes = max(MIN_PASSES, round(args.seconds / pass_s))
            speed = HostSpeed()
            probes = SetupProbes(args.workload, args.seed, args.tiny, speed,
                                 n_passes * pass_s / SETUP_PROBES)
            passes, fastest = measure(jobs, n_passes, probes)
            raw_setups, setups = probes.finish()
            metrics = {
                "wall_s": sum(fastest),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
            walls = [w for w, _ in passes]
            raw_best = [min(recs[i][1] for _, recs in passes) for i in range(len(jobs))]
            ref = speed.readings
            notes = [
                f"uncalibrated pass wall_s over {len(walls)} passes: min={min(walls):.4f} "
                f"median={statistics.median(walls):.4f} max={max(walls):.4f} s; "
                f"each job at its fastest pass: wall_s={sum(raw_best):.4f} s",
                "each job at its fastest pass, calibrated: "
                + _kinds([(job.kind, t, None) for job, t in zip(jobs, fastest)]),
                f"reference loop over {len(ref)} readings: min={min(ref) * 1e3:.4f} "
                f"median={statistics.median(ref) * 1e3:.4f} max={max(ref) * 1e3:.4f} ms "
                f"(reference {REFERENCE_S * 1e3:g} ms)",
                "setup probes, uncalibrated: " + " ".join(f"{t:.4f}" for t in raw_setups)
                + " s; calibrated: " + " ".join(f"{t:.4f}" for t in setups) + " s",
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for _, recs in passes for r in recs]
    failed = [r for r in records if r[2] is not None]
    for kind, _, error in failed[:20]:
        print(f"FAILED {kind}: {error}")
    print(
        f"workload={args.workload} seed={args.seed} trace={int(args.trace)} "
        f"passes={len(passes)} jobs={len(records)} failed={len(failed)} "
        f"fail_ratio={len(failed) / len(records):.4f}"
    )
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Run every workload in its own process and collect the results."""
    from workloads import WORKLOADS

    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace))]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {workload} exited with {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("tree", "finite", "enumerate", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few jobs of each kind, for the harness self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
