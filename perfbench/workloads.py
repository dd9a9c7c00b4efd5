"""Seeded job lists for the three benchmark workloads, and their output checks.

A job is one CLI invocation: an argv list for ``branchalg.cli.main`` plus the
exit code and stdout it must produce.  The program only ever sees these argv
lists and the ``.ra`` files written next to them; the seed stays here.

Expected values come from ``expected.json``: the published ones (suite
relation counts, JLM profile rows, enumeration totals) and, where nothing is
published, what the unmodified program printed when the benchmark was
defined (the 3-atom element profiles and the per-structure J/L/M verdicts).
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Why each workload is in the benchmark, one line each (BENCHMARK.json carries
# these; meta.json has the longer account and the layer map).
WORKLOADS = {
    "tree": "Thompson suites and 83 J theorems sampled on the tree model: branchrel "
    "(closure engine, compose, equal/leq) and tree term evaluation do nearly all the "
    "work; compose inputs repeat a lot",
    "finite": "83 J theorems on a seeded 3-atom structure plus JLM profiles and element "
    "checks: finite term evaluation and the formula checks dominate; compose does none",
    "enumerate": "the seven table rows and the 1'abcc~ stretch row: associativity filter, "
    "isomorph rejection and AtomStructure validation do all the work; no formula checks "
    "or compose",
}

# Seconds one pass of each job list took when the benchmark was defined (2-core
# Xeon VM, numpy backend).  ``--seconds`` becomes a fixed number of passes
# through these, not a deadline: the host's speed drifts by up to 1.6x within
# seconds, and a deadline would give a slow run fewer passes to take its
# fastest times from, which makes a slow run read slower still.
PASS_SECONDS = {"tree": 6.0, "finite": 22.0, "enumerate": 1.7}

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

_PROFILE_COLS = ("JLM", "JL", "JM", "LM", "J", "L", "M", "none")
_LAW_LINE = re.compile(
    r"^LAW (?P<id>\S+) (?P<verdict>pass|fail) tested=(?P<tested>\d+)"
    r"(?: \[counterexample: (?P<ce>[^\]]*)\])?$"
)


@dataclass
class Job:
    kind: str  # the CLI subcommand: suite, check-law, check-jlm, enumerate
    argv: list[str]
    check: Callable[[int, str], str | None]  # (exit code, stdout) -> error or None


def _expect_exact(rc_want: int, text: str):
    def check(rc: int, out: str) -> str | None:
        if rc != rc_want:
            return f"exit code {rc}, expected {rc_want}"
        if out != text:
            return f"output {out!r}, expected {text!r}"
        return None

    return check


def _suite_check(sid: str, n: int):
    """One ``  <relation>: pass`` line per relation, then the summary line."""

    def check(rc: int, out: str) -> str | None:
        lines = out.splitlines()
        if rc != 0:
            return f"exit code {rc}, expected 0"
        if lines[-1:] != [f"SUITE {sid} pass relations={n} failed=[]"]:
            return f"summary {lines[-1:]!r}, expected {n} passing relations"
        body = lines[:-1]
        if len(body) != n or not all(ln.startswith("  ") and ln.endswith(": pass") for ln in body):
            return f"relation lines {body!r}, expected {n} passing"
        return None

    return check


def _profile_text(total: int, row: list[int]) -> str:
    cols = " ".join(f"fail:{c}={v}" for c, v in zip(_PROFILE_COLS, row))
    return f"total={total}\n{cols}\n"


def _jlm_line(label: str, mode: str, failed: str) -> str:
    cols = " ".join(f"{f}={'fail' if f in failed else 'pass'}" for f in "JLM")
    return f"JLM {label} mode={mode} {cols}\n"


def _law_check(law, handle, structure, tested_want: int):
    """Check a LAW line: the theorem must pass with the expected number of
    assignments; a printed counterexample must also refute the law again."""

    def check(rc: int, out: str) -> str | None:
        from branchalg import model
        from branchalg.finra import AtomStructureError

        m = _LAW_LINE.match(out.rstrip("\n"))
        if m is None or out.count("\n") != 1 or m["id"] != law.id:
            return f"unexpected output {out!r}"
        if m["ce"] is not None:
            if structure is None:
                return f"counterexample on a theorem: {out.strip()}"
            env = {}
            try:
                for part in m["ce"].split(";"):
                    name, _, value = part.partition("=")
                    env[name] = structure.parse_element(value)
            except AtomStructureError as exc:
                return f"unparsable counterexample ({exc}): {out.strip()}"
            if not model.rerun_counterexample(handle, law, env):
                return f"counterexample does not re-fail: {out.strip()}"
            return f"counterexample on a theorem: {out.strip()}"
        if m["verdict"] != "pass" or rc != 0:
            return f"theorem reported {m['verdict']} with exit code {rc}"
        if int(m["tested"]) != tested_want:
            return f"tested={m['tested']}, expected {tested_want}"
        return None

    return check


class Inputs:
    """Everything a workload's job lists are built from, made once per run."""

    def __init__(self, workload: str, workdir: Path, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.tiny = tiny
        workdir.mkdir(parents=True, exist_ok=True)
        if workload in ("tree", "finite"):
            from branchalg import laws

            self.laws = [
                law for law in laws.law_catalog() if law.signature == "J" and law.theorem
            ]
            if len(self.laws) != EXPECTED["j_theorems"]:
                raise RuntimeError(
                    f"{len(self.laws)} J theorems in the catalog, "
                    f"expected {EXPECTED['j_theorems']}"
                )
        if workload == "finite":
            from branchalg.finra import enumerate_integral

            self.small = [s for sig in ("1'ab", "1'aa~") for s in enumerate_integral(sig)]
            verdicts = EXPECTED["verdicts"]
            # Only structures that pass J, L and M at atom level: the element
            # scan of a failing one stops at its first violation, which would
            # make the run's cost depend on the pick instead of on the program.
            self.large = [
                s
                for sig in ("1'abb~", "1'abc")
                for s in enumerate_integral(sig)
                if verdicts[s.label]["atoms"] == ""
            ]

    def jobs(self, seed: int) -> list[Job]:
        return getattr(self, "_" + self.workload)(seed)

    def _tree(self, seed: int) -> list[Job]:
        from branchalg import branchrel

        suites = EXPECTED["suites"]
        laws = self.laws
        if self.tiny:
            suites = {k: suites[k] for k in ("qu", "perms", "same")}
            laws = laws[:3]
        jobs = []
        for sid, n in suites.items():
            jobs.append(Job("suite", ["suite", sid, "--seed", str(seed)], _suite_check(sid, n)))
        handle = branchrel.model_handle()
        for law in laws:
            tested = 200 if law.quantified_variables(handle) else 1
            argv = ["check-law", law.id, "--strategy", "sample=200", "--seed", str(seed)]
            jobs.append(Job("check-law", argv, _law_check(law, handle, None, tested)))
        return jobs

    def _finite(self, seed: int) -> list[Job]:
        from branchalg import model
        from branchalg.finra import format_structure

        rng = random.Random(seed)
        small = rng.choice(self.small)
        large = rng.choice(self.large)
        small_path = self.workdir / f"small-{seed}.ra"
        large_path = self.workdir / f"large-{seed}.ra"
        small_path.write_text(format_structure(small))
        large_path.write_text(format_structure(large))

        laws = self.laws[:3] if self.tiny else self.laws
        handle = small.handle()
        jobs = []
        for law in laws:
            k = len(law.quantified_variables(handle))
            argv = ["check-law", law.id, "--model", str(small_path)]
            if small.n_elements**k <= model.EXHAUSTIVE_CAP:
                argv += ["--strategy", "exhaustive"]
                tested = small.n_elements**k
            else:
                argv += ["--strategy", "sample=200", "--seed", str(seed)]
                tested = 200
            jobs.append(Job("check-law", argv, _law_check(law, handle, small, tested)))

        profiles = EXPECTED["profiles"]
        specs = [("1'abb~", []), ("1'abc", []), ("1'ab", ["--elements"]), ("1'aa~", ["--elements"])]
        if self.tiny:
            specs = [("1'aa~", ["--elements"])]
        for sig, extra in specs:
            key = sig + (" elements" if extra else "")
            total, row = profiles[key]
            jobs.append(
                Job("check-jlm", ["check-jlm", sig, *extra], _expect_exact(0, _profile_text(total, row)))
            )

        verdict = EXPECTED["verdicts"][large.label]
        label = str(large_path)
        modes = [("atoms", [])] if self.tiny else [("atoms", []), ("elements", ["--elements"])]
        for mode, extra in modes:
            failed = verdict[mode]
            check = _expect_exact(1 if failed else 0, _jlm_line(label, mode, failed))
            jobs.append(Job("check-jlm", ["check-jlm", label, *extra], check))
        return jobs

    def _enumerate(self, seed: int) -> list[Job]:
        totals = EXPECTED["totals"]
        rows = list(totals)
        if self.tiny:
            rows = rows[:5]
        jobs = []
        for sig in rows:
            argv = ["enumerate", sig]
            if sig in EXPECTED["stretch"]:
                argv.append("--stretch")
            jobs.append(Job("enumerate", argv, _expect_exact(0, f"total={totals[sig]}\n")))
        return jobs
