"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the public functions of each layer with
wrappers, at the place where their caller looks them up: ``cli`` binds
``check_jlm`` and ``enumerate_integral`` by name, ``enumeration`` calls
``kernels.associative_candidates`` through the module, and ``ClosureEngine``
is patched on the class.  ``uninstall()`` puts the originals back.

Each wrapped call records a span (name, start, end, parent span, job id) in
flat arrays kept in memory; ``metrics()`` derives the per-layer numbers from
them after the run, and ``save()`` writes them out.  The hot inner operations
(``ClosureEngine.node``/``union``/``find``) are not wrapped: they run millions
of times per pass and would swamp what they measure.
"""

from __future__ import annotations

import time
from array import array
from functools import cached_property

import numpy as np

from branchalg import branchrel, cli, laws, model, terms, thompson
from branchalg.finra import atoms, enumeration, jlm, kernels

SUITE_IDS = thompson.SUITE_IDS
FORMULAS = ("J", "L", "M")
JOB_KINDS = ("suite", "check-law", "check-jlm", "enumerate")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("branchrel.compose.calls", "count", "lower"),
        ("branchrel.compose.busy_s", "s", "lower"),
        ("branchrel.compose.self_s", "s", "lower"),
        ("branchrel.compose.distinct_share", "ratio", "lower"),
        ("branchrel.equal.calls", "count", "lower"),
        ("branchrel.equal.busy_s", "s", "lower"),
        ("branchrel.leq.calls", "count", "lower"),
        ("branchrel.leq.busy_s", "s", "lower"),
        ("branchrel.engine.created", "count", "lower"),
        ("branchrel.engine.saturate.busy_s", "s", "lower"),
        ("branchrel.engine.per_compose", "ratio", "lower"),
        ("branchrel.paths_pool.calls", "count", "lower"),
        ("branchrel.paths_pool.busy_s", "s", "lower"),
        ("model.check_law.tree.busy_s", "s", "lower"),
        ("model.check_law.finite.busy_s", "s", "lower"),
        ("model.assignments.tree", "count", "lower"),
        ("model.assignments.finite", "count", "lower"),
        ("model.assignments_per_s.finite", "1/s", "higher"),
    ]
    + [(f"thompson.run_suite.{sid}.busy_s", "s", "lower") for sid in SUITE_IDS]
    + [
        ("terms.parse_term.calls", "count", "lower"),
        ("terms.parse_term.busy_s", "s", "lower"),
        ("cli.build_parser.busy_s", "s", "lower"),
    ]
    + [(f"cli.{kind.replace('-', '_')}.busy_s", "s", "lower") for kind in JOB_KINDS]
    + [
        ("atoms.parse_structure.busy_s", "s", "lower"),
        ("atoms.tables.busy_s", "s", "lower"),
        ("atoms.validate.calls", "count", "lower"),
        ("atoms.validate.busy_s", "s", "lower"),
        ("kernels.associative_candidates.busy_s", "s", "lower"),
        ("kernels.associative_candidates.candidates", "count", "lower"),
        ("kernels.associative_candidates.survivors", "count", "lower"),
        ("kernels.associative_candidates.survivor_share", "ratio", "lower"),
    ]
    + [
        (f"kernels.find_violation.{f}.{what}", unit, "lower")
        for f in FORMULAS
        for what, unit in (("calls", "count"), ("busy_s", "s"))
    ]
    + [
        ("enumeration.canonical_key.calls", "count", "lower"),
        ("enumeration.canonical_key.busy_s", "s", "lower"),
        ("enumeration.classes", "count", "lower"),
        ("enumeration.class_share", "ratio", "lower"),
        ("jlm.check_jlm.atoms.busy_s", "s", "lower"),
        ("jlm.check_jlm.elements.busy_s", "s", "lower"),
    ]
    + [(f"jlm.violations.{f}", "count", "lower") for f in FORMULAS]
    + [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self._names: dict[str, int] = {}
        self._name_list: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = {}
        self._compose_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._names.get(name)
        if i is None:
            i = self._names[name] = len(self._name_list)
            self._name_list.append(name)
        return i

    def span(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span.  ``name`` is a string or
        a function of the call's arguments; ``after(args, kwargs, result)``
        records counts once the call returns."""
        fixed = None if callable(name) else self._name_id(name)
        stack = self._stack
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(fixed if fixed is not None else self._name_id(name(*args, **kwargs)))
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    # --- installing wrappers -----------------------------------------------

    def _patch(self, owner, attr: str, name, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, after))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        p = self._patch

        def compose_inputs(args, kwargs, result):
            self._compose_inputs.add(args)

        p(branchrel, "compose", "branchrel.compose", compose_inputs)
        p(branchrel, "equal", "branchrel.equal")
        p(branchrel, "leq", "branchrel.leq")
        p(branchrel, "paths_pool", "branchrel.paths_pool")
        p(branchrel.ClosureEngine, "__init__", "branchrel.engine.init")
        p(branchrel.ClosureEngine, "saturate", "branchrel.engine.saturate")

        def law_name(m, law, strategy):
            return "model.check_law." + ("tree" if m.name == "branchrel" else "finite")

        def law_done(args, kwargs, report):
            side = "tree" if args[0].name == "branchrel" else "finite"
            self.count("model.assignments." + side, report.tested)

        p(model, "check_law", law_name, law_done)
        p(thompson, "run_suite", lambda sid, seed=0: f"thompson.run_suite.{sid}")
        p(laws, "parse_term", "terms.parse_term")
        p(terms, "parse_term", "terms.parse_term")
        p(cli, "build_parser", "cli.build_parser")

        p(atoms, "parse_structure", "atoms.parse_structure")
        p(atoms.AtomStructure, "__post_init__", "atoms.validate")
        tables = atoms.AtomStructure.__dict__["tables"]
        self._patched.append((atoms.AtomStructure, "tables", tables))
        traced_tables = cached_property(self.span("atoms.tables", tables.func))
        traced_tables.__set_name__(atoms.AtomStructure, "tables")
        atoms.AtomStructure.tables = traced_tables

        def assoc_done(args, kwargs, survivors):
            self.count("candidates", 1 << len(args[2]))
            self.count("survivors", len(survivors))

        p(kernels, "associative_candidates", "kernels.associative_candidates", assoc_done)
        p(kernels, "find_violation", lambda c, v, f: f"kernels.find_violation.{f}")
        p(enumeration, "canonical_key", "enumeration.canonical_key")

        def enum_done(args, kwargs, structures):
            self.count("classes", len(structures))

        p(cli, "enumerate_integral", "enumeration.enumerate_integral", enum_done)

        def jlm_name(s, mode="atoms", **kw):
            return f"jlm.check_jlm.{mode}"

        def jlm_done(args, kwargs, rec):
            for f in rec.failed:
                self.count("violations." + f)

        p(cli, "check_jlm", jlm_name, jlm_done)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def job_span(self, kind: str, fn):
        """Run ``fn`` inside a span named after the job's CLI subcommand."""
        return self.span(f"cli.{kind.replace('-', '_')}", fn)()

    # --- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "job": np.frombuffer(self.span_job, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self._name_list), **self.arrays())

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n_names = len(self._name_list)
        calls = np.bincount(a["name"], minlength=n_names)
        busy = np.bincount(a["name"], weights=dur, minlength=n_names)
        own = np.bincount(a["name"], weights=self_time, minlength=n_names)

        def get(table, name):
            i = self._names.get(name)
            return 0 if i is None else table[i].item()

        def share(num, den):
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for span_name, metric in (
            ("branchrel.compose", "branchrel.compose"),
            ("branchrel.equal", "branchrel.equal"),
            ("branchrel.leq", "branchrel.leq"),
            ("branchrel.paths_pool", "branchrel.paths_pool"),
            ("terms.parse_term", "terms.parse_term"),
            ("atoms.validate", "atoms.validate"),
            ("enumeration.canonical_key", "enumeration.canonical_key"),
        ):
            out[f"{metric}.calls"] = get(calls, span_name)
            out[f"{metric}.busy_s"] = get(busy, span_name)
        for f in FORMULAS:
            out[f"kernels.find_violation.{f}.calls"] = get(calls, f"kernels.find_violation.{f}")
            out[f"kernels.find_violation.{f}.busy_s"] = get(busy, f"kernels.find_violation.{f}")

        compose_calls = out["branchrel.compose.calls"]
        out["branchrel.compose.self_s"] = get(own, "branchrel.compose")
        out["branchrel.compose.distinct_share"] = share(len(self._compose_inputs), compose_calls)
        out["branchrel.engine.created"] = get(calls, "branchrel.engine.init")
        out["branchrel.engine.saturate.busy_s"] = get(busy, "branchrel.engine.saturate")
        out["branchrel.engine.per_compose"] = share(self._engines_in("branchrel.compose", a), compose_calls)

        for side in ("tree", "finite"):
            out[f"model.check_law.{side}.busy_s"] = get(busy, f"model.check_law.{side}")
            out[f"model.assignments.{side}"] = self.counts.get(f"model.assignments.{side}", 0)
        out["model.assignments_per_s.finite"] = share(
            out["model.assignments.finite"], out["model.check_law.finite.busy_s"]
        )
        for sid in SUITE_IDS:
            out[f"thompson.run_suite.{sid}.busy_s"] = get(busy, f"thompson.run_suite.{sid}")
        out["cli.build_parser.busy_s"] = get(busy, "cli.build_parser")
        for kind in JOB_KINDS:
            key = f"cli.{kind.replace('-', '_')}"
            out[key + ".busy_s"] = get(busy, key)

        out["atoms.parse_structure.busy_s"] = get(busy, "atoms.parse_structure")
        out["atoms.tables.busy_s"] = get(busy, "atoms.tables")
        out["kernels.associative_candidates.busy_s"] = get(busy, "kernels.associative_candidates")
        candidates = self.counts.get("candidates", 0)
        survivors = self.counts.get("survivors", 0)
        classes = self.counts.get("classes", 0)
        out["kernels.associative_candidates.candidates"] = candidates
        out["kernels.associative_candidates.survivors"] = survivors
        out["kernels.associative_candidates.survivor_share"] = share(survivors, candidates)
        out["enumeration.classes"] = classes
        out["enumeration.class_share"] = share(classes, survivors)
        out["jlm.check_jlm.atoms.busy_s"] = get(busy, "jlm.check_jlm.atoms")
        out["jlm.check_jlm.elements.busy_s"] = get(busy, "jlm.check_jlm.elements")
        for f in FORMULAS:
            out[f"jlm.violations.{f}"] = self.counts.get("violations." + f, 0)

        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        return {name: out[name] for name, _, _ in PER_LAYER}

    def _engines_in(self, outer: str, a) -> int:
        """Engines created while a span named ``outer`` was open."""
        outer_id = self._names.get(outer)
        engine_id = self._names.get("branchrel.engine.init")
        if outer_id is None or engine_id is None:
            return 0
        names, parents = a["name"].tolist(), a["parent"].tolist()
        inside = [False] * len(names)
        # Parents precede their children, so one forward sweep suffices.
        for i, (n, p) in enumerate(zip(names, parents)):
            inside[i] = n == outer_id or (p >= 0 and inside[p])
        return sum(1 for n, ins in zip(names, inside) if ins and n == engine_id)
