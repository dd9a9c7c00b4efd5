"""The acceptance gate: one check per shipping criterion, each printed as a
pass/fail line with its runtime against the stated budget.  All equalities
and counts are exact."""

import itertools
import random
import time

from branchalg import branchrel, laws, model, thompson
from branchalg.finra import (
    build_stage_rep,
    is_tabular,
    make_proper_ra,
    profile_structures,
    verify_axioms,
)

import oracles

TABLE_ROWS = {
    "1'": 1,
    "1'a": 2,
    "1'aa~": 3,
    "1'ab": 7,
    "1'abb~": 37,
    "1'abc": 65,
    "1'aa~bb~": 83,
}

PROFILE_ROWS = {
    "1'abb~": (5, 0, 2, 0, 0, 0, 2, 28),
    "1'abc": (5, 2, 3, 0, 0, 0, 6, 49),
    "1'aa~bb~": (9, 0, 4, 1, 1, 0, 8, 60),
}


def _finish(num, desc, t0, limit, ok, detail=""):
    elapsed = time.time() - t0
    in_time = elapsed <= limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {num:02d} {desc}: {status} ({elapsed:.1f}s of {limit:.0f}s)")
    assert ok, f"criterion {num}: {desc} {detail}"
    assert in_time, f"criterion {num} exceeded its {limit:.0f}s budget ({elapsed:.1f}s)"


def _run_suite(suite_runs, suite_id, seed=0):
    compose = branchrel.compose

    def recording(r1, r2):
        suite_runs["compose_inputs"].add((r1, r2))
        return compose(r1, r2)

    branchrel.compose = recording
    try:
        report = thompson.run_suite(suite_id, seed=seed)
    finally:
        branchrel.compose = compose
    suite_runs["reports"][f"acceptance:{suite_id}"] = report
    return report


def test_criterion_01_qu(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "qu")
    _finish(1, "generator-pair identities hold exactly", t0, 1.0,
            report.passed, report.failed_names)


def test_criterion_02_f_suite(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "F")
    ok = report.passed and len(report.results) == 2
    _finish(2, "two-generator group relations", t0, 10.0, ok, report.failed_names)


def test_criterion_03_t_suite(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "T")
    ok = report.passed and len(report.results) == 6
    _finish(3, "six circular-group relations", t0, 30.0, ok, report.failed_names)


def test_criterion_04_v_suite(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "V")
    ok = report.passed and len(report.results) == 14
    _finish(4, "all fourteen symmetric-group relations", t0, 300.0, ok,
            report.failed_names)


def test_criterion_05_m_suite(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "M")
    names = [n for n, _ in report.results]
    ok = (
        report.passed
        and sum(n.startswith("split[") for n in names) >= 20
        and sum(n.startswith("reconstruct[") for n in names) >= 20
        and sum(n.startswith("commute[") for n in names) >= 400
        and sum("=" in n for n in names) >= 12  # invertibility + rewriting
    )
    _finish(5, "monoid relation groups", t0, 300.0, ok, report.failed_names[:5])


def test_criterion_06_decomposition_words(suite_runs):
    t0 = time.time()
    report = _run_suite(suite_runs, "same")
    ok = report.passed and len(report.results) == 2
    _finish(6, "deferred generators equal their generator words", t0, 60.0, ok,
            report.failed_names)


def test_criterion_07_fork_and_pairing(suite_runs):
    t0 = time.time()
    fork = _run_suite(suite_runs, "fork")
    pairing = _run_suite(suite_runs, "pairing")
    ok = fork.passed and pairing.passed
    _finish(7, "fork axioms and pairing identity on samples", t0, 120.0, ok,
            fork.failed_names[:3] + pairing.failed_names[:3])


def test_criterion_08_law_library(enumerated):
    t0 = time.time()
    part2 = [
        law
        for law in laws.law_catalog()
        if law.part == "II" and law.theorem and law.signature == "J"
    ]
    assert len(part2) >= 50
    failures = []
    structures = [
        enumerated("1'abb~")[0],
        enumerated("1'abc")[0],
        enumerated("1'aa~bb~")[0],
    ]
    for s in structures:
        handle = s.handle()
        nel = s.n_elements
        for law in part2:
            nvars = len(law.quantified_variables(handle))
            if nel**nvars <= model.EXHAUSTIVE_CAP:
                strategy = model.Exhaustive()
            else:
                strategy = model.Sample(n=200, seed=0)
            report = model.check_law(handle, law, strategy)
            if not report.passed:
                failures.append((s.label, report.line()))
    bmodel = branchrel.model_handle()
    for law in part2:
        report = model.check_law(bmodel, law, model.Sample(n=200, seed=0))
        if not report.passed:
            failures.append(("branchrel", report.line()))
    _finish(8, "law library green on finite and tree models", t0, 600.0,
            not failures, failures[:5])


def test_criterion_09_enumeration_counts(enumerated):
    t0 = time.time()
    got = {sig: len(enumerated(sig)) for sig in TABLE_ROWS}
    _finish(9, "integral structure counts match the published row totals",
            t0, 600.0, got == TABLE_ROWS, got)


def test_criterion_10_failure_profiles(enumerated):
    t0 = time.time()
    got = {sig: profile_structures(enumerated(sig)) for sig in PROFILE_ROWS}
    _finish(10, "product-formula failure profiles match the published table",
            t0, 3600.0, got == PROFILE_ROWS, got)


def test_criterion_11_staged_representation():
    t0 = time.time()
    re2 = make_proper_ra(2)
    ok = verify_axioms(re2) and is_tabular(re2)
    tested_pairs = [
        (0, 2),       # zero under one off-diagonal atom
        (0, re2.top),
        (2, 3),
        (re2.ident, re2.top),
        (1, 1 | 2),
        (2, 2 | 4 | 8),
    ]
    detail = []
    for v, w in tested_pairs:
        report = build_stage_rep(re2, v, w, stages=50, seed=0)
        good = oracles.stages_separate(report)
        for idx in (0, len(report.reps) // 2, len(report.reps) - 1):
            good = good and oracles.lemma_properties_hold(report.reps[idx])
        ok = ok and good
        if not good:
            detail.append((v, w))
    _finish(11, "staged partial representations separate and stay lawful",
            t0, 60.0, ok, detail)


def test_criterion_12_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(0)

    def rand_ep(lo, hi):
        return (
            rng.choice("LR"),
            "".join(rng.choice("01") for _ in range(rng.randint(lo, hi))),
        )

    def rand_rel():
        cons = [(rand_ep(3, 6), rand_ep(3, 6)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            t1, u = rand_ep(2, 5)
            t2, v = rand_ep(2, 5)
            cons += [((t1, u + "0"), (t2, v + "0")), ((t1, u + "1"), (t2, v + "1"))]
        cons = [c for c in cons if c[0] != c[1]]
        return (
            branchrel.BranchRelation(False, frozenset(cons))
            if cons
            else branchrel.TOP
        )

    disagreements = 0
    checked = 0
    while checked < 100_000:
        r = rand_rel()
        query = (rand_ep(0, 6), rand_ep(0, 6))
        if query[0] == query[1]:
            continue
        checked += 1
        if oracles.entails(r, query) != oracles.entails_bfs(r, query, bound=8):
            disagreements += 1
    _finish(12, "closure engine agrees with the bounded oracle on 1e5 queries",
            t0, 120.0, disagreements == 0, f"{disagreements} disagreements")


def _projection_gaps(r1, r2):
    """Pairs of outer configs mentioned by r1 (input side) and r2 (output
    side) on which compose and the three-tag oracle disagree."""
    if r1.is_zero or r2.is_zero:
        return []
    mentioned = sorted(
        {ep for c in r1.constraints for ep in c if ep[0] == "L"}
        | {ep for c in r2.constraints for ep in c if ep[0] == "R"}
    )
    composite = branchrel.compose(r1, r2)
    return [
        q
        for q in itertools.combinations(mentioned, 2)
        if oracles.entails(composite, q) != oracles.entails_product(r1, r2, q)
    ]


def test_criterion_13_no_incomplete_projections(suite_runs):
    t0 = time.time()
    # the suites of criteria 1-7, run here when those criteria have not run
    for suite_id in ("qu", "F", "T", "V", "M", "same", "fork", "pairing"):
        if f"acceptance:{suite_id}" not in suite_runs["reports"]:
            _run_suite(suite_runs, suite_id)
    ran = [k for k in suite_runs["reports"] if k.startswith("acceptance:")]
    inputs = suite_runs["compose_inputs"]
    gaps = [(r1, r2, q) for r1, r2 in inputs for q in _projection_gaps(r1, r2)]
    ok = len(ran) >= 8 and len(inputs) >= 1900 and not gaps
    _finish(13, f"compose agrees with the oracle on {len(inputs)} suite inputs",
            t0, 60.0, ok, gaps[:3])
