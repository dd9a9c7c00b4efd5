import ast
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchalg import branchrel as br
from branchalg import cli, laws, model, thompson

import oracles

A = br.GEN_A
B = br.GEN_B
CA = br.converse(A)
CB = br.converse(B)
ID = br.IDENT
TOP = br.TOP
ZERO = br.ZERO


def c(spec: str):
    """Constraint from `L.u=R.v` notation with ^ for the empty address."""
    lhs, rhs = spec.split("=")

    def ep(s):
        side, addr = s.split(".")
        return (side, "" if addr == "^" else addr)

    return (ep(lhs), ep(rhs))


def test_generators_and_text_form():
    assert br.format_relation(A) == "{R.^=L.0}"
    assert br.format_relation(B) == "{R.^=L.1}"
    assert br.format_relation(ID) == "{L.^=R.^}"
    assert br.format_relation(TOP) == "1"
    assert br.format_relation(ZERO) == "0"
    assert br.format_relation(br.converse(A)) == "{L.^=R.0}"
    # the text orders endpoints by (length, address, side), not by the
    # stored (length, side, address) order
    assert br.format_relation(br.compose(B, CA)) == "{R.0=L.1}"
    assert br.format_relation(br.compose(A, CB)) == "{L.0=R.1}"
    assert br.format_relation(br.meet(A, B)) == "{R.^=L.0; R.^=L.1}"


def test_importing_branchrel_leaves_numpy_unloaded():
    src = str(Path(br.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", "import sys, branchalg.branchrel; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert run.stdout.strip() == "False"


def test_meet_basics():
    r = br.meet(A, B)
    assert br.equal(br.meet(TOP, r), r)
    assert br.meet(r, ZERO).is_zero
    # forces both subtrees of the input to equal the output
    assert oracles.entails_bfs(r, c("L.0=L.1"), bound=6)
    assert oracles.entails(r, c("L.0=L.1"))


def test_converse():
    pool = [A, B, br.meet(A, B), br.compose(A, B)]
    for r in pool:
        assert br.converse(br.converse(r)) == r
    assert br.equal(br.converse(TOP), TOP)


def test_compose_spec_cases():
    assert br.equal(br.compose(CA, A), ID)
    assert br.equal(br.compose(CA, B), TOP)
    for r in (A, B, br.meet(A, B)):
        assert br.equal(br.compose(ID, r), r)
        assert br.equal(br.compose(r, ID), r)
    u = br.meet(CA, CB)
    assert br.equal(br.compose(u, A), ID)
    assert br.equal(br.compose(u, B), ID)
    p = br.meet(br.compose(A, CB), br.compose(B, CA))
    assert br.equal(br.compose(p, A), B)
    assert br.equal(br.compose(p, B), A)
    assert br.compose(ZERO, A).is_zero
    assert br.compose(A, ZERO).is_zero


def test_unicity_meet_is_identity():
    lhs = br.meet(br.compose(A, CA), br.compose(B, CB))
    assert br.equal(lhs, ID)


def test_entails_examples():
    r1 = br.BranchRelation(False, frozenset([c("R.^=L.0")]))
    assert oracles.entails(r1, c("R.1=L.01"))
    assert oracles.entails_bfs(r1, c("R.1=L.01"), bound=6)
    r2 = br.BranchRelation(False, frozenset([c("L.0=L.^")]))
    assert oracles.entails(r2, c("L.00=L.^"))
    assert oracles.entails_bfs(r2, c("L.00=L.^"), bound=6)
    assert not oracles.entails(A, c("R.^=L.1"))
    assert not oracles.entails_bfs(A, c("R.^=L.1"), bound=6)
    with pytest.raises(ValueError):
        oracles.entails(ZERO, c("L.^=R.^"))


def test_leq_equal():
    assert br.leq(ZERO, A)
    assert not br.leq(TOP, A)
    assert br.leq(A, TOP)
    assert not br.equal(ZERO, TOP)
    assert br.equal(ZERO, ZERO)


def test_qu_suite_passes():
    report = thompson.run_suite("qu")
    assert report.results == [(f"qu{i}", True) for i in range(1, 7)]


def _pool40():
    pool = [r for r in br.paths_pool() if not r.is_zero]
    return pool[:40]


def test_meet_semilattice_on_sample():
    pool = _pool40()
    for x in pool[:12]:
        assert br.equal(br.meet(x, x), x)
    rng = random.Random(1)
    for _ in range(300):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert br.equal(br.meet(x, y), br.meet(y, x))
        assert br.equal(br.meet(br.meet(x, y), z), br.meet(x, br.meet(y, z)))


def test_compose_associative_on_sample():
    pool = _pool40()
    rng = random.Random(2)
    for _ in range(250):
        x, y, z = (rng.choice(pool) for _ in range(3))
        lhs = br.compose(br.compose(x, y), z)
        rhs = br.compose(x, br.compose(y, z))
        assert br.equal(lhs, rhs), (
            br.format_relation(x),
            br.format_relation(y),
            br.format_relation(z),
        )


def test_all_axioms_hold_on_sample():
    m = br.model_handle()
    axioms = [l for l in laws.law_catalog() if l.id.startswith("jax-")]
    assert len(axioms) == 13
    for law in axioms:
        report = model.check_law(m, law, model.Sample(n=150, seed=3))
        assert report.passed, report.line()


def test_no_constraint_set_is_empty():
    # the all-zero tree pair satisfies every non-zero value
    pool = _pool40()
    zero_trees = {"L": [0] * 256, "R": [0] * 256}
    for r in pool:
        for con in r.constraints:
            assert oracles.constraint_holds_on(con, zero_trees, 256)


def test_semantic_soundness_spot_check():
    rng = random.Random(5)
    pool = [r for r in _pool40() if r.constraints]
    for r in pool[:20]:
        # collect some entailed constraints among short addresses
        entailed = []
        addrs = [""] + ["0", "1", "00", "01", "10", "11", "010", "101"]
        for p, q in itertools.product(itertools.product("LR", addrs), repeat=2):
            if p < q and oracles.entails(r, (p, q)):
                entailed.append((p, q))
        for _ in range(5):
            trees = oracles.sample_tree_pair(r, rng)
            for con in r.constraints:
                assert oracles.constraint_holds_on(con, trees, 256)
            for con in entailed[:30]:
                assert oracles.constraint_holds_on(con, trees, 256), (
                    br.format_relation(r),
                    con,
                )


def test_oracle_agreement_on_real_relations():
    rng = random.Random(11)
    pool = [r for r in _pool40() if r.constraints]
    addrs = ["", "0", "1", "00", "01", "110", "0101", "10110", "010101"]
    checked = 0
    for _ in range(150):
        r = rng.choice(pool)
        con = (
            (rng.choice("LR"), rng.choice(addrs)),
            (rng.choice("LR"), rng.choice(addrs)),
        )
        if con[0] == con[1]:
            continue
        assert oracles.entails(r, con) == oracles.entails_bfs(r, con, bound=8)
        checked += 1
    assert checked > 100


def _product_gaps(r1, r2, candidate, queries):
    """Queries on which the candidate composite and the three-tag oracle
    disagree."""
    return [
        q
        for q in queries
        if oracles.entails(candidate, q) != oracles.entails_product(r1, r2, q)
    ]


def test_word_products_are_the_engine_products(monkeypatch):
    # compose writes these products down, by substitution or by the Domain
    # condition, and builds no engine; the engine path is the reference.
    # Every word {R.^=L.w} and co-word {L.^=R.w} with |w| <= 5, the
    # identity in both forms, then TOP
    words = [
        br._word("".join(w), root)
        for root in "RL"
        for n in range(6)
        for w in itertools.product("01", repeat=n)
    ] + [TOP]
    assert len(words) == 127
    assert words[0] == words[63] == ID and words[1] == A and words[64] == CA
    assert all(br._word_parts(w) is not None for w in words)
    want = {(x, y): br._compose_engine(x, y) for x, y in itertools.product(words, repeat=2)}

    def no_engine(x, y):
        raise AssertionError(f"engine built for {x} ; {y}")

    monkeypatch.setattr(br, "_compose_engine", no_engine)
    # a word-shaped operand counts as normal whether or not it is flagged,
    # as the converses of words are not
    plain = [br.BranchRelation(False, w.constraints) for w in words]
    for ops in (words, plain):
        for x, y in itertools.product(ops, repeat=2):
            got = br.compose(x, y)
            assert got == want[x, y] and got.normal, (x, y)


def test_word_times_co_word_takes_one_side_by_length():
    # W_u;C_v is the constraint L.u=R.v: substituting W_u into C_v (side L)
    # keeps its class name when |u| <= |v|, substituting C_v into W_u
    # (side R) when |v| < |u|, and for u != ^ the other side flips it
    addrs = ["".join(w) for n in range(6) for w in itertools.product("01", repeat=n)]
    for u, v in itertools.product(addrs[1:], addrs):
        side_l = br._prefixed(br._word(v, "L"), "L", u)
        side_r = br._prefixed(br._word(u), "R", v)
        assert (side_l is not None, side_r is not None) == (len(u) <= len(v), len(v) < len(u))
        out = side_l or side_r
        assert out == br.compose(br._word(u), br._word(v, "L"))
        assert out.constraints == {br._orient((("L", u), ("R", v)))}


def test_only_words_take_the_closed_form():
    not_words = [
        br.meet(A, B),
        br.BranchRelation(False, frozenset([c("L.^=L.0")])),
        br.BranchRelation(False, frozenset([c("L.0=R.1")])),
        br.BranchRelation(False, frozenset([c("R.0=L.^")])),  # unoriented
        br.BranchRelation(False, frozenset([c("R.^=L.^")])),  # unoriented identity
    ]
    assert [br._word_parts(r) for r in not_words] == [None] * 5
    assert br._word_parts(br._word("01", "L")) == ("L", "01")
    for x, y in itertools.product(not_words + [A, CB, ID, TOP], repeat=2):
        assert br.compose(x, y) == br._compose_engine(x, y)


def _criterion_12_relation(rng):
    """A relation drawn as acceptance criterion 12 draws its relations."""

    def ep(lo, hi):
        return (
            rng.choice("LR"),
            "".join(rng.choice("01") for _ in range(rng.randint(lo, hi))),
        )

    cons = [(ep(3, 6), ep(3, 6)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        t1, u = ep(2, 5)
        t2, v = ep(2, 5)
        cons += [((t1, u + "0"), (t2, v + "0")), ((t1, u + "1"), (t2, v + "1"))]
    cons = [c for c in cons if c[0] != c[1]]
    return br.BranchRelation(False, frozenset(cons)) if cons else TOP


ENDPOINTS_6 = [
    (side, "".join(w))
    for n in range(7)
    for w in itertools.product("01", repeat=n)
    for side in "LR"
]


def test_engine_partition_matches_the_bounded_saturation():
    # each relation checks all 32,131 endpoint pairs at once: the engine's
    # classes, read as the walk over its normal form, against one bounded
    # worklist saturation of the same rules
    assert len(ENDPOINTS_6) == 254
    rng = random.Random(8)
    merged = 0
    for _ in range(2000):
        r = _criterion_12_relation(rng)
        names = br._names(br._nf(r))
        first: dict = {}
        got = [first.setdefault(br._walk(names, e), i) for i, e in enumerate(ENDPOINTS_6)]
        assert got == oracles.partition_bfs(r, ENDPOINTS_6, bound=8), r
        merged += sum(label != i for i, label in enumerate(got))
    # endpoints joined to an earlier one: far more entailed pairs than the
    # 25 of criterion 12's 100,000 queries
    assert merged > 10_000, merged


def test_engine_yes_answers_match_the_bounded_oracle():
    # criterion 12's queries are almost all "no"; these are built from the
    # relation's own constraints, so that many are entailed
    rng = random.Random(12)

    def suffixed(p, q):
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 2)))
        return (p[0], p[1] + s), (q[0], q[1] + s)

    def cut(ep):
        return (ep[0], ep[1][:-1]) if ep[1] and rng.random() < 0.5 else ep

    entailed = disagreements = checked = 0
    while checked < 5000:
        r = _criterion_12_relation(rng)
        if not r.constraints:
            continue
        if checked % 2:
            ends = sorted({ep for con in r.constraints for ep in con})
            query = suffixed(cut(rng.choice(ends)), cut(rng.choice(ends)))
        else:
            query = suffixed(*rng.choice(sorted(r.constraints)))
        if query[0] == query[1]:
            continue
        checked += 1
        yes = oracles.entails(r, query)
        entailed += yes
        disagreements += yes != oracles.entails_bfs(r, query, bound=8)
    assert disagreements == 0
    assert entailed >= 2000, entailed


def test_product_oracle_has_teeth():
    # TOP drops the only constraint of each composite; the oracle sees it
    for r1, r2, missing in ((A, CA, c("L.0=R.0")), (CA, A, c("L.^=R.^"))):
        assert _product_gaps(r1, r2, TOP, [missing]) == [missing]
        assert _product_gaps(r1, r2, br.compose(r1, r2), [missing]) == []


def test_engine_of_several_systems_is_the_engine_of_their_meet():
    # the whole normal form read off the two-system engine is the meet's
    pool = _pool40()
    beyond_r1 = 0
    for r1, r2 in itertools.product(pool, repeat=2):
        both = br._emit(br.ClosureEngine((r1, "L", "R"), (r2, "L", "R")), 1)
        met = br._emit(br.ClosureEngine((br.meet(r1, r2), "L", "R")), 1)
        assert both.constraints == met.constraints, (r1, r2)
        beyond_r1 += both.constraints != _nf(r1).constraints
    # the second system adds entailments the first alone lacks
    assert beyond_r1 > 0


# --- the per-handle memo ----------------------------------------------------

MEMOISED = (("comp", br.compose), ("leq", br.leq), ("equal", br.equal))


def test_memoised_operations_agree_with_the_module():
    pool = br.paths_pool()
    rng = random.Random(7)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    draws = [rng.choice(pairs) for _ in range(400)]  # mostly repeats
    xs = np.array([x for x, _ in draws], dtype=object)
    ys = np.array([y for _, y in draws], dtype=object)
    m = br.model_handle()
    for name, f in MEMOISED:
        op = getattr(m, name)
        want = [f(x, y) for x, y in draws]
        assert [op(x, y) for x, y in draws] == want
        got = op(xs, ys)
        assert got.dtype == object and list(got) == want
        assert list(op(xs, draws[0][1])) == [f(x, draws[0][1]) for x in xs]
        info = op.__wrapped__.cache_info()
        assert info.misses == len(set(draws) | {(x, draws[0][1]) for x in xs})
        assert info.hits == 3 * len(draws) - info.misses


def test_memoised_converse_agrees_with_the_module(monkeypatch):
    rng = random.Random(7)
    draws = [rng.choice(br.paths_pool()[:30]) for _ in range(200)]  # mostly repeats
    want = [br.converse(x) for x in draws]
    calls = []

    def counting(x, f=br.converse):
        calls.append(x)
        return f(x)

    # patched before the handle is built: its memo calls what it was built with
    monkeypatch.setattr(br, "converse", counting)
    m = br.model_handle()
    assert [m.conv(x) for x in draws] == want
    got = m.conv(np.array(draws, dtype=object))
    assert got.dtype == object and list(got) == want
    assert len(calls) == len(set(draws)) == m.conv.__wrapped__.cache_info().misses
    assert br.model_handle().conv.__wrapped__ is not m.conv.__wrapped__


def test_handles_share_no_cache_entries(monkeypatch):
    for name, f in MEMOISED:
        calls = []

        def counting(x, y, f=f):
            calls.append((x, y))
            return f(x, y)

        # patched before the handles are built: each memo calls what it was
        # built with
        monkeypatch.setattr(br, f.__name__, counting)
        m1, m2 = br.model_handle(), br.model_handle()
        op1, op2 = getattr(m1, name), getattr(m2, name)
        assert op1.__wrapped__ is not op2.__wrapped__
        assert op1(A, CB) == op1(A, CB) == op2(A, CB) == f(A, CB)
        # one miss in each handle, each a call of the module attribute
        assert calls == [(A, CB), (A, CB)]
        assert op1.__wrapped__.cache_info().currsize == 1
        assert op2.__wrapped__.cache_info().currsize == 1
        assert not hasattr(f, "cache_info")
        monkeypatch.undo()


@pytest.mark.parametrize(
    "law_id, n, name", [("M", 200, "comp"), ("p2", 2000, "leq"), ("fg-rule", 600, "equal")]
)
def test_memo_stays_bounded_over_a_check_law_run(capsys, monkeypatch, law_id, n, name):
    handles = []
    make = br.model_handle

    def recording():
        handles.append(make())
        return handles[-1]

    monkeypatch.setattr(br, "model_handle", recording)
    cli.main(["check-law", law_id, "--strategy", f"sample={n}", "--seed", "0"])
    capsys.readouterr()
    (m,) = handles
    for op_name, _ in MEMOISED:
        assert getattr(m, op_name).__wrapped__.cache_info().currsize <= br.MEMO_SIZE
    # the run asked for more distinct inputs than the cache holds
    assert getattr(m, name).__wrapped__.cache_info().misses > br.MEMO_SIZE


def test_outputs_do_not_depend_on_the_memo(capsys, monkeypatch):
    argvs = [["suite", sid, "--seed", "1"] for sid in thompson.SUITE_IDS] + [
        ["check-law", law_id, "--strategy", "sample=200", "--seed", "2"]
        for law_id in ("M", "J", "fg-rule", "p2", "exch")
    ]

    def outputs():
        out = []
        for argv in argvs:
            code = cli.main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    memoised = outputs()
    monkeypatch.setattr(br, "MEMO_SIZE", 0)  # a memo made with size 0 keeps nothing
    assert outputs() == memoised


@pytest.mark.parametrize("size", [0, 1, 8])
@pytest.mark.parametrize("nin", [1, 2])
def test_memo_evicts_as_lru_cache_does(monkeypatch, size, nin):
    rng = random.Random(size * 10 + nin)
    rels = br.paths_pool()[:40]
    stream = []
    for _ in range(2000):
        if stream and rng.random() < 0.5:  # a recent call again: recency matters
            stream.append(rng.choice(stream[-12:]))
        else:
            stream.append(tuple(rng.choice(rels[: 40 if k == 0 else 3]) for k in range(nin)))
    # equal copies with the flag dropped: both caches must key on the value
    stream = [
        tuple(br.BranchRelation(r.is_zero, r.constraints) if rng.random() < 0.3 else r for r in args)
        for args in stream
    ]

    def run(wrap):
        calls = []

        def f(*args):
            calls.append(args)
            return br.compose(*args) if nin == 2 else br.converse(*args)

        op = wrap(f)
        out = [op(*args) for args in stream]
        return calls, out, op.cache_info()

    monkeypatch.setattr(br, "MEMO_SIZE", size)
    calls, out, info = run(br._memo)
    want_calls, want_out, want = run(functools.lru_cache(maxsize=size))
    assert calls == want_calls and out == want_out
    assert (info.hits, info.misses, info.currsize) == (want.hits, want.misses, want.currsize)
    assert info.maxsize == size and info.misses == len(calls)
    if size:
        assert info.hits > 0
    else:
        assert info.hits == info.currsize == 0


@pytest.mark.parametrize("zero_first", [True, False])
def test_memo_keeps_zero_and_top_apart(zero_first):
    # ZERO and TOP both have the empty constraint set
    m = br.model_handle()
    firsts = (ZERO, TOP) if zero_first else (TOP, ZERO)
    for z in firsts:
        for x, y in ((z, z), (z, A), (A, z)):
            for name, f in MEMOISED:
                assert getattr(m, name)(x, y) == f(x, y), (name, x, y)
        assert m.conv(z) == br.converse(z)
    assert m.comp(ZERO, A) == ZERO and m.comp(TOP, A) == TOP
    assert m.leq(ZERO, A) and not m.leq(TOP, A)
    assert m.equal(ZERO, ZERO) and not m.equal(TOP, ZERO)


def test_memo_ignores_the_normal_flag():
    flagged = br.compose(A, CB)
    plain = br.BranchRelation(False, flagged.constraints)
    assert flagged.normal and not plain.normal
    m = br.model_handle()
    for name in ("comp", "leq", "equal"):
        op = getattr(m, name)
        assert op(flagged, A) == op(plain, A)
        assert op(A, plain) == op(A, flagged)
        info = op.__wrapped__.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    assert m.conv(flagged) == m.conv(plain)
    assert m.conv.__wrapped__.cache_info()[:2] == (1, 1)


RELATION_FIELDS = {"is_zero", "constraints", "normal"}


def _relation_field_writes(tree: ast.AST) -> list[int]:
    """Lines of `tree` that assign or delete an attribute named like a
    `BranchRelation` field, or call setattr, delattr, `__setattr__` or
    `__delattr__` with such a name or with a name that is not a literal."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if node.attr in RELATION_FIELDS:
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("setattr", "delattr", "__setattr__", "__delattr__"):
                names = [
                    a.value for a in node.args
                    if isinstance(a, ast.Constant) and isinstance(a.value, str)
                ]
                if not names or RELATION_FIELDS & set(names):
                    lines.append(node.lineno)
    return lines


def test_no_code_mutates_a_relation():
    # BranchRelation is not frozen; sets and the handle's memo rely on its
    # fields never changing after construction
    package = Path(br.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 7
    writes = {
        str(path.relative_to(package)): lines
        for path in modules
        if (lines := _relation_field_writes(ast.parse(path.read_text(), str(path))))
    }
    assert not writes
    # the guard itself sees each kind of write
    probe = ast.parse(
        "r.normal = True\nr.is_zero += 1\nfor r.constraints in x: pass\n"
        "del r.normal\nsetattr(r, 'normal', 1)\nobject.__setattr__(r, 'is_zero', 0)\n"
        "setattr(r, name, 1)\nr.other = 1\nsetattr(r, 'other', 1)\n"
    )
    assert sorted(_relation_field_writes(probe)) == [1, 2, 3, 4, 5, 6, 7]


def test_paths_pool_is_deterministic():
    assert br.paths_pool() == br.paths_pool()
    assert len(br.paths_pool()) >= 40


def test_paths_pool_words_are_the_compose_chain():
    # the reference construction: each generator word is a shorter one
    # composed with a generator through the engine, and the converses are
    # taken by converse, where paths_pool writes words and co-words down
    # (and compose would too)
    words = [ID]
    frontier = [ID]
    for _ in range(4):
        frontier = [br._compose_engine(w, g) for w in frontier for g in (A, B)]
        words.extend(frontier)
    longest = lambda r: max(len(a) for con in r.constraints for _, a in con)
    short = [w for w in words if len(w.constraints) and longest(w) <= 2]
    meets = [br.meet(x, y) for x, y in itertools.combinations(short, 2)]
    pool = words + meets
    pool = pool + [br.converse(r) for r in pool]
    pool += [TOP, ZERO]
    got, want = br.paths_pool(), list(dict.fromkeys(pool))
    assert [(r.is_zero, r.constraints) for r in got] == [
        (r.is_zero, r.constraints) for r in want
    ]
    # every co-word {L.^=R.w} is flagged normal, and nf leaves it as it is
    co_words = [r for r in got if (br._word_parts(r) or ("", ""))[0] == "L"]
    assert len(co_words) == 31  # IDENT and the 30 converses of a, ..., bbbb
    for r in co_words:
        assert r.normal and _nf(r).constraints == r.constraints, r


_ep_strategy = st.tuples(
    st.sampled_from("LR"), st.text(alphabet="01", min_size=0, max_size=4)
)
_con_strategy = st.tuples(_ep_strategy, _ep_strategy).filter(lambda c: c[0] != c[1])


@settings(max_examples=300, deadline=None)
@given(
    st.frozensets(_con_strategy, min_size=1, max_size=4),
    _con_strategy,
)
def test_engine_matches_oracle_property(cons, query):
    r = br.BranchRelation(False, cons)
    assert oracles.entails(r, query) == oracles.entails_bfs(r, query, bound=6)


@settings(max_examples=300, deadline=None)
@given(st.frozensets(_con_strategy, min_size=1, max_size=4), st.data())
def test_leq_and_equal_match_the_oracle_property(cons, data):
    # r2 shares part of r1's constraints, so the syntactic shortcuts
    # (r2's constraints a subset of r1's, or both sets equal) are exercised
    r1 = br.BranchRelation(False, cons)
    part = data.draw(st.frozensets(st.sampled_from(sorted(cons))))
    extra = data.draw(st.frozensets(_con_strategy, max_size=2))
    r2 = br.BranchRelation(False, part | extra)
    down = all(oracles.entails(r1, q) for q in r2.constraints)
    up = all(oracles.entails(r2, q) for q in r1.constraints)
    assert br.leq(r1, r2) == down
    assert br.leq(r2, r1) == up
    assert br.equal(r1, r2) == br.equal(r2, r1) == (down and up)
    assert br.equal(r1, br.BranchRelation(False, frozenset(cons)))


@st.composite
def _constraint_systems(draw):
    """Random constraint systems; some carry a sibling pair u0=v0, u1=v1,
    the premise of pair reconstruction."""
    cons = set(draw(st.lists(_con_strategy, min_size=1, max_size=3)))
    if draw(st.booleans()):
        (t1, u), (t2, v) = draw(_ep_strategy), draw(_ep_strategy)
        cons |= {((t1, u + "0"), (t2, v + "0")), ((t1, u + "1"), (t2, v + "1"))}
    cons = frozenset(c for c in cons if c[0] != c[1])
    return br.BranchRelation(False, cons) if cons else TOP


@settings(max_examples=300, deadline=None)
@given(
    _constraint_systems(),
    _constraint_systems(),
    st.lists(_con_strategy, min_size=1, max_size=8),
)
def test_compose_matches_product_oracle_property(r1, r2, queries):
    # outer configs the inputs mention are where a lost constraint shows first
    mentioned = sorted(
        {ep for p in r1.constraints for ep in p if ep[0] == "L"}
        | {ep for p in r2.constraints for ep in p if ep[0] == "R"}
    )
    queries = queries + list(itertools.combinations(mentioned, 2))
    assert _product_gaps(r1, r2, br.compose(r1, r2), queries) == []


def _random_constraint_rel(rng):
    def ep():
        return (
            rng.choice("LR"),
            "".join(rng.choice("01") for _ in range(rng.randint(0, 4))),
        )

    cons = [(ep(), ep()) for _ in range(rng.randint(1, 4))]
    cons = [c for c in cons if c[0] != c[1]]
    return br.BranchRelation(False, frozenset(cons)) if cons else TOP


def test_engine_laws_beyond_the_generated_carrier():
    # arbitrary constraint systems, including cyclic self-referential ones,
    # still compose associatively and respect converse and rotation
    rng = random.Random(99)
    for _ in range(800):
        x, y, z = (_random_constraint_rel(rng) for _ in range(3))
        assert br.equal(
            br.compose(br.compose(x, y), z), br.compose(x, br.compose(y, z))
        )
        assert br.equal(
            br.converse(br.compose(x, y)),
            br.compose(br.converse(y), br.converse(x)),
        )
        lhs = br.meet(br.compose(x, y), z)
        rhs = br.meet(
            br.compose(
                br.meet(br.compose(z, br.converse(y)), x),
                br.meet(y, br.compose(br.converse(x), z)),
            ),
            z,
        )
        assert br.equal(lhs, rhs)


_SWAP = {"L": "R", "R": "L"}


@settings(max_examples=300, deadline=None)
@given(st.frozensets(_con_strategy, min_size=1, max_size=6))
def test_converse_orients_as_rel_property(cons):
    # the constraints are drawn unoriented as often as oriented
    old = frozenset(
        br._orient(((_SWAP[t1], a1), (_SWAP[t2], a2))) for (t1, a1), (t2, a2) in cons
    )
    assert br.converse(br.BranchRelation(False, cons)).constraints == old


def _oriented(r):
    return all(br._orient(c) == c for c in r.constraints)


# the identity stored unoriented, R.^=L.^: no word, so compose must not pass
# it through as one
_UNORIENTED_ID = br.BranchRelation(False, frozenset(((("R", ""), ("L", "")),)))


@settings(max_examples=300, deadline=None)
@given(_constraint_systems(), _constraint_systems())
@example(_UNORIENTED_ID, _UNORIENTED_ID)
@example(_UNORIENTED_ID, br.GEN_A)
@example(br.GEN_A, _UNORIENTED_ID)
@example(br.converse(br.GEN_B), _UNORIENTED_ID)
def test_compose_emits_oriented_constraints_property(r1, r2):
    assert _oriented(br.compose(r1, r2))


def test_compose_output_on_the_pool_is_pinned():
    # format_relation of every pool pair's product, hashed; a change of the
    # compose kernel must leave each output's constraint set as it is
    pool = br.paths_pool()
    assert len(pool) == 105
    outs = [br.compose(x, y) for x in pool for y in pool]
    assert all(_oriented(r) for r in outs)
    text = "\n".join(br.format_relation(r) for r in outs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3c079ea2acb01470ae1800d0c09e3478aa738655b24f1f33006148068b31be1c"
    )


# --- the normal form ---------------------------------------------------------


def _nf(r):
    """nf(r) = _compose_engine(r, IDENT), through the engine whatever r's
    flag says."""
    return br._compose_engine(r, ID)


@functools.cache
def _pool_products():
    pool = br.paths_pool()
    products = dict.fromkeys(br.compose(x, y) for x in pool for y in pool)
    return [r for r in products if not r.is_zero]


def _two_level_products(n, seed):
    pool, products = br.paths_pool(), _pool_products()
    rng = random.Random(seed)
    out = [br.compose(rng.choice(products), rng.choice(pool)) for _ in range(n)]
    return [r for r in out if not r.is_zero]


def test_normal_relations_are_fixed_points_of_nf():
    products = _pool_products()
    two_level = _two_level_products(600, 26)
    normal = [r for r in br.paths_pool() + products + two_level if r.normal]
    assert len(normal) > len(products) + 500
    for r in normal:
        assert _nf(r).constraints == r.constraints, r
    # nf is idempotent on any relation, normal or not
    rng = random.Random(27)
    others = [br.meet(rng.choice(products), rng.choice(two_level)) for _ in range(300)]
    others += [br.converse(r) for r in products[:300]]
    for r in others:
        once = _nf(r)
        assert once.normal and _nf(once).constraints == once.constraints


def test_two_tag_nf_is_the_product_with_the_identity():
    # br._nf reads an unflagged relation's normal form off its own two-tag
    # engine; the three-tag product r;IDENT (`_nf` here) is the definition
    rng = random.Random(32)
    products, two_level = _pool_products(), _two_level_products(600, 26)
    rels = [_criterion_12_relation(rng) for _ in range(2000)] + products + two_level
    rels += [br.meet(rng.choice(products), rng.choice(two_level)) for _ in range(600)]
    rels += [br.meet(x, y) for x, y in zip(products, products[1:])]
    rels += [br.converse(r) for r in products + two_level]
    for r in (br.BranchRelation(False, r.constraints) for r in rels):
        got = br._nf(r)
        assert got.normal and got.constraints == _nf(r).constraints, r


@settings(max_examples=200, deadline=None)
@given(_constraint_systems(), _constraint_systems())
def test_nf_on_drawn_operands_property(r1, r2):
    product = br.compose(r1, r2)
    assert product.normal and _nf(product).constraints == product.constraints
    for r in (r1, br.meet(r1, r2)):
        once = _nf(r)
        assert _nf(once).constraints == once.constraints


def _equal_by_engine(x, y):
    """Equality as two-way entailment, each constraint closed in its own
    two-tag engine."""
    return all(oracles.entails(x, q) for q in y.constraints) and all(
        oracles.entails(y, q) for q in x.constraints
    )


def test_equal_is_equality_of_normal_forms():
    products = _pool_products()
    rng = random.Random(28)
    pairs = []
    for _ in range(300):
        x, y = rng.choice(products), rng.choice(products)
        met = br.meet(x, y)
        pairs += [(x, y), (met, _nf(met)), (met, br.meet(met, _nf(x))), (br.converse(x), y)]
    for _ in range(300):
        r = _criterion_12_relation(rng)
        pairs += [(r, _nf(r)), (r, br.meet(r, _nf(r))), (r, _criterion_12_relation(rng))]
    verdicts = []
    for x, y in pairs:
        want = _equal_by_engine(x, y)
        assert (_nf(x) == _nf(y)) == want, (x, y)
        assert br.equal(x, y) == br.equal(y, x) == want, (x, y)
        verdicts.append(want)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_normal_leq_walk_matches_the_engine():
    # leq's walk over a normal r1 partitions all 254 endpoints of length
    # <= 6 (32,131 pairs) as one bounded worklist saturation of r1 does
    rng = random.Random(29)
    normal = rng.sample(_pool_products(), 200) + _two_level_products(100, 30)
    joined = 0
    for r in normal:
        names = br._names(r)
        by_walk: dict = {}
        walked = [by_walk.setdefault(br._walk(names, e), i) for i, e in enumerate(ENDPOINTS_6)]
        assert walked == oracles.partition_bfs(r, ENDPOINTS_6, bound=8), r
        joined += sum(label != i for i, label in enumerate(walked))
    assert joined > 1000, joined
    # and leq itself, normal r1 against the engine's entailment
    others = normal[:100] + [br.meet(r, rng.choice(normal)) for r in normal[:100]]
    for r1, r2 in zip(normal, others):
        for x, y in ((r1, r2), (r1, br.meet(r1, r2)), (r1, r1)):
            assert br.leq(x, y) == all(oracles.entails(x, q) for q in y.constraints)


def test_prefix_rule_is_the_engine_product(monkeypatch):
    # every normal pool product r against every word W_u on the left and
    # every co-word C_v on the right, |u|, |v| <= 4; IDENT is both
    left, right = (
        [br._word("".join(w), root) for n in range(5) for w in itertools.product("01", repeat=n)]
        for root in "RL"
    )
    assert len(left) == len(right) == 31 and left[0] == right[0] == ID
    normal = [r for r in _pool_products() if br._word_parts(r) is None]
    engine, flipped = br._compose_engine, []
    # compose reaches the engine here only when a class name flips
    monkeypatch.setattr(br, "_compose_engine", lambda x, y: flipped.append(1) or engine(x, y))
    for pairs in ([(w, r) for r in normal for w in left], [(r, w) for r in normal for w in right]):
        flipped.clear()
        for x, y in pairs:
            assert br.compose(x, y).constraints == engine(x, y).constraints, (x, y)
        assert 1000 < len(flipped) < len(pairs) - 10_000, len(flipped)
    # IDENT;r and r;IDENT are r, with no engine
    monkeypatch.setattr(br, "_compose_engine", None)
    for r in normal:
        assert br.compose(ID, r) == r == br.compose(r, ID)


def test_only_products_words_and_top_are_normal():
    x, y = br.compose(A, br.meet(A, CB)), br.compose(CB, br.meet(B, CA))
    assert x.normal and y.normal and TOP.normal and ID.normal and A.normal
    assert not br.meet(x, y).normal and not br.meet(TOP, x).normal
    assert not br.converse(x).normal and not br.converse(ID).normal
    assert not br.BranchRelation(False, x.constraints).normal
    # the flag is not part of the value
    plain = br.BranchRelation(False, x.constraints)
    assert plain == x and hash(plain) == hash(x) and len({plain, x}) == 1
