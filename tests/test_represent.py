import itertools
import random
from collections import Counter

import pytest
from test_finra import _orbit_subsets

from branchalg.finra import (
    SIGNATURES,
    NotTabular,
    build_stage_rep,
    enumerate_integral,
    from_cycles,
    is_tabular,
    make_proper_ra,
    tabular_witness,
)
from branchalg.finra import represent
from branchalg.finra.represent import (
    SUBALGEBRA_CAP,
    PartialRep,
    _assert_common_post,
    extend_comp,
    extend_join,
    generated_subalgebra,
)

import oracles
from oracles import hat


def _strict_pairs(s):
    return [
        (v, w)
        for w in range(1, s.n_elements)
        for v in range(s.n_elements)
        if v != w and s.leq(v, w)
    ]


def test_re2_is_tabular_with_witnesses(re2):
    assert is_tabular(re2)
    comp, conv = re2.tables
    for v, w in _strict_pairs(re2):
        p, q = tabular_witness(re2, v, w)
        t = comp[conv[p], q]
        assert t != 0 and (t & w) == t and (t & v) == 0


def test_exactly_one_two_atom_structure_is_tabular():
    structures = enumerate_integral("1'a")
    flags = sorted(is_tabular(s) for s in structures)
    assert flags == [False, True]
    bad = [s for s in structures if not is_tabular(s)][0]
    with pytest.raises(NotTabular):
        tabular_witness(bad, bad.ident, bad.top)


def _random_structures(count):
    """Seeded random cycle-closed structures on one to five atoms, with a
    random involutive converse, a random nonempty set of identity atoms and
    the cycle orbits of random triples.  An identity atom is its own
    converse, so a converse pair that holds one is split."""
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        conv = list(range(n))
        unpaired = rng.sample(range(n), n)
        while len(unpaired) >= 2 and rng.random() < 0.5:
            i, j = unpaired.pop(), unpaired.pop()
            conv[i], conv[j] = j, i
        identity = rng.sample(range(n), rng.randint(1, n))
        for e in identity:
            conv[conv[e]], conv[e] = conv[e], e
        cycles = [
            tuple(rng.randrange(n) for _ in range(3))
            for _ in range(rng.randint(0, n * n))
        ]
        names = [f"x{i}" for i in range(n)]
        out.append(from_cycles(names, conv, identity, cycles, label=f"random#{seed}"))
    return out


def test_is_tabular_matches_the_pairwise_definition(enumerated):
    # the seven table rows, every orbit subset of four signatures (the
    # non-relation-algebras included), Re(1)-Re(3) and random structures
    structures = [s for sig in SIGNATURES for s in enumerated(sig)]
    for sig in ("1'a", "1'aa~", "1'ab", "1'abb~"):
        structures += _orbit_subsets(sig)[0]
    structures += [make_proper_ra(n) for n in (1, 2, 3)]
    structures += _random_structures(300)
    verdicts = Counter()
    for s in structures:
        assert s.functional_table[0].tolist() == oracles.functional_brute(s), s.label
        verdicts[is_tabular(s)] += 1
        assert is_tabular(s) == oracles.is_tabular_pairwise(s), s.label
    assert verdicts == {True: 88, False: 563}


def _witness_or_error(witness, s, v, w):
    try:
        return witness(s, v, w)
    except NotTabular as exc:
        return str(exc)


def test_witness_is_the_first_of_the_pairwise_scan(re2, enumerated):
    # every strict pair of Re(2), of each tabular structure of the table rows
    # and of the non-tabular two-atom structure, and a seeded sample of Re(3)
    bad = [s for s in enumerated("1'a") if not is_tabular(s)][0]
    structures = [re2, bad]
    structures += [s for sig in SIGNATURES for s in enumerated(sig) if is_tabular(s)]
    cases = [(s, _strict_pairs(s)) for s in structures]
    re3 = make_proper_ra(3)
    cases.append((re3, random.Random(0).sample(_strict_pairs(re3), 200)))
    for s, pairs in cases:
        for v, w in pairs:
            want = _witness_or_error(oracles.tabular_witness_loop, s, v, w)
            assert _witness_or_error(tabular_witness, s, v, w) == want, (s.label, v, w)
    for witness in (tabular_witness, oracles.tabular_witness_loop):
        with pytest.raises(NotTabular):
            witness(bad, bad.ident, bad.top)


def test_witness_requires_strict_pair(re2):
    with pytest.raises(ValueError):
        tabular_witness(re2, 3, 3)
    with pytest.raises(ValueError):
        tabular_witness(re2, re2.top, re2.ident)


def _diag_rep(re2):
    # two copies of a point relation: nonzero, functional, common domain
    comp, conv = re2.tables
    e = None
    for x in re2.functional_table[0].tolist():
        if x and re2.leq(x, re2.ident) and bin(x).count("1") == 1:
            e = x
            break
    return PartialRep(re2, (e, e))


def test_partial_rep_validation(re2):
    with pytest.raises(ValueError):
        PartialRep(re2, (0, re2.ident))
    with pytest.raises(ValueError):
        PartialRep(re2, (re2.top,))  # not functional
    rep = _diag_rep(re2)
    assert len(rep) == 2


def test_hat_basics(re2):
    rep = _diag_rep(re2)
    diag = {(i, i) for i in range(len(rep))}
    assert diag <= hat(rep, re2.ident)
    assert hat(rep, 0) == frozenset()
    comp, conv = re2.tables
    for x in range(re2.n_elements):
        assert hat(rep, int(conv[x])) == frozenset(
            (j, i) for i, j in hat(rep, x)
        )


def test_lemma_properties_on_re2_and_enumerated(re2, enumerated):
    rep = _diag_rep(re2)
    assert oracles.lemma_properties_hold(rep)
    for s in enumerated("1'abb~")[:3]:
        fns = [x for x in s.functional_table[0].tolist() if x]
        comp, _ = s.tables
        f0 = fns[0]
        dom = int(comp[f0, s.top])
        seq = [f for f in fns if int(comp[f, s.top]) == dom][:3]
        rep = PartialRep(s, tuple(seq))
        assert oracles.lemma_properties_hold(rep)


def test_extend_join_postconditions(re2):
    comp, conv = re2.tables
    rep = _diag_rep(re2)
    x, y = rep.f[0], int(comp[rep.f[0], re2.top])
    targets = hat(rep, x | y)
    assert targets
    i, j = sorted(targets)[0]
    g = extend_join(rep, i, j, x, y)
    assert (i, j) in hat(g, x) | hat(g, y)
    # when the first branch has a nonzero seed it is the one selected
    if comp[rep.f[i], x] & rep.f[j]:
        assert (i, j) in hat(g, x)
    for z in range(re2.n_elements):
        assert hat(rep, z) <= hat(g, z)
        for k in range(len(rep)):
            for l in range(len(rep)):
                if (comp[rep.f[k], z] & rep.f[l]) == 0:
                    assert (comp[g.f[k], z] & g.f[l]) == 0
    # degenerate join: x joined with itself restricts the domain only
    g2 = extend_join(rep, i, j, x, x)
    assert (i, j) in hat(g2, x)


def test_extend_join_precondition(re2):
    rep = _diag_rep(re2)
    with pytest.raises(ValueError):
        extend_join(rep, 0, 1, 0, 0)


def test_extend_comp_on_re2(re2):
    comp, conv = re2.tables
    rep = _diag_rep(re2)
    x = y = re2.top
    assert (0, 1) in hat(rep, int(comp[x, y]))
    g = extend_comp(rep, 0, 1, x, y)
    m = len(g) - 1
    assert m == len(rep)
    assert (0, m) in hat(g, x) and (m, 1) in hat(g, y)
    assert (0, 1) in {
        (i, j) for i, k in hat(g, x) for k2, j in hat(g, y) if k == k2
    }
    for z in range(re2.n_elements):
        assert hat(rep, z) <= hat(g, z)


def _post_error(check, old, new):
    try:
        check(old, new)
    except AssertionError as exc:
        return str(exc)
    return None


def test_extension_check_rejects_bad_extensions(re2):
    # p00 -> p01 drops every pair from the map of p00; p01 -> p00 keeps the
    # maps but makes p01 ; p11 & p00 nonzero where p01 ; p11 & p01 was zero
    p00, p01 = PartialRep(re2, (1,)), PartialRep(re2, (2,))
    with pytest.raises(AssertionError, match="not monotone"):
        _assert_common_post(p00, p01)
    with pytest.raises(AssertionError, match="zero product"):
        _assert_common_post(p01, p00)
    _assert_common_post(p00, p00)


def test_extension_check_matches_the_loop(re2):
    # every pair of nonzero functional sequences of length one or two with a
    # common domain, the new one at least as long as the old
    comp, _ = re2.tables
    fns = [x for x in re2.functional_table[0].tolist() if x]
    reps = [
        PartialRep(re2, seq)
        for n in (1, 2)
        for seq in itertools.product(fns, repeat=n)
        if len({int(comp[f, re2.top]) for f in seq}) == 1
    ]
    verdicts = Counter()
    for old in reps:
        for new in reps:
            if len(new) >= len(old):
                want = _post_error(oracles.common_post_loop, old, new)
                assert _post_error(_assert_common_post, old, new) == want
                verdicts[want] += 1
    assert verdicts == {
        None: 262,
        "extension is not monotone": 300,
        "extension created a zero product": 270,
    }


def _first_raise(s, pairs):
    """The AssertionError message of the first of the runs that raises."""
    for v, w in pairs:
        try:
            build_stage_rep(s, v, w, stages=20, seed=0)
        except AssertionError as exc:
            return str(exc)
    return None


def test_join_check_rejects_an_extension_that_loses_the_target(re2, monkeypatch):
    # the "extension" puts e at index i and e2 at every other index, for the
    # first nonzero functional e, e2 with a common domain that leave (i, j)
    # in neither the map of x nor that of y; the target check runs first
    real = represent.extend_join

    def bad_extend_join(rep, i, j, x, y):
        comp, _ = re2.tables
        fns = [e for e in re2.functional_table[0].tolist() if e]
        for e, e2 in itertools.product(fns, repeat=2):
            if comp[e, re2.top] == comp[e2, re2.top]:
                g = tuple(e if k == i else e2 for k in range(len(rep)))
                if all(comp[g[i], z] & g[j] != g[j] for z in (x, y)):
                    return PartialRep(re2, g)
        return real(rep, i, j, x, y)

    monkeypatch.setattr(represent, "extend_join", bad_extend_join)
    msg = _first_raise(re2, _strict_pairs(re2))
    assert msg == "join extension lost its target membership"


def test_comp_check_rejects_an_extension_without_a_witness_index(re2, monkeypatch):
    # a composition "extension" that appends a functional element e with the
    # common domain keeps the old maps, so only the witness check can reject
    # it; e is the first with (i, m) outside the map of x or (m, j) outside
    # the map of y
    real = represent.extend_comp

    def bad_extend_comp(rep, i, j, x, y):
        comp, _ = re2.tables
        fi, fj = rep.f[i], rep.f[j]
        dom = comp[rep.f[0], re2.top]
        for e in re2.functional_table[0].tolist():
            if e and comp[e, re2.top] == dom:
                if not (comp[fi, x] & e == e and comp[e, y] & fj == fj):
                    return PartialRep(re2, rep.f + (e,))
        return real(rep, i, j, x, y)

    monkeypatch.setattr(represent, "extend_comp", bad_extend_comp)
    msg = _first_raise(re2, _strict_pairs(re2))
    assert msg == "composition extension lost its witness index"


def test_generated_subalgebra_cap(re2):
    xs = generated_subalgebra(re2, [3, 7])
    assert len(xs) <= SUBALGEBRA_CAP
    assert 0 in xs and re2.ident in xs and re2.top in xs


def test_generated_subalgebra_matches_the_list_loop(re2, enumerated):
    # same elements in the same order, cap included: every strict pair of
    # Re(2), seeded pairs of Re(3) and of every table row's structures
    rng = random.Random(0)
    re3 = make_proper_ra(3)
    cases = [(re2, pair) for pair in _strict_pairs(re2)]
    cases += [(re3, pair) for pair in rng.sample(_strict_pairs(re3), 20)]
    for sig in SIGNATURES:
        for s in enumerated(sig):
            cases += [(s, rng.choice(_strict_pairs(s))) for _ in range(2)]
    for s, seeds in cases:
        assert generated_subalgebra(s, seeds) == oracles.generated_subalgebra_loop(s, seeds)
    assert any(len(generated_subalgebra(s, seeds)) == SUBALGEBRA_CAP for s, seeds in cases)


def test_build_stage_rep_separates(re2):
    report = build_stage_rep(re2, 0, 0b0010, stages=50, seed=0)
    assert len(report.steps) == len(report.reps) == 50
    assert oracles.stages_separate(report)
    # separation is achieved at stage 0 already
    assert oracles.separates_pair(report.reps[0], 0, 0b0010)


def test_build_stage_rep_many_pairs(re2):
    for v, w in _strict_pairs(re2)[:8]:
        report = build_stage_rep(re2, v, w, stages=12, seed=1)
        assert oracles.stages_separate(report), (v, w)


@pytest.mark.parametrize("seed", [0, 1])
def test_separates_reads_the_union_of_the_stage_maps(re2, seed):
    # the maps only grow, so the last stage's maps are the union over every
    # stage, and that union separates v < w
    ident, top = re2.ident, re2.top
    criterion_11 = [(0, 2), (0, top), (2, 3), (ident, top), (1, 1 | 2), (2, 2 | 4 | 8)]
    runs = [(pair, 50) for pair in criterion_11]
    runs += [(pair, 12) for pair in _strict_pairs(re2)[:8]]
    for (v, w), stages in runs:
        report = build_stage_rep(re2, v, w, stages=stages, seed=seed)
        union = {x: set().union(*(hat(rep, x) for rep in report.reps)) for x in (v, w)}
        assert union[v] == hat(report.reps[-1], v) and union[w] == hat(report.reps[-1], w)
        want = (0, 1) in union[w] and (0, 1) not in union[v]
        assert want and oracles.stages_separate(report), (v, w, seed)


def test_build_stage_rep_composition_witnesses(re2):
    report = build_stage_rep(re2, 0, 0b0010, stages=60, seed=0)
    assert any(step == "comp" and len(rep) > 2 for step, rep in zip(report.steps, report.reps))
    assert oracles.stages_separate(report)


def test_initial_check_rejects_a_witness_that_does_not_separate(re2, monkeypatch):
    # conv(1');1' = 1' is not disjoint from v = 1', so the stage-0 sequence
    # (1', 1') has f_0 ; v & f_1 = 1'
    monkeypatch.setattr(represent, "tabular_witness", lambda s, v, w: (s.ident, s.ident))
    with pytest.raises(AssertionError, match="^initial sequence does not separate v < w$"):
        build_stage_rep(re2, re2.ident, re2.top, stages=5, seed=0)


def test_build_stage_rep_errors(re2):
    with pytest.raises(ValueError):
        build_stage_rep(re2, 0, 1, stages=0)
    with pytest.raises(ValueError):
        build_stage_rep(re2, 1, 1, stages=5)
    bad = [s for s in enumerate_integral("1'a") if not is_tabular(s)][0]
    with pytest.raises(NotTabular):
        build_stage_rep(bad, bad.ident, bad.top, stages=5)
