import random

import pytest
from hypothesis import given, settings, strategies as st

from branchalg import branchrel, terms
from branchalg.terms import (
    A,
    B,
    ID,
    TOP,
    ZERO,
    Comp,
    Conv,
    Leaf,
    Meet,
    Pair,
    RaOnlyOperatorError,
    TermSyntaxError,
    Var,
    comp,
    format_term,
    leaf_paths,
    mapsto,
    meet,
    parse_term,
    parse_tree_expr,
    tree_leaves,
)


def test_parse_basic_shapes():
    assert parse_term("conv(a);b") == Comp(Conv(A), B)
    assert parse_term("a;conv(a) & b;conv(b)") == Meet(
        Comp(A, Conv(A)), Comp(B, Conv(B))
    )
    assert parse_term("x") == Var("x")
    assert parse_term("id") == ID
    assert parse_term("0") == ZERO
    assert parse_term("1") == TOP


def test_precedence_and_associativity():
    # conv > ; > & > +, all binary ops left-associative
    assert parse_term("a;b;a") == Comp(Comp(A, B), A)
    assert parse_term("a & b & id") == Meet(Meet(A, B), ID)
    assert parse_term("a;b & b;a") == Meet(Comp(A, B), Comp(B, A))
    assert parse_term("a + b & id") == terms.Join(A, Meet(B, ID))
    assert parse_term("a;(b;a)") == Comp(A, Comp(B, A))


def test_j_mode_rejects_union_and_complement():
    with pytest.raises(RaOnlyOperatorError):
        parse_term("x + -(y)", signature="J")
    with pytest.raises(RaOnlyOperatorError):
        parse_term("-(x)", signature="J")
    t = parse_term("x + -(y)")
    assert t == terms.Join(Var("x"), terms.Compl(Var("y")))


def test_syntax_errors_carry_positions():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("a;;b")
    assert exc.value.pos == 2
    with pytest.raises(TermSyntaxError):
        parse_term("conv(a")
    with pytest.raises(TermSyntaxError):
        parse_term("a b")


def test_format_examples():
    assert format_term(ID) == "id"
    assert format_term(ZERO) == "0"
    a_term = meet(comp(A, Conv(A), Conv(A)), comp(B, A, Conv(B), Conv(A)), comp(B, B, Conv(B)))
    assert format_term(a_term) == (
        "a;conv(a);conv(a) & b;a;conv(b);conv(a) & b;b;conv(b)"
    )


def _random_term(rng, depth, signature="RA"):
    leaves = [ZERO, TOP, ID, A, B, Var("x"), Var("y"), Var("zz")]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    kind = rng.randrange(5 if signature == "RA" else 3)
    if kind == 0:
        return Comp(_random_term(rng, depth - 1, signature), _random_term(rng, depth - 1, signature))
    if kind == 1:
        return Meet(_random_term(rng, depth - 1, signature), _random_term(rng, depth - 1, signature))
    if kind == 2:
        return Conv(_random_term(rng, depth - 1, signature))
    if kind == 3:
        return terms.Join(_random_term(rng, depth - 1, signature), _random_term(rng, depth - 1, signature))
    return terms.Compl(_random_term(rng, depth - 1, signature))


def test_round_trip_bulk():
    rng = random.Random(20240817)
    for _ in range(10_000):
        t = _random_term(rng, rng.randint(0, 8))
        assert parse_term(format_term(t)) == t


# st.recursive bounds the size by leaves, which also keeps every generated
# term far below terms.MAX_DEPTH
_term_strategy = st.recursive(
    st.sampled_from([ZERO, TOP, ID, A, B, Var("x"), Var("vv")]),
    lambda sub: st.one_of(
        st.builds(Conv, sub),
        st.builds(Comp, sub, sub),
        st.builds(Meet, sub, sub),
        st.builds(terms.Join, sub, sub),
        st.builds(terms.Compl, sub),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_term_strategy)
def test_round_trip_property(t):
    assert parse_term(format_term(t)) == t


# arbitrary text, and strings of term tokens that often parse
TERM_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(list("abxy01;&+-() ") + ["conv(", "id"])).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(TERM_TEXT, st.sampled_from(["RA", "J"]))
def test_parse_term_returns_a_term_or_raises_term_error(text, signature):
    try:
        t = parse_term(text, signature=signature)
    except terms.TermError:
        return
    assert isinstance(t, terms.Term)
    assert parse_term(format_term(t)) == t


def test_parse_tree_expr():
    assert parse_tree_expr("0(12)") == Pair(Leaf("0"), Pair(Leaf("1"), Leaf("2")))
    assert parse_tree_expr("0") == Leaf("0")
    assert parse_tree_expr("(01)(23)") == Pair(
        Pair(Leaf("0"), Leaf("1")), Pair(Leaf("2"), Leaf("3"))
    )
    with pytest.raises(TermSyntaxError):
        parse_tree_expr("012")
    with pytest.raises(TermSyntaxError):
        parse_tree_expr("(01")
    with pytest.raises(TermSyntaxError):
        parse_tree_expr("")


def test_leaf_paths_examples():
    paths = leaf_paths(parse_tree_expr("0(12)"))
    assert paths == {"0": A, "1": Comp(B, A), "2": Comp(B, B)}
    assert leaf_paths(parse_tree_expr("0")) == {"0": ID}
    paths = leaf_paths(parse_tree_expr("(01)2"))
    assert paths == {"0": Comp(A, A), "1": Comp(A, B), "2": B}


def test_leaf_paths_repeated_leaf_merges():
    # a symbol on both sides of a pair names the same point through both
    # branches, so its path is the meet of the two prefixed paths
    paths = leaf_paths(parse_tree_expr("00"))
    assert paths == {"0": Meet(A, B)}


def _paths_oracle(e, prefix=()):
    """Independent recursion for the path map (ignores repeated leaves)."""
    if isinstance(e, Leaf):
        return {e.symbol: prefix}
    out = dict(_paths_oracle(e.left, prefix + ("a",)))
    out.update(_paths_oracle(e.right, prefix + ("b",)))
    return out


def _random_tree(rng, symbols):
    if len(symbols) == 1:
        return Leaf(symbols[0])
    cut = rng.randint(1, len(symbols) - 1)
    return Pair(_random_tree(rng, symbols[:cut]), _random_tree(rng, symbols[cut:]))


def test_leaf_paths_against_direct_recursion():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 8)
        syms = list("0123456789abcdef"[:n])
        e = _random_tree(rng, syms)
        got = leaf_paths(e)
        want = _paths_oracle(e)
        assert set(got) == set(want)
        for sym, letters in want.items():
            expected = comp(*(A if ch == "a" else B for ch in letters)) if letters else ID
            assert got[sym] == expected


def test_mapsto_examples():
    assert mapsto(parse_tree_expr("01"), parse_tree_expr("0")) == A
    assert mapsto(parse_tree_expr("0"), parse_tree_expr("00")) == Meet(
        Conv(A), Conv(B)
    )
    a_term = meet(
        comp(A, Conv(A), Conv(A)), comp(B, A, Conv(B), Conv(A)), comp(B, B, Conv(B))
    )
    assert mapsto(parse_tree_expr("0(12)"), parse_tree_expr("(01)2")) == a_term


def test_mapsto_disjoint_leaves_is_top():
    assert mapsto(parse_tree_expr("01"), parse_tree_expr("23")) == TOP


def test_mapsto_self_is_identity_in_the_model():
    m = branchrel.model_handle()
    from branchalg.model import eval_term

    for text in ("0", "01", "(01)2", "0(12)", "(01)(23)", "0(1(23))"):
        e = parse_tree_expr(text)
        rel = eval_term(m, mapsto(e, e), {})
        assert branchrel.equal(rel, branchrel.ident()), text


def test_emit_dot_shapes():
    out = terms.emit_dot(A)
    assert out.count("->") == 1 and 'label="a"' in out
    a_term = meet(
        comp(A, Conv(A), Conv(A)), comp(B, A, Conv(B), Conv(A)), comp(B, B, Conv(B))
    )
    out = terms.emit_dot(a_term)
    # three parallel chains with 3 + 4 + 3 edges
    assert out.count("->") == 10
    assert out.count('label="a"') == 5 and out.count('label="b"') == 5
    out = terms.emit_dot(Meet(ID, ID))
    assert out.count("->") == 0
    with pytest.raises(RaOnlyOperatorError):
        terms.emit_dot(terms.Join(A, B))


def test_emit_dot_reverses_converse_edges():
    out = terms.emit_dot(Comp(A, Conv(B)))
    lines = [ln for ln in out.splitlines() if "->" in ln]
    assert len(lines) == 2
    # a runs forward from the source, the converse edge is drawn backwards
    src_a = lines[0].split("->")[0].strip()
    rev_b = lines[1]
    assert 'label="b"' in rev_b
    assert rev_b.split("->")[0].strip() != src_a


def test_tree_leaves_order():
    assert tree_leaves(parse_tree_expr("3(0(12))")) == ["3", "0", "1", "2"]


def test_subterms_preorder_keeps_repeats():
    t = parse_term("conv(x);x & -(a + x)")
    x = Var("x")
    assert list(terms.subterms(t)) == [
        t,
        Comp(Conv(x), x),
        Conv(x),
        x,
        x,
        terms.Compl(terms.Join(A, x)),
        terms.Join(A, x),
        A,
        x,
    ]
    assert terms.free_vars(t) == {"x"}
    assert terms.mentions_generators(t)
    assert not terms.is_j_term(t)
    assert terms.is_j_term(parse_term("conv(x);x & a"))
