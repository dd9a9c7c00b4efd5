"""Uniform term evaluation and law checking over any model.

A ModelHandle packages the operations of a concrete algebra (the tree-relation
model or a finite algebra given by atom tables).  Laws are universally
quantified implications between term equations; they are checked semantically,
either over every assignment (finite models) or over seeded samples.

One term compiler and one law-checking loop, search, serve every model.  Each
handle's operations also work elementwise, and broadcast, on numpy arrays of
elements (int64 bitmasks on a finite model, object arrays of relations on
the tree), so a compiled term evaluates a whole block of assignments at
once.  An exhaustive block is a grid with one axis per variable, so each
subterm is computed over the axes of its own variables only, and one that
mentions grid variables only is computed once per search; a sampled
block is a row of draws.  verdicts walks the same blocks, from the same
sampler, for one equation whose variables are bound to given values, as
the tree suites bind theirs.  relation_holds checks one relation at one
assignment; it re-runs counterexamples and checks the closed suite
relations.

functional, permutational and total build the guards the theorems are
stated under, as relations on given terms; the law catalog, the tree
suites and the functional tables of finite structures all read them.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

import numpy as np

from . import UsageError, terms
from .terms import ID, TOP, Comp, Conv, Term

EXHAUSTIVE_CAP = 1 << 20
BLOCK = 1 << 12  # most assignments, and array entries, per block


class ModelError(UsageError):
    pass


class UnboundVariableError(ModelError):
    pass


class UnsupportedOperatorError(ModelError):
    pass


class StrategyUnavailableError(ModelError):
    pass


class UnconfirmedCounterexample(RuntimeError):
    """The block search found an assignment that the scalar evaluator does
    not refute.  That is a bug, not a law failure, so it is no ModelError:
    the CLI reports it as an internal error (exit 3), never as a fail."""


@dataclass
class ModelHandle:
    name: str
    meet: Callable[[Any, Any], Any]
    comp: Callable[[Any, Any], Any]
    conv: Callable[[Any], Any]
    zero: Any
    top: Any
    ident: Any
    equal: Callable[[Any, Any], bool]
    leq: Callable[[Any, Any], bool]
    sample_pool: Callable[[], list]
    join: Callable[[Any, Any], Any] | None = None
    compl: Callable[[Any], Any] | None = None
    gen_a: Any = None
    gen_b: Any = None
    elements: Callable[[], list] | None = None
    format_element: Callable[[Any], str] = repr
    atoms: Callable[[], list] | None = None


def elementwise(f, nin: int):
    """f on single elements, and elementwise through np.frompyfunc when an
    argument is an array, as the tree model's object arrays of relations
    are.  A single call stays a direct call: the suites make many, and
    frompyfunc costs several times more."""
    vf = np.frompyfunc(f, nin, 1)
    if nin == 1:
        g = lambda x: vf(x) if isinstance(x, np.ndarray) else f(x)
    else:
        g = lambda x, y: (
            vf(x, y) if isinstance(x, np.ndarray) or isinstance(y, np.ndarray) else f(x, y)
        )
    g.__wrapped__ = f
    return g


def eval_term(m: ModelHandle, t: Term, env: dict[str, Any]) -> Any:
    """Homomorphic evaluation of a term under a variable assignment.

    The generator symbols are the model's distinguished generators when it
    fixes them (the tree); otherwise they are read from the environment as
    "a" and "b", like variables.
    """
    return _compile(t, m)(env)


# the ModelHandle field that interprets each operator and constant
_FIELDS = {
    terms.Zero: "zero",
    terms.Top: "top",
    terms.Id: "ident",
    terms.Conv: "conv",
    terms.Compl: "compl",
    terms.Comp: "comp",
    terms.Meet: "meet",
    terms.Join: "join",
}


def _compile(t: Term, m: ModelHandle, bound=None):
    """Build a closure evaluating t; avoids re-dispatching on node types in
    inner assignment loops.

    A ground subterm is folded: it is evaluated once, here, and the closure
    uses its value.  A subterm is ground when every variable it mentions is
    bound, as search binds the axes of its grid (bound maps a name to its
    value), and a generator that the model fixes is a constant, so on the
    tree a closed suite term compiles to one constant and builds no closure
    for its parts.  Folds are memoised by subterm identity, so a subterm
    object that t shares is evaluated once.  Subterms with a variable that
    is not bound compile as closures (`_fold`).  The folded values are those
    the closures would compute over one block, so compiling may do one
    block's work, never more.
    """
    ground, f = _fold(t, m, {}, bound or {})
    return _constant(f) if ground else f


def _fold(
    t: Term, m: ModelHandle, values: dict[int, Any], bound: dict[str, Any]
) -> tuple[bool, Any]:
    """(True, the value of t) when t is ground, else (False, a closure
    evaluating t).  values maps the id of each ground subterm folded so far
    to its value; bound maps the variables that count as ground to their
    values.

    A bound variable is its value.  Other variables read the environment,
    and so do the generators on a model that does not fix them, unless
    they are bound too.  Every other node looks its class up in _FIELDS;
    it is a constant, or a unary or binary closure over that field of the
    handle, with constant closures for its ground operands.
    """
    key = id(t)
    if key in values:
        return True, values[key]
    cls = type(t)
    if cls is terms.GenA or cls is terms.GenB:
        g = m.gen_a if cls is terms.GenA else m.gen_b
        if g is not None:
            return True, g
    if cls is terms.Var or cls is terms.GenA or cls is terms.GenB:
        name = t.name if cls is terms.Var else terms._LEAVES[cls]
        if name in bound:
            return True, bound[name]
        return False, lambda env: _lookup(env, name)
    field = _FIELDS[cls]
    op = getattr(m, field)
    if op is None:
        word = "complement" if field == "compl" else field
        raise UnsupportedOperatorError(f"model {m.name} has no {word}")
    if cls in terms._BINARY:
        gl, fl = _fold(t.left, m, values, bound)
        gr, fr = _fold(t.right, m, values, bound)
        if gl and gr:
            values[key] = out = op(fl, fr)
            return True, out
        fl, fr = (_constant(fl) if gl else fl), (_constant(fr) if gr else fr)
        return False, lambda env: op(fl(env), fr(env))
    if cls in terms._UNARY:
        g, f = _fold(t.child, m, values, bound)
        if g:
            values[key] = out = op(f)
            return True, out
        return False, lambda env: op(f(env))
    return True, op


def _constant(value):
    return lambda env: value


def _lookup(env: dict[str, Any], name: str):
    try:
        return env[name]
    except KeyError:
        raise UnboundVariableError(f"unbound variable {name!r}") from None


Relation = tuple[Term, str, Term]  # middle component "=" or "<="


def functional(*ts: Term) -> list[Relation]:
    """conv(t);t <= id for each term t: t is functional."""
    return [(Comp(Conv(t), t), "<=", ID) for t in ts]


def permutational(*ts: Term) -> list[Relation]:
    """conv(t);t = id and t;conv(t) = id for each term t."""
    return [(p, "=", ID) for t in ts for p in (Comp(Conv(t), t), Comp(t, Conv(t)))]


def total(*ts: Term) -> list[Relation]:
    """1 = t;1 for each term t: the Domain condition on t."""
    return [(TOP, "=", Comp(t, TOP)) for t in ts]


@dataclass(frozen=True)
class Law:
    """A named universally quantified hypotheses => conclusions schema."""

    id: str
    variables: tuple[str, ...]
    hypotheses: tuple[Relation, ...]
    conclusions: tuple[Relation, ...]
    theorem: bool = True  # False for formulas that are known to fail somewhere
    part: str = "II"

    def __post_init__(self):
        declared = set(self.variables)
        for lhs, op, rhs in self.hypotheses + self.conclusions:
            if op not in ("=", "<="):
                raise ValueError(f"law {self.id}: bad relation {op!r}")
            undeclared = (terms.free_vars(lhs) | terms.free_vars(rhs)) - declared
            if undeclared:
                raise ValueError(f"law {self.id}: undeclared variables {undeclared}")

    def quantified_variables(self, m: ModelHandle) -> tuple[str, ...]:
        """Variables to range over in the given model: the declared ones plus
        the generator symbols when the model does not fix them."""
        out = list(self.variables)
        if m.gen_a is None and self._mentions_generators:
            out += ["a", "b"]
        return tuple(out)

    @cached_property
    def signature(self) -> str:
        """The signature the terms fix: "J" when none uses union or
        complement, else "RA"."""
        j = all(
            terms.is_j_term(lhs) and terms.is_j_term(rhs)
            for lhs, _, rhs in self.hypotheses + self.conclusions
        )
        return "J" if j else "RA"

    @cached_property
    def _mentions_generators(self) -> bool:
        """Whether a term of the law names a or b, worked out once per law.
        Not a field, so equality and hash ignore it."""
        return any(
            terms.mentions_generators(lhs) or terms.mentions_generators(rhs)
            for lhs, _, rhs in self.hypotheses + self.conclusions
        )


@dataclass
class LawReport:
    law_id: str
    tested: int
    passed: bool
    counterexample: dict[str, str] | None = None

    def line(self) -> str:
        out = f"LAW {self.law_id} {'pass' if self.passed else 'fail'} tested={self.tested}"
        if self.counterexample:
            assign = ";".join(f"{k}={v}" for k, v in sorted(self.counterexample.items()))
            out += f" [counterexample: {assign}]"
        return out


@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sample:
    n: int = 200
    seed: int = 0


def check_law(m: ModelHandle, law: Law, strategy) -> LawReport:
    """Test a law over assignments; pass means no tested assignment satisfies
    every hypothesis while violating a conclusion.  The assignments are
    walked by search, after the strategy is checked against the model."""
    names = law.quantified_variables(m)
    if not names:
        strategy = Exhaustive()
    if isinstance(strategy, Exhaustive):
        if names and m.elements is None:
            raise StrategyUnavailableError(
                f"model {m.name} has no element iterator for exhaustive checking"
            )
        total = len(m.elements()) ** len(names) if names else 1
        if total > EXHAUSTIVE_CAP:
            raise StrategyUnavailableError(
                f"law {law.id}: {total} assignments exceed the exhaustive cap"
            )
    elif not isinstance(strategy, Sample):
        raise ValueError(f"unknown strategy {strategy!r}")
    tested, env = search(m, law, strategy)
    ce = None if env is None else {k: m.format_element(v) for k, v in env.items()}
    return LawReport(law.id, tested, env is None, ce)


def choice_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """The indices that k calls of rng.choice on a sequence of length n
    would pick, in order, leaving rng in the same state: each draws
    n.bit_length() random bits, again while they read n or more.  With no
    Python call per draw, it takes about a fifth of the time."""
    bits, width = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(k):
        r = bits(width)
        while r >= n:
            r = bits(width)
        out.append(r)
    return out


def _draws(pool, k: int, strategy):
    """strategy.n seeded rows of k draws from pool, as (values, (rows,))
    blocks of at most BLOCK rows, in the order of rng.choice calls that
    draw the k entries of each row in turn.  Each of the k value arrays is
    gathered from one pool array."""
    pool = np.asarray(pool)
    rng = random.Random(strategy.seed)
    draws = np.array(choice_indices(rng, len(pool), strategy.n * k), dtype=np.intp)
    draws = draws.reshape(strategy.n, k)
    for start in range(0, strategy.n, BLOCK):
        rows = draws[start : start + BLOCK]
        yield [pool[rows[:, j]] for j in range(k)], (len(rows),)


def search(
    m: ModelHandle, law: Law, strategy, atom_vars=frozenset()
) -> tuple[int, dict[str, Any] | None]:
    """First counterexample to a law, evaluated a block of assignments at a
    time.

    Exhaustive search walks every assignment in itertools.product order and
    lets the variables in atom_vars range over the atoms only (see
    reducible); it ignores the cap, which check_law enforces.  Its blocks
    are the grids of _grids, on which every variable has an axis of its
    own, so each subterm is computed only over the axes of the variables it
    mentions.  The grid variables are bound to the same axis arrays in
    every block, so the law is compiled with them bound (_compile): a
    subterm that mentions only grid variables is evaluated once per search,
    while compiling, and only the subterms that mention a walked variable
    are evaluated per block.  The hypotheses are ANDed into a mask, which
    keeps the grid a grid.  Sampling walks the seeded draws of _draws in
    order, as rows of at most BLOCK assignments, binds nothing at compile
    time, and drops the rows that fail a hypothesis before the next one is
    evaluated.  The hypotheses are compiled at the first block; the
    conclusions at the first block where some assignment passes every
    hypothesis, and they are computed only in such blocks, so a guard that
    holds nowhere costs no conclusion work.  Returns how many
    assignments were tested, up to and including the counterexample, and
    the counterexample as {variable: element}, or None.

    Every counterexample must re-fail: before it is returned, and so before
    check_law or jlm.check_jlm reports it, rerun_counterexample evaluates
    it again, one scalar term at a time, and UnconfirmedCounterexample is
    raised if it does not refute the law.
    """
    names = law.quantified_variables(m)
    grid = isinstance(strategy, Exhaustive)
    if grid:
        pools = [m.atoms() if v in atom_vars else m.elements() for v in names]
        blocks = _grids(pools)
    else:
        blocks = _draws(m.sample_pool(), len(names), strategy)
    bound, hyps, concls = {}, None, None
    tested = 0
    for values, shape in blocks:
        if hyps is None:
            if grid:  # the trailing values are the grid's axes
                lead = len(names) - len(shape)
                bound = dict(zip(names[lead:], values[lead:]))
            hyps = _compile_relations(law.hypotheses, m, bound)
        env = dict(zip(names, values))
        live = None  # on a grid, the mask of the hypotheses so far
        at = None  # in a sample, the block position of each row left
        for fl, op, fr in hyps:
            ok = _holds(m, fl, op, fr, env, shape if at is None else at.shape)
            if grid:
                live = ok if live is None else live & ok
            else:
                at = np.flatnonzero(ok) if at is None else at[ok]
                env = {k: v[ok] for k, v in env.items()}
        if (live is None or live.any()) and (at is None or at.size):
            if concls is None:
                concls = _compile_relations(law.conclusions, m, bound)
            bad = None
            for fl, op, fr in concls:
                ok = _holds(m, fl, op, fr, env, shape if at is None else at.shape)
                bad = ~ok if bad is None else bad | ~ok
            hit = np.flatnonzero(bad if live is None else live & bad)
            if hit.size:
                i = int(hit[0] if at is None else at[hit[0]])
                found = {k: _entry(v, shape, i) for k, v in zip(names, values)}
                if not rerun_counterexample(m, law, found):
                    shown = {k: m.format_element(v) for k, v in found.items()}
                    raise UnconfirmedCounterexample(
                        f"law {law.id}: {shown} does not refute it again"
                    )
                return tested + i + 1, found
        tested += math.prod(shape)
    return tested, None


def _compile_relations(relations, m: ModelHandle, bound) -> list:
    """Each relation (lhs, op, rhs) as (compiled lhs, op, compiled rhs)."""
    return [(_compile(l, m, bound), op, _compile(r, m, bound)) for l, op, r in relations]


def verdicts(
    m: ModelHandle, relation: Relation, names, blocks
) -> list[bool]:
    """Whether relation holds at each assignment of blocks, in order.

    The relation (lhs, op, rhs) is compiled once and evaluated a block at a
    time, as search evaluates a law.  The blocks bind names in order and
    come from _grids, whose product order the verdicts follow and on which
    each subterm is computed over the axes of its own variables only, or
    from _draws, one verdict per row.
    """
    lhs, op, rhs = relation
    fl, fr = _compile(lhs, m), _compile(rhs, m)
    out: list[bool] = []
    for values, shape in blocks:
        out += _holds(m, fl, op, fr, dict(zip(names, values)), shape).ravel().tolist()
    return out


def _holds(m: ModelHandle, fl, op: str, fr, env, shape) -> np.ndarray:
    """The verdict of the compiled relation fl op fr at every assignment of
    a block, as a bool array of the block's shape."""
    rel = m.equal if op == "=" else m.leq
    return np.broadcast_to(np.asarray(rel(fl(env), fr(env)), bool), shape)


def _grids(pools):
    """Every assignment drawing variable i from pools[i], in
    itertools.product order, as (values, shape) blocks.

    The trailing variables whose pools multiply to at most BLOCK form the
    grid: each is bound to its pool reshaped to (1, ..., n_i, ..., 1), so
    the block is their broadcast product of the given shape, in C order.
    The leading variables are bound to single elements, walked in
    itertools.product order.  When the last pool alone is larger than
    BLOCK the grid is empty and each block is one assignment.
    """
    pools = [np.asarray(p) for p in pools]
    k, size = len(pools), 1
    while k and size * len(pools[k - 1]) <= BLOCK:
        k -= 1
        size *= len(pools[k])
    shape = tuple(len(p) for p in pools[k:])
    axes = [
        p.reshape((1,) * i + (n,) + (1,) * (len(shape) - i - 1))
        for i, (p, n) in enumerate(zip(pools[k:], shape))
    ]
    for outer in itertools.product(*(p.tolist() for p in pools[:k])):
        yield (*outer, *axes), shape


def _entry(v, shape, i: int):
    """The element a block binds at flat position i (C order) of shape."""
    if not isinstance(v, np.ndarray):
        return v
    return np.broadcast_to(v, shape).ravel()[i : i + 1].tolist()[0]


def reducible(law: Law) -> frozenset[str]:
    """Variables of a law that may range over the atoms alone, on a finite
    algebra whose elements are sets of atoms.

    The generator symbols a and b count as variables.  A variable v
    qualifies when the law is a J-signature law and

    1. every conclusion contains v exactly once on its left side, and is
       either a `<=` or an `=` that contains v exactly once on its right
       side too;
    2. every hypothesis that mentions v is a `<=` with v only on its left.

    Proof.  Composition, meet and converse are completely additive and
    strict in each argument (Jonsson and Tarski, Boolean algebras with
    operators, 1951), so a J-term in which v occurs once is additive and
    strict in v, and every J-term is monotone in v.  Let an assignment s
    violate the law: every hypothesis holds and some conclusion fails.  Its
    left side L contains v, so s(v) = 0 would make L = 0 and a `<=` true;
    an `=` has v once on its right side R too, so R = 0 as well and the
    equation holds.  Hence s(v) is a join of atoms t_1..t_n with n >= 1,
    and L(s) = L(s[v:=t_1]) + ... + L(s[v:=t_n]).  If the failing
    conclusion is L <= R: were every L(s[v:=t_i]) below R(s[v:=t_i]),
    which is below R(s) by monotonicity, L(s) would be below R(s).  If it
    is L = R: R(s) is the join of the R(s[v:=t_i]) as well, so were the
    two sides equal at every atom, the joins would be equal.  Either way
    some atom t_i has the conclusion fail at s[v:=t_i].  A hypothesis
    mentioning v reads H <= G with v in H only, and
    H(s[v:=t_i]) <= H(s) <= G; the other hypotheses do not see v.  So
    s[v:=t_i] violates the law too.  The step keeps every other variable's
    value, so all qualifying variables may be restricted at once.

    Rule 1 cannot be weakened to "conclusions that mention v": with the
    conclusion w <= v in the one-atom algebra, w = 1, v = 0 is a violation
    that no atom value of v reproduces.  Nor may an `=` leave v out of one
    side: in an integral algebra with more than one element, x = 0 is the
    only violation of x;1 = 1.
    """
    if law.signature != "J":
        return frozenset()
    out = set(law.variables)
    if law._mentions_generators:
        out |= {"a", "b"}
    for lhs, op, rhs in law.conclusions:
        left, right = Counter(_leaves(lhs)), Counter(_leaves(rhs))
        out = {v for v in out if left[v] == 1 and (op == "<=" or right[v] == 1)}
    for lhs, op, rhs in law.hypotheses:
        left, right = Counter(_leaves(lhs)), Counter(_leaves(rhs))
        out = {v for v in out if not right[v] and (op == "<=" or not left[v])}
    return frozenset(out)


def _leaves(t: Term) -> list[str]:
    """Variable names at the leaves of a term, generators as a and b, each
    occurrence once."""
    return [
        u.name if isinstance(u, terms.Var) else terms._LEAVES[type(u)]
        for u in terms.subterms(t)
        if isinstance(u, (terms.Var, terms.GenA, terms.GenB))
    ]


def relation_holds(m: ModelHandle, relation: Relation, env: dict[str, Any]) -> bool:
    """Whether relation (lhs, op, rhs) holds at the one assignment env: both
    sides evaluated by eval_term, the left first, and compared by the
    model's equal or leq."""
    lhs, op, rhs = relation
    rel = m.equal if op == "=" else m.leq
    return rel(eval_term(m, lhs, env), eval_term(m, rhs, env))


def rerun_counterexample(m: ModelHandle, law: Law, env: dict[str, Any]) -> bool:
    """True when the assignment still refutes the law (reports must re-fail)."""
    return all(relation_holds(m, h, env) for h in law.hypotheses) and not all(
        relation_holds(m, c, env) for c in law.conclusions
    )
