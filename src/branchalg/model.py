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
subterm is computed over the axes of its own variables only; a sampled
block is a row of draws.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import terms
from .terms import Term

EXHAUSTIVE_CAP = 1 << 20
BLOCK = 1 << 12  # most assignments, and array entries, per block


class ModelError(Exception):
    pass


class UnboundVariableError(ModelError):
    pass


class UnsupportedOperatorError(ModelError):
    pass


class StrategyUnavailableError(ModelError):
    pass


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
    join: Callable[[Any, Any], Any] | None = None
    compl: Callable[[Any], Any] | None = None
    gen_a: Any = None
    gen_b: Any = None
    elements: Callable[[], list] | None = None
    sample_pool: Callable[[], list] | None = None
    format_element: Callable[[Any], str] = repr
    atoms: Callable[[], list] | None = None


def eval_term(m: ModelHandle, t: Term, env: dict[str, Any]) -> Any:
    """Homomorphic evaluation of a term under a variable assignment.

    The generator symbols resolve through the environment first ("a"/"b"
    entries), falling back to the model's distinguished generators.
    """
    return _compile(t, m)(env)


def _compile(t: Term, m: ModelHandle):
    """Build a closure evaluating t; avoids re-dispatching on node types in
    inner assignment loops."""
    if isinstance(t, terms.Zero):
        z = m.zero
        return lambda env: z
    if isinstance(t, terms.Top):
        top = m.top
        return lambda env: top
    if isinstance(t, terms.Id):
        e = m.ident
        return lambda env: e
    if isinstance(t, terms.GenA):
        ga = m.gen_a
        if ga is None:
            return lambda env: _lookup(env, "a")
        return lambda env: env["a"] if "a" in env else ga
    if isinstance(t, terms.GenB):
        gb = m.gen_b
        if gb is None:
            return lambda env: _lookup(env, "b")
        return lambda env: env["b"] if "b" in env else gb
    if isinstance(t, terms.Var):
        name = t.name
        return lambda env: _lookup(env, name)
    if isinstance(t, terms.Conv):
        f = _compile(t.child, m)
        cv = m.conv
        return lambda env: cv(f(env))
    if isinstance(t, terms.Comp):
        fl, fr = _compile(t.left, m), _compile(t.right, m)
        op = m.comp
        return lambda env: op(fl(env), fr(env))
    if isinstance(t, terms.Meet):
        fl, fr = _compile(t.left, m), _compile(t.right, m)
        op = m.meet
        return lambda env: op(fl(env), fr(env))
    if isinstance(t, terms.Join):
        if m.join is None:
            raise UnsupportedOperatorError(f"model {m.name} has no join")
        fl, fr = _compile(t.left, m), _compile(t.right, m)
        op = m.join
        return lambda env: op(fl(env), fr(env))
    if isinstance(t, terms.Compl):
        if m.compl is None:
            raise UnsupportedOperatorError(f"model {m.name} has no complement")
        f = _compile(t.child, m)
        op = m.compl
        return lambda env: op(f(env))
    raise TypeError(f"not a term: {t!r}")


def _lookup(env: dict[str, Any], name: str):
    try:
        return env[name]
    except KeyError:
        raise UnboundVariableError(f"unbound variable {name!r}") from None


Relation = tuple[Term, str, Term]  # middle component "=" or "<="


@dataclass(frozen=True)
class Law:
    """A named universally quantified hypotheses => conclusions schema."""

    id: str
    variables: tuple[str, ...]
    hypotheses: tuple[Relation, ...]
    conclusions: tuple[Relation, ...]
    signature: str = "J"  # "J" or "RA"
    theorem: bool = True  # False for formulas that are known to fail somewhere
    part: str = "II"
    note: str = ""

    def __post_init__(self):
        declared = set(self.variables)
        for lhs, op, rhs in self.hypotheses + self.conclusions:
            if op not in ("=", "<="):
                raise ValueError(f"law {self.id}: bad relation {op!r}")
            undeclared = (terms.free_vars(lhs) | terms.free_vars(rhs)) - declared
            if undeclared:
                raise ValueError(f"law {self.id}: undeclared variables {undeclared}")
            if self.signature == "J" and not (
                terms.is_j_term(lhs) and terms.is_j_term(rhs)
            ):
                raise ValueError(f"law {self.id}: union/complement in a J law")

    def quantified_variables(self, m: ModelHandle) -> tuple[str, ...]:
        """Variables to range over in the given model: the declared ones plus
        the generator symbols when the model does not fix them."""
        out = list(self.variables)
        if m.gen_a is None and self._mentions_generators():
            out += ["a", "b"]
        return tuple(out)

    def _mentions_generators(self) -> bool:
        return any(
            terms.mentions_generators(lhs) or terms.mentions_generators(rhs)
            for lhs, _, rhs in self.hypotheses + self.conclusions
        )


@dataclass
class LawReport:
    law_id: str
    strategy: str
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
        label = "exhaustive"
    elif isinstance(strategy, Sample):
        if m.sample_pool is None:
            raise StrategyUnavailableError(f"model {m.name} has no sample pool")
        label = f"sample(n={strategy.n},seed={strategy.seed})"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    tested, env = search(m, law, strategy)
    ce = None if env is None else {k: m.format_element(v) for k, v in env.items()}
    return LawReport(law.id, label, tested, env is None, ce)


def _assignments(m: ModelHandle, names, strategy):
    """Seeded draws from the sample pool, one tuple per assignment."""
    pool = list(m.sample_pool())
    rng = random.Random(strategy.seed)
    return (tuple(rng.choice(pool) for _ in names) for _ in range(strategy.n))


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
    mentions; the hypotheses are ANDed into a mask, which keeps the grid a
    grid.  Sampling walks the seeded draws of _assignments in order, as
    rows of at most BLOCK assignments, and drops the rows that fail a
    hypothesis before the next one is evaluated, so the conclusions are
    computed only where every hypothesis holds.  Returns how many
    assignments were tested, up to and including the counterexample, and
    the counterexample as {variable: element}, or None.
    """
    names = law.quantified_variables(m)
    grid = isinstance(strategy, Exhaustive)
    if grid:
        pools = [m.atoms() if v in atom_vars else m.elements() for v in names]
        blocks = _grids(pools)
    else:
        blocks = _rows(_assignments(m, names, strategy))
    hyps = [(_compile(l, m), op, _compile(r, m)) for l, op, r in law.hypotheses]
    concls = [(_compile(l, m), op, _compile(r, m)) for l, op, r in law.conclusions]
    rel = {"=": m.equal, "<=": m.leq}

    def holds(fl, op, fr, env, shape):
        return np.broadcast_to(np.asarray(rel[op](fl(env), fr(env)), bool), shape)

    tested = 0
    for values, shape in blocks:
        env = dict(zip(names, values))
        live = np.ones(shape, dtype=bool)
        at = np.arange(live.size)  # block position of each entry of live
        for fl, op, fr in hyps:
            ok = holds(fl, op, fr, env, live.shape)
            if grid:
                live &= ok
            else:
                live, at = live[ok], at[ok]
                env = {k: v[ok] for k, v in env.items()}
        if live.any():
            bad = np.zeros(live.shape, dtype=bool)
            for fl, op, fr in concls:
                bad |= ~holds(fl, op, fr, env, live.shape)
            hit = np.flatnonzero(live & bad)
            if hit.size:
                i = int(at[hit[0]])
                return tested + i + 1, {
                    k: _entry(v, shape, i) for k, v in zip(names, values)
                }
        tested += math.prod(shape)
    return tested, None


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


def _rows(assignments):
    """Assignment tuples as (values, (rows,)) blocks of at most BLOCK rows,
    values holding one array of rows per variable."""
    it = iter(assignments)
    while chunk := list(itertools.islice(it, BLOCK)):
        yield [np.array(column) for column in zip(*chunk)], (len(chunk),)


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
    if law._mentions_generators():
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
    generators = {terms.A: "a", terms.B: "b"}
    return [
        u.name if isinstance(u, terms.Var) else generators[u]
        for u in terms.subterms(t)
        if isinstance(u, (terms.Var, terms.GenA, terms.GenB))
    ]


def is_functional(m: ModelHandle, e) -> bool:
    """conv(e);e stays below the identity."""
    return m.leq(m.comp(m.conv(e), e), m.ident)


def is_permutational(m: ModelHandle, e) -> bool:
    """conv(e);e and e;conv(e) both equal the identity."""
    return m.equal(m.comp(m.conv(e), e), m.ident) and m.equal(
        m.comp(e, m.conv(e)), m.ident
    )


def rerun_counterexample(m: ModelHandle, law: Law, env: dict[str, Any]) -> bool:
    """True when the assignment still refutes the law (reports must re-fail)."""
    rel = {"=": m.equal, "<=": m.leq}
    for lhs, op, rhs in law.hypotheses:
        if not rel[op](eval_term(m, lhs, env), eval_term(m, rhs, env)):
            return False
    return any(
        not rel[op](eval_term(m, lhs, env), eval_term(m, rhs, env))
        for lhs, op, rhs in law.conclusions
    )
