"""Tabularity and staged partial representations of finite algebras.

A structure is tabular when every strict pair v < w is separated by a
nonzero element of the form conv(p);q with p, q functional; on an algebra
of atom sets that is one check per atom (is_tabular).  From a tabular
structure the staged construction grows sequences of nonzero functional
elements with a common domain; the induced map sending x to the index pairs
(i, j) with f_i ; x above f_j accumulates, stage by stage, the properties of
a representation on the scheduled elements while keeping a designated pair
v < w separated.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .. import model
from .atoms import AtomStructure

SUBALGEBRA_CAP = 16  # elements generated_subalgebra stops at


class NotTabular(Exception):
    pass


def functional_elements(s: AtomStructure) -> list[int]:
    """The elements x with conv(x);x below the identity, in increasing order."""
    xs = np.arange(s.n_elements)
    return xs[model.is_functional(s.handle(), xs)].tolist()


def tabular_witness(s: AtomStructure, v: int, w: int) -> tuple[int, int]:
    """Functional p, q with 0 != conv(p);q <= w and v & conv(p);q = 0.

    Exhaustive search over functional pairs; raises NotTabular when no
    witness exists.  Requires v < w.
    """
    if not (s.leq(v, w) and v != w):
        raise ValueError("witness requires v < w")
    comp, conv = s.tables
    fns = functional_elements(s)
    for p in fns:
        cp = conv[p]
        for q in fns:
            t = comp[cp, q]
            if t != 0 and (t & w) == t and (t & v) == 0:
                return p, q
    raise NotTabular(f"no functional table for {s.format_element(v)} < {s.format_element(w)}")


def is_tabular(s: AtomStructure) -> bool:
    """Whether every strict pair v < w has a witness in tabular_witness.

    Equivalently, every atom a equals conv(p);q for some functional p, q.
    Proof.  A witness t = conv(p);q is nonzero with t <= w and t & v = 0,
    that is, t is a nonempty set of atoms of w outside v.  For v = 0 and
    w = {a} this forces t = {a}.  Conversely, for any v < w pick an atom a
    of w outside v; then t = {a} is a witness.  The proof uses only that
    elements are atom sets, not the relation-algebra axioms.
    """
    comp, conv = s.tables
    fns = np.array(functional_elements(s))
    found = 0
    for p in fns:
        t = comp[conv[p], fns]
        # the atoms among the tables conv(p);q (t & (t - 1) is 0 for 0 too)
        found |= int(np.bitwise_or.reduce(t[(t & (t - 1)) == 0]))
    return found == s.top


@dataclass(frozen=True)
class PartialRep:
    """A sequence of nonzero functional elements sharing one domain."""

    s: AtomStructure
    f: tuple[int, ...]

    def __post_init__(self):
        comp, _ = self.s.tables
        m, top = self.s.handle(), self.s.top
        if not self.f:
            raise ValueError("empty sequence")
        dom = comp[self.f[0], top]
        for fi in self.f:
            if fi == 0:
                raise ValueError("zero element in sequence")
            if not model.is_functional(m, fi):
                raise ValueError("non-functional element in sequence")
            if comp[fi, top] != dom:
                raise ValueError("elements do not share a domain")

    def __len__(self):
        return len(self.f)


def hat(rep: PartialRep, x: int) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j) with f_i ; x >= f_j."""
    comp, _ = rep.s.tables
    f = rep.f
    return frozenset(
        (i, j)
        for i in range(len(f))
        for j in range(len(f))
        if (comp[f[i], x] & f[j]) == f[j]
    )


def extend_join(
    s: AtomStructure, rep: PartialRep, i: int, j: int, x: int, y: int
) -> PartialRep:
    """Extension resolving a join membership: (i, j) lands in the map of x or
    of y, the whole map grows pointwise, zero products stay zero."""
    comp, _ = s.tables
    f = rep.f
    if (i, j) not in hat(rep, x | y):
        raise ValueError("(i, j) not in the map of the join")
    r = comp[f[i], x] & f[j]
    if r == 0:
        r = comp[f[i], y] & f[j]
    dom = comp[r, s.top]
    return PartialRep(s, tuple(dom & fk for fk in f))


def extend_comp(
    s: AtomStructure, rep: PartialRep, i: int, j: int, x: int, y: int
) -> PartialRep:
    """Extension resolving a composition membership: adds one new index m so
    that (i, m) lies in the map of x and (m, j) in the map of y."""
    comp, conv = s.tables
    f = rep.f
    if (i, j) not in hat(rep, comp[x, y]):
        raise ValueError("(i, j) not in the map of the composite")
    z0 = comp[f[i], x] & comp[f[j], conv[y]]
    if z0 == 0:
        raise ValueError("composite membership without a nonzero witness seed")
    p, q = tabular_witness(s, 0, z0)
    r = q & comp[p, comp[f[i], x]] & comp[p, comp[f[j], conv[y]]]
    dom = comp[r, s.top]
    g = tuple(dom & comp[p, fk] for fk in f) + (dom & q,)
    return PartialRep(s, g)


def generated_subalgebra(s: AtomStructure, seeds) -> list[int]:
    """Closure of the seeds (with the constants) under the operations,
    stopped at SUBALGEBRA_CAP elements; deterministic order."""
    comp, conv = s.tables
    out: list[int] = []
    for e in [0, s.ident, s.top, *seeds]:
        if e not in out:
            out.append(e)
    grew = True
    while grew and len(out) < SUBALGEBRA_CAP:
        grew = False
        snapshot = list(out)
        for x in snapshot:
            candidates = [conv[x], s.compl(x)]
            for y in snapshot:
                candidates += [x & y, x | y, int(comp[x, y])]
            for c in candidates:
                c = int(c)
                if c not in out:
                    out.append(c)
                    grew = True
                    if len(out) >= SUBALGEBRA_CAP:
                        return out
    return out


@dataclass
class Stage:
    index: int
    step: str
    length: int
    separated: bool
    zero_kept: bool
    monotone: bool


@dataclass
class StageReport:
    s: AtomStructure
    v: int
    w: int
    seed: int
    stages: list[Stage] = field(default_factory=list)
    reps: list[PartialRep] = field(default_factory=list)
    accumulated: dict[int, set] = field(default_factory=dict)

    @property
    def all_conditions_hold(self) -> bool:
        return all(st.separated and st.zero_kept and st.monotone for st in self.stages)

    @property
    def separates(self) -> bool:
        return (0, 1) in self.accumulated.get(self.w, set()) and (
            0,
            1,
        ) not in self.accumulated.get(self.v, set())

    def line(self) -> str:
        ok = self.all_conditions_hold and self.separates
        return (
            f"REPRESENT {self.s.label or 'ra'} v={self.s.format_element(self.v)}"
            f" w={self.s.format_element(self.w)} stages={len(self.stages)}"
            f" {'pass' if ok else 'fail'}"
        )


def build_stage_rep(
    s: AtomStructure, v: int, w: int, stages: int, seed: int = 0
) -> StageReport:
    """Run the staged construction for a designated pair v < w.

    Stage 0 builds a two-element sequence from a separating table; after
    that, a deterministic seeded scheduler revisits (index pair, element
    pair) quadruples, alternating join extensions with composition
    extensions.  Each stage asserts: the pair (0, 1) stays in the map of w,
    the zero product separating v survives, and the maps grow monotonically.
    """
    if stages < 1:
        raise ValueError("stage budget must be >= 1")
    if not (s.leq(v, w) and v != w):
        raise ValueError("build_stage_rep requires v < w")
    comp, conv = s.tables

    p, q = tabular_witness(s, v, w)
    # initial two-element sequence from the witness table
    x0 = comp[q, conv[w]] & p
    y0 = q & comp[p, w]
    rep = PartialRep(s, (int(x0), int(y0)))

    xs = generated_subalgebra(s, [v, w])
    rng = random.Random(seed)
    report = StageReport(s, v, w, seed)
    prev = {x: hat(rep, x) for x in xs}
    for x in xs:
        report.accumulated.setdefault(x, set()).update(prev[x])

    def record(idx, step, rep, prev):
        cur = {x: hat(rep, x) for x in xs}
        separated = (0, 1) in hat(rep, w)
        zero_kept = (comp[rep.f[0], v] & rep.f[1]) == 0
        monotone = all(prev[x] <= cur[x] for x in xs)
        report.stages.append(
            Stage(idx, step, len(rep), separated, zero_kept, monotone)
        )
        report.reps.append(rep)
        for x in xs:
            report.accumulated[x].update(cur[x])
        return cur

    prev = record(0, "init", rep, prev)
    pending: list[tuple[int, int, int, int]] = []
    stage_idx = 1
    while stage_idx < stages:
        if not pending:
            idx_pairs = list(itertools.product(range(len(rep)), repeat=2))
            elem_pairs = list(itertools.product(xs, repeat=2))
            rng.shuffle(elem_pairs)
            pending = [
                (i, j, x, y) for (i, j) in idx_pairs for (x, y) in elem_pairs
            ]
        i, j, x, y = pending.pop(0)
        if i >= len(rep) or j >= len(rep):
            continue
        if stage_idx % 2 == 1:
            if (i, j) in hat(rep, x | y):
                new = extend_join(s, rep, i, j, x, y)
                _assert_join_post(s, rep, new, i, j, x, y)
                rep = new
            step = "join"
        else:
            if (i, j) in hat(rep, comp[x, y]):
                new = extend_comp(s, rep, i, j, x, y)
                _assert_comp_post(s, rep, new, i, j, x, y)
                rep = new
            step = "comp"
        prev = record(stage_idx, step, rep, prev)
        stage_idx += 1
    return report


def _assert_join_post(s, old, new, i, j, x, y):
    if (i, j) not in hat(new, x) | hat(new, y):
        raise AssertionError("join extension lost its target membership")
    _assert_common_post(s, old, new)


def _assert_comp_post(s, old, new, i, j, x, y):
    m = len(new) - 1
    if (i, m) not in hat(new, x) or (m, j) not in hat(new, y):
        raise AssertionError("composition extension lost its witness index")
    _assert_common_post(s, old, new)


def _assert_common_post(s, old, new):
    """On every element z: the map of z only grows, and no product
    f_k ; z & f_l over the old indices k, l that was zero becomes nonzero.

    One gather per old index k takes f_k ; z and g_k ; z against all
    elements z at once; the error raised is the one of the first failing z,
    monotonicity before zero products.
    """
    comp, _ = s.tables
    f = np.array(old.f)[:, None]
    g = np.array(new.f[: len(old)])[:, None]
    mono = np.zeros(s.n_elements, dtype=bool)
    zero = np.zeros(s.n_elements, dtype=bool)
    for k in range(len(old)):
        fz = comp[f[k]] & f  # [l, z] = f_k ; z & f_l
        gz = comp[g[k]] & g
        mono |= ((fz == f) & (gz != g)).any(axis=0)
        zero |= ((fz == 0) & (gz != 0)).any(axis=0)
    bad = mono | zero
    if bad.any():
        z = int(bad.argmax())
        if mono[z]:
            raise AssertionError("extension is not monotone")
        raise AssertionError("extension created a zero product")
