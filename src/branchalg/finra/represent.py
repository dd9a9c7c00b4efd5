"""Tabularity and staged partial representations of finite algebras.

A structure is tabular when every strict pair v < w is separated by a
nonzero element of the form conv(p);q with p, q functional; witnesses
(tabular_witness) and tabularity (is_tabular) read one table of these
elements (_functional_tables).  From a tabular structure the staged
construction grows sequences of nonzero functional elements with a common
domain; the induced map sending x to the index pairs (i, j) with f_i ; x
above f_j accumulates, stage by stage, the properties of a representation
on the scheduled elements while keeping a designated pair v < w separated.
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


def _functional_tables(s: AtomStructure) -> tuple[np.ndarray, np.ndarray]:
    """The functional elements fns, increasing, and the table
    t[i, j] = conv(fns[i]);fns[j] of their products, in one gather."""
    comp, conv = s.tables
    fns = np.array(functional_elements(s))
    return fns, comp[conv[fns][:, None], fns]


def tabular_witness(s: AtomStructure, v: int, w: int) -> tuple[int, int]:
    """Functional p, q with 0 != conv(p);q <= w and v & conv(p);q = 0.

    The first such entry of _functional_tables in C order, so the least p
    and then the least q; raises NotTabular when no witness exists.
    Requires v < w.
    """
    if not (s.leq(v, w) and v != w):
        raise ValueError("witness requires v < w")
    fns, t = _functional_tables(s)
    hits = np.argwhere((t != 0) & (t & w == t) & (t & v == 0))
    if not len(hits):
        raise NotTabular(f"no functional table for {s.format_element(v)} < {s.format_element(w)}")
    return tuple(fns[hits[0]].tolist())


def is_tabular(s: AtomStructure) -> bool:
    """Whether every strict pair v < w has a witness in tabular_witness.

    Equivalently, every atom a equals conv(p);q for some functional p, q.
    Proof.  A witness t = conv(p);q is nonzero with t <= w and t & v = 0,
    that is, t is a nonempty set of atoms of w outside v.  For v = 0 and
    w = {a} this forces t = {a}.  Conversely, for any v < w pick an atom a
    of w outside v; then t = {a} is a witness.  The proof uses only that
    elements are atom sets, not the relation-algebra axioms.
    """
    _, t = _functional_tables(s)
    # the atoms among the entries (t & (t - 1) is 0 for 0 too)
    return int(np.bitwise_or.reduce(t[(t & (t - 1)) == 0])) == s.top


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


def _in_hat(rep: PartialRep, i: int, j: int, x: int) -> bool:
    """Whether (i, j) is in the map of x: f_i ; x >= f_j."""
    comp, _ = rep.s.tables
    fj = rep.f[j]
    return bool(comp[rep.f[i], x] & fj == fj)


def extend_join(rep: PartialRep, i: int, j: int, x: int, y: int) -> PartialRep:
    """Extension resolving a join membership: (i, j) lands in the map of x or
    of y, the whole map grows pointwise, zero products stay zero."""
    s = rep.s
    comp, _ = s.tables
    f = rep.f
    if not _in_hat(rep, i, j, x | y):
        raise ValueError("(i, j) not in the map of the join")
    r = comp[f[i], x] & f[j]
    if r == 0:
        r = comp[f[i], y] & f[j]
    dom = comp[r, s.top]
    return PartialRep(s, tuple(dom & fk for fk in f))


def extend_comp(rep: PartialRep, i: int, j: int, x: int, y: int) -> PartialRep:
    """Extension resolving a composition membership: adds one new index m so
    that (i, m) lies in the map of x and (m, j) in the map of y."""
    s = rep.s
    comp, conv = s.tables
    f = rep.f
    if not _in_hat(rep, i, j, comp[x, y]):
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


@dataclass
class StageReport:
    s: AtomStructure
    v: int
    w: int
    stages: list[Stage] = field(default_factory=list)
    reps: list[PartialRep] = field(default_factory=list)

    @property
    def all_conditions_hold(self) -> bool:
        return all(st.separated and st.zero_kept for st in self.stages)

    @property
    def separates(self) -> bool:
        """(0, 1) lies in the map of w and not in the map of v, over all
        stages.  The last stage's maps are the union over all stages: every
        extension asserts (`_assert_common_post`) that each element's map
        only grows."""
        last = self.reps[-1]
        return _in_hat(last, 0, 1, self.w) and not _in_hat(last, 0, 1, self.v)

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
    """Run the staged construction for a designated pair v < w
    (tabular_witness raises ValueError for any other pair).

    Stage 0 builds a two-element sequence from a separating table; after
    that, a deterministic seeded scheduler revisits (index pair, element
    pair) quadruples, alternating join extensions with composition
    extensions.  Each stage records whether the pair (0, 1) is in the map of
    w (f_0 ; w >= f_1) and whether the zero product f_0 ; v & f_1 separating
    v survives.  Every extension must pass _assert_common_post, so the maps
    only grow.
    """
    if stages < 1:
        raise ValueError("stage budget must be >= 1")
    comp, conv = s.tables

    p, q = tabular_witness(s, v, w)
    # initial two-element sequence from the witness table
    x0 = comp[q, conv[w]] & p
    y0 = q & comp[p, w]
    rep = PartialRep(s, (int(x0), int(y0)))

    xs = generated_subalgebra(s, [v, w])
    rng = random.Random(seed)
    report = StageReport(s, v, w)

    def record(idx, step, rep):
        f0, f1 = rep.f[:2]
        separated = _in_hat(rep, 0, 1, w)
        zero_kept = bool(comp[f0, v] & f1 == 0)
        report.stages.append(Stage(idx, step, len(rep), separated, zero_kept))
        report.reps.append(rep)

    record(0, "init", rep)
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
        if stage_idx % 2 == 1:
            if _in_hat(rep, i, j, x | y):
                new = extend_join(rep, i, j, x, y)
                if not (_in_hat(new, i, j, x) or _in_hat(new, i, j, y)):
                    raise AssertionError("join extension lost its target membership")
                _assert_common_post(rep, new)
                rep = new
            step = "join"
        else:
            if _in_hat(rep, i, j, comp[x, y]):
                new = extend_comp(rep, i, j, x, y)
                m = len(new) - 1
                if not (_in_hat(new, i, m, x) and _in_hat(new, m, j, y)):
                    raise AssertionError("composition extension lost its witness index")
                _assert_common_post(rep, new)
                rep = new
            step = "comp"
        record(stage_idx, step, rep)
        stage_idx += 1
    return report


def _assert_common_post(old, new):
    """On every element z: the map of z only grows, and no product
    f_k ; z & f_l over the old indices k, l that was zero becomes nonzero.

    One broadcast takes [k, z, l] = f_k ; z & f_l, and g_k ; z & g_l, over
    every element z at once; the error raised is the one of the first
    failing z, monotonicity before zero products.
    """
    comp, _ = old.s.tables
    f = np.array(old.f)
    g = np.array(new.f[: len(old)])
    fz = comp[f][:, :, None] & f
    gz = comp[g][:, :, None] & g
    mono = ((fz == f) & (gz != g)).any(axis=(0, 2))
    zero = ((fz == 0) & (gz != 0)).any(axis=(0, 2))
    bad = mono | zero
    if bad.any():
        z = int(bad.argmax())
        if mono[z]:
            raise AssertionError("extension is not monotone")
        raise AssertionError("extension created a zero product")
