"""Tabularity and staged partial representations of finite algebras.

A structure is tabular when every strict pair v < w is separated by a
nonzero element of the form conv(p);q with p, q functional; witnesses
(tabular_witness) and tabularity (is_tabular) read one table of these
elements, built once per structure (AtomStructure.functional_table).  From
a tabular structure the staged construction grows sequences of nonzero
functional elements with a common domain; the induced map sending x to the
index pairs (i, j) with f_i ; x above f_j accumulates, stage by stage, the
properties of a representation on the scheduled elements; every stage
separates a designated pair v < w.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .. import UsageError
from .atoms import AtomStructure

SUBALGEBRA_CAP = 16  # elements generated_subalgebra stops at


class NotTabular(UsageError):
    pass


def tabular_witness(s: AtomStructure, v: int, w: int) -> tuple[int, int]:
    """Functional p, q with 0 != conv(p);q <= w and v & conv(p);q = 0.

    The first such entry of s.functional_table in C order, so the least p
    and then the least q; raises NotTabular when no witness exists.
    Requires v < w.
    """
    if not (s.leq(v, w) and v != w):
        raise ValueError("witness requires v < w")
    fns, t = s.functional_table
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
    _, t = s.functional_table
    # the atoms among the entries (t & (t - 1) is 0 for 0 too)
    return int(np.bitwise_or.reduce(t[(t & (t - 1)) == 0])) == s.top


@dataclass(frozen=True)
class PartialRep:
    """A sequence of nonzero functional elements sharing one domain."""

    s: AtomStructure
    f: tuple[int, ...]

    def __post_init__(self):
        comp, _ = self.s.tables
        fns, top = self.s.functional_table[0], self.s.top
        if not self.f:
            raise ValueError("empty sequence")
        dom = comp[self.f[0], top]
        for fi in self.f:
            if fi == 0:
                raise ValueError("zero element in sequence")
            if fi not in fns:
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
    that (i, m) lies in the map of x and (m, j) in the map of y.  The seed
    z0 = f_i;x & f_j;conv(y) is nonzero by the cycle law, since
    f_i;x;y & f_j = f_j and PartialRep rejects f_j = 0."""
    s = rep.s
    comp, conv = s.tables
    f = rep.f
    if not _in_hat(rep, i, j, comp[x, y]):
        raise ValueError("(i, j) not in the map of the composite")
    z0 = comp[f[i], x] & comp[f[j], conv[y]]
    p, q = tabular_witness(s, 0, z0)
    r = q & comp[p, comp[f[i], x]] & comp[p, comp[f[j], conv[y]]]
    dom = comp[r, s.top]
    g = tuple(dom & comp[p, fk] for fk in f) + (dom & q,)
    return PartialRep(s, g)


def generated_subalgebra(s: AtomStructure, seeds) -> list[int]:
    """Closure of the seeds (with the constants) under the operations,
    stopped at SUBALGEBRA_CAP elements; each round appends, in order, what
    the operations give on the elements held at its start."""
    comp, conv = s.tables
    out = dict.fromkeys([0, s.ident, s.top, *seeds])
    size = 0
    while size < len(out) < SUBALGEBRA_CAP:
        size = len(out)
        xs = list(out)
        for x in xs:
            results = [conv[x], s.compl(x)]
            for y in xs:
                results += [x & y, x | y, comp[x, y]]
            for c in results:
                out[int(c)] = None
                if len(out) == SUBALGEBRA_CAP:
                    return list(out)
    return list(out)


@dataclass
class StageReport:
    """Each stage's step (init, join or comp) and sequence, in order."""

    s: AtomStructure
    v: int
    w: int
    steps: list[str]
    reps: list[PartialRep]

    def line(self) -> str:
        return (
            f"REPRESENT {self.s.label or 'ra'} v={self.s.format_element(self.v)}"
            f" w={self.s.format_element(self.w)} stages={len(self.steps)} pass"
        )


def build_stage_rep(
    s: AtomStructure, v: int, w: int, stages: int, seed: int = 0
) -> StageReport:
    """Run the staged construction for a designated pair v < w
    (tabular_witness raises ValueError for any other pair).

    Stage 0 is f_0 = x0 = p & q;conv(w), f_1 = y0 = q & p;w for the witness
    conv(p);q of v < w; then a seeded scheduler alternates join and
    composition extensions over (index pair, element pair) quadruples.

    Every stage has (0, 1) in the map of w and f_0;v & f_1 = 0, so (0, 1)
    is outside the map of v, as PartialRep rejects f_1 = 0.  At stage 0 by
    the Dedekind law (catalog law p8): y0 = p;w & q <= (p & q;conv(w));w =
    x0;w, and x0;v & y0 <= p;v & q <= p;(v & conv(p);q) = p;0 = 0.  Later
    stages keep both: _assert_common_post raises on any extension that
    shrinks the map of w or makes f_0;v & f_1 nonzero.
    """
    if stages < 1:
        raise ValueError("stage budget must be >= 1")
    comp, conv = s.tables

    p, q = tabular_witness(s, v, w)
    x0 = comp[q, conv[w]] & p
    y0 = q & comp[p, w]
    rep = PartialRep(s, (int(x0), int(y0)))
    if not (_in_hat(rep, 0, 1, w) and comp[x0, v] & y0 == 0):
        raise AssertionError("initial sequence does not separate v < w")

    xs = generated_subalgebra(s, [v, w])

    def schedule():
        # each round takes the sequence length at its start, element pairs reshuffled
        rng = random.Random(seed)
        while True:
            elem_pairs = list(itertools.product(xs, repeat=2))
            rng.shuffle(elem_pairs)
            yield from itertools.product(
                itertools.product(range(len(rep)), repeat=2), elem_pairs
            )

    report = StageReport(s, v, w, ["init"], [rep])
    for stage, ((i, j), (x, y)) in zip(range(1, stages), schedule()):
        step = "join" if stage % 2 == 1 else "comp"
        if step == "join" and _in_hat(rep, i, j, x | y):
            new = extend_join(rep, i, j, x, y)
            if not (_in_hat(new, i, j, x) or _in_hat(new, i, j, y)):
                raise AssertionError("join extension lost its target membership")
            _assert_common_post(rep, new)
            rep = new
        elif step == "comp" and _in_hat(rep, i, j, comp[x, y]):
            new = extend_comp(rep, i, j, x, y)
            m = len(new) - 1
            if not (_in_hat(new, i, m, x) and _in_hat(new, m, j, y)):
                raise AssertionError("composition extension lost its witness index")
            _assert_common_post(rep, new)
            rep = new
        report.steps.append(step)
        report.reps.append(rep)
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
