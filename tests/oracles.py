"""Slow, independent oracles the tests check the fast paths against.

Nothing in the package calls these.  They are the bounded breadth-first
closure `entails_bfs` and the three-tag `entails_product` for the tree
relations, a concrete finite semantic model of tree pairs, the element tables
of an atom structure built from their definitions, the plain brute force
`reference_violation` for the product formulas J, L and M, the
enumeration by plain isomorph rejection `enumerate_brute`, tabularity
by its pairwise definition `is_tabular_pairwise`, the element-by-element
extension check `common_post_loop` of the staged construction, and the five
structural properties `lemma_properties_hold` of its induced map.
"""

import itertools
import random
from collections import deque

import numpy as np

from branchalg.branchrel import (
    BranchRelation,
    Constraint,
    Endpoint,
    _engine_for,
    _product_engine,
)
from branchalg.finra import kernels
from branchalg.finra.atoms import AtomStructure
from branchalg.finra.enumeration import (
    atom_symmetries,
    canonical_key,
    diversity_orbits,
    forced_triples,
    signature_spec,
)
from branchalg.finra.represent import hat

# --- closure oracles --------------------------------------------------------


def entails(r: BranchRelation, c: Constraint) -> bool:
    """Is the constraint derivable from r under the closure rules?"""
    if r.is_zero:
        raise ValueError("entails is undefined on the zero relation")
    eng = _engine_for(r)
    return eng.same(c[0], c[1])


def _pack_ep(ep: Endpoint) -> int:
    """Endpoint as an int: 1-prefixed address bits, tag in the low bit."""
    code = 1
    for ch in ep[1]:
        code = code << 1 | (ch == "1")
    return code << 1 | (ep[0] == "R")


def entails_bfs(r: BranchRelation, c: Constraint, bound: int) -> bool:
    """Independent oracle: closure restricted to addresses of length <= bound.

    Plain worklist saturation over an explicit set of derived pairs, with no
    lazy node creation and no union-find; sound, and complete for derivations
    that stay within the address bound.
    """
    if r.is_zero:
        raise ValueError("entails_bfs is undefined on the zero relation")
    goal_p, goal_q = _pack_ep(c[0]), _pack_ep(c[1])
    if goal_p == goal_q:
        return True
    goal = (min(goal_p, goal_q), max(goal_p, goal_q))
    known: set[tuple[int, int]] = set()
    adj: dict[int, list[int]] = {}
    queue: deque[tuple[int, int]] = deque()
    # a packed endpoint has address length bit_length(ep >> 1) - 1
    applim = 1 << (bound + 1)  # appendable while (ep >> 1) < applim / 2

    def push(p: int, q: int):
        if p == q:
            return
        key = (p, q) if p < q else (q, p)
        if key in known:
            return
        known.add(key)
        adj.setdefault(p, []).append(q)
        adj.setdefault(q, []).append(p)
        queue.append(key)

    for ep1, ep2 in r.constraints:
        push(_pack_ep(ep1), _pack_ep(ep2))
    while queue:
        p, q = queue.popleft()
        # transitivity through shared endpoints
        for x, other in ((p, q), (q, p)):
            for mate in list(adj.get(x, ())):
                push(other, mate)
        # right append within the bound
        pa, qa = p >> 1, q >> 1
        if pa < applim // 2 and qa < applim // 2:
            for d in (0, 1):
                push(
                    (pa << 1 | d) << 1 | (p & 1),
                    (qa << 1 | d) << 1 | (q & 1),
                )
        # pair reconstruction: merged siblings force the parents
        if pa > 1 and qa > 1 and (pa & 1) == (qa & 1):
            sp = (pa ^ 1) << 1 | (p & 1)
            sq = (qa ^ 1) << 1 | (q & 1)
            if (min(sp, sq), max(sp, sq)) in known:
                push((pa >> 1) << 1 | (p & 1), (qa >> 1) << 1 | (q & 1))
    return goal in known


def entails_product(r1: BranchRelation, r2: BranchRelation, c: Constraint) -> bool:
    """Oracle for compose: is the outer constraint c (side L the input of r1,
    side R the output of r2) derivable in the three-tag closure?"""
    if r1.is_zero or r2.is_zero:
        raise ValueError("entails_product is undefined on the zero relation")
    tag = {"L": "s", "R": "t"}
    (t1, a1), (t2, a2) = c
    return _product_engine(r1, r2).same((tag[t1], a1), (tag[t2], a2))


# --- finite semantic model --------------------------------------------------
#
# Trees are modeled concretely as binary label sequences indexed by the
# natural numbers, with the two subtrees of a sequence being its even- and
# odd-indexed halves.  The subtree at address u is then the subsequence at
# positions congruent to rev(u) modulo 2**len(u); every constraint speaks of
# equality of such subsequences.  This realizes all four closure rules, and
# the all-zero sequence satisfies every constraint set.


def _addr_stride(addr: str) -> tuple[int, int]:
    stride = 1 << len(addr)
    off = 0
    for ch in reversed(addr):
        off = off * 2 + (1 if ch == "1" else 0)
    return stride, off


def constraint_holds_on(
    c: Constraint, trees: dict[str, list[int]], length: int
) -> bool:
    (t1, a1), (t2, a2) = c
    s1, o1 = _addr_stride(a1)
    s2, o2 = _addr_stride(a2)
    i = 0
    while o1 + i * s1 < length and o2 + i * s2 < length:
        if trees[t1][o1 + i * s1] != trees[t2][o2 + i * s2]:
            return False
        i += 1
    return True


def sample_tree_pair(
    r: BranchRelation, rng: random.Random, length: int = 256
) -> dict[str, list[int]]:
    """Random labeled tree pair consistent with the constraints of r.

    Builds a union-find over the label positions touched by the constraints,
    then labels each class with one random bit.
    """
    if r.is_zero:
        raise ValueError("the zero relation has no satisfying pairs")
    parent = list(range(2 * length))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        i, j = find(i), find(j)
        if i != j:
            parent[j] = i

    base = {"L": 0, "R": length}
    for (t1, a1), (t2, a2) in r.constraints:
        s1, o1 = _addr_stride(a1)
        s2, o2 = _addr_stride(a2)
        i = 0
        while o1 + i * s1 < length and o2 + i * s2 < length:
            union(base[t1] + o1 + i * s1, base[t2] + o2 + i * s2)
            i += 1
    labels = {}
    out = {"L": [0] * length, "R": [0] * length}
    for tag in ("L", "R"):
        for i in range(length):
            rep = find(base[tag] + i)
            if rep not in labels:
                labels[rep] = rng.randint(0, 1)
            out[tag][i] = labels[rep]
    return out


# --- element tables ---------------------------------------------------------


def element_tables(s):
    """The element composition and converse tables of atom structure s,
    straight from the definitions: atom z lies in X;Y exactly when some
    triple (x, y, z) has x in X and y in Y, and X~ holds the converses of
    the atoms of X."""
    nel, n = s.n_elements, s.n_atoms
    members = [[m for m in range(nel) if m >> i & 1] for i in range(n)]
    comp = np.zeros((nel, nel), dtype=np.int64)
    for x, y, z in s.triples:
        comp[np.ix_(members[x], members[y])] |= 1 << z
    conv = np.zeros(nel, dtype=np.int64)
    for i in range(n):
        conv[members[i]] |= 1 << s.conv[i]
    return comp, conv


# --- product formulas -------------------------------------------------------


def reference_violation(comp, conv, formula: str, limit_elems=None):
    """Plain-python brute force over all element assignments; used by tests
    to validate the evaluator on small algebras."""
    C = comp
    V = conv
    nel = C.shape[0] if limit_elems is None else limit_elems
    rng = range(nel)

    def leq(x, y):
        return (x & y) == x

    if formula == "J":
        for a, b, u, v, x, y in itertools.product(rng, repeat=6):
            hyp = C[V[u], x] & C[v, V[y]]
            if not leq(hyp, C[V[a], b]):
                continue
            lhs = C[u, v] & C[x, y]
            rhs = C[C[u, V[a]] & C[x, V[b]], C[a, v] & C[b, y]]
            if not leq(lhs, rhs):
                return (a, b, u, v, x, y)
        return None
    if formula == "L":
        for u, v, w, x, y, z in itertools.product(rng, repeat=6):
            lhs = C[u, v] & C[w, x] & C[y, z]
            if lhs == 0:
                continue
            inner = (
                C[V[u], w]
                & C[v, V[x]]
                & C[C[V[u], y] & C[v, V[z]], C[V[y], w] & C[z, V[x]]]
            )
            if not leq(lhs, C[C[u, inner], x]):
                return (u, v, w, x, y, z)
        return None
    if formula == "M":
        for u, v, w, p, q, r, s in itertools.product(rng, repeat=7):
            lhs = u & C[v & C[w, p], q & C[r, s]]
            if lhs == 0:
                continue
            inner = (
                C[C[V[w], u] & C[p, q], V[s]]
                & C[p, r]
                & C[V[w], C[u, V[s]] & C[v, r]]
            )
            if not leq(lhs, C[C[w, inner], s]):
                return (u, v, w, p, q, r, s)
        return None
    raise ValueError(f"unknown formula {formula!r}")


# --- enumeration ------------------------------------------------------------


def enumerate_brute(signature: str, stretch: bool = False) -> list[AtomStructure]:
    """The integral structures over the signature by plain isomorph
    rejection: filter every orbit subset for associativity in increasing
    mask order, key each survivor by canonical_key, keep the first survivor
    of each key and order the classes by key."""
    key, names, conv = signature_spec(signature, stretch=stretch)
    orbits = diversity_orbits(conv)
    perms = atom_symmetries(conv)
    survivors = kernels.associative_candidates(
        len(conv), forced_triples(conv), orbits, np.arange(1 << len(orbits))
    )
    canon: dict[tuple, frozenset] = {}
    for triples in survivors:
        canon.setdefault(canonical_key(triples, perms), triples)
    return [
        AtomStructure(names, conv, frozenset({0}), canon[ck], label=f"{key}#{i}")
        for i, ck in enumerate(sorted(canon))
    ]


# --- tabularity -------------------------------------------------------------


def functional_brute(s) -> list[int]:
    """The elements x with conv(x);x below the identity, read off the tables
    one element at a time."""
    comp, conv = s.tables
    e = s.ident
    return [x for x in range(s.n_elements) if (comp[conv[x], x] & e) == comp[conv[x], x]]


def is_tabular_pairwise(s) -> bool:
    """Tabularity by its definition: every strict pair v < w is separated
    by some nonzero t = conv(p);q with p, q functional, t <= w and t & v = 0."""
    comp, conv = s.tables
    fns = np.array(functional_brute(s))
    tables = np.unique(comp[np.ix_(conv[fns], fns)])
    tables = tables[tables != 0]
    for w in range(1, s.n_elements):
        below_w = tables[(tables & w) == tables]
        for v in range(s.n_elements):
            if v != w and s.leq(v, w) and not ((below_w & v) == 0).any():
                return False
    return True


# --- staged representations -------------------------------------------------


def common_post_loop(s, old, new):
    """The checks every extension of the staged construction must pass, one
    element z and one index pair at a time: the map of z only grows, and no
    product f_k ; z & f_l over the old indices that was zero becomes
    nonzero."""
    comp, _ = s.tables
    m = len(old)
    for z in range(s.n_elements):
        if not hat(old, z) <= hat(new, z):
            raise AssertionError("extension is not monotone")
        for k in range(m):
            for l in range(m):
                if (comp[old.f[k], z] & old.f[l]) == 0 and (
                    comp[new.f[k], z] & new.f[l]
                ) != 0:
                    raise AssertionError("extension created a zero product")


def lemma_properties_hold(rep, xs=None) -> bool:
    """The five structural properties of the induced map, checked over the
    given elements (all of them by default)."""
    s = rep.s
    comp, conv = s.tables
    elems = list(xs) if xs is not None else s.elements()
    h = {x: hat(rep, x) for x in elems}
    if hat(rep, 0) != frozenset():
        return False
    by_first: dict[int, dict[int, list[int]]] = {}
    for x in elems:
        idx: dict[int, list[int]] = {}
        for i, j in h[x]:
            idx.setdefault(i, []).append(j)
        by_first[x] = idx
    for x in elems:
        if h[x] != frozenset((j, i) for i, j in hat(rep, conv[x])):
            return False
        for y in elems:
            if s.leq(x, y) and not h[x] <= h[y]:
                return False
            if (x & y) in h and not h[x] & h[y] <= h[x & y]:
                return False
            comp_xy = int(comp[x, y])
            if comp_xy in h:
                target = h[comp_xy]
                for i, k in h[x]:
                    for j in by_first[y].get(k, ()):
                        if (i, j) not in target:
                            return False
    return True
