"""Slow, independent oracles the tests check the fast paths against.

Nothing in the package calls these.  They are the bounded breadth-first
closure `entails_bfs`, the endpoint partition `partition_bfs` it induces,
and the three-tag `entails_product` on the same saturation for the tree
relations, a concrete finite semantic model of tree pairs, the element
tables of an atom structure built from their definitions, the plain brute force
`reference_violation` for the product formulas J, L and M, the cycle of
a triple by a stack walk `peirce_closure`, the
enumeration by plain isomorph rejection `enumerate_brute`, the first
tabular witness by a pairwise scan `tabular_witness_loop`, tabularity
by its pairwise definition `is_tabular_pairwise`, the subalgebra closure
by list scans `generated_subalgebra_loop`, the whole induced map
`hat` of a sequence, the element-by-element extension check
`common_post_loop` of the staged construction, the five
structural properties `lemma_properties_hold` of its induced map, the
atom-table associativity check `associative_brute` and the parenthesized
tree-pair notation `parse_tree_expr` / `mapsto`, which writes each generator
as the prefix substitution between two trees ("0(12)" -> "(01)2") and is
the reference the closed forms in `thompson.py` are checked against, and
`substituted_sides`, which builds one term per sample pair or draw, the
reference for the suites' grid and row evaluation of their equations.
"""

import functools
import itertools
import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from branchalg import model, terms
from branchalg.branchrel import (
    BranchRelation,
    ClosureEngine,
    Constraint,
    Endpoint,
    _emit,
    _names,
    _walk,
)
from branchalg.finra import kernels
from branchalg.finra.atoms import AtomStructure
from branchalg.finra.enumeration import (
    atom_symmetries,
    diversity_orbits,
    forced_triples,
    signature_spec,
)
from branchalg.finra.represent import SUBALGEBRA_CAP, NotTabular

# --- closure oracles --------------------------------------------------------


def entails(r: BranchRelation, c: Constraint) -> bool:
    """Is the constraint derivable from r under the closure rules?  Both
    endpoints walked (`_walk`) over the normal form read off r's own
    two-tag engine, built whatever r's `normal` flag says."""
    if r.is_zero:
        raise ValueError("entails is undefined on the zero relation")
    names = _names(_emit(ClosureEngine((r, "L", "R")), 1))
    return _walk(names, c[0]) == _walk(names, c[1])


# Two tag bits: the outer tags s and t of a product pack as sides L and R,
# so a query on the product reads as one on the composite; m is tag 2.
_TAG = {"L": 0, "R": 1, "s": 0, "t": 1, "m": 2}


def _pack_ep(ep: tuple[str, str]) -> int:
    """A (tag, address) config as an int: 1-prefixed address bits, then
    the two tag bits."""
    code = 1
    for ch in ep[1]:
        code = code << 1 | (ch == "1")
    return code << 2 | _TAG[ep[0]]


def entails_bfs(r: BranchRelation, c: Constraint, bound: int) -> bool:
    """Independent oracle: closure restricted to addresses of length <= bound.

    Sound, and complete for derivations that stay within the address bound
    (see derived_classes).
    """
    leader = derived_classes(bound, (r, "L", "R"))
    p, q = _pack_ep(c[0]), _pack_ep(c[1])
    return p == q or leader.get(p, p) == leader.get(q, q)


def derived_classes(bound: int, *systems) -> dict[int, int]:
    """The classes of packed configs that the closure rules derive from the
    systems with addresses of length <= bound, as a map from each config
    the saturation touched to its class's leader; an untouched config is a
    class of its own.  A system (r, src, dst) reads r's side L as tag src
    and side R as tag dst, as `ClosureEngine` reads it.

    Plain worklist saturation over explicit classes, with no lazy node tree
    and no union-find forest: a class is the list of its members under a
    leader config, and a merge relabels every member of the smaller class.
    Merging two classes right-appends their shortest members; every other
    pair of members whose addresses are both shorter than the bound then
    follows by transitivity, since each class was closed before.  A config
    whose two children are both touched is filed under its children's
    leaders, and two configs filed under one pair of leaders are merged
    (pair reconstruction).  A merge re-files the parents of the configs it
    relabels.
    """
    leader: dict[int, int] = {}
    members: dict[int, list[int]] = {}
    shortest: dict[int, int] = {}
    filed: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()
    # a packed config is its 1-prefixed address a = ep >> 2 and its tag
    # ep & 3; a smaller a is a shorter address, and a < limit can append
    limit = 1 << bound

    def file(x: int):
        a, t = x >> 2, x & 3
        c0, c1 = (a << 1) << 2 | t, (a << 1 | 1) << 2 | t
        if c0 in leader and c1 in leader:
            y = filed.setdefault((leader[c0], leader[c1]), x)
            if y != x:
                queue.append((x, y))

    for r, src, dst in systems:
        if r.is_zero:
            raise ValueError("the bounded closure is undefined on the zero relation")
        tag = {"L": src, "R": dst}
        for (t1, a1), (t2, a2) in r.constraints:
            queue.append((_pack_ep((tag[t1], a1)), _pack_ep((tag[t2], a2))))
    while queue:
        p, q = queue.popleft()
        for x in (p, q):
            if x not in leader:  # a new config, a class of its own
                leader[x] = shortest[x] = x
                members[x] = [x]
                if x >> 2 > 1:
                    file(x >> 3 << 2 | x & 3)
        lp, lq = leader[p], leader[q]
        if lp == lq:
            continue
        if len(members[lp]) < len(members[lq]):
            lp, lq = lq, lp
        sp, sq = shortest[lp], shortest.pop(lq)
        if sp >> 2 < limit and sq >> 2 < limit:
            for d in (0, 1):
                queue.append(((sp >> 2 << 1 | d) << 2 | sp & 3, (sq >> 2 << 1 | d) << 2 | sq & 3))
        if sq >> 2 < sp >> 2:
            shortest[lp] = sq
        moved = members.pop(lq)
        for x in moved:
            leader[x] = lp
        members[lp] += moved
        for x in moved:
            if x >> 2 > 1:
                file(x >> 3 << 2 | x & 3)
    return leader


def partition_bfs(r: BranchRelation, endpoints: list[Endpoint], bound: int) -> list[int]:
    """The partition of the endpoints under one bounded saturation of r:
    for each endpoint, the index of the first endpoint in the list that
    derived_classes puts in its class (its own index when there is none)."""
    leader = derived_classes(bound, (r, "L", "R"))
    first: dict[int, int] = {}
    return [first.setdefault(leader.get(p, p), i) for i, p in enumerate(map(_pack_ep, endpoints))]


PRODUCT_BOUND = 8


@functools.lru_cache(maxsize=16)
def _product_classes(r1: BranchRelation, r2: BranchRelation) -> dict[int, int]:
    return derived_classes(PRODUCT_BOUND, (r1, "s", "m"), (r2, "m", "t"))


def entails_product(r1: BranchRelation, r2: BranchRelation, c: Constraint) -> bool:
    """Oracle for compose: is the outer constraint c (side L the input of r1,
    side R the output of r2) derivable in the three-tag closure?  The
    bounded saturation `derived_classes` of r1 from s to m and r2 from m to
    t, addresses up to PRODUCT_BOUND, with no `ClosureEngine`; m is
    projected out by asking only about s and t configs.  The last few
    products' classes are kept, since the tests ask many queries of one
    product."""
    if r1.is_zero or r2.is_zero:
        raise ValueError("entails_product is undefined on the zero relation")
    leader = _product_classes(r1, r2)
    p, q = _pack_ep(c[0]), _pack_ep(c[1])
    return p == q or leader.get(p, p) == leader.get(q, q)


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


def peirce_closure(t, conv) -> frozenset:
    """The orbit of a triple under the two cycle transforms
    (x, y, z) -> (x~, z, y) and (x, y, z) -> (z, y~, x), closed by a stack
    walk rather than written out."""
    seen = set()
    stack = [tuple(t)]
    while stack:
        x, y, z = stack.pop()
        if (x, y, z) in seen:
            continue
        seen.add((x, y, z))
        stack.append((conv[x], z, y))
        stack.append((z, conv[y], x))
    return frozenset(seen)


def canonical_key_brute(triples, perms) -> tuple:
    """The least, over the symmetries, of the sorted tuple of the images of
    the triples: one structure's place in the published order."""
    best = None
    for p in perms:
        img = tuple(sorted((p[x], p[y], p[z]) for x, y, z in triples))
        if best is None or img < best:
            best = img
    return best


def mask_triples(forced, orbits, mask: int) -> frozenset:
    """The triple set a mask stands for: the forced triples and the orbits
    of its set bits."""
    triples = set(forced)
    for i, orbit in enumerate(orbits):
        if mask >> i & 1:
            triples.update(orbit)
    return frozenset(triples)


def associative_brute(n: int, triples) -> bool:
    """Is the atom-level composition of the triples associative?  Plain
    sets: x;y is the set of z with (x, y, z) a triple, a set of atoms
    composes with an atom as the union over its members, and
    (x;y);z = x;(y;z) is checked for every triple of atoms, the identity
    atom included."""
    table: dict[tuple[int, int], set[int]] = {}
    for x, y, z in triples:
        table.setdefault((x, y), set()).add(z)

    def product(x, y):
        return table.get((x, y), set())

    for x, y, z in itertools.product(range(n), repeat=3):
        left = set().union(*(product(w, z) for w in product(x, y)))
        right = set().union(*(product(x, w) for w in product(y, z)))
        if left != right:
            return False
    return True


def enumerate_brute(signature: str, stretch: bool = False) -> list[AtomStructure]:
    """The integral structures over the signature by plain isomorph
    rejection: filter every orbit subset for associativity in increasing
    mask order, key each survivor by canonical_key_brute, keep the first
    survivor of each key and order the classes by key."""
    key, names, conv = signature_spec(signature, stretch=stretch)
    orbits = diversity_orbits(conv)
    perms = atom_symmetries(conv)
    forced = forced_triples(conv)
    survivors = kernels.associative_candidates(
        len(conv), forced, orbits, np.arange(1 << len(orbits))
    )
    canon: dict[tuple, frozenset] = {}
    for mask in survivors.tolist():
        triples = mask_triples(forced, orbits, mask)
        canon.setdefault(canonical_key_brute(triples, perms), triples)
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


def tabular_witness_loop(s, v: int, w: int) -> tuple[int, int]:
    """The first functional pair p, q, in increasing order of p and then of
    q, with 0 != conv(p);q <= w and v & conv(p);q = 0, one table at a time;
    raises NotTabular when there is none."""
    comp, conv = s.tables
    fns = functional_brute(s)
    for p in fns:
        for q in fns:
            t = comp[conv[p], q]
            if t != 0 and (t & w) == t and (t & v) == 0:
                return p, q
    raise NotTabular(f"no functional table for {s.format_element(v)} < {s.format_element(w)}")


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


# --- tree-pair notation -----------------------------------------------------


class TreeExpr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Leaf(TreeExpr):
    symbol: str


@dataclass(frozen=True, slots=True)
class Pair(TreeExpr):
    left: TreeExpr
    right: TreeExpr


def parse_tree_expr(text: str) -> TreeExpr:
    """Parse parenthesized tree notation.

    Juxtaposition of exactly two items forms a pair; three or more items in a
    row are rejected because the notation carries no implicit grouping.  A
    leaf symbol may recur: the repeated leaf then names the same point through
    both branches, which is how the doubling expression "00" is written.
    Leaves are single alphanumeric characters and whitespace is skipped;
    malformed text raises terms.TermSyntaxError at the offending position.
    """
    # (position, character) of each non-blank character, then an end marker
    tokens = [(pos, c) for pos, c in enumerate(text) if not c.isspace()]
    tokens.append((len(text), ""))
    e, k = _parse_tree_seq(tokens, 0)
    pos, c = tokens[k]
    if c:
        raise terms.TermSyntaxError("trailing input", pos)
    return e


def _parse_tree_seq(tokens, k: int) -> tuple[TreeExpr, int]:
    """The items juxtaposed from token k on, and the index after them."""
    items = []
    while True:
        c = tokens[k][1]
        if c == "(":
            item, k = _parse_tree_seq(tokens, k + 1)
            pos, c = tokens[k]
            if c != ")":
                raise terms.TermSyntaxError("expected ')'", pos)
            items.append(item)
            k += 1
        elif c.isalnum():
            items.append(Leaf(c))
            k += 1
        else:
            break
    pos = tokens[k][0]
    if not items:
        raise terms.TermSyntaxError("expected a leaf or group", pos)
    if len(items) == 1:
        return items[0], k
    if len(items) == 2:
        return Pair(items[0], items[1]), k
    raise terms.TermSyntaxError(
        "more than two juxtaposed items; parenthesize to binary form", pos
    )


def tree_leaves(e: TreeExpr) -> list[str]:
    if isinstance(e, Leaf):
        return [e.symbol]
    return tree_leaves(e.left) + tree_leaves(e.right)


def leaf_paths(e: TreeExpr) -> dict[str, terms.Term]:
    """Map each leaf to the composition of generators along its address.

    A bare leaf maps to id.  When a symbol occurs in both branches of a pair
    the two prefixed paths are intersected, so "00" yields {0: a & b}.
    Insertion order is the left-to-right order of first occurrence, which is
    also the factor order used by mapsto.
    """
    if isinstance(e, Leaf):
        return {e.symbol: terms.ID}
    lp = leaf_paths(e.left)
    rp = leaf_paths(e.right)
    out: dict[str, terms.Term] = {}
    for sym, p in lp.items():
        if sym in rp:
            out[sym] = terms.Meet(_prefixed(terms.A, p), _prefixed(terms.B, rp[sym]))
        else:
            out[sym] = _prefixed(terms.A, p)
    for sym, p in rp.items():
        if sym not in lp:
            out[sym] = _prefixed(terms.B, p)
    return out


def _prefixed(g: terms.Term, path: terms.Term) -> terms.Term:
    if path == terms.ID:
        return g
    if isinstance(path, terms.Comp):
        return terms.Comp(_prefixed(g, path.left), path.right)
    return terms.Comp(g, path)


def mapsto(src: TreeExpr, dst: TreeExpr) -> terms.Term:
    """Term carrying the source tree shape onto the target tree shape.

    The result is the intersection, over leaves common to both expressions,
    of source-path;conv(target-path).  Disjoint leaf sets give the top
    element.
    """
    sp = leaf_paths(src)
    dp = leaf_paths(dst)
    factors = [terms.comp(sp[u], terms.conv(dp[u])) for u in sp if u in dp]
    if not factors:
        return terms.TOP
    return terms.meet(*factors)


# --- suite equations --------------------------------------------------------


def substituted_sides(m, schema, sample_terms):
    """Both sides of the suite equation schema(*sample_terms) in the tree
    model m, each evaluated from the term with the sample terms substituted
    for the schema's variables."""
    lhs, rhs = schema(*sample_terms)
    return model.eval_term(m, lhs, {}), model.eval_term(m, rhs, {})


# --- staged representations -------------------------------------------------


def hat(rep, x: int) -> frozenset[tuple[int, int]]:
    """Index pairs (i, j) with f_i ; x >= f_j, read off the element tables."""
    comp, _ = rep.s.tables
    f = rep.f
    return frozenset(
        (i, j)
        for i in range(len(f))
        for j in range(len(f))
        if comp[f[i], x] & f[j] == f[j]
    )


def separates_pair(rep, v: int, w: int) -> bool:
    """Whether (0, 1) is in the map of w and not in that of v, and
    f_0 ; v & f_1 = 0."""
    comp, _ = rep.s.tables
    return (
        (0, 1) in hat(rep, w)
        and (0, 1) not in hat(rep, v)
        and comp[rep.f[0], v] & rep.f[1] == 0
    )


def stages_separate(report) -> bool:
    """Whether every stage's sequence separates the report's v < w."""
    return all(separates_pair(rep, report.v, report.w) for rep in report.reps)


def common_post_loop(old, new):
    """The checks every extension of the staged construction must pass, one
    element z and one index pair at a time: the map of z only grows, and no
    product f_k ; z & f_l over the old indices that was zero becomes
    nonzero."""
    s = old.s
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


def generated_subalgebra_loop(s, seeds) -> list[int]:
    """The seeds' closure in the order represent.generated_subalgebra
    keeps, built with list scans and a `grew` flag: each round applies every
    operation to a snapshot of the list and appends the new results in
    order, stopping at represent.SUBALGEBRA_CAP elements."""
    comp, conv = s.tables
    out = []
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
