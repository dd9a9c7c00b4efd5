"""Binary relations on infinite binary trees, decided exactly.

A relation is either the empty relation or a finite set of subtree-equality
constraints between addressed subtrees of the input tree (side L) and output
tree (side R).  The generator a relates a tree to its left subtree, b to its
right subtree.  Meet is union of constraints, converse swaps the sides, and
composition projects the middle tree out of the combined constraint system.

Entailment between constraint systems is decided by a congruence-closure
engine over configurations (side, address).  The closure rules are

  * symmetry and transitivity,
  * right append: equal subtrees have equal subtrees at every deeper address,
  * pair reconstruction: a tree is determined by its two immediate subtrees,
    so configurations whose 0-children and 1-children are both identified are
    themselves identified.

The last rule is the constraint-level form of the law that pairing the two
projections of a point recovers the point; without it the two projections
would not satisfy the unicity identity.  The tests check the engine against
a slow bounded breadth-first implementation of the same rule system
(`entails_bfs` in tests/oracles.py), and an engine built from several
systems against the one built from their meet.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field

Endpoint = tuple[str, str]  # (side, address), sides "L"/"R", address over "01"
Constraint = tuple[Endpoint, Endpoint]


def _orient(c: Constraint) -> Constraint:
    """The constraint's endpoints in `_ep_key` order, the order in which
    this module stores every constraint it builds."""
    p, q = c
    return (p, q) if _ep_key(p) <= _ep_key(q) else (q, p)


def _ep_key(e: Endpoint):
    """(length, side, address): the order in which `_compose_engine` names
    classes, so a stored normal constraint has its class's name first."""
    side, addr = e
    return (len(addr), side, addr)


@dataclass(slots=True, unsafe_hash=True)
class BranchRelation:
    """Zero, or a finite set of subtree-equality constraints.

    The empty constraint set is the universal relation; structural equality
    of values is incidental, semantic equality is decided by `equal`.

    `normal` marks a constraint set that `_compose_engine` itself would
    emit, which is the normal form of its relation (proved there).  Only
    compose's outputs, the words and TOP carry it; equality and hashing
    ignore it.

    The class is not `frozen`: a frozen dataclass sets each field through
    `object.__setattr__`, which made construction about three times
    slower, and the tree model builds tens of thousands of relations per
    law check.  No code mutates a relation after construction, and sets,
    dict keys and the handle's memo (`_memo`) rely on that;
    tests/test_branchrel.py checks the package's source for assignments
    to these fields.
    """

    is_zero: bool
    constraints: frozenset[Constraint]
    normal: bool = field(default=False, compare=False)

    def __repr__(self):
        return f"BranchRelation({format_relation(self)!r})"


_SWAP = {"L": "R", "R": "L"}


def _word(w: str, root: str = "R") -> BranchRelation:
    """The word {R.^=L.w}: the output is the input's subtree at address w.
    With root "L" it is the co-word {L.^=R.w}, the word's converse.  The
    empty word is the identity in either form.  Each is the engine's
    product of shorter words, so it is normal."""
    con = ((root, ""), (_SWAP[root], w)) if w else (("L", ""), ("R", ""))
    return BranchRelation(False, frozenset((con,)), True)


ZERO = BranchRelation(True, frozenset())
TOP = BranchRelation(False, frozenset(), True)
IDENT = _word("")
GEN_A = _word("0")  # output equals the input's left subtree
GEN_B = _word("1")


def format_relation(r: BranchRelation) -> str:
    """Text form: `0`, `1` for the unconstrained relation, otherwise
    `{L.u=R.v; ...}` with the empty address printed as `^`.  The text
    orders endpoints by (length, address, side), within each constraint
    and across them, whatever order the constraints are stored in."""
    if r.is_zero:
        return "0"
    if not r.constraints:
        return "1"
    ends = sorted(sorted((len(a), a, side) for side, a in c) for c in r.constraints)
    body = "; ".join(f"{s}.{a or '^'}={t}.{b or '^'}" for (_, a, s), (_, b, t) in ends)
    return "{" + body + "}"


# --- the closure engine ---------------------------------------------------


def _union(parent: list[int], kid: list[int], stack: list[int], full: list[int]):
    """Merge the classes of each pair (x, y) on the stack, read as a flat
    list x1, y1, x2, y2, ..., and, by right append, the classes of their
    d-children for each d both have.  A child only one side has becomes the
    merged class's child; a class that gains its second child that way is
    appended to `full`.  The stack is consumed."""
    while stack:
        y = stack.pop()
        x = stack.pop()
        while parent[x] != x:  # find, halving the path
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x == y:
            continue
        parent[y] = x
        jx, jy = 2 * x, 2 * y
        cy = kid[jy]
        if cy != -1:
            cx = kid[jx]
            if cx == -1:
                kid[jx] = cy
                if kid[jx + 1] != -1:
                    full.append(x)
            else:
                stack += (cx, cy)
        cy = kid[jy + 1]
        if cy != -1:
            cx = kid[jx + 1]
            if cx == -1:
                kid[jx + 1] = cy
                if kid[jx] != -1:
                    full.append(x)
            else:
                stack += (cx, cy)


class ClosureEngine:
    """Union-find congruence closure over (tag, address) configurations.

    `ClosureEngine((r, src, dst), ...)` loads each system `(r, src, dst)` (a
    non-zero relation r whose side L is read as tag src and side R as tag
    dst) and saturates, so a built engine is always closed.  Merging two
    classes merges their children pairwise (right append, `_union`), and
    saturation repeatedly merges classes whose child pairs coincide (pair
    reconstruction).  The result is the least fixpoint of the rule system
    over all the systems together.

    Node i's parent is `_parent[i]` and its d-child `_kid[2*i + d]` (-1
    while absent), in two flat lists.  The constructor first gives every
    tag a root slot, in the order the systems name them, so compose's tags
    s, m and t are nodes 0, 1 and 2 whatever their constraints.  It then
    walks the trie of every endpoint, creating one node per (tag, address
    prefix); no class is merged yet, so no find is needed.  Last, it merges
    the endpoints of every constraint in one `_union` stack and saturates.
    Building the tries first and merging all pairs in one stack change only
    the node numbering and the choice of class representatives, not the
    closure: a config the interleaved order would have reached through an
    already-merged class has its own node here, and the union of its
    parent class merges it into the same class by right append.  The least
    fixpoint does not depend on the order in which the rules fire.

    `_full` lists every node that has had both children at some point: the
    trie walk appends a node when it creates its second child, and `_union`
    appends a class that gains its second child through a moved child.  A
    class never loses a child, and a merged class keeps the children of
    both sides, so the classes with both children are exactly the classes
    of the listed nodes.
    """

    __slots__ = ("_parent", "_kid", "_full")

    def __init__(self, *systems: tuple[BranchRelation, str, str]):
        roots: dict[str, int] = {}
        for _, src, dst in systems:
            roots.setdefault(src, len(roots))
            roots.setdefault(dst, len(roots))
        parent = list(range(len(roots)))
        kid = [-1] * (2 * len(roots))
        full: list[int] = []
        self._parent, self._kid, self._full = parent, kid, full
        ends: list[int] = []
        for r, src, dst in systems:
            at = {"L": roots[src], "R": roots[dst]}
            for con in r.constraints:
                for side, addr in con:
                    n = at[side]
                    for ch in addr:
                        j = 2 * n + (ch == "1")
                        n = kid[j]
                        if n == -1:
                            n = kid[j] = len(parent)
                            parent.append(n)
                            kid += (-1, -1)
                            if kid[j ^ 1] != -1:  # node j >> 1 has both children
                                full.append(j >> 1)
                    ends.append(n)
        _union(parent, kid, ends, full)
        self.saturate()

    def saturate(self):
        """Pair reconstruction to a fixpoint, one round at a time.

        A round buckets the classes of the `_full` nodes, the classes with
        both children, by their children's classes; every bucket collision
        goes on one stack, which `_union` then merges with its right
        appends.  A node listed twice, or two nodes of one class, fall in
        the same bucket with the same class and collide with nothing.  The
        rounds stop when a round finds no collision, or when fewer than two
        nodes are listed: pair reconstruction merges two distinct classes
        that both have two children, and no other rule fires here except
        through such a merge, so with fewer than two nothing can change.
        """
        parent, kid, full = self._parent, self._kid, self._full
        while len(full) > 1:
            buckets: dict[tuple[int, int], int] = {}
            stack: list[int] = []
            for i in full:
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]
                c0, c1 = kid[2 * i], kid[2 * i + 1]
                while parent[c0] != c0:
                    parent[c0] = c0 = parent[parent[c0]]
                while parent[c1] != c1:
                    parent[c1] = c1 = parent[parent[c1]]
                other = buckets.setdefault((c0, c1), i)
                if other != i:
                    stack += (other, i)
            if not stack:
                return
            _union(parent, kid, stack, full)


def leq(r1: BranchRelation, r2: BranchRelation) -> bool:
    """r1 below r2: r1's constraints entail each of r2's.  A constraint set
    entails its subsets outright, without building an engine.

    Otherwise leq reads r1's normal form (`_nf`), which costs one engine
    unless r1 is normal.  Each constraint of a normal form joins a class
    name to a later config of that class, so mapping every later endpoint
    to its name and walking an endpoint from its root through that map
    gives the N(x) of `_compose_engine`'s completeness proof (`_walk`); r1
    entails x = y exactly when N(x) = N(y)."""
    if r1.is_zero:
        return True
    if r2.is_zero:
        return False
    if r2.constraints <= r1.constraints:
        return True
    names = _names(_nf(r1))
    return all(_walk(names, p) == _walk(names, q) for p, q in r2.constraints)


def _names(r: BranchRelation) -> dict[Endpoint, Endpoint]:
    """Each constraint's later endpoint mapped to its first, the name."""
    return {q: p for p, q in r.constraints}


def _walk(names: dict[Endpoint, Endpoint], e: Endpoint) -> Endpoint:
    """N(e): from e's root, append e's address one digit at a time and
    replace each config found in `names` by its name."""
    side, addr = e
    x = names.get((side, ""), (side, ""))
    for ch in addr:
        x = (x[0], x[1] + ch)
        x = names.get(x, x)
    return x


def equal(r1: BranchRelation, r2: BranchRelation) -> bool:
    """Equal as relations: identical normal forms (`_nf`).  Two normal
    operands are compared as they are; any other operand costs one engine."""
    if r1.is_zero or r2.is_zero:
        return r1.is_zero and r2.is_zero
    if r1.constraints == r2.constraints:
        return True
    return _nf(r1).constraints == _nf(r2).constraints


def _nf(r: BranchRelation) -> BranchRelation:
    """The normal form of a non-zero r: r itself when it is normal, else
    `_emit` over r's own two-tag engine, whose outer roots are slots 0 and
    1 (proved in `_compose_engine`)."""
    return r if r.normal else _emit(ClosureEngine((r, "L", "R")), 1)


def meet(r1: BranchRelation, r2: BranchRelation) -> BranchRelation:
    if r1.is_zero or r2.is_zero:
        return ZERO
    return BranchRelation(False, r1.constraints | r2.constraints)


def converse(r: BranchRelation) -> BranchRelation:
    """Swap the sides of every constraint, and orient each swapped pair
    (`_orient`)."""
    if r.is_zero:
        return ZERO
    swapped = (((_SWAP[t1], a1), (_SWAP[t2], a2)) for (t1, a1), (t2, a2) in r.constraints)
    return BranchRelation(False, frozenset(map(_orient, swapped)))


def compose(r1: BranchRelation, r2: BranchRelation) -> BranchRelation:
    """Relative product: project the shared middle tree out of r1 and r2.

    A word on the left or a co-word on the right is substituted into the
    other operand (`_prefixed`), side L first, unless a class name would
    flip.  The Domain condition is the one product of words, co-words and
    TOP that is no substitution (`_domain`).  Every other product is
    projected out of the closure engine (`_compose_engine`).  Every
    non-zero product is normal.

    Words.  Write W_u = {R.^=L.u} and C_u = {L.^=R.u} (`_word`); the
    identity is W_^ = C_^.  Read with r1 from s to the middle m and r2 from
    m to t, W_u as r1 says m = s.u and C_u says s = m.u; as r2, W_v says
    t = m.v and C_v says m = t.v.  In C_u;W_v, s = m.u and t = m.v are two
    subtrees of a free middle.  If v = u.w then t = s.w, W_w; if u = v.w
    then s = t.w, C_w.  If neither address is a prefix of the other the two
    subtrees are disjoint, so a middle holding any s and any t exists: TOP.
    This is the Domain condition conv(a);b = 1, at u = 0 and v = 1.  TOP;W_v
    and C_u;TOP are TOP too: a word relates every tree to some middle, and
    TOP relates that middle to every tree.  Every other product of two of
    them is a substitution below, for a word-shaped operand is normal
    whether or not it is flagged.  W_u;C_v, the constraint L.u=R.v, takes
    side L when |u| <= |v| and side R when |v| < |u|; for u != ^ the other
    side would flip the class name.

    Substitution.  In W_u;r the middle is s.u, so the product's closure is
    r's closure with each input config L.a moved to L.ua; the configs of s
    off the path to u are constrained by nothing, and those on it are
    named by themselves.  By the characterisation in `_compose_engine`,
    the engine then emits r's constraints with every side-L address
    prefixed by u, provided r is normal and every class keeps its first
    config as its name.  Likewise r;C_v is r with every side-R address
    prefixed by v.  Prefixing side L lengthens only L configs, so only a
    class named L.a with a member on side R can change its name: it does
    when its first R member R.b has |b| < |a| + |u|.  On side R a class
    named R.b flips when its first L member L.a has |a| <= |b| + |v|.

    Such a flip shows in a constraint of r.  Let C, named L.a, flip, and
    let R.b be its first R member.  If b = ^, then a = ^ and r holds
    L.^=R.^.  Else b = b'.d.  If R.b' names its class D, the engine emits
    L.a=R.b.  If not, D's name precedes R.b' and lies on side L (a name
    R.c with c before b' would put R.c.d, before R.b, in C), say L.c; then
    L.c.d is in C, so |a| <= |c| + 1 and |b'| < |a| + |u| - 1 <= |c| + |u|:
    D flips too, with a shorter first R member.  The descent ends at a
    constraint L.a'=R.b'' with |a'| <= |b''| < |a'| + |u|, which
    `_prefixed` sees.  Side R is symmetric.  W_^ and C_^ flip nothing, so
    IDENT;r = r;IDENT = r for normal r, and IDENT counts as W_^ on the
    left though `_word_parts` reads it as C_^.  The tests check both rules
    against the engine for every pair of words and co-words up to length 5
    and TOP, and the substitution for every normal pool product and every
    word and co-word up to length 4, on both sides.
    """
    if r1.is_zero or r2.is_zero:
        return ZERO
    w1, w2 = _word_parts(r1), _word_parts(r2)
    left = w1 is not None and (w1[0] == "R" or w1 == ("L", ""))  # W_u or IDENT
    if left and (w2 is not None or r2.normal):
        out = _prefixed(r2, "L", w1[1])
        if out is not None:
            return out
    if w2 is not None and w2[0] == "L" and (w1 is not None or r1.normal):
        out = _prefixed(r1, "R", w2[1])
        if out is not None:
            return out
    if w1 is not None and w2 is not None:
        return _domain(w1, w2)
    return _compose_engine(r1, r2)


def _prefixed(r: BranchRelation, side: str, u: str) -> BranchRelation | None:
    """The normal r with every address on `side` prefixed by u: the product
    W_u;r for side L, r;C_u for side R.  None when a class name would flip
    (see compose)."""
    out = []
    for p, q in r.constraints:  # p names the class, q is a later member
        if p[0] == side:
            p = (side, u + p[1])
            if q[0] == side:
                q = (side, u + q[1])
            elif _ep_key(q) < _ep_key(p):  # q would name the class
                return None
        elif q[0] == side:
            q = (side, u + q[1])
        out.append((p, q))
    return BranchRelation(False, frozenset(out), True)


def _word_parts(r: BranchRelation) -> tuple[str, str] | None:
    """(root, w) when r is `_word(w, root)`, ("", "") when r is TOP, else
    None.  Only an oriented word counts: its empty address comes first,
    and the identity's side L.  Read as a word, R.^=L.^ would reach
    `_prefixed`, which passes the constraint through unoriented."""
    cons = r.constraints
    if not cons:
        return ("", "")
    if len(cons) != 1:
        return None
    (((s1, a1), (s2, a2)),) = cons
    if a1 or s1 == s2 or (not a2 and s1 == "R"):
        return None
    return (s1, a2)


def _domain(w1: tuple[str, str], w2: tuple[str, str]) -> BranchRelation:
    """C_u;W_v, TOP;W_v, C_u;TOP or TOP;TOP, from `_word_parts`: W_w or C_w
    when one address is the other's prefix, else TOP (see compose)."""
    (k1, u), (k2, v) = w1, w2
    if k1 and k2:
        if v.startswith(u):
            return _word(v[len(u) :])
        if u.startswith(v):
            return _word(u[len(v) :], "L")
    return TOP


def _compose_engine(r1: BranchRelation, r2: BranchRelation) -> BranchRelation:
    """compose of two non-zero relations through the closure engine.

    The engine is the saturated three-tag system E3 of r1 and r2 over one
    shared middle: r1's input is tag s, its output the middle m, and r2 maps
    m to t; s and t are the engine's root slots 0 and 2.  `_emit` walks E3
    breadth-first from the outer roots and names each class by the first
    outer config to reach it (L.u for (s, u), R.u for (t, u)).  Each other
    child edge, class n along d to class c, emits `name[n].d = name[c]`;
    roots in one class emit `L.^=R.^`.

    Soundness.  name[n] lies in n and a class's d-child holds x.d for each
    x in it (right append), so E3 derives every emitted constraint, and so
    everything their closure E2 derives.

    Completeness.  Let N(x) be name[c] for the class c of the outer config
    x if the engine holds it, else N(x').d for x = x'.d.  By induction on
    the address length E2 derives x = N(x): a root is its own name or joined
    to L.^ by the root constraint; for x = x'.d, right append gives
    x = N(x').d, which is name[c] by the tree or cross edge (the walk
    reaches c along child links from the root).  A child the engine lacks
    is fresh: with no children it never meets pair reconstruction, and it
    holds exactly the y'.d with y' in the class of x', so it is identified
    only through its parent.  Configs of one E3 class thus share N, and E2
    derives their equality.

    Orientation.  The walk hands out names in increasing (length, side,
    address) order, `_ep_key`'s: the roots come first, and the children of
    the queued classes are named in queue order, 0 before 1.  So name[c]
    precedes the new config name[n].d, and each constraint is emitted
    oriented, name first, with no comparison and no sort.

    Normal form.  For a relation r and an outer config x, let min[x] be
    the first config of x's class in the closure of r, in (length, side,
    address) order, and let K(r) hold min[x]=x, oriented, for each x that
    is R.^ or a child y.d of some y = min[y], whenever x != min[x].  The
    claim: this function emits K(r1;r2).  So, as K(r) depends on r's
    closure alone, relations that are equal as relations give identical
    sets.  By soundness and completeness the closure of r1;r2 is E3 on the
    outer configs, and N is constant on its classes.  Also N(x) <= x: for
    x = y.d, N(x) is N(y).d or the name of N(y).d's class, handed out no
    later than the walk offered N(y).d <= y.d.  As N(x) lies in x's
    class, N(x) = N(min[x]) <= min[x] <= N(x): every name is the first
    config of its class.  The walk reaches the class of every name, so it
    emits min[x]=x for each child x = name[n].d of a class with a d-child
    in the engine, whenever x is not that child's name; and a child with
    no node is its own class's first config.  That is K(r1;r2).

    Now let nf(r) be `_emit` over the two-tag engine of r alone, the system
    (r, L, R) with its outer roots at slots 0 and 1 (`_nf`).  That engine
    is r's own closure, so the argument above holds with it in place of E3
    and r in place of r1;r2: nf(r) = K(r).  A set r this function emitted
    is then a fixed point: nf(r) = K(r) = K(r1;r2) = r.  And two relations
    are equal exactly when their closures agree, that is when their nf
    agree.  Every set marked `normal` is one this function emits for some
    pair, which the tests check, so `equal` compares normal forms and `leq`
    walks N over the normal form of r1.

    `entails_product` in tests/oracles.py decides E3 by a bounded worklist
    saturation with no union-find; the tests check compose with it.
    """
    return _emit(ClosureEngine((r1, "s", "m"), (r2, "m", "t")), 2)


def _emit(eng: ClosureEngine, rt: int) -> BranchRelation:
    """The constraints read off a built engine whose outer roots are slot 0
    (side L) and slot rt (side R), by the breadth-first naming walk that
    `_compose_engine` describes; the result is normal."""
    parent, kid = eng._parent, eng._kid
    rs = 0
    while parent[rs] != rs:
        rs = parent[rs]
    while parent[rt] != rt:
        rt = parent[rt]

    out: list[Constraint] = []
    name: dict[int, Endpoint] = {rs: ("L", "")}
    queue = [rs]  # grows while the loop below walks it
    if rt == rs:
        out.append((("L", ""), ("R", "")))
    else:
        name[rt] = ("R", "")
        queue.append(rt)
    for n in queue:  # the two digits unrolled, 0 first
        side, addr = name[n]
        c = kid[2 * n]
        if c != -1:
            while parent[c] != c:
                c = parent[c]
            old = name.get(c)
            if old is None:
                name[c] = (side, addr + "0")
                queue.append(c)
            else:
                out.append((old, (side, addr + "0")))
        c = kid[2 * n + 1]
        if c != -1:
            while parent[c] != c:
                c = parent[c]
            old = name.get(c)
            if old is None:
                name[c] = (side, addr + "1")
                queue.append(c)
            else:
                out.append((old, (side, addr + "1")))
    return BranchRelation(False, frozenset(out), True)


# --- model handle and sampling -------------------------------------------


def paths_pool() -> list[BranchRelation]:
    """Deterministic sample pool: compositions of the generators up to
    length 4, their pairwise meets at length <= 2, converses of all of
    those, and the constants, each once in order of first appearance.

    The composition of the generator word d1...dk (a for 0, b for 1) is
    {R.^=L.d1...dk}, output the input's subtree at that address, so the
    words are written down rather than composed: the empty word is IDENT,
    then a, b, aa, ab, ... in the order of composing one more generator.
    Their converses are written down too, as the co-words `_word(w, "L")`,
    and the converse of a meet of words is the meet of their co-words.
    Words and co-words are normal; meets are not flagged."""
    words = ["".join(w) for k in range(5) for w in itertools.product("01", repeat=k)]
    pool = []
    for root in ("R", "L"):
        rels = [_word(w, root) for w in words]
        short = [r for r, w in zip(rels, words) if len(w) <= 2]
        pool += rels + [meet(x, y) for x, y in itertools.combinations(short, 2)]
    pool.append(TOP)
    pool.append(ZERO)
    return list(dict.fromkeys(pool))


MEMO_SIZE = 1024  # entries per memoised operation of one handle

CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


def _memo(f):
    """f on one or two relations, memoised in a bounded LRU cache of
    `MEMO_SIZE` entries, read when the memo is made (0 keeps nothing).

    The key is each argument's `(is_zero, constraints)`, the fields that
    equality reads, laid out flat in one tuple.  Hashing it stays in C: a
    frozenset caches its hash, where hashing the relations themselves
    would call the dataclass's generated `__hash__` once per argument per
    lookup.  Eviction is `functools.lru_cache`'s: a hit moves its entry to
    the newest end of the dict, and a miss calls f first, then drops the
    oldest entry if the cache is full.  `cache_info()` reports what
    `lru_cache`'s does."""
    size = MEMO_SIZE
    cache = {}
    hits = misses = 0

    def memo(x, y=None):
        nonlocal hits, misses
        if y is None:
            key = (x.is_zero, x.constraints)
        else:
            key = (x.is_zero, x.constraints, y.is_zero, y.constraints)
        out = cache.pop(key, cache)  # the cache itself marks a miss
        if out is not cache:
            hits += 1
            cache[key] = out
            return out
        misses += 1
        out = f(x) if y is None else f(x, y)
        if size:
            if len(cache) >= size:
                del cache[next(iter(cache))]
            cache[key] = out
        return out

    memo.cache_info = lambda: CacheInfo(hits, misses, size, len(cache))
    return memo


def model_handle():
    """The tree-relation model.

    `compose`, `converse`, `leq` and `equal` are memoised, each in a
    bounded LRU cache made here for this handle by `_memo` (reached as
    `.__wrapped__` of the handle's operation, which `model.elementwise`
    lifts over object arrays of relations).  A law check or a suite
    asks for the same few relations many times over, so most calls are
    repeats; the CLI builds one handle per command, so a cache lives
    exactly as long as one job and memory stays bounded.  `meet` is not
    memoised: its inputs rarely repeat.  The module functions stay
    uncached: a process-global cache would carry answers from one job into
    the next, which a one-shot CLI process never gets.  Each memo calls the
    module function the handle was built with, so a wrapper installed on
    the module attribute before (a tracer, a test) sees every miss.
    """
    from .model import ModelHandle, elementwise

    return ModelHandle(
        name="branchrel",
        meet=elementwise(meet, 2),
        comp=elementwise(_memo(compose), 2),
        conv=elementwise(_memo(converse), 1),
        zero=ZERO,
        top=TOP,
        ident=IDENT,
        equal=elementwise(_memo(equal), 2),
        leq=elementwise(_memo(leq), 2),
        gen_a=GEN_A,
        gen_b=GEN_B,
        elements=None,
        sample_pool=paths_pool,
        format_element=format_relation,
    )
