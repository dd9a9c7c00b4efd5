"""Abstract syntax, parser, and printer for algebraic terms.

Terms are built from the constants 0, 1, id, the two generators a and b,
named variables, and the operations ; (relative product), & (intersection),
conv (converse), + (union), and -(x) (complement).  Union and complement are
only meaningful in full relation algebras; the parser can reject them when a
caller works in the smaller signature.

The module also handles the parenthesized tree notation used to describe
prefix substitutions on infinite binary trees ("0(12)" and friends), the
root-to-leaf path assignment of such an expression, and the "source maps to
target" term constructor that turns a pair of tree expressions into a term.
"""

from __future__ import annotations

from dataclasses import dataclass


class TermError(Exception):
    pass


class TermSyntaxError(TermError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class RaOnlyOperatorError(TermError):
    """Union or complement used where only the smaller signature is allowed."""

    def __init__(self, op: str, pos: int | None = None):
        where = "" if pos is None else f" (at position {pos})"
        super().__init__(f"operator {op!r} is not available in the J signature{where}")
        self.op = op
        self.pos = pos


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Zero(Term):
    pass


@dataclass(frozen=True, slots=True)
class Top(Term):
    pass


@dataclass(frozen=True, slots=True)
class Id(Term):
    pass


@dataclass(frozen=True, slots=True)
class GenA(Term):
    pass


@dataclass(frozen=True, slots=True)
class GenB(Term):
    pass


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Conv(Term):
    child: Term


@dataclass(frozen=True, slots=True)
class Comp(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Compl(Term):
    child: Term


ZERO = Zero()
TOP = Top()
ID = Id()
A = GenA()
B = GenB()


_BINARY = frozenset((Comp, Meet, Join))
_UNARY = frozenset((Conv, Compl))


def subterms(t: Term):
    """Every node of a term in preorder, left before right, each occurrence
    of a repeated subterm included; walked without recursion.

    The node classes are final, so the walk looks up the exact class, which
    is cheaper than isinstance against a tuple.
    """
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        cls = type(t)
        if cls in _BINARY:
            stack += (t.right, t.left)
        elif cls in _UNARY:
            stack.append(t.child)


def free_vars(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if isinstance(u, Var)}


def mentions_generators(t: Term) -> bool:
    return any(isinstance(u, (GenA, GenB)) for u in subterms(t))


def is_j_term(t: Term) -> bool:
    """True when the term avoids union and complement."""
    return not any(isinstance(u, (Join, Compl)) for u in subterms(t))


# --- helpers used both by the parser and by the tree-notation constructors


def comp(*factors: Term) -> Term:
    """Left-associated relative product with identity factors dropped."""
    out: Term | None = None
    for f in factors:
        if isinstance(f, Id):
            continue
        if out is None:
            out = f
        elif isinstance(f, Comp):
            # keep the left-associated spine flat
            out = Comp(comp(out, f.left), f.right)
        else:
            out = Comp(out, f)
    return ID if out is None else out


def meet(*parts: Term) -> Term:
    out: Term | None = None
    for p in parts:
        out = p if out is None else Meet(out, p)
    if out is None:
        raise ValueError("meet of no terms")
    return out


def conv(t: Term) -> Term:
    """Converse with the operation pushed through products and meets.

    Produces the flattened forms used throughout: conv of a;b comes out as
    conv(b);conv(a), double converses cancel.
    """
    if isinstance(t, (Zero, Top, Id)):
        return t
    if isinstance(t, Conv):
        return t.child
    if isinstance(t, Comp):
        return comp(conv(t.right), conv(t.left))
    if isinstance(t, Meet):
        return Meet(conv(t.left), conv(t.right))
    if isinstance(t, Join):
        return Join(conv(t.left), conv(t.right))
    return Conv(t)


# --- parsing ------------------------------------------------------------

_ATOMS = {"a": A, "b": B, "id": ID, "0": ZERO, "1": TOP}


# deepest tree and parenthesis nesting parse_term accepts; the parser, printer
# and evaluators recurse per level and stay far inside Python's limit
MAX_DEPTH = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise TermSyntaxError(f"expected {ch!r}", self.pos)

    def ident(self) -> str | None:
        self.skip_ws()
        i = self.pos
        text = self.text
        if i < len(text) and (text[i].isalpha() or text[i] == "_"):
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.pos = j
            return text[i:j]
        return None


def parse_term(text: str, signature: str = "RA") -> Term:
    """Parse the ASCII term grammar.

    With signature="J" the union and complement operators are rejected with
    RaOnlyOperatorError.  A term deeper than MAX_DEPTH is rejected with
    TermSyntaxError.
    """
    if signature not in ("RA", "J"):
        raise ValueError(f"unknown signature {signature!r}")
    sc = _Scanner(text)
    t = _parse_sum(sc, signature)
    sc.skip_ws()
    if sc.pos != len(text):
        raise TermSyntaxError("trailing input", sc.pos)
    # each level spells at least one character: only long texts can be deep
    if len(text) > MAX_DEPTH and _height(t) > MAX_DEPTH:
        raise TermSyntaxError(f"term nested deeper than {MAX_DEPTH} levels", 0)
    return t


def _height(t: Term) -> int:
    """Levels of the syntax tree, counted without recursion."""
    out, stack = 0, [(t, 1)]
    while stack:
        t, h = stack.pop()
        out = max(out, h)
        if isinstance(t, (Conv, Compl)):
            stack.append((t.child, h + 1))
        elif isinstance(t, (Comp, Meet, Join)):
            stack += [(t.left, h + 1), (t.right, h + 1)]
    return out


def _parse_sum(sc: _Scanner, sig: str) -> Term:
    t = _parse_meet(sc, sig)
    while sc.peek() == "+":
        pos = sc.pos
        sc.take("+")
        if sig == "J":
            raise RaOnlyOperatorError("+", pos)
        t = Join(t, _parse_meet(sc, sig))
    return t


def _parse_meet(sc: _Scanner, sig: str) -> Term:
    t = _parse_comp(sc, sig)
    while sc.take("&"):
        t = Meet(t, _parse_comp(sc, sig))
    return t


def _parse_comp(sc: _Scanner, sig: str) -> Term:
    t = _parse_unary(sc, sig)
    while sc.take(";"):
        t = Comp(t, _parse_unary(sc, sig))
    return t


def _parse_unary(sc: _Scanner, sig: str) -> Term:
    c = sc.peek()
    if c == "-":
        pos = sc.pos
        sc.take("-")
        if sig == "J":
            raise RaOnlyOperatorError("-", pos)
        return Compl(_parse_group(sc, sig))
    if c == "(":
        return _parse_group(sc, sig)
    if c in ("0", "1"):
        sc.pos += 1
        return _ATOMS[c]
    pos = sc.pos
    name = sc.ident()
    if name is None:
        raise TermSyntaxError("expected a term", sc.pos)
    if name == "conv":
        return Conv(_parse_group(sc, sig))
    if name in _ATOMS:
        return _ATOMS[name]
    return Var(name)


def _parse_group(sc: _Scanner, sig: str) -> Term:
    """A parenthesised sum, at most MAX_DEPTH groups deep."""
    sc.expect("(")
    sc.depth += 1
    if sc.depth > MAX_DEPTH:
        raise TermSyntaxError(f"term nested deeper than {MAX_DEPTH} levels", sc.pos)
    t = _parse_sum(sc, sig)
    sc.expect(")")
    sc.depth -= 1
    return t


# --- printing -----------------------------------------------------------

_PREC_JOIN, _PREC_MEET, _PREC_COMP, _PREC_ATOM = 1, 2, 3, 4


def format_term(t: Term) -> str:
    """Print a term so that parse_term(format_term(t)) == t structurally."""
    return _fmt(t, 0)


def _fmt(t: Term, ctx: int) -> str:
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, Id):
        return "id"
    if isinstance(t, GenA):
        return "a"
    if isinstance(t, GenB):
        return "b"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Conv):
        return f"conv({_fmt(t.child, 0)})"
    if isinstance(t, Compl):
        return f"-({_fmt(t.child, 0)})"
    if isinstance(t, Comp):
        s = f"{_fmt(t.left, _PREC_COMP)};{_fmt(t.right, _PREC_ATOM)}"
        return f"({s})" if ctx > _PREC_COMP else s
    if isinstance(t, Meet):
        s = f"{_fmt(t.left, _PREC_MEET)} & {_fmt(t.right, _PREC_COMP)}"
        return f"({s})" if ctx > _PREC_MEET else s
    if isinstance(t, Join):
        s = f"{_fmt(t.left, _PREC_JOIN)} + {_fmt(t.right, _PREC_MEET)}"
        return f"({s})" if ctx > _PREC_JOIN else s
    raise TypeError(f"not a term: {t!r}")


# --- tree expressions ---------------------------------------------------


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
    """
    sc = _Scanner(text)
    e = _parse_tree_seq(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise TermSyntaxError("trailing input", sc.pos)
    return e


def _parse_tree_seq(sc: _Scanner) -> TreeExpr:
    items = []
    while True:
        c = sc.peek()
        if c == "(":
            sc.take("(")
            items.append(_parse_tree_seq(sc))
            sc.expect(")")
        elif c.isalnum():
            items.append(Leaf(c))
            sc.pos += 1
        else:
            break
    if not items:
        raise TermSyntaxError("expected a leaf or group", sc.pos)
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return Pair(items[0], items[1])
    raise TermSyntaxError(
        "more than two juxtaposed items; parenthesize to binary form", sc.pos
    )


def tree_leaves(e: TreeExpr) -> list[str]:
    if isinstance(e, Leaf):
        return [e.symbol]
    return tree_leaves(e.left) + tree_leaves(e.right)


def leaf_paths(e: TreeExpr) -> dict[str, Term]:
    """Map each leaf to the composition of generators along its address.

    A bare leaf maps to id.  When a symbol occurs in both branches of a pair
    the two prefixed paths are intersected, so "00" yields {0: a & b}.
    Insertion order is the left-to-right order of first occurrence, which is
    also the factor order used by mapsto.
    """
    if isinstance(e, Leaf):
        return {e.symbol: ID}
    lp = leaf_paths(e.left)
    rp = leaf_paths(e.right)
    out: dict[str, Term] = {}
    for sym, p in lp.items():
        if sym in rp:
            out[sym] = Meet(_prefixed(A, p), _prefixed(B, rp[sym]))
        else:
            out[sym] = _prefixed(A, p)
    for sym, p in rp.items():
        if sym not in lp:
            out[sym] = _prefixed(B, p)
    return out


def _prefixed(g: Term, path: Term) -> Term:
    if isinstance(path, Id):
        return g
    if isinstance(path, Comp):
        return Comp(_prefixed(g, path.left), path.right)
    return Comp(g, path)


def mapsto(src: TreeExpr, dst: TreeExpr) -> Term:
    """Term carrying the source tree shape onto the target tree shape.

    The result is the intersection, over leaves common to both expressions,
    of source-path;conv(target-path).  Disjoint leaf sets give the top
    element.
    """
    sp = leaf_paths(src)
    dp = leaf_paths(dst)
    factors = [comp(sp[u], conv(dp[u])) for u in sp if u in dp]
    if not factors:
        return TOP
    return meet(*factors)


# --- series-parallel diagrams -------------------------------------------


def emit_dot(t: Term) -> str:
    """Render a union-free term as a DOT digraph.

    Relative products are drawn in series, intersections in parallel,
    converses of edge atoms as reversed edges; identity segments collapse
    their endpoints into a shared node.
    """
    if not is_j_term(t):
        raise RaOnlyOperatorError("+/-")
    t = _push_conv(t)
    parent: list[int] = []
    edges: list[tuple[int, int, str]] = []

    def fresh() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        i, j = find(i), find(j)
        if i != j:
            parent[max(i, j)] = min(i, j)

    def walk(t: Term, s: int, d: int):
        if isinstance(t, Comp):
            m = fresh()
            walk(t.left, s, m)
            walk(t.right, m, d)
        elif isinstance(t, Meet):
            walk(t.left, s, d)
            walk(t.right, s, d)
        elif isinstance(t, Id):
            union(s, d)
        elif isinstance(t, Conv):
            edges.append((d, s, _edge_label(t.child)))
        else:
            edges.append((s, d, _edge_label(t)))

    source, sink = fresh(), fresh()
    walk(t, source, sink)
    names: dict[int, str] = {}

    def name(i: int) -> str:
        r = find(i)
        if r not in names:
            names[r] = f"n{len(names)}"
        return names[r]

    lines = ["digraph term {", "  rankdir=LR;", '  node [shape=point label=""];']
    name(source)
    for s, d, lab in edges:
        lines.append(f'  {name(s)} -> {name(d)} [label="{lab}"];')
    name(sink)
    lines.append("}")
    return "\n".join(lines)


def _edge_label(t: Term) -> str:
    if isinstance(t, GenA):
        return "a"
    if isinstance(t, GenB):
        return "b"
    if isinstance(t, Top):
        return "1"
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Var):
        return t.name
    raise TypeError(f"not an edge atom: {t!r}")


def _push_conv(t: Term) -> Term:
    """Rewrite so converse only wraps atoms (edge direction reversal)."""
    if isinstance(t, Conv):
        inner = _push_conv(t.child)
        return _push_conv(conv(inner)) if not _is_atom(inner) else conv(inner)
    if isinstance(t, Comp):
        return Comp(_push_conv(t.left), _push_conv(t.right))
    if isinstance(t, Meet):
        return Meet(_push_conv(t.left), _push_conv(t.right))
    return t


def _is_atom(t: Term) -> bool:
    return isinstance(t, (Zero, Top, Id, GenA, GenB, Var))
