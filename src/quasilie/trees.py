"""Labeled vertex-oriented unitrivalent trees, rooted and unrooted.

Rooted trees are binary: a Leaf carries a label from {1..m}, a Node has an
ordered pair of children.  The order of a tree is its number of Nodes
(trivalent vertices once a root edge is attached).  Swapping the two children
of a Node is one orientation move and costs a sign (antisymmetry); canonical
forms sort children under a shortlex key and track the accumulated sign.

An unrooted tree of order n (n trivalent vertices, n+2 labeled leaves) is
stored as a pair <i, T>: a labeled leaf glued to the root edge of a rooted
tree.  Its canonical form minimizes over re-rootings at every leaf.  A tree
is self-negating when some orientation move carries it to itself with sign
-1; in every antisymmetry quotient built on trees this forces 2t = 0.

Re-rooting is sign-free, so <i, T> = sign(T) <i, canon(T)>, where canon(T)
and sign(T) are the canonical rooted form of T and its swap parity.  One
walk, canonical_rootings(), re-roots a tree at every leaf over canonical
halves; canonical_unrooted runs it once per unrooted tree and memoises the
form in _unrooted on every encoding (i, canon(T)) that it meets, and the
maps eta' and Delta, sums over the univalent vertices, read it too.

Write <p | q> for the unrooted tree that joins the root edges of two rooted
trees p and q.  It is symmetric, and <p | q> = sign(p) sign(q) <canon p |
canon q> (sign 1 when the tree is self-negating).  IHX is one relation at
each 4-valent vertex, so ihx_relators() yields one relator per multiset of
branches {a, b, c, d}.  Its three terms re-root to

    ((a,b),c) | d  =  <ab | cd>
    ((a,c),b) | d  =  <ac | bd>
    (a,(b,c)) | d  =  <bc | da>

so every term is built from canonical halves, and no raw glued tree is
interned.  On rooted trees, jacobi_columns() builds each distinct Jacobi
relator column once: the relators embedded under a further node come from
the distinct columns one level down, not from every triple.

Every relator lies among trees of one label multidegree, the tuple of leaf
counts per label.  rooted_trees, unrooted_trees, jacobi_columns and
ihx_relators take an optional multidegree and then build only that block:
each branch but the last is picked from the rooted_trees table of each
degree that the others leave room for, and the last from the table of the
degree that is left (_branches).  Without one they yield the whole
sequence, in the same order.

Text grammar (used verbatim by the CLI):

    tree      :=  label  |  "(" tree "," tree ")"
    unrooted  :=  "<" label "," tree ">"        the pair <i, T>
    infinity  :=  "inf:" tree                   an infinity-decorated tree
    tensor    :=  label ":" tree                X_i (x) T

where label is a decimal integer >= 1 written in ASCII digits (parse_label).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product
from operator import index
from typing import NamedTuple


class RootedTree:
    """Hash-consed immutable binary tree; use leaf() and node() to build."""

    __slots__ = ("label", "left", "right", "order", "key", "sort_key",
                 "_canon")

    def __init__(self, label, left, right, key, order):
        self.label = label
        self.left = left
        self.right = right
        self.key = key
        self.order = order
        self.sort_key = (len(key), key)
        self._canon = None

    @property
    def is_leaf(self):
        return self.left is None

    def __repr__(self):
        return self.key

    def __lt__(self, other):
        return self.sort_key < other.sort_key


_interned = {}


def leaf(label):
    label = index(label)
    if label < 1:
        raise ValueError("labels start at 1")
    t = _interned.get(label)
    if t is None:
        t = _interned[label] = RootedTree(label, None, None, str(label), 0)
    return t


def node(left, right):
    key = (left, right)
    t = _interned.get(key)
    if t is None:
        t = _interned[key] = RootedTree(
            None, left, right, f"({left.key},{right.key})",
            left.order + right.order + 1)
    return t


class CanonSign(NamedTuple):
    """A canonical tree together with the sign picked up on the way there."""

    tree: object
    sign: int
    self_negating: bool


_canon_sign = tuple.__new__      # CanonSign(...) without its __new__ frame


def _join(a, b):
    """Canonical form of node(A, B) from the canonical forms a, b of A, B.

    The children are ordered under the shortlex key; putting them out of
    order costs one antisymmetry sign.  The result is self-negating when a
    child is, or when the two canonical children are identical.
    """
    sign = a.sign * b.sign
    ta, tb = a.tree, b.tree
    if ta.sort_key <= tb.sort_key:
        tree = _interned.get((ta, tb)) or node(ta, tb)
    else:
        tree = _interned.get((tb, ta)) or node(tb, ta)
        sign = -sign
    return _canon_sign(CanonSign, (tree, sign, a.self_negating
                                   or b.self_negating or ta is tb))


def canonical_rooted(t):
    """Canonical form of a rooted tree under child-swapping.

    The sign is (-1)^(number of swaps); self_negating is set when two
    identical canonical siblings occur anywhere in the tree.
    """
    cached = t._canon
    if cached is not None:
        return cached
    if t.is_leaf:
        res = CanonSign(t, 1, False)
    else:
        res = _join(canonical_rooted(t.left), canonical_rooted(t.right))
    t._canon = res
    return res


class UnrootedTree(NamedTuple):
    """Canonical unrooted tree, stored as the minimal pair <label, tree>."""

    label: int
    tree: RootedTree

    @property
    def order(self):
        return self.tree.order

    @property
    def key(self):
        return f"<{self.label},{self.tree.key}>"

    @property
    def sort_key(self):
        return (self.order, self.label, self.tree.sort_key)

    def __repr__(self):
        return self.key


def rootings(label, tree):
    """All pairs (leaf label, rooted tree) over the univalent vertices of
    the unrooted tree <label, tree>: the root pair, then the leaf splits of
    edge_splits() in its order.

    Re-rooting is sign-free: each pair re-expresses the same oriented tree.
    """
    return [(label, tree)] + [(t.label, ctx)
                              for t, ctx in edge_splits(label, tree)
                              if t.is_leaf]


def edge_splits(label, tree):
    """All splittings of <label, tree> along an edge into two rooted trees.

    At a trivalent vertex with cyclic edge order (parent, left, right), the
    children seen from the left branch are (right, parent) and from the
    right branch (parent, left).
    """
    out = []
    stack = [(tree, leaf(label))]
    while stack:
        t, ctx = stack.pop()
        out.append((t, ctx))
        if not t.is_leaf:
            stack.append((t.left, node(t.right, ctx)))
            stack.append((t.right, node(ctx, t.left)))
    return out


def canonical_rootings(label, tree):
    """The pairs (leaf label, canonical_rooted(T)) for the pairs (leaf
    label, T) of rootings(label, tree), in the same order.

    Walks the directed edges away from the root leaf as edge_splits() does,
    carrying the canonical form of the context (everything above the edge)
    and building each new context with _join, so no raw context is interned.
    """
    yield label, canonical_rooted(tree)
    stack = [(tree, CanonSign(leaf(label), 1, False))]
    while stack:
        t, ctx = stack.pop()
        if t.is_leaf:
            yield t.label, ctx
        else:
            stack.append((t.left, _join(canonical_rooted(t.right), ctx)))
            stack.append((t.right, _join(ctx, canonical_rooted(t.left))))


_unrooted = {}


def canonical_unrooted(label, tree):
    """Canonical form of the unrooted tree <label, tree>, with sign.

    Minimizes (label, canonical rooted key) over all re-rootings.  The tree
    is self-negating exactly when some rooted part is, that is, when some
    vertex has two equal canonical branches (see _canonical_content).  A
    self-negating tree keeps sign 1.
    """
    return _canonical_unrooted_of(label, canonical_rooted(tree))


def _canonical_unrooted_of(label, c):
    """canonical_unrooted(label, T) from c = canonical_rooted(T).

    Re-rooting is sign-free, so <label, T> = sign(T) <label, canon(T)>: the
    form is looked up on (label, canon(T)), and a miss runs one re-rooting
    pass that stores every encoding of the tree.
    """
    key = (label, c.tree)
    res = _unrooted.get(key)
    if res is None:
        _canonical_content(label, c.tree)
        res = _unrooted[key]
    if c.sign == 1 or res.self_negating:
        return res
    return CanonSign(res.tree, -res.sign, False)


def _canonical_content(label, tree):
    """Store in _unrooted the form of every encoding of <label, tree>, for a
    canonical rooted tree, from one canonical_rootings() pass.

    The leaf with canonical rooted part c gives the encoding (leaf label,
    c.tree), which is c.sign times <label, tree>; so its entry is the form
    with sign c.sign times that of <label, tree>, or sign 1 when some rooted
    part is self-negating.  No encoding meets both signs otherwise, since
    that would give an orientation-reversing automorphism of the tree.
    Two branches at a vertex are siblings in the rooting from a leaf on its
    third branch, so then no vertex has two equal canonical branches.  An
    automorphism fixes the centre of the tree, a vertex or an edge.  If it
    fixes a trivalent vertex it swaps no branches there, so it fixes their
    first vertices, and so on outwards: it is the identity.  If it swaps the
    ends of an edge, its square fixes them and is the identity, so it
    reverses the cyclic order at a vertex exactly when it does at the
    image: an even number of reversals.
    """
    parts = list(canonical_rootings(label, tree))
    selfneg, best, least = False, parts[0], (label, tree.sort_key)
    for i, part in parts:
        selfneg = selfneg or part.self_negating
        if (i, part.tree.sort_key) < least:
            best, least = (i, part), (i, part.tree.sort_key)
    lab, c = best
    form = UnrootedTree(lab, c.tree)
    if selfneg:
        same = opposite = CanonSign(form, 1, True)
    else:
        same = CanonSign(form, c.sign, False)
        opposite = CanonSign(form, -c.sign, False)
    for i, part in parts:
        _unrooted[i, part.tree] = same if part.sign == 1 else opposite


def glued(p, q):
    """<p | q>: the canonical unrooted tree joining the root edges of the
    canonical rooted trees p.tree and q.tree (CanonSign), with sign.

    glue() over canonical halves: the walk down the left spine of the
    smaller half ends at a leaf i and the canonical form c of the rest,
    carrying sign(p) sign(q), and <i, c> is looked up in _unrooted.
    """
    if q.tree.sort_key < p.tree.sort_key:
        p, q = q, p
    a, ctx = p.tree, CanonSign(q.tree, p.sign * q.sign, q.self_negating)
    while not a.is_leaf:
        ctx = _join(canonical_rooted(a.right), ctx)
        a = a.left
    return _canonical_unrooted_of(a.label, ctx)


def root_at(ut, v):
    """Label and rooted tree obtained by re-rooting at univalent vertex v.

    Vertices are indexed in the deterministic order of rootings(); an index
    out of range is an invalid vertex reference.
    """
    rts = rootings(ut.label, ut.tree)
    if not 0 <= v < len(rts):
        raise ValueError(f"invalid univalent vertex reference: {v}")
    return rts[v]


def glue(i_tree, j_tree):
    """The raw unrooted pair obtained by gluing two root edges together."""
    while not i_tree.is_leaf:
        i_tree, j_tree = i_tree.left, node(i_tree.right, j_tree)
    return (i_tree.label, j_tree)


def inner_product(i_tree, j_tree):
    """<I, J>: glue roots and canonicalize.  Symmetric and invariant."""
    return glued(canonical_rooted(i_tree), canonical_rooted(j_tree))


def _splits(degree, size):
    """The ways to give a branch `size` of the leaves of a multidegree: the
    pairs (the branch's degree, the degree left for the others).  A
    multidegree is a tuple of leaf counts, one per label 1, 2, ...; without
    one (None), the one pair (None, None), any degrees."""
    if degree is None:
        return ((None, None),)
    out = []
    for head in product(*(range(d + 1) for d in degree[:-1])):
        last = size - sum(head)      # the last label's count is what is left
        if 0 <= last <= degree[-1]:
            mu = head + (last,)
            out.append((mu, tuple(d - x for d, x in zip(degree, mu))))
    return out


def _sort_key(t):
    return t.sort_key


def _at_least(trees, least):
    """The trees of a sorted tuple from `least` on (by sort_key); all of
    them when least is None."""
    if least is None:
        return trees
    return trees[bisect_left(trees, least.sort_key, key=_sort_key):]


def _branches(orders, labels, degree, least=None):
    """The choices of canonical rooted branches of the given orders, each at
    least the one before it (by sort_key) where their orders are equal, in
    lexicographic order: pairs (head, lasts) of a tuple of every branch but
    the last and the sorted tuple of the choices for the last.

    With a multidegree, the choices whose degrees add up to it: each branch
    but the last is taken from the table of rooted_trees of each degree the
    others leave room for, and the last from the one table of the degree
    that is left.  `least` bounds the first branch from below.
    """
    o, rest = orders[0], orders[1:]
    if not rest:
        yield (), _at_least(rooted_trees(o, labels, degree), least)
        return
    for d, left in _splits(degree, o + 1):
        for t in _at_least(rooted_trees(o, labels, d), least):
            for head, lasts in _branches(rest, labels, left,
                                         t if rest[0] == o else None):
                yield (t,) + head, lasts


def rooted_trees(order, labels, degree=None):
    """All canonical rooted trees of the given order, sorted; with a
    multidegree (see _splits), those whose label i occurs degree[i - 1]
    times."""
    return _rooted_trees(order, labels, degree)


# Memoised behind the public signature, so that rooted_trees(o, m) and
# rooted_trees(o, m, None) share one entry; so is jacobi_columns.
@lru_cache(maxsize=None)
def _rooted_trees(order, labels, degree):
    if order == 0:
        return tuple(leaf(i) for i in range(1, labels + 1)
                     if degree is None or degree[i - 1] == 1)
    out = []
    for k1 in range((order - 1) // 2 + 1):
        for (a,), bs in _branches((k1, order - 1 - k1), labels, degree):
            for b in bs:
                out.append(node(a, b) if a.sort_key <= b.sort_key
                           else node(b, a))
    return tuple(sorted(set(out), key=_sort_key))


def unrooted_trees(order, labels, degree=None):
    """All canonical unrooted trees of the given order, sorted; with a
    multidegree, those of that degree.  Not memoised."""
    seen = {}
    for i in range(1, labels + 1):
        rest = degree
        if degree is not None:
            if not degree[i - 1]:
                continue
            rest = degree[:i - 1] + (degree[i - 1] - 1,) + degree[i:]
        for t in rooted_trees(order, labels, rest):
            c = canonical_unrooted(i, t)
            seen[c.tree] = True
    return tuple(sorted(seen, key=lambda u: u.sort_key))


def _jacobi_configurations(binaries, labels, degree=None):
    """The Jacobi configurations with the trivalent vertex at the root: for
    rooted branches A <= B <= C with `binaries` nodes in all, the canonical
    forms (CanonSign) of ((A,B),C), ((A,C),B) and (A,(B,C)); with a
    multidegree, those of that degree."""
    for o1 in range(binaries + 1):
        for o2 in range(binaries + 1 - o1):
            for (a, b), cs in _branches((o1, o2, binaries - o1 - o2),
                                        labels, degree):
                a, b = canonical_rooted(a), canonical_rooted(b)
                ab = _join(a, b)
                for c in cs:
                    c = canonical_rooted(c)
                    yield (_join(ab, c), _join(_join(a, c), b),
                           _join(a, _join(b, c)))


@lru_cache(maxsize=None)
def onequad_rooted_expansions(binaries, labels):
    """Local Jacobi configurations inside rooted trees.

    Each entry is the three-term expansion (T1, T2, T3) of a tree having one
    trivalent internal vertex (three children A, B, C) at an arbitrary
    position, with `binaries` ordinary nodes elsewhere: the canonical forms
    (CanonSign) of ((A,B),C), ((A,C),B) and (A,(B,C)), each under the same
    nodes.  They have order binaries + 2, and T1 - T2 - T3 is a relator
    wherever antisymmetry and the Jacobi identity hold.
    """
    out = list(_jacobi_configurations(binaries, labels))
    # Embed deeper configurations under an extra node; the mirror embedding
    # (R, .) is the same relator up to one antisymmetry move.
    for inner_b in range(binaries):
        rs = [canonical_rooted(r)
              for r in rooted_trees(binaries - 1 - inner_b, labels)]
        for t1, t2, t3 in onequad_rooted_expansions(inner_b, labels):
            for r in rs:
                out.append((_join(t1, r), _join(t2, r), _join(t3, r)))
    return tuple(out)


def _tree_sort_key(pair):
    return pair[0].sort_key


def _signed_column(pairs):
    """(tree, coeff) pairs as a column: sorted by sort_key, and signed so
    that its first coeff is positive."""
    pairs = sorted(pairs, key=_tree_sort_key)
    if pairs[0][1] < 0:
        pairs = [(t, -v) for t, v in pairs]
    return tuple(pairs)


def distinct_columns(triples):
    """The distinct relator columns T1 - T2 - T3 of canonical terms
    (CanonSign) (T1, T2, T3), in the order in which they first appear.

    A column is a tuple of (canonical tree, nonzero coeff) pairs in sort_key
    order, signed so that its first coeff is positive; columns that cancel
    are dropped.  Serves the Jacobi relators of rooted trees and the IHX
    relators of unrooted ones.
    """
    seen = {}
    for t1, t2, t3 in triples:
        col = {t1.tree: t1.sign}
        for t in (t2, t3):
            v = col.get(t.tree, 0) - t.sign
            if v:
                col[t.tree] = v
            else:
                del col[t.tree]
        if col:
            seen[_signed_column(col.items())] = None
    return tuple(seen)


def jacobi_columns(binaries, labels, degree=None):
    """The distinct_columns of onequad_rooted_expansions(binaries, labels);
    with a multidegree, those of that degree.

    Embedding under node(., R) is linear and injective on canonical trees,
    so embedded relators come from the distinct columns one level down: an
    inner duplicate embeds to a later duplicate.
    """
    return _jacobi_columns(binaries, labels, degree)


@lru_cache(maxsize=None)
def _jacobi_columns(binaries, labels, degree):
    seen = dict.fromkeys(distinct_columns(
        _jacobi_configurations(binaries, labels, degree)))
    for inner_b in range(binaries):
        for inner, outer in _splits(degree, inner_b + 3):
            rs = rooted_trees(binaries - 1 - inner_b, labels, outer)
            for col in _jacobi_columns(inner_b, labels, inner):
                for r in rs:
                    # node(t, R) canonicalised: (t, R) in order, else (R, t)
                    # at the cost of one antisymmetry sign
                    rk = r.sort_key
                    seen[_signed_column([
                        (_interned.get((t, r)) or node(t, r), v)
                        if t.sort_key <= rk else
                        (_interned.get((r, t)) or node(r, t), -v)
                        for t, v in col])] = None
    return tuple(seen)


def ihx_relators(order, labels, degree=None):
    """The IHX relators I - H - X among unrooted trees of the given order,
    one per 4-valent vertex, as triples (I, H, X) of canonical unrooted
    terms (CanonSign): for branches A <= B <= C <= D (by order, then by
    sort_key, which alone is not monotone in the order for labels >= 10),
    ((A,B),C)|D, ((A,C),B)|D and (A,(B,C))|D, glued from canonical halves
    as <AB | CD>, <AC | BD> and <BC | DA>; with a multidegree, the relators
    of that degree.

    With the relators 2t of self-negating trees t, these span the relators
    of every arrangement (A, B, C | D) of every vertex: an arrangement gives
    its vertex's relator up to sign, except at self-negating terms, written
    with sign 1 whatever their orientation, where the two differ by an even
    multiple, a multiple of 2t.
    """
    total = order - 2
    for o1 in range(total // 4 + 1):
        for o2 in range(o1, (total - o1) // 3 + 1):
            for o3 in range(o2, (total - o1 - o2) // 2 + 1):
                orders = (o1, o2, o3, total - o1 - o2 - o3)
                for (a, b, c), ds in _branches(orders, labels, degree):
                    a, b, c = map(canonical_rooted, (a, b, c))
                    ab, ac, bc = _join(a, b), _join(a, c), _join(b, c)
                    for d in ds:
                        d = canonical_rooted(d)
                        yield (glued(ab, _join(c, d)), glued(ac, _join(b, d)),
                               glued(bc, _join(d, a)))


def parse_label(text):
    """The label that text spells: a run of ASCII digits, read as a decimal
    integer >= 1.  Signs, spaces, underscores and other Unicode digits,
    which int() would accept, raise ValueError."""
    label = int(text) if text.isascii() and text.isdigit() else 0
    if label < 1:
        raise ValueError(f"a label is a decimal integer >= 1 in ASCII "
                         f"digits, not {text!r}")
    return label


def parse_tree(text):
    """Parse the rooted-tree grammar: '3' or '(A,B)'.  The text is read
    exactly, so whitespace anywhere in it raises ValueError; a reader of a
    whole token trims that token once."""

    def parse(i):
        if i >= len(text):
            raise ValueError("unexpected end of tree string")
        if text[i] == "(":
            left, i = parse(i + 1)
            if i >= len(text) or text[i] != ",":
                raise ValueError("expected ',' in tree string")
            right, i = parse(i + 1)
            if i >= len(text) or text[i] != ")":
                raise ValueError("expected ')' in tree string")
            return node(left, right), i + 1
        j = i
        while j < len(text) and text[j] not in "(),":
            j += 1
        if j == i:
            raise ValueError(f"expected a label at position {i}: {text!r}")
        return leaf(parse_label(text[i:j])), j

    t, pos = parse(0)
    if pos != len(text):
        raise ValueError(f"trailing characters in tree string: {text!r}")
    return t


# Memoised on the text, as the warm element reads repeat their tokens.  A
# hit returns the objects a fresh parse would build, since leaf() and node()
# hash-cons trees; a parse that raises stores nothing.
@lru_cache(maxsize=None)
def parse_unrooted(text):
    """Parse '<i,T>', trimmed of whitespace around it, into a raw (label,
    tree) pair."""
    text = text.strip()
    label, comma, tree = text[1:-1].partition(",")
    if not (text.startswith("<") and text.endswith(">") and comma):
        raise ValueError("unrooted tree must look like '<i,T>'")
    return parse_label(label), parse_tree(tree)
