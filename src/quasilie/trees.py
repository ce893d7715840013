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

Text grammar (used verbatim by the CLI):

    tree      :=  label  |  "(" tree "," tree ")"
    unrooted  :=  "<" label "," tree ">"        the pair <i, T>
    infinity  :=  "inf:" tree                   an infinity-decorated tree
    tensor    :=  label ":" tree                X_i (x) T

where label is a decimal integer >= 1.
"""

from __future__ import annotations

from functools import lru_cache
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

    def leaves(self):
        if self.is_leaf:
            yield self.label
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def __repr__(self):
        return self.key

    def __lt__(self, other):
        return self.sort_key < other.sort_key


_interned = {}


def leaf(label):
    label = int(label)
    if label < 1:
        raise ValueError("labels start at 1")
    t = _interned.get(label)
    if t is None:
        t = _interned[label] = RootedTree(label, None, None, str(label), 0)
    return t


def node(left, right):
    key = (id(left), id(right))
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
        la = canonical_rooted(t.left)
        rb = canonical_rooted(t.right)
        sign = la.sign * rb.sign
        if la.tree.sort_key <= rb.tree.sort_key:
            tree = node(la.tree, rb.tree)
        else:
            tree = node(rb.tree, la.tree)
            sign = -sign
        selfneg = la.self_negating or rb.self_negating or la.tree is rb.tree
        res = CanonSign(tree, sign, selfneg)
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
    the unrooted tree <label, tree>.

    Re-rooting is sign-free: each pair re-expresses the same oriented tree.
    At a trivalent vertex with cyclic edge order (parent, left, right), the
    children seen from the left branch are (right, parent) and from the
    right branch (parent, left).
    """
    out = [(label, tree)]
    stack = [(tree, leaf(label))]
    while stack:
        t, ctx = stack.pop()
        if t.is_leaf:
            out.append((t.label, ctx))
        else:
            stack.append((t.left, node(t.right, ctx)))
            stack.append((t.right, node(ctx, t.left)))
    return out


def edge_splits(label, tree):
    """All splittings of <label, tree> along an edge into two rooted trees."""
    out = []
    stack = [(tree, leaf(label))]
    while stack:
        t, ctx = stack.pop()
        out.append((t, ctx))
        if not t.is_leaf:
            stack.append((t.left, node(t.right, ctx)))
            stack.append((t.right, node(ctx, t.left)))
    return out


def canonical_unrooted(label, tree):
    """Canonical form of the unrooted tree <label, tree>, with sign.

    Minimizes (label, canonical rooted key) over all re-rootings.  The tree
    is self-negating if any rooted part is, or if some encoding occurs with
    both signs (an orientation-reversing symmetry).
    """
    seen = {}
    selfneg = False
    best = None
    for lab, t in rootings(label, tree):
        c = canonical_rooted(t)
        enc = (lab, c.tree)
        selfneg = selfneg or c.self_negating
        prev = seen.get(enc)
        if prev is None:
            seen[enc] = c.sign
        elif prev != c.sign:
            selfneg = True
        cand = (lab, c.tree.sort_key)
        if best is None or cand < best[0]:
            best = (cand, UnrootedTree(lab, c.tree), c.sign)
    sign = 1 if selfneg else best[2]
    return CanonSign(best[1], sign, selfneg)


def root_at(ut, v):
    """Label and rooted tree obtained by re-rooting at univalent vertex v.

    Vertices are indexed in the deterministic order of rootings(); an index
    out of range is an invalid vertex reference.
    """
    rts = rootings(ut.label, ut.tree)
    if not 0 <= v < len(rts):
        raise ValueError(f"invalid univalent vertex reference: {v}")
    return rts[v]


def rooted_product(i_tree, j_tree):
    """(I, J): join two rooted trees at a new vertex with a new root edge."""
    return node(i_tree, j_tree)


def glue(i_tree, j_tree):
    """The raw unrooted pair obtained by gluing two root edges together."""
    while not i_tree.is_leaf:
        i_tree, j_tree = i_tree.left, node(i_tree.right, j_tree)
    return (i_tree.label, j_tree)


def inner_product(i_tree, j_tree):
    """<I, J>: glue roots and canonicalize.  Symmetric and invariant."""
    lab, t = glue(i_tree, j_tree)
    return canonical_unrooted(lab, t)


@lru_cache(maxsize=None)
def rooted_trees(order, labels):
    """All canonical rooted trees of the given order, sorted."""
    if order == 0:
        return tuple(leaf(i) for i in range(1, labels + 1))
    out = []
    for k1 in range(order):
        k2 = order - 1 - k1
        if k1 > k2:
            continue
        for a in rooted_trees(k1, labels):
            for b in rooted_trees(k2, labels):
                if k1 == k2 and b.sort_key < a.sort_key:
                    continue
                out.append(node(a, b) if a.sort_key <= b.sort_key
                           else node(b, a))
    return tuple(sorted(set(out), key=lambda t: t.sort_key))


@lru_cache(maxsize=None)
def unrooted_trees(order, labels):
    """All canonical unrooted trees of the given order, sorted."""
    seen = {}
    for i in range(1, labels + 1):
        for t in rooted_trees(order, labels):
            c = canonical_unrooted(i, t)
            seen[c.tree] = True
    return tuple(sorted(seen, key=lambda u: u.sort_key))


@lru_cache(maxsize=None)
def onequad_rooted_expansions(binaries, labels):
    """Local Jacobi configurations inside rooted trees.

    Each entry is the three-term expansion ((T1, +1), (T2, -1), (T3, -1)) of
    a tree having one trivalent internal vertex (three children A, B, C) at
    an arbitrary position, with `binaries` ordinary nodes elsewhere.  The
    expansions are rooted trees of order binaries + 2 and the signed sum is
    a relator wherever antisymmetry and the Jacobi identity hold.
    """
    out = []
    for o1 in range(binaries + 1):
        for o2 in range(binaries + 1 - o1):
            o3 = binaries - o1 - o2
            for a in rooted_trees(o1, labels):
                for b in rooted_trees(o2, labels):
                    if o2 == o1 and b.sort_key < a.sort_key:
                        continue
                    for c in rooted_trees(o3, labels):
                        if o3 == o2 and c.sort_key < b.sort_key:
                            continue
                        out.append(((node(node(a, b), c), 1),
                                    (node(node(a, c), b), -1),
                                    (node(a, node(b, c)), -1)))
    # Embed deeper configurations under an extra node; the mirror embedding
    # node(R, .) is the same relator up to one antisymmetry move.
    for inner_b in range(binaries):
        rest = binaries - 1 - inner_b
        for trip in onequad_rooted_expansions(inner_b, labels):
            for r in rooted_trees(rest, labels):
                out.append(tuple((node(t, r), s) for t, s in trip))
    return tuple(out)


def onequad_unrooted_expansions(order, labels):
    """Local Jacobi configurations around a 4-valent vertex of an unrooted
    tree, indexed by branch tuples (A, B, C | D); expansions have the given
    order.  Yields triples of ((label, raw tree), sign)."""
    total = order - 2
    if total < 0:
        return
    for o1 in range(total + 1):
        for o2 in range(total + 1 - o1):
            for o3 in range(total + 1 - o1 - o2):
                o4 = total - o1 - o2 - o3
                for a in rooted_trees(o1, labels):
                    for b in rooted_trees(o2, labels):
                        if o2 == o1 and b.sort_key < a.sort_key:
                            continue
                        for c in rooted_trees(o3, labels):
                            if o3 == o2 and c.sort_key < b.sort_key:
                                continue
                            for d in rooted_trees(o4, labels):
                                yield ((glue(node(node(a, b), c), d), 1),
                                       (glue(node(node(a, c), b), d), -1),
                                       (glue(node(a, node(b, c)), d), -1))


def enumerate_trees(kind, order, labels):
    """Complete duplicate-free canonical lists: 'rooted', 'unrooted', or
    'one_quad' (the IHX relator indices expanding to order-`order` trees)."""
    if order < 0 or labels < 1:
        raise ValueError("order must be >= 0 and labels >= 1")
    if kind == "rooted":
        return list(rooted_trees(order, labels))
    if kind == "unrooted":
        return list(unrooted_trees(order, labels))
    if kind == "one_quad":
        seen = {}
        for trip in onequad_unrooted_expansions(order, labels):
            key = tuple(sorted((canonical_unrooted(lab, t).tree.key, s)
                               for (lab, t), s in trip))
            seen.setdefault(key, trip)
        return [seen[k] for k in sorted(seen)]
    raise ValueError(f"unknown tree kind: {kind}")


def parse_tree(text):
    """Parse the rooted-tree grammar: '3' or '(A,B)'."""
    text = text.strip()
    pos = 0

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
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i:
            raise ValueError(f"expected a label at position {i}: {text!r}")
        return leaf(int(text[i:j])), j

    t, pos = parse(0)
    if pos != len(text):
        raise ValueError(f"trailing characters in tree string: {text!r}")
    return t


def parse_unrooted(text):
    """Parse '<i,T>' into a raw (label, tree) pair."""
    text = text.strip()
    if not (text.startswith("<") and text.endswith(">")):
        raise ValueError("unrooted tree must look like '<i,T>'")
    body = text[1:-1]
    comma = body.index(",")
    return int(body[:comma]), parse_tree(body[comma + 1:])
