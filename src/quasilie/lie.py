"""Free Lie and quasi-Lie algebras over Z, bracket maps and their kernels.

Degree n of the free (quasi-)Lie algebra on m generators is presented on the
canonical rooted trees of order n-1.  Antisymmetry is built into the signed
canonical form; the remaining relators are

  * 2t for every self-negating tree t (quasi-Lie), sharpened to t = 0 in the
    Lie variant (trees containing identical sibling subtrees), and
  * the local Jacobi expansions of every one-quad configuration.

The bracket-kernel groups, the quasi-to-Lie projection and squaring maps,
and the snake-lemma epimorphism onto Z2 (x) L_{k+1} all live here, with the
pullback group that repairs the failure of that epimorphism to split.
"""

from collections import Counter
from contextlib import contextmanager
from functools import cached_property, lru_cache
from math import factorial

from .abelian import (AbelianHom, FpAbelianGroup, IntMatrix, HomValidityError,
                      NotDivisible, _add_multiple, _normalize_divisors,
                      exact_at, pullback, tensor_Z2)
from .trees import (UnrootedTree, canonical_rooted, canonical_unrooted,
                    jacobi_columns, leaf, node, rooted_trees)

LIE = "lie"
QUASI = "quasi"


class ConsistencyError(ValueError):
    """A computed map or lift failed a check of its construction."""


class LiftMismatch(ConsistencyError):
    """A snake-lemma lift landed outside the expected subgroup."""


class WellDefinednessError(ConsistencyError):
    """A generator formula fails to kill a relator (convention bug)."""


class ImageEscapesKernel(ConsistencyError):
    """A vector that a construction puts in a kernel lies outside it."""


@contextmanager
def inside_kernel(what):
    """Kernel coordinates read in the block are of vectors the construction
    puts in the kernel, so a NotDivisible raised there is a fault of the
    construction: it is raised again as ImageEscapesKernel(what)."""
    try:
        yield
    except NotDivisible as e:
        raise ImageEscapesKernel(what) from e


def tree_coords(group, raw_tree):
    """Sparse coordinates of a raw rooted tree in a tree-generated group."""
    c = canonical_rooted(raw_tree)
    return {group.index[c.tree]: c.sign}


def signed_sum(columns):
    """The sparse sum of {index: nonzero coeff} columns, without the entries
    that cancel."""
    acc = {}
    for col in columns:
        _add_multiple(acc, 1, col)
    return acc


def tree_presentation(gens, doubled, columns):
    """The group on the canonical trees `gens`, sorted by sort_key, related
    by 2t (t when not `doubled`) for each self-negating tree t, then by the
    (tree, coeff) columns of `columns` (trees.distinct_columns).

    A column's trees are in sort_key order, so its indices come out in
    increasing order.
    """
    c = 2 if doubled else 1
    cols = [{j: c} for j, t in enumerate(gens)
            if (canonical_unrooted(t.label, t.tree)
                if isinstance(t, UnrootedTree)
                else canonical_rooted(t)).self_negating]
    index = {t: j for j, t in enumerate(gens)}
    cols.extend({index[t]: v for t, v in col} for col in columns)
    return FpAbelianGroup(gens, IntMatrix._of(len(gens), tuple(cols)))


def lie_block(n, m, variant=LIE, degree=None):
    """The part of lie_group(n, m, variant) of one label multidegree, a
    tuple of m leaf counts that add up to n: its trees, related by their
    self-negating and Jacobi relators.  The whole group when degree is
    None.  Not memoised."""
    if n < 1 or m < 1:
        raise ValueError("need degree >= 1 and labels >= 1")
    if variant not in (LIE, QUASI):
        raise ValueError(f"unknown variant: {variant}")
    return tree_presentation(rooted_trees(n - 1, m, degree), variant == QUASI,
                             jacobi_columns(n - 3, m, degree) if n >= 3
                             else ())


@lru_cache(maxsize=None)
def lie_group(n, m, variant=LIE):
    """Degree-n part of the free (quasi-)Lie algebra on m generators."""
    return lie_block(n, m, variant)


def _partitions(total, parts, most=None):
    """The multidegrees (l1 >= l2 >= ... >= 0) of `parts` entries that add
    up to total: one per orbit of the label permutations."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total if most is None else min(total, most)
    for first in range(top, -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def orbit_size(degree):
    """The number of multidegrees that permuting the labels makes of one:
    m! over the product of the factorials of its repeated entries."""
    size = factorial(len(degree))
    for count in Counter(degree).values():
        size //= factorial(count)
    return size


class BlockSum:
    """A tree-presented group read one label-multidegree block at a time.

    Every relator of L_n, L'_n and T_n (self-negating, Jacobi, IHX) lies
    among trees of one multidegree, the number of leaves of each label, so
    the group is the direct sum of its blocks, `block(degree)`.  Permuting
    the labels by s maps the block of degree d isomorphically onto that of
    s.d.  Relabelling the leaves commutes with child swaps, so it carries a
    canonical tree t to +-canon(s t), a self-negating tree to one, and the
    Jacobi configurations and IHX vertices of degree d one to one onto those
    of s.d.  So each relator column goes to its image's column up to an
    overall sign, except at self-negating terms, which a column writes with
    sign 1 whatever their orientation: there the two differ by an even
    multiple of t, a multiple of the relator 2t (or t).  The relation
    lattice of degree d goes into that of s.d, and s^-1 brings it back.

    So the structure adds |S_m.d| copies of one block per orbit, the
    block with l1 >= l2 >= ... >= lm: free ranks add, and the torsion
    divisors merge into invariant factors.  Each block is built, read and
    dropped in turn, and the whole relation matrix is never built.  Reads
    like an FpAbelianGroup for `generators`, `structure`, `free_rank` and
    `torsion`; `generators` builds the whole group's generator keys.
    """

    def __init__(self, generators, block, leaves, labels):
        self._generators = generators
        self.block = block
        self.leaves = leaves
        self.labels = labels

    @property
    def generators(self):
        return self._generators()

    @cached_property
    def structure(self):
        free, torsion = 0, []
        for degree in _partitions(self.leaves, self.labels):
            rank, divisors = self.block(degree).structure
            k = orbit_size(degree)
            free += k * rank
            torsion.extend(divisors * k)
        return free, _normalize_divisors(torsion)

    @property
    def free_rank(self):
        return self.structure[0]

    @property
    def torsion(self):
        return list(self.structure[1])


def lie_blocks(n, m, variant=LIE):
    """lie_group(n, m, variant) as a BlockSum of lie_block."""
    return BlockSum(lambda: rooted_trees(n - 1, m),
                    lambda degree: lie_block(n, m, variant, degree), n, m)


@lru_cache(maxsize=None)
def tensor_with_L1(n, m, variant=LIE):
    """L_1 (x) L_n: generator keys (i, tree), relations replicated per label."""
    base = lie_group(n, m, variant)
    gens = tuple((i, t) for i in range(1, m + 1) for t in base.generators)
    k = base.ngens
    cols = []
    for col in base.relations.sparse_columns():
        for i in range(m):
            cols.append({i * k + j: v for j, v in col.items()})
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))


def tensor_coords(group, i, raw_tree, coeff=1):
    c = canonical_rooted(raw_tree)
    return {group.index[(i, c.tree)]: coeff * c.sign}


@lru_cache(maxsize=None)
def bracket_hom(n, m, variant=LIE):
    """The bracket map L_1 (x) L_{n+1} -> L_{n+2}: X_i (x) J -> (i, J)."""
    src = tensor_with_L1(n + 1, m, variant)
    dst = lie_group(n + 2, m, variant)
    cols = []
    for (i, t) in src.generators:
        cols.append(tree_coords(dst, node(leaf(i), t)))
    return AbelianHom.from_columns(src, dst, cols)


class BracketKernel:
    """The kernel of a bracket map, with its inclusion into the ambient
    L_1 (x) L_{n+1}; `bracket.kernel_coordinates` reads an ambient vector
    over the kernel's generators."""

    def __init__(self, bracket):
        self.bracket = bracket

    @property
    def group(self):
        return self.bracket.kernel

    @property
    def inclusion(self):
        return self.bracket.kernel_inclusion


@lru_cache(maxsize=None)
def d_group(n, m, variant=LIE):
    """Kernel of the bracket map, with its inclusion into L_1 (x) L_{n+1}."""
    return BracketKernel(bracket_hom(n, m, variant))


@lru_cache(maxsize=None)
def proj_p(n, m):
    """The projection L'_n ->> L_n (identity on tree generators)."""
    src = lie_group(n, m, QUASI)
    dst = lie_group(n, m, LIE)
    return AbelianHom(src, dst, IntMatrix.identity(src.ngens))


@lru_cache(maxsize=None)
def sq(k, m):
    """The squaring map Z2 (x) L_k -> L'_{2k}: 1 (x) J -> (J, J)."""
    src = tensor_Z2(lie_group(k, m, LIE))
    dst = lie_group(2 * k, m, QUASI)
    cols = [tree_coords(dst, node(t, t)) for t in src.generators]
    try:
        return AbelianHom.from_columns(src, dst, cols)
    except HomValidityError as e:
        raise WellDefinednessError(f"sq({k},{m}) relator image nonzero") from e


@lru_cache(maxsize=None)
def sl(two_k, m):
    """Snake-lemma epimorphism sl: D_{2k} -> Z2 (x) L_{k+1}.

    For a kernel generator z: lift its inclusion image to L_1 (x) L'_{2k+1},
    apply the quasi bracket, land in ker(L'_{2k+2} -> L_{2k+2}) = im(sq) by
    exactness, and read off the sq-preimage.
    """
    if two_k % 2 != 0:
        raise ValueError("sl is defined in even degrees")
    k = two_k // 2
    D = d_group(two_k, m, LIE)
    quasi_br = bracket_hom(two_k, m, QUASI)
    sqmap = sq(k + 1, m)
    # L_1 (x) L_{2k+1} and L_1 (x) L'_{2k+1} share their generator keys, so
    # the lift is the identity on coordinates
    phi = sqmap.lift(AbelianHom(D.group, quasi_br.target,
                                quasi_br.matrix.mul(D.inclusion.matrix),
                                check=False))
    if phi is None:
        raise LiftMismatch(
            f"sl({two_k},{m}): bracketed lift is not in the image of sq")
    return phi


class DInfinity:
    """The pullback D^inf of sl against Z2 (x) L'_{2k}, with its maps."""

    def __init__(self, difference, p_hom, sl_prime, sq_k):
        self.difference = difference  # (d, lq) -> sl(d) - pbar(lq) on
                                      # D + Z2 (x) L'_{2k}; D^inf is its kernel
        self.p_hom = p_hom            # D^inf -> D_{4k-2}
        self.sl_prime = sl_prime      # D^inf -> Z2 (x) L'_{2k}
        self.sq_k = sq_k              # Z2 (x) L_k -> L'_{2k}

    @property
    def group(self):
        return self.difference.kernel

    def pair_coordinates(self, d, lq):
        """The sparse coordinates over the generators of D^inf of the pair
        (d in D, lq in Z2 (x) L'_{2k}), both sparse; raises NotDivisible
        when the pair is not in the pullback."""
        nd = self.p_hom.target.ngens
        return self.difference.kernel_coordinates(
            d | {nd + i: v for i, v in lq.items()})

    @cached_property
    def sq_inf(self):
        """The injection Z2 (x) L_k -> D^inf, 1 (x) J -> (0, sq(1 (x) J))."""
        with inside_kernel("sq_inf: a pair (0, sq(1 (x) J)) escapes D^inf"):
            cols = [self.pair_coordinates({}, col)
                    for col in self.sq_k.matrix._sparse]
        return AbelianHom.from_columns(self.sq_k.source, self.group, cols)


@lru_cache(maxsize=None)
def d_infinity(n, m):
    """Pullback of sl: D_{4k-2} -> Z2 (x) L_{2k} against Z2 (x) L'_{2k}.

    Returns the group with both projections and the induced injection sq_inf
    of Z2 (x) L_k onto the kernel of the projection to D; the exactness of
    that row is verified at construction.
    """
    if n % 4 != 2:
        raise ValueError("d_infinity is defined in orders 4k-2")
    k = (n + 2) // 4
    slmap = sl(n, m)
    pbar = AbelianHom.identity(tensor_Z2(lie_group(2 * k, m, QUASI)),
                               tensor_Z2(lie_group(2 * k, m, LIE)))
    diff = pullback(slmap, pbar)
    P, nd = diff.kernel, slmap.source.ngens
    # P's generators are pairs, the inclusion's columns, that the
    # projections split
    pairs = diff.kernel_inclusion.matrix._sparse
    to_d = AbelianHom.from_columns(
        P, slmap.source,
        [{i: v for i, v in r.items() if i < nd} for r in pairs], check=False)
    to_lq = AbelianHom.from_columns(
        P, pbar.source, [{i - nd: v for i, v in r.items() if i >= nd}
                         for r in pairs], check=False)
    di = DInfinity(diff, to_d, to_lq, sq(k, m))
    if not (di.sq_inf.injective and to_d.surjective
            and exact_at(di.sq_inf, to_d)):
        raise WellDefinednessError(
            f"d_infinity({n},{m}): row of the pullback diagram not exact")
    return di


def witt_rank(n, m):
    """Witt formula: rank of L_n(m) = (1/n) sum_{d|n} mu(d) m^(n/d)."""
    if n < 1:
        raise ValueError("need degree >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * m ** (n // d)
    return total // n


def _mobius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result
