"""The graded groups of labeled unrooted trees and their twisted extensions.

Three flavors per order n:

  * plain   T_n      : order-n unrooted trees modulo AS and IHX,
  * tilde   T~_n     : for odd n the quotient by the framing relations
                       (the image of the map Delta), equal to T_n for even n,
  * twisted T^inf_n  : for odd n the further quotient by boundary-twist
                       relations; for even n = 2q the group enlarged by
                       infinity-decorated rooted trees J^inf of order q with
                         2 J^inf = <J,J>,   J^inf = (-J)^inf,
                       and the local twisted IHX relations
                         I^inf = H^inf + X^inf - <H,X>.

Infinity generators are keyed by the canonicalized rooted tree with the sign
discarded, which builds J^inf = (-J)^inf into the data model.
"""

from functools import lru_cache

from .abelian import (AbelianHom, FpAbelianGroup, HomValidityError,
                      IntMatrix, tensor_Z2)
from .lie import (BlockSum, WellDefinednessError, lie_group, signed_sum,
                  tree_presentation, QUASI)
from .trees import (canonical_rootings, distinct_columns, glued,
                    ihx_relators, inner_product, leaf, node,
                    onequad_rooted_expansions, rooted_trees, unrooted_trees)


class TreeGroup:
    """A twisted group T^inf_n with its canonical maps, keyed by name."""

    def __init__(self, group, maps):
        self.group = group
        self.maps = maps


def t_block(n, m, degree=None):
    """The part of t_group(n, m) of one label multidegree, a tuple of m leaf
    counts that add up to n + 2: its trees, related by their self-negating
    and IHX relators.  The whole group when degree is None.  Not
    memoised."""
    if n < 0 or m < 1:
        raise ValueError("need order >= 0 and labels >= 1")
    return tree_presentation(unrooted_trees(n, m, degree), True,
                             distinct_columns(ihx_relators(n, m, degree)))


@lru_cache(maxsize=None)
def t_group(n, m):
    """T_n(m): order-n unrooted trees modulo AS and IHX."""
    return t_block(n, m)


def t_blocks(n, m):
    """t_group(n, m) as a BlockSum of t_block."""
    return BlockSum(lambda: unrooted_trees(n, m),
                    lambda degree: t_block(n, m, degree), n + 2, m)


@lru_cache(maxsize=None)
def delta(n, m):
    """The framing map Delta: Z2 (x) T_{n-1} -> T_{2n-1}.

    Delta(t) = sum over univalent vertices v of <i(v), (T_v, T_v)>.  Each
    summand glues two copies of a branch at a new vertex and is therefore
    self-negating; well-definedness over Z2 and over the AS/IHX relators is
    checked at construction.
    """
    if n < 1:
        raise ValueError("delta needs n >= 1")
    src = tensor_Z2(t_group(n - 1, m))
    dst = t_group(2 * n - 1, m)
    cols = []
    for t in src.generators:
        # each summand <i, (c, c)> is self-negating, so its sign is 1
        cols.append(signed_sum(
            {dst.index[inner_product(leaf(i), node(c.tree, c.tree)).tree]: 1}
            for i, c in canonical_rootings(t.label, t.tree)))
    try:
        return AbelianHom.from_columns(src, dst, cols)
    except HomValidityError as e:
        raise WellDefinednessError(f"delta({n},{m}) not well-defined") from e


def t_tilde(n, m):
    """T~_n: the cokernel of the framing map for odd n, alias for even n;
    both are memoised, so each call returns the same group."""
    if n % 2 == 0:
        return t_group(n, m)
    return delta((n + 1) // 2, m).cokernel


@lru_cache(maxsize=None)
def t_infinity(n, m):
    """T^inf_n with its canonical maps.

    Odd n: quotient of T~_n by the boundary-twist relators <(i,J), J>;
    maps: {"quotient": T~_n -> T^inf_n}.

    Even n = 2q: plain generators plus infinity generators J^inf over the
    canonical rooted trees J of order q; maps: {"inclusion": T_n -> T^inf_n,
    "coker": T^inf_n -> Z2 (x) L'_{q+1} sending t -> 0, J^inf -> 1 (x) J}.
    """
    if n % 2 == 1:
        tilde = t_tilde(n, m)
        q = (n + 1) // 2
        cols = []
        for i in range(1, m + 1):
            for j_tree in rooted_trees(q - 1, m):
                c = inner_product(node(leaf(i), j_tree), j_tree)
                cols.append({tilde.index[c.tree]: c.sign})
        group = tilde.with_extra_relations(cols)
        return TreeGroup(group,
                         {"quotient": AbelianHom.identity(tilde, group)})

    q = n // 2
    plain = t_group(n, m)
    infs = tuple(("inf", t) for t in rooted_trees(q, m))
    gens = plain.generators + infs
    np = plain.ngens
    group0 = FpAbelianGroup(gens)
    idx = group0.index
    cols = plain.relations.sparse_columns()
    for t in rooted_trees(q, m):
        c = inner_product(t, t)
        cols.append({idx[("inf", t)]: 2, idx[c.tree]: -c.sign})
    for t1, t2, t3 in onequad_rooted_expansions(q - 2, m) if q >= 2 else ():
        # relation t1 = t2 + t3 in L'; refinement law gives
        # t1^inf = t2^inf + t3^inf + <t2, t3>; infinity generators are keyed
        # by the canonical tree, sign discarded
        c = glued(t2, t3)
        cols.append(signed_sum([{idx[("inf", t1.tree)]: 1},
                                {idx[("inf", t2.tree)]: -1},
                                {idx[("inf", t3.tree)]: -1},
                                {idx[c.tree]: -c.sign}]))
    group = FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))
    incl = AbelianHom.from_columns(
        plain, group, [{j: 1} for j in range(np)], check=False)
    lq = tensor_Z2(lie_group(q + 1, m, QUASI))
    ck_cols = [{} for _ in range(np)]
    for t in rooted_trees(q, m):
        ck_cols.append({lq.index[t]: 1})
    coker = AbelianHom.from_columns(group, lq, ck_cols)
    return TreeGroup(group, {"inclusion": incl, "coker": coker})
