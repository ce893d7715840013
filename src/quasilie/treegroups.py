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

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .abelian import (AbelianHom, FpAbelianGroup, HomValidityError,
                      IntMatrix, tensor_Z2)
from .lie import WellDefinednessError, add_coords, lie_group, QUASI
from .trees import (canonical_rooted, canonical_unrooted, glue, leaf, node,
                    onequad_rooted_expansions, onequad_unrooted_expansions,
                    rooted_trees, rootings, unrooted_trees)


def unrooted_coords(group, label, raw_tree, coeff=1):
    """Sparse coordinates of a raw unrooted pair in a tree group."""
    c = canonical_unrooted(label, raw_tree)
    return {group.index[c.tree]: coeff * c.sign}


def _ihx_columns(group, order, labels):
    cols = []
    seen = set()
    for trip in onequad_unrooted_expansions(order, labels):
        acc = {}
        for (lab, t), s in trip:
            add_coords(acc, unrooted_coords(group, lab, t, s))
        if not acc:
            continue
        items = tuple(sorted(acc.items()))
        if items[0][1] < 0:
            items = tuple((i, -v) for i, v in items)
        if items not in seen:
            seen.add(items)
            cols.append(dict(items))
    return cols


@dataclass(frozen=True)
class TreeGroup:
    flavor: str
    n: int
    m: int
    group: FpAbelianGroup
    maps: dict = field(default_factory=dict, compare=False)


@lru_cache(maxsize=None)
def t_group(n, m):
    """T_n(m): order-n unrooted trees modulo AS and IHX."""
    if n < 0 or m < 1:
        raise ValueError("need order >= 0 and labels >= 1")
    gens = unrooted_trees(n, m)
    group = FpAbelianGroup(gens)
    cols = []
    for j, t in enumerate(gens):
        if canonical_unrooted(t.label, t.tree).self_negating:
            cols.append({j: 2})
    cols.extend(_ihx_columns(group, n, m))
    return TreeGroup("plain", n, m,
                     FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                                    if cols else None))


def delta_coords(group, ut):
    """Delta(t) = sum over univalent vertices v of <i(v), (T_v, T_v)>."""
    acc = {}
    for lab, b in rootings(ut.label, ut.tree):
        add_coords(acc, unrooted_coords(group, lab, node(b, b)))
    return acc


@lru_cache(maxsize=None)
def delta(n, m):
    """The framing map Delta: Z2 (x) T_{n-1} -> T_{2n-1}.

    Each summand glues two copies of a branch at a new vertex and is
    therefore self-negating; well-definedness over Z2 and over the AS/IHX
    relators is checked at construction.
    """
    if n < 1:
        raise ValueError("delta needs n >= 1")
    src = tensor_Z2(t_group(n - 1, m).group)
    dst = t_group(2 * n - 1, m).group
    cols = [delta_coords(dst, t) for t in src.generators]
    try:
        return AbelianHom.from_columns(src, dst, cols)
    except HomValidityError as e:
        raise WellDefinednessError(f"delta({n},{m}) not well-defined") from e


@lru_cache(maxsize=None)
def t_tilde(n, m):
    """T~_n: quotient by the framing relations for odd n, alias for even n."""
    plain = t_group(n, m)
    if n % 2 == 0:
        quot = AbelianHom.identity(plain.group)
        return TreeGroup("tilde", n, m, plain.group, {"quotient": quot})
    dl = delta((n + 1) // 2, m)
    cols = [dl.matrix.sparse_columns()[j] for j in range(dl.source.ngens)]
    group = plain.group.with_extra_relations(cols) if cols else plain.group
    quot = AbelianHom(plain.group, group,
                      IntMatrix.identity(plain.group.ngens), check=False)
    return TreeGroup("tilde", n, m, group, {"quotient": quot})


def inf_key(raw_tree):
    """Key of an infinity generator: canonical tree, sign discarded."""
    return ("inf", canonical_rooted(raw_tree).tree)


@lru_cache(maxsize=None)
def t_infinity(n, m):
    """T^inf_n with its canonical maps.

    Odd n: quotient of T~_n by the boundary-twist relators <(i,J), J>;
    maps: {"quotient": T~_n -> T^inf_n, "from_plain": T_n -> T^inf_n}.

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
                cols.append(unrooted_coords(
                    tilde.group, *glue(node(leaf(i), j_tree), j_tree)))
        group = tilde.group.with_extra_relations(cols) if cols else tilde.group
        quot = AbelianHom(tilde.group, group,
                          IntMatrix.identity(tilde.group.ngens), check=False)
        from_plain = quot.compose(tilde.maps["quotient"])
        return TreeGroup("twisted", n, m, group,
                         {"quotient": quot, "from_plain": from_plain})

    q = n // 2
    plain = t_group(n, m).group
    infs = tuple(("inf", t) for t in rooted_trees(q, m))
    gens = plain.generators + infs
    np = plain.ngens
    group0 = FpAbelianGroup(gens)
    idx = group0.index
    cols = [dict(c) for c in plain.relations.sparse_columns()]
    for t in rooted_trees(q, m):
        col = {idx[("inf", t)]: 2}
        lab, raw = glue(t, t)
        add_coords(col, unrooted_coords(group0, lab, raw, -1))
        cols.append(col)
    for trip in onequad_rooted_expansions(q - 2, m) if q >= 2 else ():
        (t1, s1), (t2, s2), (t3, s3) = trip
        # relation t1 = t2 + t3 in L'; refinement law gives
        # t1^inf = t2^inf + t3^inf + <t2, t3>
        col = {idx[inf_key(t1)]: 1}
        add_coords(col, {idx[inf_key(t2)]: -1})
        add_coords(col, {idx[inf_key(t3)]: -1})
        lab, raw = glue(t2, t3)
        add_coords(col, unrooted_coords(group0, lab, raw, -1))
        cols.append(col)
    group = FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                           if cols else None)
    incl = AbelianHom.from_columns(
        plain, group, [{j: 1} for j in range(np)], check=False)
    lq = tensor_Z2(lie_group(q + 1, m, QUASI).group)
    ck_cols = [{} for _ in range(np)]
    for t in rooted_trees(q, m):
        ck_cols.append({lq.index[t]: 1})
    coker = AbelianHom.from_columns(group, lq, ck_cols)
    return TreeGroup("twisted", n, m, group,
                     {"inclusion": incl, "coker": coker})
