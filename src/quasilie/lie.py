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

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import (AbelianHom, FpAbelianGroup, IntMatrix, Lattice,
                      HomValidityError, exact_at, hom_analysis, tensor_Z2)
from .trees import (canonical_rooted, leaf, node, onequad_rooted_expansions,
                    rooted_trees)

LIE = "lie"
QUASI = "quasi"


class LiftMismatch(ValueError):
    """A snake-lemma lift landed outside the expected subgroup."""


class WellDefinednessError(ValueError):
    """A generator formula fails to kill a relator (convention bug)."""


def tree_coords(group, raw_tree, coeff=1):
    """Sparse coordinates of a raw rooted tree in a tree-generated group."""
    c = canonical_rooted(raw_tree)
    return {group.index[c.tree]: coeff * c.sign}


def add_coords(acc, extra):
    for i, v in extra.items():
        nv = acc.get(i, 0) + v
        if nv:
            acc[i] = nv
        else:
            acc.pop(i, None)
    return acc


def _jacobi_columns(group, degree, labels):
    cols = []
    seen = set()
    for trip in onequad_rooted_expansions(degree - 3, labels):
        acc = {}
        for t, s in trip:
            add_coords(acc, tree_coords(group, t, s))
        if not acc:
            continue
        items = tuple(sorted(acc.items()))
        lead = items[0][1]
        if lead < 0:
            items = tuple((i, -v) for i, v in items)
        if items not in seen:
            seen.add(items)
            cols.append(dict(items))
    return cols


@dataclass(frozen=True)
class LieGrade:
    n: int
    m: int
    variant: str
    group: FpAbelianGroup


@lru_cache(maxsize=None)
def lie_group(n, m, variant=LIE):
    """Degree-n part of the free (quasi-)Lie algebra on m generators."""
    if n < 1 or m < 1:
        raise ValueError("need degree >= 1 and labels >= 1")
    if variant not in (LIE, QUASI):
        raise ValueError(f"unknown variant: {variant}")
    gens = rooted_trees(n - 1, m)
    group = FpAbelianGroup(gens)
    cols = []
    for j, t in enumerate(gens):
        if canonical_rooted(t).self_negating:
            cols.append({j: 1} if variant == LIE else {j: 2})
    if n >= 3:
        cols.extend(_jacobi_columns(group, n, m))
    group = FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                           if cols else None)
    return LieGrade(n, m, variant, group)


@lru_cache(maxsize=None)
def tensor_with_L1(n, m, variant=LIE):
    """L_1 (x) L_n: generator keys (i, tree), relations replicated per label."""
    base = lie_group(n, m, variant).group
    gens = tuple((i, t) for i in range(1, m + 1) for t in base.generators)
    k = base.ngens
    cols = []
    for col in base.relations.sparse_columns():
        for i in range(m):
            cols.append({i * k + j: v for j, v in col.items()})
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                          if cols else None)


def tensor_coords(group, i, raw_tree, coeff=1):
    c = canonical_rooted(raw_tree)
    return {group.index[(i, c.tree)]: coeff * c.sign}


@lru_cache(maxsize=None)
def bracket_hom(n, m, variant=LIE):
    """The bracket map L_1 (x) L_{n+1} -> L_{n+2}: X_i (x) J -> (i, J)."""
    src = tensor_with_L1(n + 1, m, variant)
    dst = lie_group(n + 2, m, variant).group
    cols = []
    for (i, t) in src.generators:
        cols.append(tree_coords(dst, node(leaf(i), t)))
    return AbelianHom.from_columns(src, dst, cols)


@dataclass(frozen=True)
class BracketKernel:
    n: int
    m: int
    variant: str
    group: FpAbelianGroup
    inclusion: AbelianHom
    basis: Lattice               # rows: the inclusion's columns, in order
    bracket_surjective: bool


@lru_cache(maxsize=None)
def d_group(n, m, variant=LIE):
    """Kernel of the bracket map, with its inclusion into L_1 (x) L_{n+1}."""
    h = bracket_hom(n, m, variant)
    a = hom_analysis(h)
    return BracketKernel(n, m, variant, a.kernel, a.kernel_inclusion,
                         h.kernel_lattice, a.surjective)


@lru_cache(maxsize=None)
def proj_p(n, m):
    """The projection L'_n ->> L_n (identity on tree generators)."""
    src = lie_group(n, m, QUASI).group
    dst = lie_group(n, m, LIE).group
    return AbelianHom(src, dst, IntMatrix.identity(src.ngens))


@lru_cache(maxsize=None)
def sq(k, m):
    """The squaring map Z2 (x) L_k -> L'_{2k}: 1 (x) J -> (J, J)."""
    src = tensor_Z2(lie_group(k, m, LIE).group)
    dst = lie_group(2 * k, m, QUASI).group
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
    cols = []
    for z in D.basis.rows:
        # L_1 (x) L_{2k+1} and L_1 (x) L'_{2k+1} share their generator keys,
        # so the lift is the identity on coordinates.
        b = quasi_br.apply_vector(z)
        x = sqmap.preimage_vector(b)
        if x is None:
            raise LiftMismatch(
                f"sl({two_k},{m}): bracketed lift is not in the image of sq")
        cols.append(x)
    hom = AbelianHom.from_columns(D.group, sqmap.source, cols)
    return hom


@lru_cache(maxsize=None)
def d_tilde(n, m):
    """The quotient of D'_n by eta'(im Delta), with the quotient map.

    Defined for odd n; built from the framing map and eta' of the lower
    tree groups (late import keeps the module dependencies acyclic).
    """
    if n % 2 != 1:
        raise ValueError("d_tilde is defined in odd orders")
    from .eta import eta_prime
    from .treegroups import delta
    half = (n + 1) // 2
    Dq = d_group(n, m, QUASI)
    ep = eta_prime(n, m)
    dl = delta(half, m)
    cols = []
    for j in range(dl.source.ngens):
        img = dl.matrix.column(j)
        cols.append(ep.apply_vector(img))
    quotient = Dq.group.with_extra_relations(cols) if cols else Dq.group
    qhom = AbelianHom(Dq.group, quotient,
                      IntMatrix.identity(Dq.group.ngens), check=False)
    return quotient, qhom


@dataclass(frozen=True)
class DInfinity:
    group: FpAbelianGroup
    p_hom: AbelianHom            # D^inf -> D_{4k-2}
    sl_prime: AbelianHom         # D^inf -> Z2 (x) L'_{2k}
    sq_inf: AbelianHom           # Z2 (x) L_k -> D^inf
    basis: Lattice               # generators as (D | Z2 (x) L'_{2k}) rows


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
    from .abelian import pullback
    slmap = sl(n, m)
    Lq2 = tensor_Z2(lie_group(2 * k, m, QUASI).group)
    L2 = tensor_Z2(lie_group(2 * k, m, LIE).group)
    pbar = AbelianHom(Lq2, L2, IntMatrix.identity(Lq2.ngens), check=False)
    P, to_d, to_lq = pullback(slmap, pbar)

    # P is the kernel of D + Z2 (x) L'_{2k} -> Z2 (x) L_{2k}; stacking the
    # two projections gives its generators in the ambient coordinates.
    stacked = IntMatrix(to_d.matrix.data + to_lq.matrix.data, cols=P.ngens)
    basis = Lattice(stacked.rows, stacked.columns())
    sq_k = sq(k, m)  # Z2 (x) L_k -> L'_{2k}; push into the Z2 tensor
    cols = []
    for j in range(sq_k.source.ngens):
        # pair (0 in D, sq(1xJ) in Z2 (x) L'_{2k}) expressed in P's basis
        amb = [0] * slmap.source.ngens + sq_k.matrix.column(j)
        cols.append(basis.coordinates(amb))
    sq_inf = AbelianHom.from_columns(sq_k.source, P, cols)

    a_sq = hom_analysis(sq_inf)
    a_p = hom_analysis(to_d)
    if not (a_sq.injective and a_p.surjective and exact_at(sq_inf, to_d)):
        raise WellDefinednessError(
            f"d_infinity({n},{m}): row of the pullback diagram not exact")
    return DInfinity(P, to_d, to_lq, sq_inf, basis)


def witt_rank(n, m):
    """Witt formula: rank of L_n(m) = (1/n) sum_{d|n} mu(d) m^(n/d)."""
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
