"""The eta homomorphisms and the claim-verification suite.

eta' sums over all ways of adding a root to an unrooted tree, landing in the
quasi-Lie bracket kernel; eta is the same formula in the Lie setting extended
to infinity generators by halving, and lifts to the pullback group in orders
4k-2.  verify() runs named claims (isomorphism statements, exact sequences,
commuting squares) at budgeted sizes and returns serializable reports.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

from .abelian import (AbelianHom, HomValidityError, NotDivisible,
                      TorsionPresent, exact_at, tensor_Z2)
from .lie import (LIE, QUASI, ConsistencyError, WellDefinednessError,
                  bracket_hom, d_group, d_infinity, inside_kernel,
                  lie_group, signed_sum, sl, sq, tensor_coords,
                  tensor_with_L1)
from .treegroups import delta, t_group, t_infinity, t_tilde
from .trees import (canonical_rooted, canonical_rootings, glue, node,
                    rooted_trees)


class PullbackMismatch(ConsistencyError):
    """The two maps defining the pullback lift disagree."""


def eta_column(ambient, lab, raw_tree):
    """Sum over univalent vertices v of X_label(v) (x) B_v, as a sparse
    column over the ambient generators."""
    return signed_sum({ambient.index[(i, c.tree)]: c.sign}
                      for i, c in canonical_rootings(lab, raw_tree))


def eta_vector(ambient, lab, raw_tree):
    """`eta_column` as a dense coordinate list."""
    return list(ambient.element(eta_column(ambient, lab, raw_tree)).coeffs)


def _root_sum(n, m, group, variant):
    """The root-summing map from a tree group of order n into the bracket
    kernel D_n of `variant`.

    An unrooted generator goes to its eta_column; an infinity generator
    J^inf to half of eta(<J, J>), a preimage under one doubling map, exact
    and unique in the torsion-free tensor group.  An image outside the
    kernel raises ImageEscapesKernel; an odd double, a torsion ambient or a
    relator that is not killed raise WellDefinednessError.
    """
    name, kernel = ("eta'", "D'") if variant == QUASI else ("eta", "D")
    bracket = d_group(n, m, variant).bracket
    ambient = bracket.source
    doubling = None
    cols = []
    for g in group.generators:
        if isinstance(g, tuple) and g[0] == "inf":
            if doubling is None:
                if ambient.structure[1]:
                    raise WellDefinednessError(
                        f"{name}({n},{m}): halving needs a torsion-free "
                        f"ambient") from TorsionPresent(ambient.torsion)
                doubling = AbelianHom.identity(ambient).scale(2)
            vec = doubling.preimage_vector(
                eta_column(ambient, *glue(g[1], g[1])))
            if vec is None:
                raise WellDefinednessError(
                    f"{name}({n},{m}) image of {g} is not divisible by 2"
                ) from NotDivisible(f"odd double at {g}")
        else:
            vec = eta_column(ambient, g.label, g.tree)
        with inside_kernel(f"{name}({n},{m}) image of {g} escapes {kernel}"):
            cols.append(bracket.kernel_coordinates(vec))
    try:
        return AbelianHom.from_columns(group, bracket.kernel, cols)
    except HomValidityError as e:
        raise WellDefinednessError(f"{name}({n},{m}) not well-defined") from e


@lru_cache(maxsize=None)
def eta_prime(n, m):
    """eta'_n: T_n -> D'_n, the root-summing map into the quasi-Lie kernel."""
    return _root_sum(n, m, t_group(n, m), QUASI)


@lru_cache(maxsize=None)
def eta(n, m):
    """eta_n: T^inf_n -> D_n, the root-summing map in the Lie setting,
    extended to infinity generators by halving."""
    return _root_sum(n, m, t_infinity(n, m).group, LIE)


@lru_cache(maxsize=None)
def d_tilde(n, m):
    """The quotient of D'_n by eta'(im Delta), on the generators of D'_n:
    the cokernel of eta' after the framing map Delta.

    Defined for odd n.
    """
    if n % 2 != 1:
        raise ValueError("d_tilde is defined in odd orders")
    return eta_prime(n, m).compose(delta((n + 1) // 2, m)).cokernel


@lru_cache(maxsize=None)
def eta_tilde(n, m):
    """Induced map T~_{2k-1} -> D~_{2k-1} on the framing quotients."""
    if n % 2 != 1:
        raise ValueError("eta_tilde is defined in odd orders")
    return AbelianHom(t_tilde(n, m), d_tilde(n, m), eta_prime(n, m).matrix)


@lru_cache(maxsize=None)
def eta_infinity(n, m):
    """The lift T^inf_{4k-2} -> D^inf_{4k-2} through the pullback.

    Pairs eta with the cokernel map to Z2 (x) L'_{2k}; raises
    PullbackMismatch if the pair disagrees in Z2 (x) L_{2k}.
    """
    if n % 4 != 2:
        raise ValueError("eta_infinity is defined in orders 4k-2")
    ti = t_infinity(n, m)
    di = d_infinity(n, m)
    e = eta(n, m)
    c = ti.maps["coker"]
    cols = []
    for g, top, low in zip(ti.group.generators, e.matrix.sparse_columns(),
                           c.matrix.sparse_columns()):
        try:
            cols.append(di.pair_coordinates(top, low))
        except NotDivisible as err:
            raise PullbackMismatch(
                f"eta_infinity({n},{m}): sl.eta and p.coker disagree at "
                f"generator {g}") from err
    h = AbelianHom.from_columns(ti.group, di.group, cols)
    # the computed identity eta_inf((J,J)^inf) = sq_inf(1 (x) J)
    k = (n + 2) // 4
    for jt in rooted_trees(k - 1, m):
        sq_tree = canonical_rooted(node(jt, jt)).tree
        if h(ti.group.gen(("inf", sq_tree))) != di.sq_inf(
                di.sq_inf.source.gen(jt)):
            raise PullbackMismatch(
                f"eta_infinity({n},{m}): (J,J)^inf != sq_inf(1xJ) at J={jt}")
    return h


@lru_cache(maxsize=None)
def beta_hom(n, m):
    """Mod-2 bracket Z2 (x) L_1 (x) L_n -> Z2 (x) L'_{n+1}."""
    return AbelianHom(tensor_Z2(tensor_with_L1(n, m, LIE)),
                      tensor_Z2(lie_group(n + 1, m, QUASI)),
                      bracket_hom(n - 1, m, QUASI).matrix)


def _sq_tensor_vector(n, m, vec):
    """Apply X_i (x) J -> X_i (x) (J, J) to a sparse coordinate vector.

    Input coordinates over L_1 (x) L_n, output over L_1 (x) L'_{2n}.
    """
    src = tensor_with_L1(n, m, LIE).generators
    dst = tensor_with_L1(2 * n, m, QUASI)
    terms = ((src[j], v) for j, v in vec.items())
    return signed_sum(tensor_coords(dst, i, node(t, t), v)
                      for (i, t), v in terms)


@lru_cache(maxsize=None)
def odd_left_map(n, m):
    """The injection Z2 (x) L'_{n+1} -> T~_{2n-1} induced by the framing
    diagram: lift a generator through the mod-2 bracket, square the lift
    into the quasi-Lie kernel, then pull back through eta'."""
    phi = eta_prime(2 * n - 1, m).lift(dtilde_left_map(n, m),
                                       t_tilde(2 * n - 1, m))
    if phi is None:
        raise WellDefinednessError(
            f"odd_left_map({n},{m}): eta' preimage missing")
    return phi


@lru_cache(maxsize=None)
def dtilde_left_map(n, m):
    """Z2 (x) L'_{n+1} -> D~_{2n-1}, the same chase on the kernel side."""
    src = tensor_Z2(lie_group(n + 1, m, QUASI))
    beta = beta_hom(n, m)
    bracket = d_group(2 * n - 1, m, QUASI).bracket
    cols = []
    for j in range(src.ngens):
        y = beta.preimage_vector({j: 1})
        if y is None:
            raise WellDefinednessError(
                f"dtilde_left_map({n},{m}): mod-2 bracket not surjective?")
        z = _sq_tensor_vector(n, m, y)
        with inside_kernel(f"dtilde_left_map({n},{m}): squared lift escapes "
                           f"D'"):
            cols.append(bracket.kernel_coordinates(z))
    return AbelianHom.from_columns(src, d_tilde(2 * n - 1, m), cols)


@lru_cache(maxsize=None)
def dtilde_to_d(n, m):
    """The projection D~_{2k-1} ->> D_{2k-1} (quasi kernel to Lie kernel)."""
    # D~ has the generators of D', so the matrix is that of D' -> D
    return AbelianHom(d_tilde(n, m), d_group(n, m, LIE).group,
                      dprime_to_d(n, m).matrix)


@lru_cache(maxsize=None)
def dprime_to_d(n, m):
    """The inclusion-induced map D'_n -> D_n."""
    Dq = d_group(n, m, QUASI)
    D = d_group(n, m, LIE)
    with inside_kernel(f"dprime_to_d({n},{m}) image escapes D"):
        cols = [D.bracket.kernel_coordinates(z)
                for z in Dq.inclusion.matrix.sparse_columns()]
    return AbelianHom.from_columns(Dq.group, D.group, cols)


# ---------------------------------------------------------------------------
# verification suite


@dataclass
class VerificationReport:
    claim: str
    params: dict
    status: str                      # verified | failed | skipped
    witness: dict = field(default_factory=dict)

    def to_dict(self):
        return {"claim": self.claim, "params": self.params,
                "status": self.status, "witness": self.witness}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def _report(claim, params, instances):
    """The one place a claim's report is built.

    `instances` yields (name, entry, ok) lazily, where `entry` is the
    witness of the instance `name` and `ok` says whether it holds; a fourth
    item, if present, holds the witness keys that a failure adds.  The
    first failing instance ends the claim, so nothing after it is built.
    """
    checked = {}
    for name, entry, ok, *extra in instances:
        checked[name] = entry
        if not ok:
            witness = {"instances": checked, "offender": name}
            for keys in extra:
                witness.update(keys)
            return VerificationReport(claim, params, "failed", witness)
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _short_exact(left, right):
    """0 -> A -> B -> C -> 0: injective, exact in the middle, surjective."""
    return left.injective and exact_at(left, right) and right.surjective


def verify(claim, max_order=4, labels=2, seed=0):
    """Run one named claim within the budget; returns a VerificationReport.

    Claims: thm31_i..thm31_vi, lemma_cd, tau_even, tau_odd,
    framing_factorization, master_diagram_1, master_diagram_2.
    """
    params = {"max_order": max_order, "labels": labels, "seed": seed}
    fn = _CLAIMS.get(claim)
    if fn is None:
        raise ValueError(f"unknown claim: {claim}")
    return fn(claim, params, max_order, labels)


class _Claim(NamedTuple):
    """A claim checked at each order n = first, first + step, ... up to
    max_order, for m = 1..labels: instance(n, m) returns (name, entry, ok)
    or (name, entry, ok, extra), the items `_report` reads.

    Calling the row runs the whole claim, so that what `verify` calls is
    the `_CLAIMS` value, and a wrapper put in its place (the per-claim
    timers of perfbench/tracer.py) covers the whole claim."""
    instance: Callable
    first: int
    step: int

    def __call__(self, claim, params, max_order, labels):
        """The report on the instances within the budget, m outermost."""
        return _report(claim, params, (
            self.instance(n, m) for m in range(1, labels + 1)
            for n in range(self.first, max_order + 1, self.step)))


def _isomorphism(map_name, n, m):
    """The eta map of this module named map_name is an isomorphism at
    (n, m)."""
    h = globals()[map_name](n, m)  # read per call, so a rebound map is checked
    iso = h.isomorphism
    name = f"{map_name}(n={n},m={m})"
    entry = {"source": h.source.describe(),
             "target": h.target.describe(),
             "isomorphism": iso}
    if iso:
        return name, entry, True
    # the kernel and cokernel are built only for a failure
    return (name, entry, False,
            {"kernel": h.kernel.describe(),
             "cokernel": h.cokernel.describe()})


def _eta_kernel(n, m):
    """thm31_v: ker eta_{4k-2} is Z2 (x) L_k, sent there by the generators
    (J,J)^inf -> 1 (x) J."""
    k = (n + 2) // 4
    e = eta(n, m)
    K = e.kernel
    expected = tensor_Z2(lie_group(k, m, LIE)).structure
    entry = {"kernel": K.describe(),
             "expected": {"free_rank": expected[0],
                          "torsion": list(expected[1])}}
    if K.structure == expected:
        entry["generator_map"] = _kernel_generator_map(n, m, e, entry)
    return f"ker eta({n},{m})", entry, entry.get("generator_map", False)


def _kernel_generator_map(n, m, e, entry):
    """The map ker e -> Z2 (x) L_k of e = eta_n, through the cokernel and
    sq, is an isomorphism taking (J,J)^inf to 1 (x) J; a J where it fails is
    noted in entry."""
    k = (n + 2) // 4
    ti = t_infinity(n, m)
    c = ti.maps["coker"]
    sq2 = AbelianHom(sq(k, m).source, c.target, sq(k, m).matrix,
                     check=False)
    phi = sq2.lift(c.compose(e.kernel_inclusion))
    if phi is None or not phi.isomorphism:
        return False
    for jt in rooted_trees(k - 1, m):
        sq_tree = canonical_rooted(node(jt, jt)).tree
        with inside_kernel(f"eta({n},{m}): (J,J)^inf escapes the kernel at "
                           f"J={jt}"):
            z = e.kernel_coordinates({ti.group.index[("inf", sq_tree)]: 1})
        if phi(e.kernel.element(z)) != sq2.source.gen(jt):
            entry["bad_generator"] = str(jt)
            return False
    return True


def _lemma_cd(n, m):
    """lemma_cd: sl . eta = pbar . coker in even orders 2k."""
    c = t_infinity(n, m).maps["coker"]
    pbar = AbelianHom.identity(
        c.target, tensor_Z2(lie_group(n // 2 + 1, m, LIE)))
    ok = sl(n, m).compose(eta(n, m)).equals(pbar.compose(c))
    return f"square(2k={n},m={m})", {"commutes": ok}, ok


def _tau_even(n, m):
    """0 -> T_n -> Tinf_n -> Z2 (x) L'_{n/2+1} -> 0 in even orders."""
    ti = t_infinity(n, m)
    left, right = ti.maps["inclusion"], ti.maps["coker"]
    ok = _short_exact(left, right)
    return (f"0->T_{n}->Tinf_{n}->Z2xL'_{n//2+1} (m={m})",
            {"exact": ok, "cokernel_structure": left.cokernel.describe()},
            ok)


def _tau_odd(nn, m):
    """0 -> Z2 (x) L'_{n+1} -> T~_{2n-1} -> Tinf_{2n-1} -> 0, nn = 2n-1."""
    n = (nn + 1) // 2
    left = odd_left_map(n, m)
    right = t_infinity(nn, m).maps["quotient"]
    ok = _short_exact(left, right)
    return (f"0->Z2xL'_{n+1}->Ttilde_{nn}->Tinf_{nn} (m={m})",
            {"exact": ok,
             "chain": [left.source.describe(), left.target.describe(),
                       right.target.describe()]},
            ok)


def _framing(nn, m):
    """eta'(Delta(t)) = sq(1 (x) eta'(t)) for every generator t, in the
    order nn = 2n-1."""
    n = (nn + 1) // 2
    dl = delta(n, m)
    # eta' into the full tensor group L_1 (x) L'_{2n}
    epa = d_group(nn, m, QUASI).inclusion.compose(eta_prime(nn, m))
    low = tensor_with_L1(n, m, LIE)
    entry = {"identity": True}
    for t in dl.source.generators:
        lhs = epa(dl(dl.source.gen(t)))
        rhs = _sq_tensor_vector(n, m, eta_column(low, t.label, t.tree))
        if lhs != epa.target.element(rhs):
            entry = {"identity": False, "offender": str(t)}
            break
    return (f"eta'(Delta)=sq(1xeta') at n={n}, m={m}", entry,
            entry["identity"])


def _master_block(hi, m):
    """Every check of one master-diagram block (T and D rows only):
    master_diagram_1 at orders (hi, hi - 1) = (4k, 4k-1), and
    master_diagram_2, twisted, at (4k-2, 4k-3)."""
    twisted = hi % 4 == 2
    k = (hi + 2) // 4
    lo, nmid = hi - 1, hi // 2                # nmid: odd sequence parameter
    ti_hi = t_infinity(hi, m)
    top_incl = ti_hi.maps["inclusion"]        # T_hi -> Tinf_hi
    coker = ti_hi.maps["coker"]               # Tinf_hi -> Z2 x L'_{nmid+1}
    if twisted:
        eta_hi_vert = "eta_infinity"
        eta_hi = eta_infinity(hi, m)
        eta_plain = eta_prime(hi, m)
        di = d_infinity(hi, m)
        dpd = dprime_to_d(hi, m)
        with inside_kernel(f"master_diagram_2 block(k={k},m={m}): a pair "
                           f"(D' column, 0) escapes D^inf"):
            jcols = [di.pair_coordinates(col, {})
                     for col in dpd.matrix.sparse_columns()]
        bottom_incl = AbelianHom.from_columns(dpd.source, di.group, jcols)
        bottom_coker = di.sl_prime
    else:
        eta_hi_vert = "eta"
        eta_hi = eta(hi, m)
        eta_plain = eta_prime(hi, m)
        bottom_incl = dprime_to_d(hi, m)
        # D_hi -> Z2 x L_{2k+1} -> lift through the odd-degree iso pbar
        slh = sl(hi, m)
        lq = tensor_Z2(lie_group(nmid + 1, m, QUASI))
        bottom_coker = AbelianHom.identity(lq, slh.target).lift(slh)
        if bottom_coker is None:
            raise WellDefinednessError(
                f"master_diagram_1 block(k={k},m={m}): sl({hi},{m}) "
                f"does not lift through pbar")
    checks = {
        "left_square": eta_hi.compose(top_incl).equals(
            bottom_incl.compose(eta_plain)),
        "mid_square": bottom_coker.compose(eta_hi).equals(coker),
        "left_ses_T": _short_exact(top_incl, coker),
        "left_ses_D": _short_exact(bottom_incl, bottom_coker),
    }

    # right half: Z2 x L'_{nmid+1} >-> T~_lo ->> Tinf_lo over the D row
    ol = odd_left_map(nmid, m)
    quot = t_infinity(lo, m).maps["quotient"]
    dl = dtilde_left_map(nmid, m)
    dquot = dtilde_to_d(lo, m)
    et = eta_tilde(lo, m)
    checks["right_ses_T"] = _short_exact(ol, quot)
    checks["right_ses_D"] = _short_exact(dl, dquot)
    checks["connect_square"] = et.compose(ol).equals(dl)
    checks["right_square"] = eta(lo, m).compose(quot).equals(
        dquot.compose(et))
    for name, h in (("eta_prime", eta_plain), (eta_hi_vert, eta_hi),
                    ("eta_tilde", et), ("eta_low", eta(lo, m))):
        checks[f"iso_{name}"] = h.isomorphism
    return f"block(k={k},m={m})", checks, all(checks.values())


_CLAIMS = {
    "thm31_i": _Claim(partial(_isomorphism, "eta_prime"), 0, 1),
    "thm31_ii": _Claim(partial(_isomorphism, "eta_tilde"), 1, 2),
    "thm31_iii": _Claim(partial(_isomorphism, "eta"), 1, 2),
    "thm31_iv": _Claim(partial(_isomorphism, "eta"), 0, 4),
    "thm31_v": _Claim(_eta_kernel, 2, 4),
    "thm31_vi": _Claim(partial(_isomorphism, "eta_infinity"), 2, 4),
    "lemma_cd": _Claim(_lemma_cd, 2, 2),
    "tau_even": _Claim(_tau_even, 0, 2),
    "tau_odd": _Claim(_tau_odd, 1, 2),
    "framing_factorization": _Claim(_framing, 1, 2),
    "master_diagram_1": _Claim(_master_block, 4, 4),
    "master_diagram_2": _Claim(_master_block, 2, 4),
}

ALL_CLAIMS = tuple(_CLAIMS)


def verify_all(max_order=2, labels=2, seed=0):
    """Run every claim serially (trees are interned in shared tables that
    are not thread-safe); reports are sorted by claim id."""
    reports = [verify(c, max_order, labels, seed) for c in ALL_CLAIMS]
    return sorted(reports, key=lambda r: r.claim)
