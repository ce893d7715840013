"""The eta homomorphisms and the claim-verification suite.

eta' sums over all ways of adding a root to an unrooted tree, landing in the
quasi-Lie bracket kernel; eta is the same formula in the Lie setting extended
to infinity generators by halving, and lifts to the pullback group in orders
4k-2.  verify() runs named claims (isomorphism statements, exact sequences,
commuting squares) at budgeted sizes and returns serializable reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

from .abelian import (AbelianHom, HomValidityError, IntMatrix,
                      NotDivisible, exact_at, hom_analysis, solve_division,
                      tensor_Z2)
from .lie import (LIE, QUASI, WellDefinednessError, add_coords, d_group,
                  d_infinity, d_tilde, lie_group, sl, sq, tensor_coords,
                  tensor_with_L1)
from .treegroups import t_group, t_infinity, t_tilde
from .trees import canonical_rooted, glue, leaf, node, rooted_trees, rootings


class ImageEscapesKernel(ValueError):
    """An eta image failed to lie in the bracket kernel."""


class PullbackMismatch(ValueError):
    """The two maps defining the pullback lift disagree."""


def eta_vector(ambient, lab, raw_tree):
    """Sum over univalent vertices v of X_label(v) (x) B_v, as coordinates."""
    acc = {}
    for i, b in rootings(lab, raw_tree):
        add_coords(acc, tensor_coords(ambient, i, b))
    vec = [0] * ambient.ngens
    for i, v in acc.items():
        vec[i] = v
    return vec


@lru_cache(maxsize=None)
def eta_prime(n, m):
    """eta'_n: T_n -> D'_n, the root-summing map into the quasi-Lie kernel."""
    src = t_group(n, m).group
    Dq = d_group(n, m, QUASI)
    ambient = Dq.inclusion.target
    cols = []
    for t in src.generators:
        vec = eta_vector(ambient, t.label, t.tree)
        try:
            cols.append(Dq.basis.coordinates(vec))
        except NotDivisible as e:
            raise ImageEscapesKernel(
                f"eta'({n},{m}) image of {t} escapes D'") from e
    return AbelianHom.from_columns(src, Dq.group, cols)


def eta_prime_ambient(n, m):
    """eta' with codomain the full tensor group L_1 (x) L'_{n+1}."""
    src = t_group(n, m).group
    ambient = tensor_with_L1(n + 1, m, QUASI)
    cols = [eta_vector(ambient, t.label, t.tree) for t in src.generators]
    return AbelianHom.from_columns(src, ambient, cols)


@lru_cache(maxsize=None)
def eta(n, m):
    """eta_n: T^inf_n -> D_n.

    Unrooted generators use the root-summing formula in the Lie setting;
    infinity generators take half of eta(<J, J>), the division being exact
    and unique in the torsion-free tensor group.  Construction fails loudly
    if any twisted relator is not killed.
    """
    ti = t_infinity(n, m)
    D = d_group(n, m, LIE)
    ambient = D.inclusion.target
    cols = []
    for g in ti.group.generators:
        if isinstance(g, tuple) and g[0] == "inf":
            lab, raw = glue(g[1], g[1])
            vec = eta_vector(ambient, lab, raw)
            half = solve_division(ambient, ambient.element(vec), 2)
            vec = list(half.coeffs)
        else:
            vec = eta_vector(ambient, g.label, g.tree)
        try:
            cols.append(D.basis.coordinates(vec))
        except NotDivisible as e:
            raise ImageEscapesKernel(
                f"eta({n},{m}) image of {g} escapes D") from e
    try:
        return AbelianHom.from_columns(ti.group, D.group, cols)
    except HomValidityError as e:
        raise WellDefinednessError(f"eta({n},{m}) not well-defined") from e


@lru_cache(maxsize=None)
def eta_tilde(n, m):
    """Induced map T~_{2k-1} -> D~_{2k-1} on the framing quotients."""
    if n % 2 != 1:
        raise ValueError("eta_tilde is defined in odd orders")
    src = t_tilde(n, m).group
    dst, _ = d_tilde(n, m)
    ep = eta_prime(n, m)
    return AbelianHom(src, dst, ep.matrix)


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
    for j in range(ti.group.ngens):
        pair = e.matrix.column(j) + c.matrix.column(j)
        try:
            cols.append(di.basis.coordinates(pair))
        except NotDivisible as err:
            raise PullbackMismatch(
                f"eta_infinity({n},{m}): sl.eta and p.coker disagree at "
                f"generator {ti.group.generators[j]}") from err
    h = AbelianHom.from_columns(ti.group, di.group, cols)
    # the computed identity eta_inf((J,J)^inf) = sq_inf(1 (x) J)
    k = (n + 2) // 4
    for jt in rooted_trees(k - 1, m):
        sq_tree = canonical_rooted(node(jt, jt)).tree
        gi = ti.group.index[("inf", sq_tree)]
        lhs = h.matrix.column(gi)
        rhs = di.sq_inf.matrix.column(di.sq_inf.source.index[jt])
        diff = [a - b for a, b in zip(lhs, rhs)]
        if not di.group.relation_lattice.contains(diff):
            raise PullbackMismatch(
                f"eta_infinity({n},{m}): (J,J)^inf != sq_inf(1xJ) at J={jt}")
    return h


@lru_cache(maxsize=None)
def beta_hom(n, m):
    """Mod-2 bracket Z2 (x) L_1 (x) L_n -> Z2 (x) L'_{n+1}."""
    src = tensor_Z2(tensor_with_L1(n, m, LIE))
    dst = tensor_Z2(lie_group(n + 1, m, QUASI).group)
    cols = []
    for (i, t) in src.generators:
        c = canonical_rooted(node(leaf(i), t))
        cols.append({dst.index[c.tree]: c.sign})
    return AbelianHom.from_columns(src, dst, cols)


def _sq_tensor_vector(n, m, vec):
    """Apply X_i (x) J -> X_i (x) (J, J) to a coordinate vector.

    Input coordinates over L_1 (x) L_n, output over L_1 (x) L'_{2n}.
    """
    src = tensor_with_L1(n, m, LIE)
    dst = tensor_with_L1(2 * n, m, QUASI)
    acc = {}
    for j, v in enumerate(vec):
        if v:
            i, t = src.generators[j]
            add_coords(acc, tensor_coords(dst, i, node(t, t), v))
    out = [0] * dst.ngens
    for i, v in acc.items():
        out[i] = v
    return out


@lru_cache(maxsize=None)
def odd_left_map(n, m):
    """The injection Z2 (x) L'_{n+1} -> T~_{2n-1} induced by the framing
    diagram: lift a generator through the mod-2 bracket, square the lift
    into the quasi-Lie kernel, then pull back through eta'."""
    src = tensor_Z2(lie_group(n + 1, m, QUASI).group)
    tilde = t_tilde(2 * n - 1, m)
    dcols = dtilde_left_map(n, m).matrix.columns()
    ep = eta_prime(2 * n - 1, m)
    cols = []
    for col in dcols:
        w = ep.preimage_vector(col)
        if w is None:
            raise WellDefinednessError(
                f"odd_left_map({n},{m}): eta' preimage missing")
        cols.append(w)
    return AbelianHom.from_columns(src, tilde.group, cols)


@lru_cache(maxsize=None)
def dtilde_left_map(n, m):
    """Z2 (x) L'_{n+1} -> D~_{2n-1}, the same chase on the kernel side."""
    src = tensor_Z2(lie_group(n + 1, m, QUASI).group)
    dt, _ = d_tilde(2 * n - 1, m)
    beta = beta_hom(n, m)
    Dq = d_group(2 * n - 1, m, QUASI)
    cols = []
    for j in range(src.ngens):
        target = [0] * src.ngens
        target[j] = 1
        y = beta.preimage_vector(target)
        if y is None:
            raise WellDefinednessError(
                f"dtilde_left_map({n},{m}): mod-2 bracket not surjective?")
        z = _sq_tensor_vector(n, m, y)
        try:
            cols.append(Dq.basis.coordinates(z))
        except NotDivisible as e:
            raise ImageEscapesKernel(
                f"dtilde_left_map({n},{m}): squared lift escapes D'") from e
    return AbelianHom.from_columns(src, dt, cols)


@lru_cache(maxsize=None)
def dtilde_to_d(n, m):
    """The projection D~_{2k-1} ->> D_{2k-1} (quasi kernel to Lie kernel)."""
    dt, _ = d_tilde(n, m)
    Dq = d_group(n, m, QUASI)  # D~ has the generators of D'
    D = d_group(n, m, LIE)
    cols = [D.basis.coordinates(z) for z in Dq.basis.rows]
    return AbelianHom.from_columns(dt, D.group, cols)


@lru_cache(maxsize=None)
def dprime_to_d(n, m):
    """The inclusion-induced map D'_n -> D_n."""
    Dq = d_group(n, m, QUASI)
    D = d_group(n, m, LIE)
    cols = [D.basis.coordinates(z) for z in Dq.basis.rows]
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


def _structure_dict(group):
    return {"free_rank": group.free_rank, "torsion": group.torsion}


def _iso_claim(claim, params, instances):
    """Shared driver: instances yield (name, hom); all must be isomorphisms."""
    checked = {}
    for name, h in instances:
        a = hom_analysis(h)
        checked[name] = {
            "source": _structure_dict(h.source),
            "target": _structure_dict(h.target),
            "isomorphism": a.isomorphism,
        }
        if not a.isomorphism:
            return VerificationReport(claim, params, "failed", {
                "instances": checked,
                "offender": name,
                "kernel": _structure_dict(a.kernel),
                "cokernel": _structure_dict(a.cokernel)})
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _short_exact(left, right):
    """0 -> A -> B -> C -> 0: injective, exact in the middle, surjective."""
    return (hom_analysis(left).injective
            and exact_at(left, right)
            and hom_analysis(right).surjective)


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


def _claim_thm31_i(claim, params, max_order, labels):
    return _iso_claim(claim, params,
                      ((f"eta_prime(n={n},m={m})", eta_prime(n, m))
                       for m in range(1, labels + 1)
                       for n in range(0, max_order + 1)))


def _claim_thm31_ii(claim, params, max_order, labels):
    return _iso_claim(claim, params,
                      ((f"eta_tilde(n={n},m={m})", eta_tilde(n, m))
                       for m in range(1, labels + 1)
                       for n in range(1, max_order + 1, 2)))


def _claim_thm31_iii(claim, params, max_order, labels):
    return _iso_claim(claim, params,
                      ((f"eta(n={n},m={m})", eta(n, m))
                       for m in range(1, labels + 1)
                       for n in range(1, max_order + 1, 2)))


def _claim_thm31_iv(claim, params, max_order, labels):
    return _iso_claim(claim, params,
                      ((f"eta(n={n},m={m})", eta(n, m))
                       for m in range(1, labels + 1)
                       for n in range(0, max_order + 1, 4)))


def _claim_thm31_v(claim, params, max_order, labels):
    checked = {}
    for m in range(1, labels + 1):
        for n in range(2, max_order + 1, 4):
            k = (n + 2) // 4
            ti = t_infinity(n, m)
            e = eta(n, m)
            K, ker = hom_analysis(e).kernel, e.kernel_lattice
            zl = tensor_Z2(lie_group(k, m, LIE).group)
            expected = zl.structure
            name = f"ker eta({n},{m})"
            entry = {"kernel": _structure_dict(K),
                     "expected": {"free_rank": expected[0],
                                  "torsion": list(expected[1])}}
            checked[name] = entry
            if K.structure != expected:
                return VerificationReport(claim, params, "failed",
                                          {"instances": checked,
                                           "offender": name})
            # the map (J,J)^inf -> 1 (x) J through the cokernel and sq
            c = ti.maps["coker"]
            sq2 = AbelianHom(tensor_Z2(sq(k, m).source), c.target,
                             sq(k, m).matrix, check=False)
            phi_cols = []
            ok = True
            for z in ker.rows:
                img = c.apply_vector(z)
                x = sq2.preimage_vector(img)
                if x is None:
                    ok = False
                    break
                phi_cols.append(x)
            if ok:
                phi = AbelianHom.from_columns(K, sq2.source, phi_cols)
                ok = hom_analysis(phi).isomorphism
            if ok:
                for jt in rooted_trees(k - 1, m):
                    sq_tree = canonical_rooted(node(jt, jt)).tree
                    vec = [0] * ti.group.ngens
                    vec[ti.group.index[("inf", sq_tree)]] = 1
                    coeffs = ker.coordinates(vec)
                    img = phi.apply_vector(coeffs)
                    want = [0] * sq2.source.ngens
                    want[sq2.source.index[jt]] = 1
                    diff = [a_ - b_ for a_, b_ in zip(img, want)]
                    if not sq2.source.relation_lattice.contains(diff):
                        ok = False
                        entry["bad_generator"] = str(jt)
                        break
            entry["generator_map"] = bool(ok)
            if not ok:
                return VerificationReport(claim, params, "failed",
                                          {"instances": checked,
                                           "offender": name})
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _claim_thm31_vi(claim, params, max_order, labels):
    return _iso_claim(claim, params,
                      ((f"eta_infinity(n={n},m={m})", eta_infinity(n, m))
                       for m in range(1, labels + 1)
                       for n in range(2, max_order + 1, 4)))


def _claim_lemma_cd(claim, params, max_order, labels):
    checked = {}
    for m in range(1, labels + 1):
        for n in range(2, max_order + 1, 2):
            k = n // 2
            ti = t_infinity(n, m)
            c = ti.maps["coker"]
            pbar = AbelianHom(c.target, tensor_Z2(lie_group(k + 1, m, LIE).group),
                              IntMatrix.identity(c.target.ngens), check=False)
            lhs = sl(n, m).compose(eta(n, m))
            rhs = pbar.compose(c)
            name = f"square(2k={n},m={m})"
            ok = lhs.equals(rhs)
            checked[name] = {"commutes": ok}
            if not ok:
                return VerificationReport(claim, params, "failed",
                                          {"instances": checked,
                                           "offender": name})
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _claim_tau_even(claim, params, max_order, labels):
    checked = {}
    for m in range(1, labels + 1):
        for n in range(0, max_order + 1, 2):
            ti = t_infinity(n, m)
            left = ti.maps["inclusion"]
            right = ti.maps["coker"]
            name = f"0->T_{n}->Tinf_{n}->Z2xL'_{n//2+1} (m={m})"
            ok = _short_exact(left, right)
            checked[name] = {
                "exact": ok,
                "cokernel_structure": _structure_dict(
                    hom_analysis(left).cokernel)}
            if not ok:
                return VerificationReport(claim, params, "failed",
                                          {"instances": checked,
                                           "offender": name})
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _claim_tau_odd(claim, params, max_order, labels):
    checked = {}
    for m in range(1, labels + 1):
        for nn in range(1, max_order + 1, 2):
            n = (nn + 1) // 2
            left = odd_left_map(n, m)
            right = t_infinity(nn, m).maps["quotient"]
            name = f"0->Z2xL'_{n+1}->Ttilde_{nn}->Tinf_{nn} (m={m})"
            ok = _short_exact(left, right)
            checked[name] = {
                "exact": ok,
                "chain": [_structure_dict(left.source),
                          _structure_dict(left.target),
                          _structure_dict(right.target)]}
            if not ok:
                return VerificationReport(claim, params, "failed",
                                          {"instances": checked,
                                           "offender": name})
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _claim_framing(claim, params, max_order, labels):
    checked = {}
    for m in range(1, labels + 1):
        for n in range(1, max_order + 1):
            if 2 * n - 1 > max_order:
                continue
            from .treegroups import delta
            dl = delta(n, m)
            epa = eta_prime_ambient(2 * n - 1, m)
            low = eta_prime_ambient(n - 1, m) if n >= 1 else None
            name = f"eta'(Delta)=sq(1xeta') at n={n}, m={m}"
            ok = True
            for j, t in enumerate(dl.source.generators):
                lhs = epa.apply_vector(dl.matrix.column(j))
                low_vec = eta_vector(tensor_with_L1(n, m, LIE), t.label, t.tree)
                rhs = _sq_tensor_vector(n, m, low_vec)
                diff = [a - b for a, b in zip(lhs, rhs)]
                if not epa.target.relation_lattice.contains(diff):
                    ok = False
                    checked[name] = {"identity": False, "offender": str(t)}
                    return VerificationReport(claim, params, "failed",
                                              {"instances": checked,
                                               "offender": name})
            checked[name] = {"identity": True}
    if not checked:
        return VerificationReport(claim, params, "skipped",
                                  {"reason": "no instance within budget"})
    return VerificationReport(claim, params, "verified",
                              {"instances": checked})


def _master_rows(k, m, twisted):
    """Groups and maps of one master-diagram block (T and D rows only).

    twisted=False: orders (4k, 4k-1); twisted=True: orders (4k-2, 4k-3).
    Returns (checks dict, ok flag).
    """
    checks = {}
    if twisted:
        hi, lo = 4 * k - 2, 4 * k - 3
        nmid = 2 * k - 1                      # odd sequence parameter
        ti_hi = t_infinity(hi, m)
        di = d_infinity(hi, m)
        top_incl = ti_hi.maps["inclusion"]    # T_hi -> Tinf_hi
        coker = ti_hi.maps["coker"]           # Tinf_hi -> Z2 x L'_{2k}
        eta_hi = eta_infinity(hi, m)
        eta_plain = eta_prime(hi, m)
        Dq = d_group(hi, m, QUASI)
        dpd = dprime_to_d(hi, m)
        jcols = []
        for j in range(Dq.group.ngens):
            amb = dpd.matrix.column(j) + [0] * di.sl_prime.target.ngens
            jcols.append(di.basis.coordinates(amb))
        bottom_incl = AbelianHom.from_columns(Dq.group, di.group, jcols)
        bottom_coker = di.sl_prime
        checks["left_square"] = eta_hi.compose(top_incl).equals(
            bottom_incl.compose(eta_plain))
        checks["mid_square"] = bottom_coker.compose(eta_hi).equals(coker)
        checks["left_ses_T"] = _short_exact(top_incl, coker)
        checks["left_ses_D"] = _short_exact(bottom_incl, bottom_coker)
        eta_hi_vert = ("eta_infinity", eta_hi)
    else:
        hi, lo = 4 * k, 4 * k - 1
        nmid = 2 * k
        ti_hi = t_infinity(hi, m)
        top_incl = ti_hi.maps["inclusion"]
        coker = ti_hi.maps["coker"]
        eta_hi = eta(hi, m)
        eta_plain = eta_prime(hi, m)
        bottom_incl = dprime_to_d(hi, m)
        # D_hi -> Z2 x L_{2k+1} -> lift through the odd-degree iso pbar
        slh = sl(hi, m)
        lq = tensor_Z2(lie_group(nmid + 1, m, QUASI).group)
        pbar = AbelianHom(lq, slh.target, IntMatrix.identity(lq.ngens),
                          check=False)
        cols = []
        for j in range(slh.source.ngens):
            x = pbar.preimage_vector(slh.matrix.column(j))
            cols.append(x)
        bottom_coker = AbelianHom.from_columns(slh.source, lq, cols)
        checks["left_square"] = eta_hi.compose(top_incl).equals(
            bottom_incl.compose(eta_plain))
        checks["mid_square"] = bottom_coker.compose(eta_hi).equals(coker)
        checks["left_ses_T"] = _short_exact(top_incl, coker)
        checks["left_ses_D"] = _short_exact(bottom_incl, bottom_coker)
        eta_hi_vert = ("eta", eta_hi)

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
    for name, h in (("eta_prime", eta_plain), eta_hi_vert,
                    ("eta_tilde", et), ("eta_low", eta(lo, m))):
        checks[f"iso_{name}"] = hom_analysis(h).isomorphism
    return checks, all(checks.values())


def _claim_master(twisted):
    def run(claim, params, max_order, labels):
        checked = {}
        hi_of = (lambda k: 4 * k - 2) if twisted else (lambda k: 4 * k)
        for m in range(1, labels + 1):
            k = 1
            while hi_of(k) <= max_order:
                if hi_of(k) >= 1:
                    checks, ok = _master_rows(k, m, twisted)
                    name = f"block(k={k},m={m})"
                    checked[name] = checks
                    if not ok:
                        return VerificationReport(claim, params, "failed",
                                                  {"instances": checked,
                                                   "offender": name})
                k += 1
        if not checked:
            return VerificationReport(claim, params, "skipped",
                                      {"reason": "no instance within budget"})
        return VerificationReport(claim, params, "verified",
                                  {"instances": checked})
    return run


_CLAIMS = {
    "thm31_i": _claim_thm31_i,
    "thm31_ii": _claim_thm31_ii,
    "thm31_iii": _claim_thm31_iii,
    "thm31_iv": _claim_thm31_iv,
    "thm31_v": _claim_thm31_v,
    "thm31_vi": _claim_thm31_vi,
    "lemma_cd": _claim_lemma_cd,
    "tau_even": _claim_tau_even,
    "tau_odd": _claim_tau_odd,
    "framing_factorization": _claim_framing,
    "master_diagram_1": _claim_master(twisted=False),
    "master_diagram_2": _claim_master(twisted=True),
}

ALL_CLAIMS = tuple(_CLAIMS)


def verify_all(max_order=2, labels=2, seed=0, jobs=1):
    """Run every claim; reports are merged deterministically by claim id."""
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as ex:
            futs = {c: ex.submit(verify, c, max_order, labels, seed)
                    for c in ALL_CLAIMS}
            reports = [futs[c].result() for c in ALL_CLAIMS]
    else:
        reports = [verify(c, max_order, labels, seed) for c in ALL_CLAIMS]
    return sorted(reports, key=lambda r: r.claim)
