"""Quadratic groups, hermitian forms, and universal quadratic refinements.

A quadratic group is a pair of maps M_e -h-> M_ee -p-> M_e with M_ee abelian,
im(p) central and hph = 2h; it carries the involution * = hp - id on M_ee and
the anti-involution + = ph - id on M_e.  A quadratic form (lambda, mu) on an
abelian group A refines the hermitian pairing lambda when

    mu(a + a') = mu(a) + mu(a') + p(lambda(a, a'))     h(mu(a)) = lambda(a, a)

Two models are implemented for the universal refinement of a hermitian form:

  * the extension model: exact element arithmetic on pairs (m, a) with the
    cocycle law (m,a)+(m',a') = (m+m'-lambda(a,a'), a+a'), which is genuinely
    non-commutative for non-symmetric lambda;
  * presented abelian models for the commutative and symmetric quotients,
    amenable to Smith-normal-form structure computations.

The bridge at the end identifies the universal symmetric refinement of the
tree-valued inner product with the twisted tree group of the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .abelian import (AbelianHom, FpAbelianGroup, GroupElement, IntMatrix,
                      hom_analysis)
from .eta import VerificationReport
from .lie import QUASI, lie_group
from .treegroups import t_group, t_infinity
from .trees import edge_splits, inner_product, rooted_trees


class NotAMorphism(ValueError):
    """The given pair of maps is not a hermitian-form morphism."""


class NotInvariant(ValueError):
    """A pairing failed symmetry/invariance, or an edge split changed Psi."""


class SchemaError(ValueError):
    """Malformed JSON input for a hermitian form."""


class HermitianForm:
    """lambda: A x A -> (M, *), hermitian for the involution.

    The pairing is given on generator pairs and extended bilinearly; its
    consistency with the relations of A is verified at construction.
    """

    def __init__(self, A, M, involution, table):
        self.A = A
        self.M = M
        self.involution = involution
        self.table = tuple(tuple(row) for row in table)
        if involution.source is not M and not involution.source.same_presentation(M):
            raise NotAMorphism("involution must be an endomorphism of M")
        if not involution.compose(involution).equals(AbelianHom.identity(M)):
            raise NotAMorphism("involution squared is not the identity")
        g = A.ngens
        if len(self.table) != g or any(len(r) != g for r in self.table):
            raise SchemaError("lambda table must be square of size len(A gens)")
        for i in range(g):
            for j in range(g):
                if not (self.table[j][i] - involution(self.table[i][j])).is_zero:
                    raise NotAMorphism(
                        f"lambda not hermitian at generator pair ({i},{j})")
        for col in A.relations.sparse_columns():
            for l in range(g):
                acc = M.zero()
                for k, v in col.items():
                    acc = acc + v * self.table[k][l]
                if not acc.is_zero:
                    raise NotAMorphism(
                        "lambda is inconsistent with the relations of A")

    def lam(self, x, y):
        acc = self.M.zero()
        for k, xv in enumerate(x.coeffs):
            if not xv:
                continue
            for l, yv in enumerate(y.coeffs):
                if yv:
                    acc = acc + (xv * yv) * self.table[k][l]
        return acc

    def star(self, m_el):
        return self.involution(m_el)

    @property
    def trivial_involution(self):
        return self.involution.equals(AbelianHom.identity(self.M))

    @property
    def symmetric_values(self):
        g = self.A.ngens
        return all((self.table[i][j] - self.table[j][i]).is_zero
                   for i in range(g) for j in range(i + 1, g))

    @property
    def is_symmetric(self):
        return self.trivial_involution and self.symmetric_values


@dataclass(frozen=True)
class PairElement:
    """Element (m, a) of the central extension M_ee x_lambda A."""

    m: GroupElement
    a: GroupElement

    def __eq__(self, other):
        return self.m == other.m and self.a == other.a

    def __hash__(self):
        return hash((self.m, self.a))

    def __repr__(self):
        return f"({self.m!r} ; {self.a!r})"


class ExtensionQuadraticGroup:
    """The universal quadratic group in the element-pair model."""

    def __init__(self, form):
        self.form = form
        self.ee = form.M
        self.model = "extension"

    def zero(self):
        return PairElement(self.form.M.zero(), self.form.A.zero())

    def add(self, x, y):
        lam = self.form.lam(x.a, y.a)
        return PairElement(x.m + y.m - lam, x.a + y.a)

    def neg(self, x):
        return PairElement(-x.m - self.form.lam(x.a, x.a), -x.a)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def scalar(self, n, x):
        acc = self.zero()
        step = x if n >= 0 else self.neg(x)
        for _ in range(abs(int(n))):
            acc = self.add(acc, step)
        return acc

    def h(self, x):
        return x.m + self.form.star(x.m) + self.form.lam(x.a, x.a)

    def p(self, m_el):
        return PairElement(m_el, self.form.A.zero())

    def mu(self, a_el):
        return PairElement(self.form.M.zero(), a_el)

    def star(self, m_el):
        return self.form.star(m_el)

    def dagger(self, x):
        return self.sub(self.p(self.h(x)), x)

    def e_generators(self):
        gens = [self.p(self.form.M.gen(g)) for g in self.form.M.generators]
        gens += [self.mu(self.form.A.gen(g)) for g in self.form.A.generators]
        return gens

    def is_commutative_on_generators(self):
        gens = self.e_generators()
        return all(self.add(x, y) == self.add(y, x)
                   for x in gens for y in gens)


@dataclass(frozen=True)
class AbelianQuadraticGroup:
    """Quadratic group with both labels presented abelian."""

    e: FpAbelianGroup
    ee: FpAbelianGroup
    h: AbelianHom
    p: AbelianHom
    model: str = "abelian"

    def star_hom(self):
        return self.h.compose(self.p).add(
            AbelianHom.identity(self.ee).scale(-1))

    def dagger_hom(self):
        return self.p.compose(self.h).add(
            AbelianHom.identity(self.e).scale(-1))


@dataclass
class QuadraticForm:
    """(lambda, mu): A -> quadratic group, in either model."""

    form: HermitianForm
    target: object                      # Extension- or AbelianQuadraticGroup
    mu: object = field(default=None)    # callable A-element -> M_e element

    @property
    def A(self):
        return self.form.A


def check_axioms(obj, samples=6, seed=0):
    """Verify the defining identities of a quadratic group or form.

    Checked on generators (identities between homomorphisms hold everywhere
    once they hold on generators); reports rather than raises.
    """
    checks = {}
    if isinstance(obj, QuadraticForm):
        checks.update(_check_form(obj, samples, seed))
        kind = "quadratic_form"
    elif isinstance(obj, AbelianQuadraticGroup):
        ident_e = AbelianHom.identity(obj.e)
        ident_ee = AbelianHom.identity(obj.ee)
        star = obj.star_hom()
        dag = obj.dagger_hom()
        checks["hph=2h"] = obj.h.compose(obj.p).compose(obj.h).equals(
            obj.h.scale(2))
        checks["star_involution"] = star.compose(star).equals(ident_ee)
        checks["dagger_involution"] = dag.compose(dag).equals(ident_e)
        checks["star.h=h"] = star.compose(obj.h).equals(obj.h)
        checks["php=p+p.star"] = obj.p.compose(obj.h).compose(obj.p).equals(
            obj.p.add(obj.p.compose(star)))
        checks["p.star=dagger.p"] = obj.p.compose(star).equals(
            dag.compose(obj.p))
        kind = "quadratic_group"
    elif isinstance(obj, ExtensionQuadraticGroup):
        Q = obj
        ee_gens = [Q.form.M.gen(g) for g in Q.form.M.generators]
        e_gens = Q.e_generators()
        checks["hph=2h"] = all(
            Q.h(Q.p(Q.h(x))) == 2 * Q.h(x) for x in e_gens)
        checks["star_involution"] = all(
            Q.star(Q.star(m)) == m for m in ee_gens)
        checks["dagger_involution"] = all(
            Q.dagger(Q.dagger(x)) == x for x in e_gens)
        checks["star.h=h"] = all(Q.star(Q.h(x)) == Q.h(x) for x in e_gens)
        checks["php=p+p.star"] = all(
            Q.p(Q.h(Q.p(m))) == Q.add(Q.p(m), Q.p(Q.star(m)))
            for m in ee_gens)
        checks["p.star=dagger.p"] = all(
            Q.p(Q.star(m)) == Q.dagger(Q.p(m)) for m in ee_gens)
        checks["im_p_central"] = all(
            Q.add(Q.p(m), x) == Q.add(x, Q.p(m))
            for m in ee_gens for x in e_gens)
        kind = "quadratic_group"
    else:
        raise TypeError("check_axioms expects a quadratic group or form")
    status = "verified" if all(checks.values()) else "failed"
    return VerificationReport(kind, {"model": getattr(obj, "model", None)
                                     if not isinstance(obj, QuadraticForm)
                                     else obj.target.model},
                              status, {"checks": checks})


def _form_ops(F):
    """Uniform (add, neg, scalar, h, p, dagger) over both target models."""
    Q = F.target
    if isinstance(Q, ExtensionQuadraticGroup):
        return Q.add, Q.neg, Q.scalar, Q.h, Q.p, Q.dagger
    h, p = Q.h, Q.p

    def dagger(x):
        return p(h(x)) - x

    return ((lambda x, y: x + y), (lambda x: -x),
            (lambda n, x: n * x), h, p, dagger)


def _check_form(F, samples, seed):
    rng = random.Random(seed)
    add, neg, scalar, h, p, dagger = _form_ops(F)
    A = F.A
    lam = F.form.lam
    gens = [A.gen(g) for g in A.generators]
    checks = {}
    checks["hermitian"] = all(
        (lam(y, x) - F.form.star(lam(x, y))).is_zero
        for x in gens for y in gens)
    checks["h.mu=lambda_diag"] = all(
        (h(F.mu(a)) - lam(a, a)).is_zero for a in gens)
    pairs = [(a, b) for a in gens for b in gens]
    while len(pairs) < samples and gens:
        pairs.append((_rand_el(A, rng), _rand_el(A, rng)))
    # PairElements compare componentwise, GroupElements modulo relations
    checks["quadratic_law"] = all(
        F.mu(a + b) == add(add(F.mu(a), F.mu(b)), p(lam(a, b)))
        for a, b in pairs)
    checks["mu(-a)=dagger(mu(a))"] = all(
        F.mu(-a) == dagger(F.mu(a)) for a in gens)
    if _is_commutative_target(F.target):
        ok = True
        for a in gens:
            for n in range(-3, 4):
                if F.mu(n * a) != scalar(n * n, F.mu(a)):
                    ok = False
        checks["mu(na)=n^2.mu(a)"] = ok
    return checks


def _rand_el(A, rng):
    return A.element([rng.randint(-2, 2) for _ in range(A.ngens)])


def _is_commutative_target(Q):
    """Commutative quadratic group: both abelian and ph = 2 id."""
    if isinstance(Q, AbelianQuadraticGroup):
        return Q.p.compose(Q.h).equals(AbelianHom.identity(Q.e).scale(2))
    gens = Q.e_generators()
    return (Q.is_commutative_on_generators()
            and all(Q.p(Q.h(x)) == Q.scalar(2, x) for x in gens))


def universal_refinement(form):
    """The universal (non-commutative) refinement in the extension model.

    M_e = M_ee x_lambda A with p(m) = (m, 0), h(m, a) = m + m* + lambda(a,a)
    and mu(a) = (0, a); hp - id is the given involution by construction.
    """
    Q = ExtensionQuadraticGroup(form)
    return QuadraticForm(form, Q, mu=Q.mu)


def induced_morphism(alpha, beta_ee, source_form, target_form):
    """The unique morphism out of a universal extension-model refinement.

    Given a hermitian-form morphism (alpha, beta_ee) from the form underlying
    `source_form` (which must be in the extension model) to the form of
    `target_form`, returns the map beta_e(m, a) = p'(beta_ee(m)) + mu'(alpha(a))
    together with the commuting-diagram checks.
    """
    F, G = source_form, target_form
    if not isinstance(F.target, ExtensionQuadraticGroup):
        raise NotAMorphism("source must be an extension-model refinement")
    lam, lam2 = F.form.lam, G.form.lam
    for x in [F.A.gen(g) for g in F.A.generators]:
        for y in [F.A.gen(g) for g in F.A.generators]:
            if not (lam2(alpha(x), alpha(y)) - beta_ee(lam(x, y))).is_zero:
                raise NotAMorphism("lambda incompatible with (alpha, beta_ee)")
    star_ok = all(
        (beta_ee(F.form.star(F.form.M.gen(g)))
         - G.form.star(beta_ee(F.form.M.gen(g)))).is_zero
        for g in F.form.M.generators)
    if not star_ok:
        raise NotAMorphism("beta_ee does not preserve the involution")
    add2, _, _, h2, p2, _ = _form_ops(G)

    def beta_e(x):
        return add2(p2(beta_ee(x.m)), G.mu(alpha(x.a)))

    Q = F.target
    gens = Q.e_generators()
    diagrams = {
        "h'.beta_e=beta_ee.h": all(
            (h2(beta_e(x)) - beta_ee(Q.h(x))).is_zero for x in gens),
        "beta_e.p=p'.beta_ee": all(
            beta_e(Q.p(F.form.M.gen(g))) == p2(beta_ee(F.form.M.gen(g)))
            for g in F.form.M.generators),
        "beta_e.mu=mu'.alpha": all(
            beta_e(Q.mu(F.A.gen(g))) == G.mu(alpha(F.A.gen(g)))
            for g in F.A.generators),
        "homomorphism": all(
            beta_e(Q.add(x, y)) == add2(beta_e(x), beta_e(y))
            for x in gens for y in gens),
    }
    return beta_e, diagrams


def _signed_occurrences(col, ngens):
    """Relator column -> ordered list of (generator index, sign)."""
    seq = []
    for k in range(ngens):
        c = col.get(k, 0)
        s = 1 if c > 0 else -1
        for _ in range(abs(c)):
            seq.append((k, s))
    return seq


def _cocycle_word(form, seq):
    """sum_{i<j} lambda(a'_i, a'_j) over a signed occurrence sequence."""
    acc = form.M.zero()
    prefix = form.A.zero()
    for k, s in seq:
        a = form.A.gen(form.A.generators[k])
        term = a if s > 0 else -a
        acc = acc + form.lam(prefix, term)
        prefix = prefix + term
    return acc


def universal_commutative(form):
    """The universal commutative refinement, as a presented abelian group.

    Generators are the generators m_i of M and symbols mu(a_k); relators are
    the relations of M, the symmetrization m* - m, one word per relation of A
    (the sum of the mu's of its letters plus the telescoped cocycle), and
    2 mu(a_k) - lambda(a_k, a_k).
    """
    A, M = form.A, form.M
    gens = tuple(("m", g) for g in M.generators) \
        + tuple(("q", g) for g in A.generators)
    nm = M.ngens
    cols = []
    for col in M.relations.sparse_columns():
        cols.append(dict(col))
    ident = IntMatrix.identity(nm)
    for j in range(nm):
        diff = [form.involution.matrix.data[i][j] - ident.data[i][j]
                for i in range(nm)]
        col = {i: v for i, v in enumerate(diff) if v}
        if col:
            cols.append(col)
    for rel in A.relations.sparse_columns():
        seq = _signed_occurrences(rel, A.ngens)
        col = {}
        for k, _s in seq:
            col[nm + k] = col.get(nm + k, 0) + 1   # mu(-a) = mu(a)
        w = _cocycle_word(form, seq)
        for i, v in enumerate(w.coeffs):
            if v:
                col[i] = col.get(i, 0) + v
        if col:
            cols.append(col)
    for k, gk in enumerate(A.generators):
        a = A.gen(gk)
        col = {nm + k: 2}
        diag = form.lam(a, a)
        for i, v in enumerate(diag.coeffs):
            if v:
                col[i] = col.get(i, 0) - v
        cols.append(col)
    e_group = FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                             if cols else None)

    h_cols = []
    for j in range(nm):
        m_el = M.element({j: 1})
        h_cols.append(list((m_el + form.star(m_el)).coeffs))
    for gk in A.generators:
        a = A.gen(gk)
        h_cols.append(list(form.lam(a, a).coeffs))
    h = AbelianHom.from_columns(e_group, M, h_cols)
    p = AbelianHom.from_columns(M, e_group, [{j: 1} for j in range(nm)])
    Q = AbelianQuadraticGroup(e_group, M, h, p, model="presented")

    def mu(a_el):
        coeffs = a_el.coeffs
        vec = {}
        for k, c in enumerate(coeffs):
            if c:
                vec[nm + k] = vec.get(nm + k, 0) + c * c
        acc = M.zero()
        for k in range(A.ngens):
            for l in range(k + 1, A.ngens):
                if coeffs[k] and coeffs[l]:
                    acc = acc + (coeffs[k] * coeffs[l]) * form.table[k][l]
        for i, v in enumerate(acc.coeffs):
            if v:
                vec[i] = vec.get(i, 0) + v
        return e_group.element(vec)

    return QuadraticForm(form, Q, mu=mu)


def universal_symmetric(form):
    """Specialization of the commutative refinement to symmetric forms.

    Requires a symmetric pairing with trivial involution and verifies that
    p stays injective (it does in the symmetric case).
    """
    if not form.is_symmetric:
        raise NotAMorphism("universal_symmetric needs a symmetric form with "
                           "trivial involution")
    F = universal_commutative(form)
    if not hom_analysis(F.target.p).injective:
        raise NotInvariant("p failed to be injective on a symmetric form")
    return F


def presented_noncommutative(form):
    """Presented model of the universal refinement, for symmetric-value forms.

    Only implemented where the extension group is abelian (symmetric lambda);
    the section of a negative letter is s(-a_k) = -mu(a_k) + lambda(a_k, a_k).
    """
    if not form.symmetric_values:
        raise NotAMorphism("presented model requires symmetric lambda "
                           "(abelian extension)")
    A, M = form.A, form.M
    gens = tuple(("m", g) for g in M.generators) \
        + tuple(("q", g) for g in A.generators)
    nm = M.ngens
    cols = [dict(c) for c in M.relations.sparse_columns()]
    for rel in A.relations.sparse_columns():
        seq = _signed_occurrences(rel, A.ngens)
        col = {}
        w = _cocycle_word(form, seq)
        for k, s in seq:
            col[nm + k] = col.get(nm + k, 0) + s
            if s < 0:
                a = A.gen(A.generators[k])
                w = w + form.lam(a, a)
        for i, v in enumerate(w.coeffs):
            if v:
                col[i] = col.get(i, 0) + v
        if col:
            cols.append(col)
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                          if cols else None)


def enumerate_extension(Q, limit=20000):
    """All elements of a finite extension-model group by BFS closure."""
    A, M = Q.form.A, Q.form.M

    def norm(x):
        return (M.normal_form(x.m.coeffs), A.normal_form(x.a.coeffs))

    gens = Q.e_generators()
    gens += [Q.neg(g) for g in gens]
    seen = {norm(Q.zero()): Q.zero()}
    frontier = [Q.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = Q.add(x, g)
                k = norm(y)
                if k not in seen:
                    if len(seen) >= limit:
                        raise ValueError("extension group too large to "
                                         "enumerate")
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return list(seen.values())


def torsion_counts(elements, Q, divisors):
    """Count solutions of d*x = 0 in an enumerated extension group."""
    out = {}
    for d in divisors:
        out[d] = sum(1 for x in elements if Q.scalar(d, x) == Q.zero())
    return out


def presented_torsion_count(structure, d):
    """Number of d-torsion elements of Z^r + sum Z_{di} (finite case r=0)."""
    from math import gcd
    r, tors = structure
    if r:
        raise ValueError("infinite group")
    n = 1
    for t in tors:
        n *= gcd(d, t)
    return n


# ---------------------------------------------------------------------------
# the universal pairing on trees and the bridge to the twisted groups


@dataclass
class QuasiLiePairing:
    """Target data for factorizing a pairing through the tree groups.

    alpha(label) evaluates a generator; bracket is the target's quasi-Lie
    product; pairing lands in the abelian group M.  The pairing is expected
    to be bilinear, symmetric and invariant; this is sampled before use.
    """

    alpha: object
    bracket: object
    pairing: object
    M: FpAbelianGroup


def psi_factorization(order, labels, target, check_samples=True):
    """The unique linear map Psi with Psi(<X, Y>) = pairing(X, Y).

    Evaluates every generator of the order-`order` tree group by splitting at
    an edge; every edge of every generator is tried and must give the same
    value (the invariance argument made exhaustive), and the AS/IHX relators
    must map to zero.  Returns the map as a homomorphism.
    """
    group = t_group(order, labels).group

    def evaluate(tree):
        if tree.is_leaf:
            return target.alpha(tree.label)
        return target.bracket(evaluate(tree.left), evaluate(tree.right))

    if check_samples:
        pool = [target.alpha(i) for i in range(1, labels + 1)]
        pool += [evaluate(t) for t in rooted_trees(min(order, 1), labels)]
        for x in pool:
            for y in pool:
                if not (target.pairing(x, y) - target.pairing(y, x)).is_zero:
                    raise NotInvariant("pairing is not symmetric")
        for x in pool:
            for y in pool:
                for z in pool:
                    lhs = target.pairing(target.bracket(x, y), z)
                    rhs = target.pairing(x, target.bracket(y, z))
                    if not (lhs - rhs).is_zero:
                        raise NotInvariant("pairing is not invariant")

    cols = []
    for t in group.generators:
        value = None
        for left, right in edge_splits(t.label, t.tree):
            v = target.pairing(evaluate(left), evaluate(right))
            if value is None:
                value = v
            elif not (v - value).is_zero:
                raise NotInvariant(
                    f"edge choice changes the value of Psi({t})")
        cols.append(list(value.coeffs))
    return AbelianHom.from_columns(group, target.M, cols)


def inner_product_form(n, m):
    """The tree-valued inner product on L'_{n+1} as a symmetric form."""
    A = lie_group(n + 1, m, QUASI).group
    M = t_group(2 * n, m).group
    table = []
    for a in A.generators:
        row = []
        for b in A.generators:
            c = inner_product(a, b)
            row.append(M.element({c.tree: c.sign}))
        table.append(row)
    return HermitianForm(A, M, AbelianHom.identity(M), table)


@dataclass
class BridgeResult:
    isomorphic: bool
    phi: AbelianHom
    refinement: QuadraticForm
    twisted: object
    checks: dict


def bridge_T_infinity(n, m):
    """Identify the universal symmetric refinement of the inner product on
    L'_{n+1} with the twisted group of order 2n.

    The map is the identity on trees and sends mu(J) to J^inf; it must be an
    isomorphism commuting with both structure maps h and p, where on the
    twisted side p(t) = t, h(t) = 2t and h(J^inf) = <J, J>.
    """
    form = inner_product_form(n, m)
    F = universal_symmetric(form)
    ti = t_infinity(2 * n, m)
    tg = t_group(2 * n, m).group

    h_cols = []
    for g in ti.group.generators:
        if isinstance(g, tuple) and g[0] == "inf":
            c = inner_product(g[1], g[1])
            h_cols.append({tg.index[c.tree]: c.sign})
        else:
            h_cols.append({tg.index[g]: 2})
    h_inf = AbelianHom.from_columns(ti.group, tg, h_cols)
    p_inf = ti.maps["inclusion"]

    phi_cols = []
    for kind, key in F.target.e.generators:
        if kind == "m":
            phi_cols.append({ti.group.index[key]: 1})
        else:
            phi_cols.append({ti.group.index[("inf", key)]: 1})
    phi = AbelianHom.from_columns(F.target.e, ti.group, phi_cols)

    checks = {
        "phi_isomorphism": hom_analysis(phi).isomorphism,
        "h_compatible": h_inf.compose(phi).equals(F.target.h),
        "p_compatible": phi.compose(F.target.p).equals(p_inf),
        "h(Jinf)=<J,J>": all(
            (h_inf(ti.group.gen(("inf", j)))
             - tg.element(dict([(lambda c: (tg.index[c.tree], c.sign))
                                (inner_product(j, j))]))).is_zero
            for j in rooted_trees(n, m)),
    }
    return BridgeResult(checks["phi_isomorphism"] and all(checks.values()),
                        phi, F, ti, checks)


# ---------------------------------------------------------------------------
# JSON input for hermitian forms


def presentation_from_json(data, what):
    if not isinstance(data, dict) or "generators" not in data:
        raise SchemaError(f"{what}: expected an object with 'generators'")
    gens = tuple(data["generators"])
    if len(set(gens)) != len(gens):
        raise SchemaError(f"{what}: duplicate generator names")
    rels = data.get("relations", [])
    cols = []
    for r in rels:
        if len(r) != len(gens):
            raise SchemaError(f"{what}: relation length != generator count")
        cols.append([int(x) for x in r])
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens))
                          if cols else None)


def form_from_json(data):
    """Parse {"A": .., "M": .., "involution": .., "lambda": ..}.

    The involution is a matrix on the generators of M (list of rows, omitted
    for the identity); lambda is a square table of M-coefficient vectors.
    """
    if not isinstance(data, dict):
        raise SchemaError("form input must be a JSON object")
    for key in ("A", "M", "lambda"):
        if key not in data:
            raise SchemaError(f"missing key: {key}")
    A = presentation_from_json(data["A"], "A")
    M = presentation_from_json(data["M"], "M")
    inv = data.get("involution")
    if inv is None:
        invh = AbelianHom.identity(M)
    else:
        if len(inv) != M.ngens or any(len(r) != M.ngens for r in inv):
            raise SchemaError("involution matrix must be square on M")
        try:
            invh = AbelianHom(M, M, IntMatrix(inv))
        except Exception as e:
            raise SchemaError(f"involution is not a valid endomorphism: {e}")
    table = data["lambda"]
    if len(table) != A.ngens or any(len(r) != A.ngens for r in table):
        raise SchemaError("lambda table must be square on A")
    rows = []
    for r in table:
        row = []
        for v in r:
            if not isinstance(v, (list, tuple)) or len(v) != M.ngens:
                raise SchemaError("lambda entries must be M-coefficient "
                                  "vectors")
            row.append(M.element([int(x) for x in v]))
        rows.append(row)
    try:
        return HermitianForm(A, M, invh, rows)
    except (NotAMorphism, SchemaError):
        raise
    except Exception as e:
        raise SchemaError(f"invalid form: {e}")
