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

Both models answer the same element operations (zero, add, neg, scalar, h,
p, star, dagger, e_generators, is_commutative_on_generators), so the axiom
check, the form checks and induced morphisms are written once against them.

The bridge at the end identifies the universal symmetric refinement of the
tree-valued inner product with the twisted tree group of the same order.
"""

from collections import namedtuple
from math import comb

from .abelian import AbelianHom, FpAbelianGroup, IntMatrix
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
        if not (involution.source.same_presentation(M)
                and involution.target.same_presentation(M)):
            raise NotAMorphism("involution must be an endomorphism of M")
        if not involution.compose(involution).equals(AbelianHom.identity(M)):
            raise NotAMorphism("involution squared is not the identity")
        g = A.ngens
        if len(self.table) != g or any(len(r) != g for r in self.table):
            raise SchemaError("lambda table must be square of size len(A gens)")
        # as the involution squares to the identity, the pair (i, j) holds
        # exactly when (j, i) does, and the first pair to fail has i <= j
        for i in range(g):
            for j in range(i, g):
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
        ys = y.vector.items()
        for k, xv in x.vector.items():
            for l, yv in ys:
                acc = acc + (xv * yv) * self.table[k][l]
        return acc

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
        """A trivial involution: the hermitian check at construction then
        makes the values symmetric."""
        return self.trivial_involution


class PairElement(namedtuple("PairElement", "m a")):
    """Element (m, a) of the central extension M_ee x_lambda A; equal when
    both parts are."""

    __slots__ = ()

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

    def scalar(self, n, x):
        """n x by double-and-add; multiples of one element commute."""
        acc = self.zero()
        step = x if n >= 0 else self.neg(x)
        n = abs(int(n))
        while n:
            if n & 1:
                acc = self.add(acc, step)
            step = self.add(step, step)
            n >>= 1
        return acc

    def h(self, x):
        return x.m + self.form.involution(x.m) + self.form.lam(x.a, x.a)

    def p(self, m_el):
        return PairElement(m_el, self.form.A.zero())

    def mu(self, a_el):
        return PairElement(self.form.M.zero(), a_el)

    def star(self, m_el):
        return self.form.involution(m_el)

    def dagger(self, x):
        return self.add(self.p(self.h(x)), self.neg(x))

    def e_generators(self):
        gens = [self.p(self.form.M.gen(g)) for g in self.form.M.generators]
        gens += [self.mu(self.form.A.gen(g)) for g in self.form.A.generators]
        return gens

    def is_commutative_on_generators(self):
        gens = self.e_generators()
        return all(self.add(x, y) == self.add(y, x)
                   for x in gens for y in gens)


class AbelianQuadraticGroup:
    """Quadratic group with both labels presented abelian; h and p are maps,
    and the element operations are those of M_e."""

    def __init__(self, e, ee, h, p, model="abelian"):
        self.e = e
        self.ee = ee
        self.h = h
        self.p = p
        self.model = model

    def zero(self):
        return self.e.zero()

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scalar(self, n, x):
        return n * x

    def star(self, m_el):
        return self.h(self.p(m_el)) - m_el

    def dagger(self, x):
        return self.p(self.h(x)) - x

    def e_generators(self):
        return [self.e.gen(g) for g in self.e.generators]

    def is_commutative_on_generators(self):
        return True


class QuadraticForm:
    """(lambda, mu): A -> quadratic group, in either model."""

    def __init__(self, form, target, mu):
        self.form = form      # a HermitianForm
        self.target = target  # Extension- or AbelianQuadraticGroup
        self.mu = mu          # callable A-element -> M_e element

    @property
    def A(self):
        return self.form.A


# the quadratic law is checked on every pair of generators, topped up with
# random pairs (seed 0) to at least this many
_SAMPLE_PAIRS = 6


def check_axioms(obj):
    """Verify the defining identities of a quadratic group or form.

    Checked on generators (identities between homomorphisms hold everywhere
    once they hold on generators); reports rather than raises.
    """
    from .eta import VerificationReport
    if isinstance(obj, QuadraticForm):
        kind, Q, checks = "quadratic_form", obj.target, _check_form(obj)
    elif isinstance(obj, (ExtensionQuadraticGroup, AbelianQuadraticGroup)):
        kind, Q, checks = "quadratic_group", obj, _check_group(obj)
    else:
        raise TypeError("check_axioms expects a quadratic group or form")
    status = "verified" if all(checks.values()) else "failed"
    return VerificationReport(kind, {"model": Q.model}, status,
                              {"checks": checks})


def _check_group(Q):
    ee_gens = [Q.ee.gen(g) for g in Q.ee.generators]
    e_gens = Q.e_generators()
    h_gens = [Q.h(x) for x in e_gens]
    checks = {
        "hph=2h": all(Q.h(Q.p(y)) == 2 * y for y in h_gens),
        "star_involution": all(Q.star(Q.star(m)) == m for m in ee_gens),
        "dagger_involution": all(Q.dagger(Q.dagger(x)) == x for x in e_gens),
        "star.h=h": all(Q.star(y) == y for y in h_gens),
        "php=p+p.star": all(
            Q.p(Q.h(Q.p(m))) == Q.add(Q.p(m), Q.p(Q.star(m)))
            for m in ee_gens),
        "p.star=dagger.p": all(
            Q.p(Q.star(m)) == Q.dagger(Q.p(m)) for m in ee_gens),
    }
    if isinstance(Q, ExtensionQuadraticGroup):
        # the presented model is abelian, so im(p) is central there
        checks["im_p_central"] = all(
            Q.add(Q.p(m), x) == Q.add(x, Q.p(m))
            for m in ee_gens for x in e_gens)
    return checks


def _check_form(F):
    import random
    Q, A, lam = F.target, F.A, F.form.lam
    gens = [A.gen(g) for g in A.generators]
    pairs = [(a, b) for a in gens for b in gens]
    rng = random.Random(0)
    while len(pairs) < _SAMPLE_PAIRS and gens:
        pairs.append((_rand_el(A, rng), _rand_el(A, rng)))
    checks = {
        "hermitian": all((lam(y, x) - F.form.involution(lam(x, y))).is_zero
                         for x in gens for y in gens),
        "h.mu=lambda_diag": all((Q.h(F.mu(a)) - lam(a, a)).is_zero
                                for a in gens),
        # PairElements compare componentwise, GroupElements modulo relations
        "quadratic_law": all(
            F.mu(a + b) == Q.add(Q.add(F.mu(a), F.mu(b)), Q.p(lam(a, b)))
            for a, b in pairs),
        "mu(-a)=dagger(mu(a))": all(F.mu(-a) == Q.dagger(F.mu(a))
                                    for a in gens),
    }
    if _is_commutative_target(Q):
        checks["mu(na)=n^2.mu(a)"] = all(
            F.mu(n * a) == Q.scalar(n * n, F.mu(a))
            for a in gens for n in range(-3, 4))
    return checks


def _rand_el(A, rng):
    return A.element([rng.randint(-2, 2) for _ in range(A.ngens)])


def _is_commutative_target(Q):
    """Commutative quadratic group: both abelian and ph = 2 id."""
    return (Q.is_commutative_on_generators()
            and all(Q.p(Q.h(x)) == Q.scalar(2, x) for x in Q.e_generators()))


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
        (beta_ee(F.form.involution(F.form.M.gen(g)))
         - G.form.involution(beta_ee(F.form.M.gen(g)))).is_zero
        for g in F.form.M.generators)
    if not star_ok:
        raise NotAMorphism("beta_ee does not preserve the involution")
    Q, Q2 = F.target, G.target

    def beta_e(x):
        return Q2.add(Q2.p(beta_ee(x.m)), G.mu(alpha(x.a)))

    gens = Q.e_generators()
    diagrams = {
        "h'.beta_e=beta_ee.h": all(
            (Q2.h(beta_e(x)) - beta_ee(Q.h(x))).is_zero for x in gens),
        "beta_e.p=p'.beta_ee": all(
            beta_e(Q.p(F.form.M.gen(g))) == Q2.p(beta_ee(F.form.M.gen(g)))
            for g in F.form.M.generators),
        "beta_e.mu=mu'.alpha": all(
            beta_e(Q.mu(F.A.gen(g))) == G.mu(alpha(F.A.gen(g)))
            for g in F.A.generators),
        "homomorphism": all(
            beta_e(Q.add(x, y)) == Q2.add(beta_e(x), beta_e(y))
            for x in gens for y in gens),
    }
    return beta_e, diagrams


def _cross_terms(form, coeffs):
    """sum_{k<l} c_k c_l lambda(a_k, a_l) over (k, c_k) pairs, k increasing.

    The cocycle of the word that spells a relator, |c_k| letters a_k (-a_k
    where c_k < 0) for k increasing, is this sum plus C(|c_k|, 2)
    lambda(a_k, a_k) for each k: its cost does not grow with the c_k.
    """
    terms = list(coeffs)
    acc = form.M.zero()
    for i, (k, c) in enumerate(terms):
        for l, d in terms[i + 1:]:
            acc = acc + (c * d) * form.table[k][l]
    return acc


def _relator_words(form):
    """One relator column per nonzero relation of A, in order: the mu's of
    its letters (mu(-a) = mu(a) in the commutative model) plus the
    telescoped cocycle."""
    nm = form.M.ngens
    cols = []
    for rel in form.A.relations.sparse_columns():
        w = _cross_terms(form, rel.items())
        for k, c in rel.items():
            w = w + comb(abs(c), 2) * form.table[k][k]
        col = {nm + k: abs(c) for k, c in rel.items()}
        col.update(w.vector)
        if col:
            cols.append(col)
    return cols


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
    cols = M.relations.sparse_columns()
    for j, col in enumerate(form.involution.matrix.sparse_columns()):
        col[j] = col.get(j, 0) - 1       # m* - m
        col = {i: v for i, v in col.items() if v}
        if col:
            cols.append(col)
    cols += _relator_words(form)
    lam_diag = [form.lam(a, a).vector for a in map(A.gen, A.generators)]
    cols += [{nm + k: 2} | {i: -v for i, v in d.items()}
             for k, d in enumerate(lam_diag)]
    e_group = FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))

    h_cols = [(m + form.involution(m)).vector
              for m in map(M.gen, M.generators)] + lam_diag
    h = AbelianHom.from_columns(e_group, M, h_cols)
    p = AbelianHom.from_columns(M, e_group, [{j: 1} for j in range(nm)])
    Q = AbelianQuadraticGroup(e_group, M, h, p, model="presented")

    def mu(a_el):
        a_vec = a_el.vector
        vec = {nm + k: c * c for k, c in a_vec.items()}
        vec.update(_cross_terms(form, a_vec.items()).vector)
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
    if not F.target.p.injective:
        raise NotInvariant("p failed to be injective on a symmetric form")
    return F


# ---------------------------------------------------------------------------
# the universal pairing on trees and the bridge to the twisted groups


class QuasiLiePairing:
    """Target data for factorizing a pairing through the tree groups.

    alpha(label) evaluates a generator; bracket is the target's quasi-Lie
    product; pairing lands in the abelian group M.  The pairing is expected
    to be bilinear, symmetric and invariant; this is sampled before use.
    """

    def __init__(self, alpha, bracket, pairing, M):
        self.alpha = alpha
        self.bracket = bracket
        self.pairing = pairing
        self.M = M


def psi_factorization(order, labels, target):
    """The unique linear map Psi with Psi(<X, Y>) = pairing(X, Y).

    Evaluates every generator of the order-`order` tree group by splitting at
    an edge; every edge of every generator is tried and must give the same
    value (the invariance argument made exhaustive), and the AS/IHX relators
    must map to zero.  The pairing is first checked to be symmetric and
    invariant on the generators and their brackets.  Returns the map as a
    homomorphism.
    """
    group = t_group(order, labels)

    def evaluate(tree):
        if tree.is_leaf:
            return target.alpha(tree.label)
        return target.bracket(evaluate(tree.left), evaluate(tree.right))

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
        cols.append(value.vector)
    return AbelianHom.from_columns(group, target.M, cols)


def inner_product_form(n, m):
    """The tree-valued inner product on L'_{n+1} as a symmetric form."""
    A = lie_group(n + 1, m, QUASI)
    M = t_group(2 * n, m)
    table = []
    for a in A.generators:
        row = []
        for b in A.generators:
            c = inner_product(a, b)
            row.append(M.element({c.tree: c.sign}))
        table.append(row)
    return HermitianForm(A, M, AbelianHom.identity(M), table)


class BridgeResult:
    """The map of `bridge_T_infinity`, its checks, and whether it is an
    isomorphism that passes them."""

    def __init__(self, isomorphic, phi, refinement, twisted, checks):
        self.isomorphic = isomorphic
        self.phi = phi
        self.refinement = refinement  # the universal symmetric QuadraticForm
        self.twisted = twisted        # the TreeGroup of order 2n
        self.checks = checks


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
    tg = t_group(2 * n, m)

    h_cols = []
    for g in ti.group.generators:
        if isinstance(g, tuple) and g[0] == "inf":
            c = inner_product(g[1], g[1])
            h_cols.append({tg.index[c.tree]: c.sign})
        else:
            h_cols.append({tg.index[g]: 2})
    h_inf = AbelianHom.from_columns(ti.group, tg, h_cols)
    p_inf = ti.maps["inclusion"]

    phi_cols = [{ti.group.index[key if kind == "m" else ("inf", key)]: 1}
                for kind, key in F.target.e.generators]
    phi = AbelianHom.from_columns(F.target.e, ti.group, phi_cols)

    checks = {
        "phi_isomorphism": phi.isomorphism,
        "h_compatible": h_inf.compose(phi).equals(F.target.h),
        "p_compatible": phi.compose(F.target.p).equals(p_inf),
        "h(Jinf)=<J,J>": all(
            (h_inf(ti.group.gen(("inf", j)))
             - tg.element({(c := inner_product(j, j)).tree: c.sign})).is_zero
            for j in rooted_trees(n, m)),
    }
    return BridgeResult(all(checks.values()), phi, F, ti, checks)


# ---------------------------------------------------------------------------
# JSON input for hermitian forms


def _int_vector(v, n, what):
    """v itself, if it is a JSON list of n integers."""
    if not (isinstance(v, list) and len(v) == n
            and all(type(x) is int for x in v)):
        raise SchemaError(f"{what} must be lists of {n} integers")
    return v


def presentation_from_json(data, what):
    if not isinstance(data, dict) or "generators" not in data:
        raise SchemaError(f"{what}: expected an object with 'generators'")
    gens = data["generators"]
    if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
        raise SchemaError(f"{what}: generators must be a list of strings")
    if len(set(gens)) != len(gens):
        raise SchemaError(f"{what}: duplicate generator names")
    rels = data.get("relations", [])
    if not isinstance(rels, list):
        raise SchemaError(f"{what}: relations must be a list")
    cols = [_int_vector(r, len(gens), f"{what}: relations") for r in rels]
    return FpAbelianGroup(gens, IntMatrix.from_columns(cols, len(gens)))


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
        if not isinstance(inv, list) or len(inv) != M.ngens:
            raise SchemaError("involution matrix must be square on M")
        for r in inv:
            _int_vector(r, M.ngens, "involution rows")
        try:
            invh = AbelianHom(M, M, IntMatrix(inv))
        except Exception as e:
            raise SchemaError(f"involution is not a valid endomorphism: {e}")
    table = data["lambda"]
    if not (isinstance(table, list) and len(table) == A.ngens and all(
            isinstance(r, list) and len(r) == A.ngens for r in table)):
        raise SchemaError("lambda table must be square on A")
    rows = [[M.element(_int_vector(v, M.ngens, "lambda entries")) for v in r]
            for r in table]
    try:
        return HermitianForm(A, M, invh, rows)
    except (NotAMorphism, SchemaError):
        raise
    except Exception as e:
        raise SchemaError(f"invalid form: {e}")
