"""Quadratic groups and forms, universal refinements, and the tree bridge."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (axioms_by_homs, enumerate_extension,
                     presented_noncommutative, presented_torsion_count,
                     relator_words, torsion_counts)
from quasilie.abelian import AbelianHom, FpAbelianGroup, IntMatrix
from quasilie.lie import QUASI, lie_group
from quasilie.quadratic import (AbelianQuadraticGroup, HermitianForm,
                                NotAMorphism, NotInvariant, PairElement,
                                QuadraticForm, QuasiLiePairing, SchemaError,
                                bridge_T_infinity, check_axioms,
                                form_from_json, induced_morphism,
                                inner_product_form, psi_factorization,
                                universal_commutative, universal_refinement,
                                universal_symmetric)
from quasilie.treegroups import t_group
from quasilie.trees import (UnrootedTree, canonical_rooted,
                            canonical_unrooted, inner_product, leaf, node)

Z = FpAbelianGroup(("x",))
Z2 = FpAbelianGroup(("s",), IntMatrix([[2]]))
Z4 = FpAbelianGroup(("q",), IntMatrix([[4]]))


def arf_form():
    A = FpAbelianGroup(("a",), IntMatrix([[2]]))
    return HermitianForm(A, Z2, AbelianHom.identity(Z2),
                         [[Z2.element([1])]])


def random_hermitian(rng, max_gens=3, bound=2):
    """A random small hermitian form on finite cyclic pieces."""
    na, nm = rng.randint(1, max_gens), rng.randint(1, max_gens)
    da = [rng.choice([2, 3, 4]) for _ in range(na)]
    dm = [rng.choice([2, 3, 4]) for _ in range(nm)]
    A = FpAbelianGroup(tuple(f"a{i}" for i in range(na)),
                       IntMatrix.from_columns(
                           [{i: da[i]} for i in range(na)], na))
    M = FpAbelianGroup(tuple(f"m{i}" for i in range(nm)),
                       IntMatrix.from_columns(
                           [{i: dm[i]} for i in range(nm)], nm))
    kind = rng.choice(["id", "neg", "swap"])
    if kind == "swap" and nm >= 2 and dm[0] == dm[1]:
        rows = [[0, 1] + [0] * (nm - 2), [1, 0] + [0] * (nm - 2)]
        for i in range(2, nm):
            rows.append([0] * nm)
            rows[-1][i] = 1
        inv = AbelianHom(M, M, IntMatrix(rows))
    elif kind == "neg":
        inv = AbelianHom.identity(M).scale(-1)
    else:
        inv = AbelianHom.identity(M)
    table = [[None] * na for _ in range(na)]
    for i in range(na):
        for j in range(i, na):
            vec = []
            for t in range(nm):
                g = math.gcd(dm[t], math.gcd(da[i], da[j]))
                vec.append((dm[t] // g) * rng.randint(-bound, bound))
            el = M.element(vec)
            if i == j:
                # diagonal must be *-fixed
                el = el + inv(el)
            table[i][j] = el
            table[j][i] = inv(el)
    return HermitianForm(A, M, inv, table)


class TestCheckAxioms:
    def test_z4_arf_group(self):
        Q = AbelianQuadraticGroup(
            Z4, Z2,
            AbelianHom(Z4, Z2, IntMatrix([[1]])),
            AbelianHom(Z2, Z4, IntMatrix([[2]])))
        assert check_axioms(Q).status == "verified"

    def test_group_ring_style_coinvariants(self):
        M = FpAbelianGroup(("x", "y"))
        Q = AbelianQuadraticGroup(
            Z, M,
            AbelianHom(Z, M, IntMatrix([[1], [1]])),
            AbelianHom(M, Z, IntMatrix([[1, 1]])))
        r = check_axioms(Q)
        assert r.status == "verified"
        # the induced involution is the coordinate swap
        x, y = M.gen("x"), M.gen("y")
        assert Q.star(x) == y and Q.star(y) == x

    def test_failing_instance(self):
        Q = AbelianQuadraticGroup(Z2, Z2, AbelianHom.identity(Z2),
                                  AbelianHom.identity(Z2))
        r = check_axioms(Q)
        assert r.status == "failed"
        assert not r.witness["checks"]["hph=2h"]


def cyclic_pieces(rng, n):
    """Z/d_1 + ... + Z/d_n with each d_i in {0, 2, 3, 4} (0 is a free Z)."""
    ds = [rng.choice([0, 2, 3, 4]) for _ in range(n)]
    G = FpAbelianGroup(tuple(f"g{i}" for i in range(n)),
                       IntMatrix.from_columns(
                           [{i: d} for i, d in enumerate(ds) if d], n))
    return G, ds


def random_hom(rng, src, ds, dst, dt):
    """A random map between cyclic pieces: the (i, j) entry is a small
    multiple of the least value that kills the relator of source piece j."""
    cols = []
    for d in ds:
        col = {}
        for i, e in enumerate(dt):
            if e and d:
                step = e // math.gcd(d, e)
            else:
                step = 0 if d else 1
            if step and rng.random() < 0.6:
                col[i] = step * rng.randint(-2, 2)
        cols.append(col)
    return AbelianHom.from_columns(src, dst, cols)


class TestAxiomsAgainstMaps:
    def test_element_checks_match_map_identities(self):
        # check_axioms evaluates each identity on generators through the
        # element operations; the oracle composes the maps themselves
        rng = random.Random(41)
        failing = 0
        for _ in range(400):
            E, de = cyclic_pieces(rng, rng.randint(1, 3))
            M, dm = cyclic_pieces(rng, rng.randint(1, 3))
            Q = AbelianQuadraticGroup(E, M, random_hom(rng, E, de, M, dm),
                                      random_hom(rng, M, dm, E, de))
            got = check_axioms(Q).witness["checks"]
            want = axioms_by_homs(Q)
            assert list(got) == list(want)
            assert got == want, (Q.h.matrix, Q.p.matrix)
            failing += not all(got.values())
        # both outcomes are exercised
        assert 50 < failing < 350


class TestPairElement:
    def test_unequal_to_other_types(self):
        x = PairElement(Z2.element([1]), Z4.element([1]))
        assert not x == 0 and x != 0
        assert x not in [None, 0, "x"]

    def test_equal_by_classes(self):
        # representatives that differ by relators are the same pair
        x = PairElement(Z2.element([1]), Z4.element([1]))
        y = PairElement(Z2.element([3]), Z4.element([-3]))
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
        assert x != PairElement(Z2.element([1]), Z4.element([2]))


class TestUniversalRefinement:
    def test_zero_cocycle_is_direct_sum(self):
        A = FpAbelianGroup(("a",))
        form = HermitianForm(A, Z2, AbelianHom.identity(Z2), [[Z2.zero()]])
        F = universal_refinement(form)
        x = PairElement(Z2.element([1]), A.element([2]))
        y = PairElement(Z2.element([1]), A.element([3]))
        assert F.target.add(x, y) == PairElement(Z2.element([2]),
                                                 A.element([5]))
        assert F.target.h(x) == Z2.element([2])  # m + m*

    def test_integer_square(self):
        A = FpAbelianGroup(("a",))
        form = HermitianForm(A, Z, AbelianHom.identity(Z),
                             [[Z.element([1])]])
        F = universal_refinement(form)
        a = A.gen("a")
        assert F.target.h(F.mu(a)) == Z.element([1])
        five = A.element([5])
        assert F.target.h(F.mu(five)) == Z.element([25])

    def test_noncommutative_witness(self):
        M = FpAbelianGroup(("x", "y"))
        swap = AbelianHom(M, M, IntMatrix([[0, 1], [1, 0]]))
        A = FpAbelianGroup(("a", "b"))
        table = [[M.zero(), M.element([1, 0])],
                 [M.element([0, 1]), M.zero()]]
        F = universal_refinement(HermitianForm(A, M, swap, table))
        Q = F.target
        ma, mb = Q.mu(A.gen("a")), Q.mu(A.gen("b"))
        assert Q.add(ma, mb) != Q.add(mb, ma)
        assert check_axioms(Q).status == "verified"
        assert check_axioms(F).status == "verified"

    def test_axiom_suite_on_random_forms(self):
        rng = random.Random(17)
        for _ in range(30):
            form = random_hermitian(rng)
            F = universal_refinement(form)
            assert check_axioms(F.target).status == "verified"
            assert check_axioms(F).status == "verified"


class TestInducedMorphism:
    def test_identity_unit(self):
        F = universal_refinement(arf_form())
        be, diagrams = induced_morphism(
            AbelianHom.identity(F.A), AbelianHom.identity(Z2), F, F)
        assert all(diagrams.values())
        for x in F.target.e_generators():
            assert be(x) == x

    def test_counit_onto_arf_refinement(self):
        form = arf_form()
        F = universal_refinement(form)
        Qz4 = AbelianQuadraticGroup(
            Z4, Z2,
            AbelianHom(Z4, Z2, IntMatrix([[1]])),
            AbelianHom(Z2, Z4, IntMatrix([[2]])))
        G = QuadraticForm(form, Qz4,
                          mu=lambda a: Z4.element([a.coeffs[0] ** 2]))
        assert check_axioms(G).status == "verified"
        be, diagrams = induced_morphism(
            AbelianHom.identity(form.A), AbelianHom.identity(Z2), F, G)
        assert all(diagrams.values())
        # the universal form surjects onto the Z4 refinement
        assert be(F.target.mu(form.A.gen("a"))) == Z4.element([1])
        assert be(F.target.p(Z2.element([1]))) == Z4.element([2])

    def test_incompatible_rejected(self):
        form = arf_form()
        F = universal_refinement(form)
        zero_form = HermitianForm(form.A, Z2, AbelianHom.identity(Z2),
                                  [[Z2.zero()]])
        G = universal_refinement(zero_form)
        with pytest.raises(NotAMorphism):
            induced_morphism(AbelianHom.identity(form.A),
                             AbelianHom.identity(Z2), F, G)


class TestUniversalCommutative:
    def test_arf_reproduction(self):
        F = universal_commutative(arf_form())
        assert F.target.e.structure == (0, (4,))
        a = F.A.gen("a")
        assert 2 * F.mu(a) == F.target.p(Z2.element([1]))
        assert check_axioms(F).status == "verified"
        assert check_axioms(F.target).status == "verified"

    def test_zero_form_on_Z(self):
        # coinvariants of the swap plus a 2-torsion mu part: the symbol
        # mu(a) always satisfies 2 mu(a) = lambda(a, a)
        M = FpAbelianGroup(("x", "y"))
        swap = AbelianHom(M, M, IntMatrix([[0, 1], [1, 0]]))
        A = FpAbelianGroup(("a",))
        F = universal_commutative(HermitianForm(A, M, swap, [[M.zero()]]))
        assert F.target.e.structure == (1, (2,))

    def test_p_not_always_injective(self):
        M = FpAbelianGroup(("x", "y"))
        swap = AbelianHom(M, M, IntMatrix([[0, 1], [1, 0]]))
        A = FpAbelianGroup(("a",), IntMatrix([[2]]))
        F = universal_commutative(HermitianForm(A, M, swap, [[M.zero()]]))
        assert not F.target.p.injective

    def test_axioms_on_random_forms(self):
        rng = random.Random(23)
        for _ in range(25):
            F = universal_commutative(random_hermitian(rng))
            assert check_axioms(F.target).status == "verified"
            assert check_axioms(F).status == "verified"


class TestUniversalSymmetric:
    def test_hyperbolic_plane(self):
        A = FpAbelianGroup(("e1", "e2"))
        lam = [[Z.zero(), Z.element([1])], [Z.element([1]), Z.zero()]]
        F = universal_symmetric(HermitianForm(A, Z, AbelianHom.identity(Z),
                                              lam))
        assert F.target.e.structure == (1, (2, 2))
        e1, e2 = A.gen("e1"), A.gen("e2")
        assert F.target.h(F.mu(e1)).is_zero
        assert F.target.h(F.mu(e1 + e2)) == Z.element([2])

    def test_even_rank_one_form(self):
        A = FpAbelianGroup(("a",))
        F = universal_symmetric(HermitianForm(A, Z, AbelianHom.identity(Z),
                                              [[Z.element([2])]]))
        assert F.target.e.structure == (1, (2,))
        assert 2 * F.mu(A.gen("a")) == F.target.p(Z.element([2]))

    def test_p_injective_on_symmetric_instances(self):
        rng = random.Random(31)
        done = 0
        while done < 15:
            form = random_hermitian(rng)
            if not form.is_symmetric:
                continue
            done += 1
            F = universal_symmetric(form)
            assert F.target.p.injective

    def test_nonsymmetric_rejected(self):
        M = FpAbelianGroup(("x", "y"))
        swap = AbelianHom(M, M, IntMatrix([[0, 1], [1, 0]]))
        A = FpAbelianGroup(("a",))
        form = HermitianForm(A, M, swap, [[M.element([1, 1])]])
        with pytest.raises(NotAMorphism):
            universal_symmetric(form)


@st.composite
def relator_forms(draw):
    """Forms into (Z/2)^nm whose relators have several even coefficients of
    either sign, which any lambda kills; the involution is the identity or
    swaps two generators of M."""
    na, nm = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    even = st.integers(-3, 3).map(lambda x: 2 * x)
    rels = draw(st.lists(st.lists(even, min_size=na, max_size=na),
                         max_size=3))
    A = FpAbelianGroup(tuple(f"a{i}" for i in range(na)),
                       IntMatrix.from_columns(rels, na))
    M = FpAbelianGroup(tuple(f"m{i}" for i in range(nm)),
                       IntMatrix.from_columns(
                           [{i: 2} for i in range(nm)], nm))
    swap = nm == 2 and draw(st.booleans())
    inv = (AbelianHom(M, M, IntMatrix([[0, 1], [1, 0]])) if swap
           else AbelianHom.identity(M))
    vec = st.lists(st.integers(-2, 2), min_size=nm, max_size=nm)
    table = [[None] * na for _ in range(na)]
    for i in range(na):
        for j in range(i, na):
            el = M.element(draw(vec))
            if i == j and swap:
                el = el + inv(el)      # the diagonal is *-fixed
            table[i][j], table[j][i] = el, inv(el)
    return HermitianForm(A, M, inv, table)


class TestClosedFormRelators:
    """The presented commutative refinement sums each relator's cocycle in
    closed form; walking its letters one at a time gives the same
    columns."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(relator_forms())
    def test_columns_match_the_letter_walk(self, form):
        first = form.M.relations.cols
        symmetrizers = sum(
            1 for j, col in enumerate(form.involution.matrix.sparse_columns())
            if col != {j: 1})
        want = relator_words(form, commutative=True)
        cols = universal_commutative(form).target.e.relations.sparse_columns()
        start = first + symmetrizers
        assert cols[start:start + len(want)] == want


class TestCrossModel:
    def test_presented_matches_extension_on_random_instances(self):
        rng = random.Random(99)
        done = 0
        while done < 25:
            form = random_hermitian(rng)
            if not form.symmetric_values:
                continue
            done += 1
            pres = presented_noncommutative(form)
            F = universal_refinement(form)
            els = enumerate_extension(F.target)
            st = pres.structure
            assert st[0] == 0
            order = 1
            for d in st[1]:
                order *= d
            assert order == len(els)
            for d in (2, 3, 4, 6, 12):
                assert presented_torsion_count(st, d) \
                    == torsion_counts(els, F.target, [d])[d]
            # the natural generator map kills every presented relator
            Q = F.target
            nm = form.M.ngens
            for col in pres.relations.sparse_columns():
                acc = Q.zero()
                for idx, v in col.items():
                    if idx < nm:
                        g = Q.p(form.M.element({idx: 1}))
                    else:
                        g = Q.mu(form.A.element({idx - nm: 1}))
                    acc = Q.add(acc, Q.scalar(v, g))
                assert acc == Q.zero()


class TestScalar:
    README_FORM = {"A": {"generators": ["a"], "relations": [[2]]},
                   "M": {"generators": ["s"], "relations": [[2]]},
                   "involution": [[1]], "lambda": [[[1]]]}

    @staticmethod
    def repeated(Q, n, x):
        acc = Q.zero()
        for _ in range(abs(n)):
            acc = Q.add(acc, x if n >= 0 else Q.neg(x))
        return acc

    def test_matches_repeated_addition(self):
        rng = random.Random(5)
        forms = [form_from_json(self.README_FORM)]
        forms += [random_hermitian(rng) for _ in range(4)]
        for form in forms:
            Q = universal_refinement(form).target
            els = [Q.add(Q.p(form.M.element(
                        [rng.randint(-3, 3) for _ in form.M.generators])),
                          Q.mu(form.A.element(
                        [rng.randint(-3, 3) for _ in form.A.generators])))
                   for _ in range(3)] + Q.e_generators()
            for x in els:
                for n in range(-20, 21):
                    assert Q.scalar(n, x) == self.repeated(Q, n, x), (n, x)

    def test_huge_multiple_is_fast(self):
        form = HermitianForm(Z, Z, AbelianHom.identity(Z),
                             [[Z.element([1])]])
        Q = universal_refinement(form).target
        start = time.perf_counter()
        y = Q.scalar(10**9, Q.mu(Z.element([1])))
        assert time.perf_counter() - start < 1
        # n mu(a) = (-C(n, 2) lambda(a, a), n a)
        assert y == PairElement(Z.element([-(10**9 * (10**9 - 1) // 2)]),
                                Z.element([10**9]))


class TestPsiFactorization:
    def test_label_substitution(self):
        m, n = 2, 2
        M = t_group(n, m)
        sub = {1: 2, 2: 1}

        def alpha(lab):
            return (1, lie_group(1, m, QUASI).gen(leaf(sub[lab])))

        def bracket(x, y):
            (da, ea), (db, eb) = x, y
            dst = lie_group(da + db, m, QUASI)
            acc = dst.zero()
            for i, vi in enumerate(ea.coeffs):
                if vi:
                    for j, vj in enumerate(eb.coeffs):
                        if vj:
                            c = canonical_rooted(
                                node(ea.group.generators[i],
                                     eb.group.generators[j]))
                            acc = acc + dst.element(
                                {c.tree: vi * vj * c.sign})
            return (da + db, acc)

        def pairing(x, y):
            (da, ea), (db, eb) = x, y
            dst = t_group(da + db - 2, m)
            acc = dst.zero()
            for i, vi in enumerate(ea.coeffs):
                if vi:
                    for j, vj in enumerate(eb.coeffs):
                        if vj:
                            c = inner_product(ea.group.generators[i],
                                              eb.group.generators[j])
                            acc = acc + dst.element(
                                {c.tree: vi * vj * c.sign})
            return acc

        psi = psi_factorization(n, m, QuasiLiePairing(alpha, bracket,
                                                      pairing, M))
        for t in psi.source.generators:
            def substituted(tr):
                if tr.is_leaf:
                    return leaf(sub[tr.label])
                return node(substituted(tr.left), substituted(tr.right))

            c = canonical_unrooted(sub[t.label], substituted(t.tree))
            assert psi(psi.source.gen(t)) == M.element({c.tree: c.sign})

    def test_abelianization_kills_positive_orders(self):
        free = FpAbelianGroup(("x1", "x2"))
        lam = [[3, 1], [1, -2]]

        def alpha(lab):
            return free.gen(f"x{lab}")

        def pairing(x, y):
            tot = sum(vi * vj * lam[i][j]
                      for i, vi in enumerate(x.coeffs)
                      for j, vj in enumerate(y.coeffs))
            return Z.element([tot])

        for order in (1, 2):
            target = QuasiLiePairing(alpha, lambda x, y: free.zero(),
                                     pairing, Z)
            psi = psi_factorization(order, 2, target)
            for t in psi.source.generators:
                assert psi(psi.source.gen(t)).is_zero

        target = QuasiLiePairing(alpha, lambda x, y: free.zero(), pairing, Z)
        psi0 = psi_factorization(0, 2, target)
        assert psi0(psi0.source.gen(UnrootedTree(1, leaf(2)))) \
            == Z.element([1])
        assert psi0(psi0.source.gen(UnrootedTree(1, leaf(1)))) \
            == Z.element([3])

    def test_non_invariant_pairing_rejected(self):
        free = FpAbelianGroup(("x1", "x2"))
        lam = [[0, 1], [0, 0]]  # asymmetric

        def pairing(x, y):
            tot = sum(vi * vj * lam[i][j]
                      for i, vi in enumerate(x.coeffs)
                      for j, vj in enumerate(y.coeffs))
            return Z.element([tot])

        target = QuasiLiePairing(lambda lab: free.gen(f"x{lab}"),
                                 lambda x, y: free.zero(), pairing, Z)
        with pytest.raises(NotInvariant):
            psi_factorization(1, 2, target)


class TestBridge:
    def test_small_orders(self):
        for n in (0, 1):
            for m in (1, 2):
                br = bridge_T_infinity(n, m)
                assert br.isomorphic and all(br.checks.values()), (n, m)

    def test_structures_agree_order0(self):
        br = bridge_T_infinity(0, 2)
        assert br.refinement.target.e.structure == (3, ())
        assert br.twisted.group.structure == (3, ())

    def test_inner_product_form_is_symmetric(self):
        form = inner_product_form(1, 2)
        assert form.is_symmetric


class TestFormJson:
    def test_roundtrip(self):
        data = {"A": {"generators": ["a"], "relations": [[2]]},
                "M": {"generators": ["s"], "relations": [[2]]},
                "lambda": [[[1]]]}
        form = form_from_json(data)
        F = universal_commutative(form)
        assert F.target.e.structure == (0, (4,))

    def test_schema_errors(self):
        bad = [
            {"A": {"generators": ["a"]}, "M": {"generators": ["s"]}},
            {"A": 3, "M": {"generators": ["s"]}, "lambda": []},
            {"A": {"generators": ["a"]}, "M": {"generators": ["s"]},
             "lambda": [[[1, 2]]]},
            {"A": {"generators": ["a"], "relations": [[2, 1]]},
             "M": {"generators": ["s"]}, "lambda": [[[0]]]},
        ]
        for data in bad:
            with pytest.raises(SchemaError):
                form_from_json(data)

    def test_invalid_involution(self):
        data = {"A": {"generators": ["a"]},
                "M": {"generators": ["s"]},
                "involution": [[3]],
                "lambda": [[[0]]]}
        with pytest.raises((SchemaError, NotAMorphism)):
            form_from_json(data)
