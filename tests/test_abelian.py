"""Exact linear algebra layer: normal forms, presented groups, homs."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasilie.abelian import (AbelianHom, FpAbelianGroup, HomValidityError,
                              IntMatrix, Lattice, NotDivisible,
                              TorsionPresent, direct_sum, exact_at,
                              hom_analysis, pullback, relation_divisors, snf,
                              solve_division, tensor_Z2)

Z = FpAbelianGroup(("x",))
Z2 = FpAbelianGroup(("q",), IntMatrix([[2]]))


def diag(S):
    return [S.data[i][i] for i in range(min(S.rows, S.cols))]


class TestSnf:
    def test_hand_example_2_3(self):
        S, U, V = snf(IntMatrix([[2, 0], [0, 3]]))
        assert diag(S) == [1, 6]
        assert U.mul(IntMatrix([[2, 0], [0, 3]])).mul(V) == S
        assert abs(U.det()) == 1 and abs(V.det()) == 1

    def test_zero_matrix(self):
        S, U, V = snf(IntMatrix.zeros(3, 2))
        assert S == IntMatrix.zeros(3, 2)
        assert U == IntMatrix.identity(3)
        assert V == IntMatrix.identity(2)

    def test_hand_example_2_4(self):
        S, U, V = snf(IntMatrix([[2, 4], [6, 8]]))
        assert diag(S) == [2, 4]
        assert U.mul(IntMatrix([[2, 4], [6, 8]])).mul(V) == S

    def test_random_reconstruction_and_chain(self):
        rng = random.Random(0)
        for _ in range(250):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = IntMatrix([[rng.randint(-6, 6) for _ in range(c)]
                           for _ in range(r)])
            S, U, V = snf(m)
            assert U.mul(m).mul(V) == S
            assert abs(U.det()) == 1 and abs(V.det()) == 1
            d = diag(S)
            for a, b in zip(d, d[1:]):
                assert a >= 0 and b >= 0
                if a == 0:
                    assert b == 0
                elif b:
                    assert b % a == 0
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert S.data[i][j] == 0

    def test_sparse_engine_agrees_with_snf(self):
        rng = random.Random(1)
        for _ in range(300):
            r, c = rng.randint(1, 6), rng.randint(0, 7)
            density = rng.choice([0.3, 0.6, 1.0])
            m = IntMatrix([[rng.randint(-9, 9) if rng.random() < density
                            else 0 for _ in range(c)]
                           for _ in range(r)], cols=c)
            S, _, _ = snf(m)
            d = [x for x in diag(S) if x not in (0, 1)]
            rank = sum(1 for x in diag(S) if x)
            free, tors = relation_divisors(r, m.sparse_columns())
            assert free == r - rank
            assert list(tors) == sorted(d)


class TestStructure:
    def test_direct_reads(self):
        G = FpAbelianGroup("abc", IntMatrix.from_columns([[2, 0, 0]], 3))
        assert G.structure == (2, (2,))
        assert FpAbelianGroup(("a",)).structure == (1, ())
        assert FpAbelianGroup(("q",), IntMatrix([[4]])).structure == (0, (4,))

    def test_generator_permutation_invariance(self):
        rng = random.Random(2)
        for _ in range(40):
            g = rng.randint(1, 4)
            cols = [[rng.randint(-3, 3) for _ in range(g)]
                    for _ in range(rng.randint(0, 4))]
            G = FpAbelianGroup(tuple(range(g)),
                               IntMatrix.from_columns(cols, g))
            perm = list(range(g))
            rng.shuffle(perm)
            pcols = [[c[perm[i]] for i in range(g)] for c in cols]
            H = FpAbelianGroup(tuple(range(g)),
                               IntMatrix.from_columns(pcols, g))
            assert G.structure == H.structure

    def test_relator_augmentation_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            g = rng.randint(1, 4)
            cols = [[rng.randint(-3, 3) for _ in range(g)]
                    for _ in range(rng.randint(1, 4))]
            G = FpAbelianGroup(tuple(range(g)),
                               IntMatrix.from_columns(cols, g))
            ks = [rng.randint(-2, 2) for _ in cols]
            combo = [sum(k * c[i] for k, c in zip(ks, cols))
                     for i in range(g)]
            H = G.with_extra_relations([combo])
            assert G.structure == H.structure


class TestHomAnalysis:
    def test_identity(self):
        G = FpAbelianGroup(("x", "y"))
        a = hom_analysis(AbelianHom.identity(G))
        assert a.isomorphism and a.kernel.is_trivial and a.cokernel.is_trivial

    def test_times_two(self):
        a = hom_analysis(AbelianHom(Z, Z, IntMatrix([[2]])))
        assert a.injective and not a.surjective
        assert a.cokernel.structure == (0, (2,))

    def test_projection_with_torsion_kernel(self):
        src = FpAbelianGroup(("a", "b"), IntMatrix.from_columns([[0, 2]], 2))
        a = hom_analysis(AbelianHom.from_columns(src, Z, [[1], [0]]))
        assert a.surjective
        assert a.kernel.structure == (0, (2,))
        # inclusion composed with the hom is zero
        h = AbelianHom.from_columns(src, Z, [[1], [0]])
        assert h.compose(a.kernel_inclusion).equals(
            AbelianHom.zero(a.kernel, Z))

    def test_invalid_hom_rejected(self):
        with pytest.raises(HomValidityError):
            AbelianHom(Z2, Z, IntMatrix([[1]]))

    def test_rank_additivity_torsion_free_source(self):
        rng = random.Random(4)
        for _ in range(60):
            s, t = rng.randint(1, 4), rng.randint(1, 4)
            S = FpAbelianGroup(tuple(range(s)))
            T = FpAbelianGroup(tuple(range(t)))
            h = AbelianHom(S, T, IntMatrix([[rng.randint(-3, 3)
                                             for _ in range(s)]
                                            for _ in range(t)]))
            a = hom_analysis(h)
            assert a.kernel.free_rank + a.image.free_rank == s


def brute_force_exact(dims, fmat, gmat):
    """Exhaustive image/kernel comparison on a finite direct sum."""
    src_dims, mid_dims, dst_dims = dims

    def elements(ds):
        return list(itertools.product(*(range(d) for d in ds)))

    def apply(mat, x, ds):
        return tuple(sum(mat[i][j] * x[j] for j in range(len(x))) % ds[i]
                     for i in range(len(ds)))

    image = {apply(fmat, x, mid_dims) for x in elements(src_dims)}
    kernel = {x for x in elements(mid_dims)
              if all(v == 0 for v in apply(gmat, x, dst_dims))}
    return image == kernel


class TestExactAt:
    def test_zero_then_iso(self):
        zero = FpAbelianGroup(())
        assert exact_at(AbelianHom.zero(zero, Z), AbelianHom.identity(Z))

    def test_times2_mod2(self):
        f = AbelianHom(Z, Z, IntMatrix([[2]]))
        g = AbelianHom(Z, Z2, IntMatrix([[1]]))
        assert exact_at(f, g)

    def test_zero_zero_not_exact(self):
        assert not exact_at(AbelianHom.zero(Z, Z), AbelianHom.zero(Z, Z))

    def test_against_brute_force_oracle(self):
        rng = random.Random(5)
        trials = 0
        while trials < 50:
            sd = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3))]
            md = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3))]
            dd = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3))]
            S = FpAbelianGroup(tuple(range(len(sd))), IntMatrix.from_columns(
                [{i: d} for i, d in enumerate(sd)], len(sd)))
            M = FpAbelianGroup(tuple(range(len(md))), IntMatrix.from_columns(
                [{i: d} for i, d in enumerate(md)], len(md)))
            D = FpAbelianGroup(tuple(range(len(dd))), IntMatrix.from_columns(
                [{i: d} for i, d in enumerate(dd)], len(dd)))
            fm = [[rng.randint(-3, 3) for _ in sd] for _ in md]
            gm = [[rng.randint(-3, 3) for _ in md] for _ in dd]
            try:
                f = AbelianHom(S, M, IntMatrix(fm))
                g = AbelianHom(M, D, IntMatrix(gm))
            except HomValidityError:
                continue
            trials += 1
            assert exact_at(f, g) == brute_force_exact((sd, md, dd), fm, gm)


class TestFiniteOrderAccounting:
    def test_kernel_image_cokernel_sizes_vs_enumeration(self):
        """On finite groups, compare every hom_analysis size with brute force."""
        rng = random.Random(8)

        def order_of(structure):
            r, tors = structure
            assert r == 0
            n = 1
            for t in tors:
                n *= t
            return n

        trials = 0
        while trials < 40:
            sd = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3))]
            td = [rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3))]
            S = FpAbelianGroup(tuple(range(len(sd))), IntMatrix.from_columns(
                [{i: d} for i, d in enumerate(sd)], len(sd)))
            T = FpAbelianGroup(tuple(range(len(td))), IntMatrix.from_columns(
                [{i: d} for i, d in enumerate(td)], len(td)))
            mat = [[rng.randint(-3, 3) for _ in sd] for _ in td]
            try:
                h = AbelianHom(S, T, IntMatrix(mat))
            except HomValidityError:
                continue
            trials += 1
            a = hom_analysis(h)
            elements = list(itertools.product(*(range(d) for d in sd)))
            images = {tuple(sum(mat[i][j] * x[j] for j in range(len(sd)))
                            % td[i] for i in range(len(td)))
                      for x in elements}
            kernel_size = sum(
                1 for x in elements
                if all(sum(mat[i][j] * x[j] for j in range(len(sd)))
                       % td[i] == 0 for i in range(len(td))))
            total_t = 1
            for d in td:
                total_t *= d
            assert order_of(a.image.structure) == len(images)
            assert order_of(a.kernel.structure) == kernel_size
            assert order_of(a.cokernel.structure) == total_t // len(images)
            assert len(elements) == kernel_size * len(images)


class TestTensorZ2:
    def test_examples(self):
        assert tensor_Z2(Z).structure == (0, (2,))
        G = FpAbelianGroup("abc", IntMatrix.from_columns(
            [{1: 2}, {2: 2}], 3))
        assert tensor_Z2(G).structure == (0, (2, 2, 2))
        Z3 = FpAbelianGroup(("t",), IntMatrix([[3]]))
        assert tensor_Z2(Z3).structure == (0, ())


class TestPullback:
    def test_diagonal(self):
        P, pa, pb = pullback(AbelianHom.identity(Z), AbelianHom.identity(Z))
        assert P.structure == (1, ())
        for j in range(P.ngens):
            e = P.element({j: 1})
            assert pa(e) == pb(e)

    def test_index_two_sublattice(self):
        red = AbelianHom(Z, Z2, IntMatrix([[1]]))
        P, pa, pb = pullback(red, red)
        assert P.structure == (2, ())
        for j in range(P.ngens):
            e = P.element({j: 1})
            assert red(pa(e)) == red(pb(e))

    def test_zero_leg_gives_kernel(self):
        zero = FpAbelianGroup(())
        f = AbelianHom(Z, Z, IntMatrix([[2]]))
        P, _, _ = pullback(f, AbelianHom.zero(zero, Z))
        assert P.structure == hom_analysis(f).kernel.structure

    def test_universal_property_witness(self):
        red = AbelianHom(Z, Z2, IntMatrix([[1]]))
        P, pa, pb = pullback(red, red)
        incl = None
        # test cone: T = Z with u = 1, v = 1 (both reduce equally mod 2)
        T = Z
        u = AbelianHom.identity(Z)
        v = AbelianHom.identity(Z)
        # solve for w: P-coordinates with pa w = u, pb w = v on the generator
        ab = direct_sum(Z, Z)
        target = [1, 1]
        pair = AbelianHom(P, ab, IntMatrix([pa.matrix.data[0],
                                            pb.matrix.data[0]]), check=False)
        w = pair.preimage_vector(target)
        assert w is not None
        wv = P.element(w)
        assert pa(wv) == Z.element([1]) and pb(wv) == Z.element([1])


class TestSolveDivision:
    def test_examples(self):
        assert solve_division(Z, Z.element([6]), 2) == Z.element([3])
        Zsq = FpAbelianGroup(("u", "v"))
        assert solve_division(Zsq, Zsq.element([4, -2]), 2) \
            == Zsq.element([2, -1])

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            solve_division(Z, Z.element([3]), 2)

    def test_torsion_rejected(self):
        with pytest.raises(TorsionPresent):
            solve_division(Z2, Z2.element([0]), 2)

    def test_divides_modulo_relations(self):
        # Z presented redundantly: <a, b | a - b>; 2 divides a + b
        G = FpAbelianGroup(("a", "b"), IntMatrix.from_columns([[1, -1]], 2))
        x = solve_division(G, G.element([1, 1]), 2)
        assert 2 * x == G.element([1, 1])


class TestLattice:
    def test_membership_and_canonical_equality(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 4)
            vecs = [[rng.randint(-4, 4) for _ in range(n)]
                    for _ in range(rng.randint(1, 4))]
            lat = Lattice(n, vecs)
            # every integer combination is a member
            for _ in range(5):
                combo = [0] * n
                for v in vecs:
                    c = rng.randint(-3, 3)
                    combo = [x + c * y for x, y in zip(combo, v)]
                assert lat.contains(combo)
            # shuffled generating set spans the same lattice
            shuf = vecs[:]
            rng.shuffle(shuf)
            assert lat.equals(Lattice(n, shuf))


# Property tests on small random lattices, homs and groups.
PROPS = settings(max_examples=60, deadline=None, derandomize=True)
small = st.integers(-6, 6)


def ints(size):
    return st.lists(small, min_size=size, max_size=size)


def vectors(n, least=0, most=4):
    return st.lists(ints(n), min_size=least, max_size=most)


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 4))
    return n, draw(vectors(n))


@st.composite
def groups(draw):
    n = draw(st.integers(1, 4))
    rels = draw(vectors(n))
    return FpAbelianGroup(tuple(range(n)), IntMatrix.from_columns(rels, n)
                          if rels else None)


@st.composite
def homs(draw):
    target = draw(groups())
    ngens = draw(st.integers(1, 3))
    return AbelianHom.from_columns(FpAbelianGroup(tuple(range(ngens))), target,
                                   draw(vectors(target.ngens, ngens, ngens)))


def combine(coeffs, rows, start):
    out = list(start)
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


class TestLatticeProperties:
    @PROPS
    @given(lattices(), st.data())
    def test_coordinates_of_a_combination(self, nv, data):
        n, vecs = nv
        lat = Lattice(n, vecs)
        c = data.draw(ints(len(lat.rows)))
        assert lat.coordinates(combine(c, lat.rows, [0] * n)) == c

    @PROPS
    @given(lattices(), ints(4), st.integers(0, 3), st.integers(2, 4))
    def test_vector_outside_raises(self, nv, c, j, d):
        # every vector of the lattice d*L is divisible by d; adding a unit
        # vector leaves it
        n, vecs = nv
        lat = Lattice(n, [[d * x for x in v] for v in vecs])
        vec = combine([d * x for x in c], vecs, [0] * n)
        vec[j % n] += 1
        assert not lat.contains(vec)
        with pytest.raises(NotDivisible):
            lat.coordinates(vec)

    @PROPS
    @given(lattices())
    def test_canonicalize_idempotent(self, nv):
        n, vecs = nv
        lat = Lattice(n, vecs).canonicalize()
        rows = [list(r) for r in lat.rows]
        assert lat.canonicalize().rows == rows

    @PROPS
    @given(homs(), st.data())
    def test_preimage_maps_back(self, h, data):
        x0 = data.draw(ints(h.source.ngens))
        rels = h.target.relations.columns()
        vec = combine(data.draw(ints(len(rels))), rels,
                      h.apply_vector(x0))
        x = h.preimage_vector(vec)
        assert x is not None
        diff = [a - b for a, b in zip(h.apply_vector(x), vec)]
        assert h.target.relation_lattice.contains(diff)
        # two preimages of one vector differ by a kernel element
        assert h.kernel_lattice.contains([a - b for a, b in zip(x0, x)])

    @PROPS
    @given(homs())
    def test_kernel_rows_map_into_relations(self, h):
        for row in h.kernel_lattice.rows:
            assert h.target.relation_lattice.contains(h.apply_vector(row))


class TestNormalForm:
    @PROPS
    @given(groups(), st.data())
    def test_relators_do_not_change_normal_form_or_hash(self, G, data):
        rels = G.relations.columns()
        x = data.draw(ints(G.ngens))
        y = combine(data.draw(ints(len(rels))), rels, x)
        assert G.normal_form(x) == G.normal_form(y)
        assert hash(G.element(x)) == hash(G.element(y))

    def test_relation_lattice_is_canonical(self):
        G = FpAbelianGroup(("a", "b", "c"),
                           IntMatrix.from_columns([[4, 6, 0], [2, 0, 8]], 3))
        rows = [list(r) for r in G.relation_lattice.rows]
        assert G.relation_lattice.canonicalize().rows == rows
