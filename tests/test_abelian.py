"""Exact linear algebra layer: normal forms, presented groups, homs."""

import copy
import gc
import inspect
import itertools
import operator
import random
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasilie.abelian import (AbelianHom, FpAbelianGroup, HomValidityError,
                              IntMatrix, Lattice, NotDivisible, ShapeMismatch,
                              _sparse_vector, _sweep, direct_sum, exact_at,
                              pullback, tensor_Z2)
from quasilie import cli
from quasilie.eta import eta, eta_prime
from quasilie.lie import LIE, QUASI, bracket_hom, lie_group, sq
from quasilie.treegroups import t_group

from oracles import (DenseLattice, dense_relation_lattice, det,
                     exact_by_stacking, lattice_hash, rank_mod_p,
                     relation_lattice, snf)

Z = FpAbelianGroup(("x",))
Z2 = FpAbelianGroup(("q",), IntMatrix([[2]]))


def diag(S):
    return [S.data[i][i] for i in range(min(S.rows, S.cols))]


class TestSnf:
    def test_hand_example_2_3(self):
        S, U, V = snf(IntMatrix([[2, 0], [0, 3]]))
        assert diag(S) == [1, 6]
        assert U.mul(IntMatrix([[2, 0], [0, 3]])).mul(V) == S
        assert abs(det(U)) == 1 and abs(det(V)) == 1

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
            assert abs(det(U)) == 1 and abs(det(V)) == 1
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
            free, tors = FpAbelianGroup(tuple(range(r)), m).structure
            assert free == r - rank
            assert list(tors) == sorted(d)


def hermite_forms(monkeypatch):
    """A list that records each Hermite normal form taken from now on."""
    taken = []
    hermite = Lattice._hermite

    def counted(lat):
        taken.append(lat.n)
        return hermite(lat)

    monkeypatch.setattr(Lattice, "_hermite", counted)
    return taken


class TestStructureFromHermiteForm:
    """`structure` reads the Hermite normal form of the relation lattice and
    takes further Hermite forms only of the rows whose pivot is not 1."""

    def test_alternations_until_diagonal(self, monkeypatch):
        # relation lattice [[2, 1], [0, 2]], then its transpose's form
        # [[1, 2], [0, 4]], then [[1, 0], [0, 4]]: three forms in all
        G = FpAbelianGroup("ab", IntMatrix([[0, -2], [2, -1]]))
        taken = hermite_forms(monkeypatch)
        assert G.structure == (0, (4,))
        assert taken == [2, 2, 2]

    def test_all_pivots_one(self, monkeypatch):
        G = FpAbelianGroup("abcd", IntMatrix.from_columns(
            [[1, 2, 0, 5], [0, 1, -3, 0], [0, 0, 1, 1]], 4))
        taken = hermite_forms(monkeypatch)
        assert G.structure == (1, ())
        # every pivot of the normal form `reduced` holds is 1
        _, substitution, residual = G.reduced
        assert (sorted(substitution), residual) == ([0, 1, 2], {})
        assert taken == [4]

    def test_no_generators(self):
        G = FpAbelianGroup(())
        assert G.structure == (0, ())
        assert G.is_trivial
        assert FpAbelianGroup((), IntMatrix.zeros(0, 3)).structure == (0, ())


def registry_groups():
    """Every registry group up to tree order 6 with 2 labels and order 4
    with 3 labels, as (name, order, labels)."""
    for labels, max_tree_order in ((2, 6), (3, 4)):
        for name, entry in cli.REGISTRY["group"].items():
            order = entry.first
            while entry.tree_order(order) <= max_tree_order:
                if entry.defined(order, labels):
                    yield name, order, labels
                order += entry.step


# the groups of the benchmark's `structure` workload
STRUCTURE_WORKLOAD = (("T", 7, 2), ("L", 8, 2), ("L", 6, 3), ("T", 5, 3))

# the whole groups of the registry names that build a BlockSum
WHOLE_GROUPS = {"L": lambda n, m: lie_group(n, m, LIE),
                "Lq": lambda n, m: lie_group(n, m, QUASI),
                "T": t_group}


class TestModPRankOracle:
    """dim(G/pG) = ngens - rank_p(relators) = free rank + #{d : p | d},
    with the rank taken over F_p, apart from the engine."""

    def test_hand_cases(self):
        cols = [[2, 0], [0, 3]]
        assert [rank_mod_p(cols, p) for p in (2, 3, 5)] == [1, 1, 2]
        assert rank_mod_p([{0: 4, 2: 6}, {1: 2}, {2: 8}], 2) == 0
        assert rank_mod_p([], 3) == 0

    @pytest.mark.parametrize(
        "name,order,labels",
        [*registry_groups(), *STRUCTURE_WORKLOAD])
    def test_registry_group(self, name, order, labels):
        # L, Lq and T build a BlockSum, which holds no relations
        G = WHOLE_GROUPS[name](order, labels) if name in WHOLE_GROUPS \
            else cli.REGISTRY["group"][name].build(order, labels)
        free, torsion = G.structure
        for p in (2, 3):
            rank = rank_mod_p(G.relations.sparse_columns(), p)
            assert G.ngens - rank == free + sum(1 for d in torsion
                                                if d % p == 0)


class TestStructure:
    def test_direct_reads(self):
        G = FpAbelianGroup("abc", IntMatrix.from_columns([[2, 0, 0]], 3))
        assert G.structure == (2, (2,))
        assert FpAbelianGroup(("a",)).structure == (1, ())
        assert FpAbelianGroup(("q",), IntMatrix([[4]])).structure == (0, (4,))

    def test_no_relators_at_any_height(self):
        # a relation matrix with no columns is the free group's, whatever
        # its height; a wrong height with columns is still refused
        free = FpAbelianGroup(("a",))
        for rel in (IntMatrix([]), IntMatrix.zeros(3, 0)):
            G = FpAbelianGroup(("a",), rel)
            assert G.relations == IntMatrix.zeros(1, 0)
            assert G.same_presentation(free)
            assert tensor_Z2(G).structure == (0, (2,))
            assert G.with_extra_relations([[3]]).structure == (0, (3,))
            assert AbelianHom.identity(G).scale(2).cokernel.structure \
                == (0, (2,))
        with pytest.raises(ShapeMismatch):
            FpAbelianGroup(("a",), IntMatrix([[1], [2]]))

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
        h = AbelianHom.identity(G)
        assert h.isomorphism and h.kernel.is_trivial and h.cokernel.is_trivial

    def test_times_two(self):
        h = AbelianHom(Z, Z, IntMatrix([[2]]))
        assert h.injective and not h.surjective
        assert h.cokernel.structure == (0, (2,))

    def test_projection_with_torsion_kernel(self):
        src = FpAbelianGroup(("a", "b"), IntMatrix.from_columns([[0, 2]], 2))
        h = AbelianHom.from_columns(src, Z, [[1], [0]])
        assert h.surjective
        assert h.kernel.structure == (0, (2,))
        # inclusion composed with the hom is zero
        assert h.compose(h.kernel_inclusion).equals(
            AbelianHom.zero(h.kernel, Z))

    def test_invalid_hom_rejected(self):
        with pytest.raises(HomValidityError):
            AbelianHom(Z2, Z, IntMatrix([[1]]))

    def test_identity_onto_a_quotient(self):
        G = FpAbelianGroup(("x", "y"))
        Q = G.with_extra_relations([{1: 2}])
        h = AbelianHom.identity(G, Q)
        assert (h.source, h.target) == (G, Q)
        assert h.matrix == IntMatrix.identity(2)
        assert h.surjective and not h.injective
        assert h.kernel.structure == (1, ())
        assert AbelianHom.identity(G).target is G
        with pytest.raises(ShapeMismatch):
            AbelianHom.identity(G, Z)

    def test_rank_additivity_torsion_free_source(self):
        rng = random.Random(4)
        for _ in range(60):
            s, t = rng.randint(1, 4), rng.randint(1, 4)
            S = FpAbelianGroup(tuple(range(s)))
            T = FpAbelianGroup(tuple(range(t)))
            h = AbelianHom(S, T, IntMatrix([[rng.randint(-3, 3)
                                             for _ in range(s)]
                                            for _ in range(t)]))
            assert h.kernel.free_rank + h.image.free_rank == s


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
        """On finite groups, compare every kernel, image and cokernel size
        with brute force."""
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
            assert order_of(h.image.structure) == len(images)
            assert order_of(h.kernel.structure) == kernel_size
            assert order_of(h.cokernel.structure) == total_t // len(images)
            assert len(elements) == kernel_size * len(images)
            assert h.injective == (kernel_size == 1)
            assert h.surjective == (len(images) == total_t)


class TestStoredColumnsUnchanged:
    """Lattices copy the relator and matrix columns they are built from:
    echelon work changes its rows in place."""

    @pytest.mark.parametrize("build", [lambda: eta_prime(3, 2),
                                       lambda: eta(4, 2),
                                       lambda: bracket_hom(3, 2)])
    def test_lattice_work_leaves_columns_alone(self, build):
        h = build()
        # fresh groups and map over the same stored columns, so every
        # lattice below is built in this test
        src = FpAbelianGroup(h.source.generators, h.source.relations)
        tgt = FpAbelianGroup(h.target.generators, h.target.relations)
        stored = (src.relations, tgt.relations, h.matrix)
        before = [copy.deepcopy(m._sparse) for m in stored]
        f = AbelianHom(src, tgt, h.matrix)
        assert (f.kernel.structure, f.image.structure,
                f.cokernel.structure) == (
                    h.kernel.structure,
                    h.image.structure,
                    h.cokernel.structure)
        # structure reads relation lattices built from copies of the
        # stored columns
        assert (src.structure, tgt.structure) == (h.source.structure,
                                                  h.target.structure)
        assert f.isomorphism == (f.injective and f.surjective)
        assert f.compose(f.kernel_inclusion).equals(
            AbelianHom.zero(f.kernel, tgt))
        assert f.image_lattice.pivots
        to_cokernel = AbelianHom(tgt, f.cokernel,
                                 IntMatrix.identity(tgt.ngens))
        assert exact_at(f.kernel_inclusion, f)
        assert exact_at(f, to_cokernel)
        for col in h.matrix.sparse_columns():
            x = f.preimage_vector(col)
            assert x is not None and tgt.normal_form(f.apply_vector(x)) \
                == tgt.normal_form(col)
        for group in (src, tgt):
            for col in group.relations.sparse_columns():
                assert not any(group.normal_form(col))
        for m, old in zip(stored, before):
            assert [list(c.items()) for c in m._sparse] \
                == [list(c.items()) for c in old]


class TestTensorZ2:
    def test_examples(self):
        assert tensor_Z2(Z).structure == (0, (2,))
        G = FpAbelianGroup("abc", IntMatrix.from_columns(
            [{1: 2}, {2: 2}], 3))
        assert tensor_Z2(G).structure == (0, (2, 2, 2))
        Z3 = FpAbelianGroup(("t",), IntMatrix([[3]]))
        assert tensor_Z2(Z3).structure == (0, ())


def pullback_legs(f, g):
    """The pullback P = ker d of the difference map d = pullback(f, g), and
    its projections to f's and g's sources: the rows of d.kernel_lattice,
    split at f.source.ngens."""
    d = pullback(f, g)
    P, na, rows = d.kernel, f.source.ngens, d.kernel_lattice.rows
    pa = AbelianHom.from_columns(
        P, f.source, [{i: v for i, v in r.items() if i < na} for r in rows])
    pb = AbelianHom.from_columns(
        P, g.source, [{i - na: v for i, v in r.items() if i >= na}
                      for r in rows])
    return P, pa, pb


class TestPullback:
    def test_diagonal(self):
        P, pa, pb = pullback_legs(AbelianHom.identity(Z),
                                  AbelianHom.identity(Z))
        assert P.structure == (1, ())
        for j in range(P.ngens):
            e = P.element({j: 1})
            assert pa(e) == pb(e)

    def test_index_two_sublattice(self):
        red = AbelianHom(Z, Z2, IntMatrix([[1]]))
        P, pa, pb = pullback_legs(red, red)
        assert P.structure == (2, ())
        for j in range(P.ngens):
            e = P.element({j: 1})
            assert red(pa(e)) == red(pb(e))

    def test_zero_leg_gives_kernel(self):
        zero = FpAbelianGroup(())
        f = AbelianHom(Z, Z, IntMatrix([[2]]))
        P = pullback(f, AbelianHom.zero(zero, Z)).kernel
        assert P.structure == f.kernel.structure

    def test_universal_property_witness(self):
        red = AbelianHom(Z, Z2, IntMatrix([[1]]))
        P, pa, pb = pullback_legs(red, red)
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


@st.composite
def presented_homs(draw):
    """A map between random presentations with free parts and torsion.

    The target is related by random relators and by M r for each source
    relator r, so every source relator maps to zero.
    """
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    matrix = IntMatrix.from_columns(draw(vectors(t, s, s)), t)
    src_rels = draw(vectors(s, 0, 3))
    tgt_rels = draw(vectors(t, 0, 3)) + [matrix.mul_vector(r)
                                         for r in src_rels]
    source = FpAbelianGroup(tuple(range(s)), IntMatrix.from_columns(
        src_rels, s) if src_rels else None)
    target = FpAbelianGroup(tuple(range(t)), IntMatrix.from_columns(
        tgt_rels, t) if tgt_rels else None)
    return AbelianHom(source, target, matrix)


@st.composite
def presented_pairs(draw):
    """Composable maps f: A -> B, g: B -> C between random presentations
    with free parts and torsion, each valid by construction (the next
    group is related by the images of the previous relators).  Some pairs
    are exact by construction (f the kernel inclusion of g, or g the
    quotient map onto the cokernel of f), others need not be."""
    a, b, c = (draw(st.integers(1, 3)) for _ in range(3))
    rels_a = draw(vectors(a, 0, 2))
    fm = IntMatrix.from_columns(draw(vectors(b, a, a)), b)
    rels_b = draw(vectors(b, 0, 2)) + [fm.mul_vector(r) for r in rels_a]
    gm = IntMatrix.from_columns(draw(vectors(c, b, b)), c)
    rels_c = draw(vectors(c, 0, 2)) + [gm.mul_vector(r) for r in rels_b]
    A, B, C = (FpAbelianGroup(tuple(range(n)), IntMatrix.from_columns(
        rels, n) if rels else None)
        for n, rels in ((a, rels_a), (b, rels_b), (c, rels_c)))
    f, g = AbelianHom(A, B, fm), AbelianHom(B, C, gm)
    shape = draw(st.sampled_from(("random", "kernel", "cokernel")))
    if shape == "kernel":
        f = g.kernel_inclusion.scale(draw(st.sampled_from((1, 2))))
    elif shape == "cokernel":
        g = AbelianHom.identity(B, f.cokernel)
    return f, g


class TestExactFromHeldLattices:
    """exact_at compares the image and kernel lattices the two maps
    already hold."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_pairs())
    def test_agrees_with_restacked_kernel(self, pair):
        f, g = pair
        assert exact_at(f, g) == exact_by_stacking(f, g)

    def test_kernel_lattice_holds_the_source_relations(self):
        for g in (AbelianHom(Z, Z2, IntMatrix([[1]])), sq(2, 2),
                  bracket_hom(2, 2, LIE)):
            lat = g.kernel_lattice
            assert all(lat.contains(col)
                       for col in g.source.relations.sparse_columns())

    def test_inserts_no_row_once_both_lattices_exist(self, monkeypatch):
        f = AbelianHom(Z, Z, IntMatrix([[2]]))
        g = AbelianHom(Z, Z2, IntMatrix([[1]]))
        pairs = [(f, g), (AbelianHom.zero(Z, Z), AbelianHom.zero(Z, Z)),
                 (g.kernel_inclusion, g)]
        for left, right in pairs:
            left.image_lattice, right.kernel_lattice
        inserted = []
        insert = Lattice._insert

        def counting(self, v):
            inserted.append(v)
            return insert(self, v)
        monkeypatch.setattr(Lattice, "_insert", counting)
        assert [exact_at(*p) for p in pairs] == [True, False, True]
        assert inserted == []


def combine(coeffs, rows, start):
    out = list(start)
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def densify(vec, n):
    """The length-n list of a sparse {index: value} result."""
    return [vec.get(k, 0) for k in range(n)]


def dense_rows(lat):
    return [densify(row, lat.n) for row in lat.rows]


def dense_columns(m):
    return [densify(col, m.rows) for col in m.sparse_columns()]


class TestLatticeProperties:
    @PROPS
    @given(lattices(), st.data())
    def test_coordinates_of_a_combination(self, nv, data):
        n, vecs = nv
        lat = Lattice(n, vecs)
        c = data.draw(ints(len(lat.rows)))
        vec = combine(c, dense_rows(lat), [0] * n)
        assert densify(lat.coordinates(vec), len(c)) == c

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
        rows = dense_rows(lat)
        assert dense_rows(lat.canonicalize()) == rows

    @PROPS
    @given(homs(), st.data())
    def test_preimage_maps_back(self, h, data):
        x0 = data.draw(ints(h.source.ngens))
        rels = dense_columns(h.target.relations)
        vec = combine(data.draw(ints(len(rels))), rels,
                      h.apply_vector(x0))
        x = h.preimage_vector(vec)
        assert x is not None
        diff = [a - b for a, b in zip(h.apply_vector(x), vec)]
        assert relation_lattice(h.target).contains(diff)
        # two preimages of one vector differ by a kernel element
        x = densify(x, h.source.ngens)
        assert h.kernel_lattice.contains([a - b for a, b in zip(x0, x)])

    @PROPS
    @given(homs())
    def test_kernel_rows_map_into_relations(self, h):
        relations = relation_lattice(h.target)
        for row in h.kernel_lattice.rows:
            assert relations.contains(h.apply_vector(row))


class TestImageLattice:
    """The image lattice is read off the augmented echelon basis; it must be
    the Hermite normal form of the map's columns plus the target relators."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_homs())
    def test_rows_and_pivots_match_dense_hnf(self, h):
        t = h.target.ngens
        ref = DenseLattice(t, dense_columns(h.matrix)
                           + dense_columns(h.target.relations)).canonicalize()
        lat = h.image_lattice
        assert (dense_rows(lat), lat.pivots) == (ref.rows, ref.pivots)


class TestHomAnalysisFlags:
    """The flags, decided on lattices, against the structure of the kernel
    and cokernel presentations."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_homs())
    def test_flags_agree_with_structure(self, h):
        assert h.kernel is h.kernel and h.cokernel is h.cokernel
        assert h.injective == h.kernel.is_trivial
        assert h.surjective == h.cokernel.is_trivial
        assert h.isomorphism == (h.injective and h.surjective)


@st.composite
def lift_problems(draw):
    """A map g: B -> C from presented_homs and a map f: A -> C.  A column
    of f is g of a random vector or a random vector; A is related by random
    combinations of the kernel rows of f's matrix, so f is valid."""
    g = draw(presented_homs())
    a = draw(st.integers(1, 3))
    cols = [g.matrix.mul_vector(draw(ints(g.source.ngens)))
            if draw(st.booleans()) else draw(ints(g.target.ngens))
            for _ in range(a)]
    free = AbelianHom.from_columns(FpAbelianGroup(tuple(range(a))), g.target,
                                   cols)
    rows = [densify(row, a) for row in free.kernel_lattice.rows]
    rels = [combine(draw(ints(len(rows))), rows, [0] * a)
            for _ in range(draw(st.integers(0, 2)))]
    source = FpAbelianGroup(tuple(range(a)), IntMatrix.from_columns(rels, a)
                            if rels else None)
    return g, AbelianHom.from_columns(source, g.target, cols)


class TestLift:
    """`lift` finds phi with g . phi == f exactly when every column of f
    lies in g's image lattice."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lift_problems())
    def test_lift_exactly_when_every_column_has_a_preimage(self, gf):
        g, f = gf
        liftable = all(g.image_lattice.contains(col)
                       for col in f.matrix.sparse_columns())
        try:
            phi = g.lift(f)
        except HomValidityError:
            # preimages can miss a relator of A only modulo a kernel of g
            # larger than the relations of B
            assert liftable and not g.injective
            return
        if liftable:
            assert phi.source is f.source and phi.target is g.source
            assert g.compose(phi).equals(f)
            # phi is a map: it kills the relators of A
            assert all(relation_lattice(g.source).contains(
                phi.matrix.mul_vector(rel))
                for rel in f.source.relations.sparse_columns())
        else:
            assert phi is None

    def test_identity_does_not_lift_through_doubling(self):
        double = AbelianHom.from_columns(Z, Z, [{0: 2}])
        assert double.lift(AbelianHom.identity(Z)) is None

    def test_f_must_map_into_the_target_generators(self):
        # a target with fewer or more generators is refused, even when
        # every column has a preimage; a quotient on the same generators
        # is not
        g = AbelianHom.identity(Z)
        for target in (FpAbelianGroup(()), FpAbelianGroup(("x", "y"))):
            with pytest.raises(ShapeMismatch):
                g.lift(AbelianHom.zero(Z, target))
        quotient = FpAbelianGroup(("x",), IntMatrix([[2]]))
        phi = g.lift(AbelianHom.identity(Z, quotient))
        assert phi.target is Z and phi.isomorphism

    def test_target_on_the_source_generators(self):
        # the identity of Z/2 lifts through Z ->> Z/2 into Z/2, not into Z
        g = AbelianHom.identity(Z, Z2)
        with pytest.raises(HomValidityError):
            g.lift(AbelianHom.identity(Z2))
        phi = g.lift(AbelianHom.identity(Z2), target=Z2)
        assert phi.target is Z2 and phi.isomorphism


@st.composite
def dense_or_dict(draw, n):
    """A vector of length n, as a dense list or as a dict that may store
    zeros; returns (the input, its dense value)."""
    vec = draw(ints(n))
    if draw(st.booleans()):
        return vec, vec
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    return {k: vec[k] for k in order if vec[k] or keep[k]}, vec


@st.composite
def paired_lattices(draw):
    """The sparse Lattice and the dense oracle, built by the same adds; every
    add must return the same flag and leave the same rows and pivots."""
    n = draw(st.integers(1, 5))
    lat, ref = Lattice(n), DenseLattice(n)
    for _ in range(draw(st.integers(0, 5))):
        vec, want = draw(dense_or_dict(n))
        assert lat.add(vec) == ref.add(want)
        assert (dense_rows(lat), lat.pivots) == (ref.rows, ref.pivots)
        assert all(all(row.values()) for row in lat._rows)
        if isinstance(vec, dict):
            before = lat.rows
            for k in range(n):
                vec[k] = 7
            assert lat.rows == before
    return n, lat, ref


@st.composite
def mixed_pivot_lattices(draw):
    """Relator columns followed by 2 e_i for a set of generators i, the
    shape `tensor_Z2` builds: odd leading entries leave rows with pivot 1,
    and the rows with pivot 2 carry entries at later pivot-2 columns."""
    n = draw(st.integers(1, 12))
    entries = st.sampled_from((1, -1, 1, 2, -2, 3, -3, 4, 5, -6))
    cols = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entries,
                                         min_size=1, max_size=4),
                         max_size=12))
    cols += [{i: 2} for i in sorted(draw(st.sets(st.integers(0, n - 1))))]
    return n, cols


class TestLatticeAgainstDense:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(paired_lattices(), st.data())
    def test_queries_agree(self, pair, data):
        n, lat, ref = pair
        # a lattice vector, and one with a unit perturbation that may leave it
        c = data.draw(ints(len(ref.rows)))
        inside = combine(c, ref.rows, [0] * n)
        shifted = list(inside)
        shifted[data.draw(st.integers(0, n - 1))] += data.draw(small)
        other, want = data.draw(dense_or_dict(n))
        for vec, dense in ((inside, inside), (shifted, shifted),
                           (other, want)):
            assert lat.contains(vec) == ref.contains(dense)
            try:
                expected = ref.coordinates(dense)
            except NotDivisible:
                with pytest.raises(NotDivisible):
                    lat.coordinates(vec)
            else:
                assert densify(lat.coordinates(vec), len(c)) == expected
        assert densify(lat.coordinates(inside), len(c)) == c

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(paired_lattices(), paired_lattices())
    def test_canonical_forms_and_equality_agree(self, pa, pb):
        (_, lat, ref), (_, lat2, ref2) = pa, pb
        assert lat.equals(lat2) == ref.equals(ref2)
        assert dense_rows(lat.canonicalize()) == ref.canonicalize().rows
        assert lat.pivots == ref.pivots
        assert all(all(row.values()) for row in lat._rows)
        assert lat.equals(Lattice(lat.n, reversed(ref.rows)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mixed_pivot_lattices())
    def test_canonical_form_with_unit_and_residual_rows(self, nc):
        n, cols = nc
        lat = Lattice(n, cols).canonicalize()
        ref = DenseLattice(n, [densify(c, n) for c in cols]).canonicalize()
        assert (dense_rows(lat), lat.pivots) == (ref.rows, ref.pivots)

    def test_bad_shapes_raise(self):
        lat = Lattice(3, [[1, 2, 3]])
        for vec in ([1, 2], {3: 1}, {-1: 1}, {0: 1, 5: 0}):
            for method in (lat.add, lat.contains, lat.coordinates):
                with pytest.raises(ShapeMismatch):
                    method(vec)


class TestExactEntries:
    """Matrix and lattice entries must be integers (`operator.index`);
    nothing is truncated."""

    def test_matrices_reject_non_integers(self):
        with pytest.raises(TypeError):
            IntMatrix.from_columns([[0.5, 1.9]], 2)
        with pytest.raises(TypeError):
            IntMatrix.from_columns([{0: 1, 1: 2.0}], 2)
        with pytest.raises(TypeError):
            IntMatrix([[1.5, -0.7]])
        with pytest.raises(TypeError):
            IntMatrix([["1", 2]])
        assert IntMatrix([[True, 0], [0, 3]]).data == ((1, 0), (0, 3))
        assert IntMatrix.from_columns([[0, 2], {1: True}], 2).data == \
            ((0, 0), (2, 1))

    def test_lattices_and_maps_reject_non_integers(self):
        lat = Lattice(2, [[1, 1]])
        for method in (lat.add, lat.contains, lat.coordinates):
            for vec in ([0.5, 1], {0: 0.5, 1: 1}):
                with pytest.raises(TypeError):
                    method(vec)
        with pytest.raises(TypeError):
            Lattice(2, [[0.5, 1]])
        h = AbelianHom.identity(FpAbelianGroup(("x", "y")))
        with pytest.raises(TypeError):
            h.preimage_vector([0, 1.5])
        with pytest.raises(TypeError):
            h.apply_vector({1: 1.5})
        assert Lattice(2, [{0: True, 1: 2}]).rows == [{0: 1, 1: 2}]


def sparse_by_enumerate(vec, n):
    """The dense path of `_sparse_vector` as the plain comprehension."""
    if len(vec) != n:
        raise ShapeMismatch("vector has wrong ambient dimension")
    return {k: operator.index(x) for k, x in enumerate(vec) if x}


class TestSparseVector:
    """The dense path of `_sparse_vector`, which skips zeros with
    `itertools.compress`, against the comprehension over every entry."""

    entries = st.one_of(st.just(0), st.just(0.0), st.booleans(),
                        st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(entries, max_size=40), st.sampled_from([list, tuple]))
    def test_same_dict(self, vec, kind):
        vec = kind(vec)
        got = _sparse_vector(vec, len(vec))
        want = sparse_by_enumerate(vec, len(vec))
        assert got == want and list(got) == list(want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(entries, max_size=40), st.data(),
           st.sampled_from([0.5, Fraction(1, 2)]))
    def test_non_integer_raises(self, vec, data, bad):
        vec.insert(data.draw(st.integers(0, len(vec))), bad)
        for read in (_sparse_vector, sparse_by_enumerate):
            with pytest.raises(TypeError):
                read(vec, len(vec))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(entries, max_size=40), st.integers(1, 3))
    def test_wrong_length_raises(self, vec, offset):
        for n in (len(vec) + offset, len(vec) - offset):
            for read in (_sparse_vector, sparse_by_enumerate):
                with pytest.raises(ShapeMismatch):
                    read(vec, n)


class TestNormalForm:
    @PROPS
    @given(groups(), st.data())
    def test_relators_do_not_change_normal_form_or_hash(self, G, data):
        rels = dense_columns(G.relations)
        x = data.draw(ints(G.ngens))
        y = combine(data.draw(ints(len(rels))), rels, x)
        assert G.normal_form(x) == G.normal_form(y)
        assert hash(G.element(x)) == hash(G.element(y))

    def test_equal_elements_of_equal_presentations_hash_alike(self):
        # sq builds its source as Z2 (x) L_2 itself: an equal, separate group
        src = sq(2, 2).source
        other = tensor_Z2(lie_group(2, 2, LIE))
        assert src is not other
        g0 = src.generators[0]
        a, b = src.gen(g0), other.gen(g0)
        assert a == b and len({a, b}) == 1

    def test_elements_of_different_presentations_are_unequal(self):
        G = FpAbelianGroup(("a",))
        zeros = {G.zero(), tensor_Z2(G).zero()}  # equal normal forms
        assert len(zeros) == 2 and G.zero() != tensor_Z2(G).zero()

    def test_relation_lattice_is_canonical(self):
        G = FpAbelianGroup(("a", "b", "c"),
                           IntMatrix.from_columns([[4, 6, 0], [2, 0, 8]], 3))
        lat = relation_lattice(G)
        rows = dense_rows(lat)
        assert dense_rows(lat.canonicalize()) == rows
        # `reduced` holds exactly the rows of that normal form
        _, substitution, residual = G.reduced
        assert sorted({**substitution, **residual}.items()) == list(
            zip(lat.pivots, lat.rows))


@st.composite
def chains(draw):
    """Rows p_i e_i + c_i e_(i+1) + d_i e_(i+2), pivots p_i from 1 to 4:
    each row meets the next pivots, so a reduction cascades along them."""
    n = draw(st.integers(1, 12))
    cols = []
    for i in range(n):
        col = {i: draw(st.integers(1, 4))}
        for k in (i + 1, i + 2):
            if k <= n and (x := draw(st.integers(-5, 5))):
                col[k] = x
        cols.append(col)
    return n + 1, cols


class CountingRows(dict):
    """A {pivot: row} dict that records the pivot of each row read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = []

    def __getitem__(self, j):
        self.reads.append(j)
        return super().__getitem__(j)

    def get(self, j, default=None):
        return self[j] if j in self else default

    def values(self):
        return (self[j] for j in self)

    def items(self):
        return ((j, self[j]) for j in self)


class TestSweep:
    """The one sweep behind `canonicalize` and `_representative`: against
    the dense oracle, and by the residual rows (pivot above 1) it reads."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(chains(), mixed_pivot_lattices()), st.data())
    def test_against_dense(self, nc, data):
        n, cols = nc
        lat = Lattice(n, cols).canonicalize()
        ref = DenseLattice(n, [densify(c, n) for c in cols]).canonicalize()
        assert (dense_rows(lat), lat.pivots) == (ref.rows, ref.pivots)
        G = FpAbelianGroup(tuple(range(n)), IntMatrix.from_columns(cols, n))
        _, substitution, residual = G.reduced
        counted = CountingRows(residual)
        for _ in range(3):
            v = data.draw(st.dictionaries(st.integers(0, n - 1),
                                          st.integers(-30, 30).filter(bool)))
            want = ref.reduce(densify(v, n))
            assert densify(G._representative(v), n) == want
            assert densify(_sweep(substitution, counted, v), n) == want
            # no residual row is read twice
            assert len(counted.reads) == len(set(counted.reads))
            counted.reads.clear()

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_reads_on_a_chain_do_not_grow_with_it(self, n):
        # the canonical chain 2 e_i + e_(i+1): a vector at pivots 0 and 2
        # carries to pivot 4 and stops there, whatever the chain's length
        chain = {i: {i: 2, i + 1: 1} for i in range(n)}
        residual = CountingRows(chain)
        assert _sweep({}, residual, {0: 2, 2: 2}) == {1: 1, 2: 1, 3: 1, 4: 1}
        assert residual.reads == [0, 1, 2, 3, 4]
        # each row of the chain is canonical as it stands
        lat = Lattice(n + 1, chain.values())
        assert lat.canonicalize().rows == list(chain.values())


@st.composite
def sparse_presentations(draw):
    """A group on 1 to 8 generators with up to 8 relators of 1 to 3 entries
    each: unit entries eliminate generators, the others leave torsion, and
    generators that no relator spans stay free."""
    n = draw(st.integers(1, 8))
    entries = st.sampled_from((1, -1, 1, 2, -2, 3, 4, -6, 5))
    rels = draw(st.lists(st.dictionaries(st.integers(0, n - 1), entries,
                                         min_size=1, max_size=3),
                         max_size=8))
    return FpAbelianGroup(tuple(range(n)), IntMatrix.from_columns(rels, n)
                          if rels else None)


def sparse_vectors(n):
    return st.dictionaries(st.integers(0, n - 1),
                           st.integers(-30, 30).filter(bool), max_size=4)


def substituted(substitution, v):
    """v with each eliminated generator g_j replaced by -sum row[k] g_k over
    the other entries k of its row."""
    out = {}
    for j, x in v.items():
        row = substitution.get(j)
        terms = {j: 1} if row is None else \
            {k: -a for k, a in row.items() if k != j}
        for k, a in terms.items():
            out[k] = out.get(k, 0) + x * a
    return {k: y for k, y in out.items() if y}


class TestReduced:
    """`FpAbelianGroup.reduced` and the one-pass representative read off it,
    against the column-by-column `DenseLattice.reduce` on the dense Hermite
    normal form of the relators."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_presentations(), st.data())
    def test_representative_hash_and_equality(self, G, data):
        lat, n = relation_lattice(G), G.ngens
        ref = dense_relation_lattice(G)
        held = copy.deepcopy(G.reduced)
        v = data.draw(sparse_vectors(n))
        w = data.draw(sparse_vectors(n))
        if data.draw(st.booleans()):
            # w = v plus relators: another vector for the same element
            w = dict(v)
            for col in G.relations.sparse_columns():
                c = data.draw(st.integers(-3, 3))
                w = {k: w.get(k, 0) + c * col.get(k, 0)
                     for k in w.keys() | col.keys()}
            w = {k: x for k, x in w.items() if x}
        a, b = G.element(v), G.element(w)
        assert densify(G._representative(v), n) == ref.reduce(densify(v, n))
        assert G.normal_form(v) == tuple(ref.reduce(densify(v, n)))
        assert hash(a) == lattice_hash(a, ref)
        assert hash(b) == lattice_hash(b, ref)
        assert a.is_zero == lat.contains(v)
        in_lattice = lat.contains({k: v.get(k, 0) - w.get(k, 0)
                                   for k in v.keys() | w.keys()})
        assert (a == b) == (b == a) == in_lattice
        # the reads change neither the vectors nor the held rows
        assert a.vector == v and b.vector == w and G.reduced == held

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_presentations(), st.data())
    def test_parts(self, G, data):
        lat, n = relation_lattice(G), G.ngens
        survivors, substitution, residual = G.reduced
        assert sorted(survivors + tuple(substitution)) == list(range(n))
        assert list(survivors) == sorted(survivors)
        kept = set(survivors)
        # each generator minus its substitution lies in the relation lattice
        for j, row in substitution.items():
            assert min(row) == j and row[j] == 1 and set(row) - {j} <= kept
            assert lat.contains(row)
        for j, row in residual.items():
            assert min(row) == j and row[j] > 1 and set(row) <= kept
        # substitution after embedding is the identity on survivors, and
        # every vector is congruent to its substitution
        on_survivors = {k: x for k, x in data.draw(sparse_vectors(n)).items()
                        if k in kept}
        assert substituted(substitution, on_survivors) == on_survivors
        v = data.draw(sparse_vectors(n))
        s = substituted(substitution, v)
        assert set(s) <= kept
        assert lat.contains({k: v.get(k, 0) - s.get(k, 0)
                             for k in v.keys() | s.keys()})
        # the residual rows plus the substitution rows span the relations
        rows = [*substitution.values(), *residual.values()]
        assert Lattice(n, rows).equals(
            Lattice(n, G.relations.sparse_columns()))
        # and the structure is the dense Smith normal form's
        if G.relations.cols:
            d = diag(snf(G.relations)[0])
            assert G.structure == (n - sum(1 for x in d if x),
                                   tuple(x for x in d if x > 1))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_presentations())
    def test_relation_lattice_is_in_hermite_normal_form(self, G):
        # what the one-pass reader relies on, on the rows `reduced` holds:
        # a row's entry at another row's pivot column lies in [0, that
        # pivot), so it is 0 at a column with pivot 1
        _, substitution, residual = G.reduced
        rows = {**substitution, **residual}
        pivot = {j: row[j] for j, row in rows.items()}
        for j, row in rows.items():
            assert min(row) == j and row[j] > 0
            for k, x in row.items():
                if k != j and k in pivot:
                    assert 0 <= x < pivot[k]

    def test_query_targets(self):
        # the eta' targets that warm reads hash: the substitution leaves
        # few survivors, and the reduced reads agree with the lattice
        for n, m, survivors in ((4, 2, 3), (3, 3, 15)):
            G = eta_prime(n, m).target
            assert len(G.reduced[0]) == survivors
            ref, n = dense_relation_lattice(G), G.ngens
            for j in range(n):
                e = G.gen(G.generators[j])
                unit = densify({j: 1}, n)
                assert densify(G._representative({j: 1}), n) == \
                    ref.reduce(unit)
                assert hash(e) == lattice_hash(e, ref)


@st.composite
def relator_checks(draw):
    """A source, a target and a matrix between them: the matrix of a valid
    `presented_homs` map, or that matrix with one column moved by a random
    vector, which may or may not keep every source relator a relation."""
    h = draw(presented_homs())
    cols = h.matrix.sparse_columns()
    if draw(st.booleans()):
        j = draw(st.integers(0, len(cols) - 1))
        cols[j] = {k: cols[j].get(k, 0) + x
                   for k, x in enumerate(draw(ints(h.target.ngens)))}
    return h.source, h.target, IntMatrix.from_columns(cols, h.target.ngens)


def lattices_reachable(obj):
    """The `Lattice` objects reachable from the values of vars(obj), through
    anything but classes, modules and functions."""
    found, seen, todo = [], set(), list(vars(obj).values())
    while todo:
        o = todo.pop()
        if (id(o) in seen or isinstance(o, (type, types.ModuleType))
                or inspect.isroutine(o)):
            continue
        seen.add(id(o))
        if isinstance(o, Lattice):
            found.append(o)
        todo.extend(gc.get_referents(o))
    return found


class TestMembershipReadsReduced:
    """Every "is v a relation?" of `AbelianHom` (the relator check, `equals`
    and `injective`) reads the groups' `reduced` rows, against `contains` on
    the relation lattice the oracle builds apart from the group."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(relator_checks())
    def test_relator_check(self, case):
        source, target, matrix = case
        lat = relation_lattice(target)
        valid = all(lat.contains(matrix.mul_vector(rel))
                    for rel in source.relations.sparse_columns())
        if valid:
            assert AbelianHom(source, target, matrix).matrix is matrix
        else:
            with pytest.raises(HomValidityError):
                AbelianHom(source, target, matrix)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_homs(), st.data())
    def test_equals(self, h, data):
        lat = relation_lattice(h.target)
        rels = dense_columns(h.target.relations)
        base = [h.apply_vector({j: 1}) for j in range(h.source.ngens)]
        cols = []
        for col in base:
            # the same column modulo the relations, or a moved one
            if data.draw(st.booleans()):
                cols.append(combine(data.draw(ints(len(rels))), rels, col))
            else:
                move = data.draw(ints(len(col)))
                cols.append([x + y for x, y in zip(col, move)])
        other = AbelianHom.from_columns(h.source, h.target, cols, check=False)
        same = all(lat.contains([x - y for x, y in zip(a, b)])
                   for a, b in zip(base, cols))
        assert h.equals(other) == other.equals(h) == same
        assert h.equals(h)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_homs())
    def test_injective(self, h):
        lat = relation_lattice(h.source)
        assert h.injective == all(lat.contains(row)
                                  for row in h.kernel_lattice.rows)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(presented_homs())
    def test_kernel_rows_are_the_augmented_rows(self, h):
        # the rows of (image | source) with pivot >= h have image part 0;
        # shifted down by h they are the kernel basis, unchanged
        aug, t = h._augmented, h.target.ngens
        want = [(j - t, {k - t: x for k, x in row.items()})
                for j, row in zip(aug.pivots, aug.rows) if j >= t]
        lat = h.kernel_lattice
        assert list(zip(lat.pivots, lat.rows)) == want

    @pytest.mark.parametrize("build", [
        lambda: eta_prime(3, 2),
        lambda: AbelianHom(FpAbelianGroup("ab", IntMatrix([[4, 0], [0, 0]])),
                           FpAbelianGroup("cd", IntMatrix([[2, 1], [0, 3]])),
                           IntMatrix([[2, 0], [0, 3]]))],
        ids=["eta_prime_3_2", "torsion"])
    def test_no_lattice_held_by_a_group(self, build):
        h = build()
        f = AbelianHom(h.source, h.target, h.matrix)     # checked
        assert f.injective == h.injective and f.equals(h)
        for G in (h.source, h.target):
            structure = G.structure
            a = G.gen(G.generators[-1])
            assert a + a - a == a and hash(a) == hash(a + G.zero())
            assert lattices_reachable(G) == [] and G.structure is structure
        # the walk does find the lattices a map holds
        assert f.kernel_lattice in lattices_reachable(f)


@st.composite
def named_homs(draw):
    """`presented_homs` on string generators, so that generator keys and
    indices differ."""
    def named(G, tag):
        return FpAbelianGroup(tuple(f"{tag}{i}" for i in range(G.ngens)),
                              G.relations)

    h = draw(presented_homs())
    return AbelianHom(named(h.source, "s"), named(h.target, "t"), h.matrix)


@st.composite
def element_inputs(draw, G):
    """An input to `G.element` and the dense vector it stands for: a dense
    list, an index dict that may store zeros, or a dict that splits each
    coefficient between the generator's key and its index, so entries
    repeat and may cancel."""
    n = G.ngens
    want = draw(ints(n))
    kind = draw(st.sampled_from(("dense", "index", "keys")))
    if kind == "dense":
        return want, want
    order = draw(st.permutations(range(n)))
    if kind == "index":
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return {k: want[k] for k in order if want[k] or keep[k]}, want
    out = {}
    for k in order:
        part = draw(small)
        out[G.generators[k]] = want[k] - part
        out[k] = part
    return out, want


def element_by_two_passes(G, coeffs):
    """The vector `G.element` stores for a dict, as first written: add up
    the entries, then copy the sums without the zeros."""
    vec = {}
    for k, v in coeffs.items():
        if not isinstance(k, int):
            k = G.index[k]
        elif not 0 <= k < G.ngens:
            raise ShapeMismatch("generator index out of range")
        vec[k] = vec.get(k, 0) + operator.index(v)
    return {k: x for k, x in vec.items() if x}


@st.composite
def mixed_element_inputs(draw, G):
    """A dict on generator keys and indices, so that entries repeat and
    often cancel; some draws add out-of-range indices, unknown keys and
    coefficients that are not integers."""
    keys = st.sampled_from(G.generators) | st.integers(0, G.ngens - 1)
    values = st.integers(-3, 3)
    if draw(st.booleans()):
        keys |= st.sampled_from((-1, G.ngens, G.ngens + 2, "unknown"))
        values |= st.sampled_from((0.5, 2.0, Fraction(4, 2), "1", None))
    return draw(st.dictionaries(keys, values, max_size=8))


def assert_element(e, want):
    """e stores exactly the nonzeros of the dense vector want."""
    assert e.coeffs == tuple(want)
    assert e.vector == {k: x for k, x in enumerate(want) if x}


class TestElements:
    """Elements store sparse vectors; dense vectors are the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(named_homs(), st.data())
    def test_against_dense_vectors(self, h, data):
        G = h.source
        xa, a = data.draw(element_inputs(G))
        xb, b = data.draw(element_inputs(G))
        if data.draw(st.booleans()):
            # b = a plus relators: a different vector for the same element
            rels = dense_columns(G.relations)
            b = combine(data.draw(ints(len(rels))), rels, a)
            xb = b
        k = data.draw(small)
        ea, eb = G.element(xa), G.element(xb)
        assert_element(ea, a)
        assert_element(eb, b)
        assert_element(ea + eb, [x + y for x, y in zip(a, b)])
        assert_element(ea - eb, [x - y for x, y in zip(a, b)])
        assert_element(ea - ea, [0] * G.ngens)
        assert_element(-ea, [-x for x in a])
        assert_element(k * ea, [k * x for x in a])
        same = G.normal_form(a) == G.normal_form(b)
        assert (ea == eb) == same == (eb == ea)
        assert (ea - eb).is_zero == same
        if same:
            assert hash(ea) == hash(eb)
        image = h(ea)
        assert_element(image, h.apply_vector(a))
        assert image == h.target.element(h.apply_vector(a))

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(named_homs(), st.data())
    def test_dict_input_against_two_passes(self, h, data):
        G = h.source
        coeffs = data.draw(mixed_element_inputs(G))
        try:
            want = element_by_two_passes(G, coeffs)
        except (ShapeMismatch, KeyError, TypeError) as err:
            with pytest.raises(type(err)) as raised:
                G.element(coeffs)
            assert type(raised.value) is type(err)
        else:
            assert G.element(coeffs)._vec == want

    def test_repr_and_views_leave_the_element_alone(self):
        G = FpAbelianGroup(("a", "b", "c"))
        e = G.element({"c": 2, 0: -1, "b": 3, 1: -3})
        assert repr(e) == "-1*'a' + 2*'c'" and repr(G.zero()) == "0"
        e.vector[1] = 5
        assert e.vector == {0: -1, 2: 2} and e.coeffs == (-1, 0, 2)
        with pytest.raises(AttributeError):
            e.group = G

    def test_indices_out_of_range_raise(self):
        G = FpAbelianGroup(("a", "b", "c"))
        for k in (-1, 3, 5):
            with pytest.raises(ShapeMismatch):
                G.element({k: 1})
        with pytest.raises(ShapeMismatch):
            G.element([1, 2])

    def test_coefficients_must_be_integers(self):
        G = FpAbelianGroup(("a", "b", "c"))
        with pytest.raises(TypeError):
            G.element([0.5, 1.9, -0.7])
        with pytest.raises(TypeError):
            G.element({"a": 1.0})
        g = G.gen("a")
        with pytest.raises(TypeError):
            2.5 * g
        assert (True * g, 0 * g) == (g, G.zero())

    def test_query_path_reads_no_dense_vector(self, monkeypatch):
        """Applying eta'(3, 3), pulling back, comparing and hashing go
        through sparse vectors only: no dense product, no dense normal
        form."""
        h = eta_prime(3, 3)
        gens = h.source.generators
        queries = [{gens[0]: 1}, {gens[1]: 2, gens[-1]: -1},
                   {g: i % 3 - 1 for i, g in enumerate(gens)}]
        want = [tuple(h.apply_vector(h.source.element(q).coeffs))
                for q in queries]

        def dense(*args):
            raise AssertionError("dense path taken")
        monkeypatch.setattr(IntMatrix, "mul_vector", dense)
        monkeypatch.setattr(FpAbelianGroup, "normal_form", dense)
        images = set()
        for q, coeffs in zip(queries, want):
            image = h(h.source.element(q))
            x = h.preimage_vector(image.vector)
            back = h(h.source.element(x))
            assert back == image and hash(back) == hash(image)
            images.update((image, back))
            assert image.coeffs == coeffs
        # eta' is an isomorphism: it keeps the count of distinct elements
        assert len(images) == len({h.source.element(q) for q in queries})


# IntMatrix stores sparse columns; plain lists of lists are the reference.
def ref_columns(r, c, rows):
    return [[rows[i][j] for i in range(r)] for j in range(c)]


def ref_mul(a, b, k, c):
    return [[sum(row[t] * b[t][j] for t in range(k)) for j in range(c)]
            for row in a]


@st.composite
def dense(draw, r=None, c=None):
    r = draw(st.integers(0, 4)) if r is None else r
    c = draw(st.integers(0, 4)) if c is None else c
    return r, c, draw(st.lists(ints(c), min_size=r, max_size=r))


@st.composite
def built(draw, r=None, c=None):
    """A dense reference and the same matrix built one of five ways."""
    r, c, rows = draw(dense(r, c))
    cols = ref_columns(r, c, rows)
    way = draw(st.sampled_from(("rows", "dense_cols", "dict_cols",
                                "identity", "zeros")))
    if way == "identity" and r == c:
        rows = [[int(i == j) for j in range(c)] for i in range(r)]
        return r, c, rows, IntMatrix.identity(r)
    if way == "zeros":
        return r, c, [[0] * c for _ in range(r)], IntMatrix.zeros(r, c)
    if way == "dense_cols":
        return r, c, rows, IntMatrix.from_columns(cols, r)
    if way == "dict_cols":
        # shuffled keys with some stored zeros: from_columns normalises
        dicts = []
        for col in cols:
            keys = draw(st.permutations(range(r)))
            keep = draw(st.lists(st.booleans(), min_size=r, max_size=r))
            dicts.append({i: col[i] for i, k in zip(keys, keep)
                          if col[i] or k})
        return r, c, rows, IntMatrix.from_columns(dicts, r)
    return r, c, rows, IntMatrix(rows, cols=c)


class TestIntMatrixAgainstDense:
    @PROPS
    @given(built())
    def test_views(self, rcm):
        r, c, rows, m = rcm
        assert (m.rows, m.cols) == (r, c)
        assert m.data == tuple(map(tuple, rows))
        assert dense_columns(m) == ref_columns(r, c, rows)
        sparse = m.sparse_columns()
        assert sparse == [{i: v for i, v in enumerate(col) if v}
                          for col in ref_columns(r, c, rows)]
        for col in sparse:
            assert list(col) == sorted(col) and all(col.values())
            col[0] = 99  # the returned dicts are copies
        assert m.data == tuple(map(tuple, rows))

    @PROPS
    @given(built(), st.data())
    def test_equal_builds_agree(self, rcm, data):
        r, c, rows, m = rcm
        same = IntMatrix.from_columns(ref_columns(r, c, rows), r)
        assert m == same and hash(m) == hash(same)
        r2, c2, rows2, other = data.draw(built())
        assert (m == other) == ((r, c, rows) == (r2, c2, rows2))

    @PROPS
    @given(built(), st.data())
    def test_products_and_stack(self, rcm, data):
        r, c, rows, m = rcm
        k = data.draw(st.integers(0, 4))
        _, _, rows2, other = data.draw(built(c, k))
        assert m.mul(other).data == tuple(map(tuple, ref_mul(rows, rows2,
                                                             c, k)))
        vec = data.draw(ints(c))
        want = [sum(a * b for a, b in zip(row, vec)) for row in rows]
        assert m.mul_vector(vec) == want
        assert m.mul_vector({j: x for j, x in enumerate(vec) if x}) == want
        _, _, rows3, right = data.draw(built(r, k))
        assert m.hstack(right).data == tuple(
            tuple(a + b) for a, b in zip(rows, rows3))
        assert m.hstack(right).cols == c + k

    def test_empty_shapes(self):
        assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)
        assert IntMatrix([], cols=3) == IntMatrix.from_columns([[]] * 3, 0)
        assert IntMatrix([[], []]) == IntMatrix.from_columns([], 2)
        assert IntMatrix.zeros(2, 0).data == ((), ())
        assert IntMatrix.zeros(0, 2).mul(IntMatrix.zeros(2, 3)).data == ()

    def test_bad_shapes_raise(self):
        with pytest.raises(ShapeMismatch):
            IntMatrix([[1, 2], [3]])
        with pytest.raises(ShapeMismatch):
            IntMatrix([[1, 2]], cols=3)
        for row in (-1, 3):
            with pytest.raises(ShapeMismatch):
                IntMatrix.from_columns([{0: 1, row: 1}], 3)
        with pytest.raises(ShapeMismatch):
            IntMatrix.from_columns([[1, 2]], 3)

    def test_sparse_columns_stay_sparse(self):
        tracemalloc.start()
        try:
            m = IntMatrix.from_columns([{0: 1, 999_999: -1}], 1_000_000)
            assert m.sparse_columns() == [{0: 1, 999_999: -1}]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
