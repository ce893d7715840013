"""Free Lie / quasi-Lie grades, bracket kernels, and the snake-lemma maps."""

import random

import pytest

from oracles import relation_lattice, relator_columns
from quasilie import lie
from quasilie.abelian import (AbelianHom, Lattice, NotDivisible, exact_at,
                              pullback, tensor_Z2)
from quasilie.eta import d_tilde
from quasilie.lie import (LIE, QUASI, bracket_hom, d_group, d_infinity,
                          lie_group, proj_p, sl, sq, tensor_with_L1,
                          tree_coords, witt_rank)
from quasilie.trees import (canonical_rooted, leaf, node,
                            onequad_rooted_expansions, rooted_trees)


class TestLieGroups:
    def test_witt_rank_oracle(self):
        for m in (1, 2, 3):
            for n in range(1, 7):
                g = lie_group(n, m, LIE)
                assert g.structure == (witt_rank(n, m), ()), (n, m)

    def test_witt_rank_needs_positive_degree(self):
        for n in (0, -1, -4):
            with pytest.raises(ValueError, match="degree >= 1"):
                witt_rank(n, 2)
        assert witt_rank(1, 2) == 2

    def test_quasi_examples(self):
        assert lie_group(2, 2, QUASI).structure == (1, (2, 2))
        assert lie_group(2, 1, QUASI).structure == (0, (2,))
        assert lie_group(5, 2, LIE).structure == (6, ())

    def test_quasi_torsion_is_squaring_kernel(self):
        # L'_{2k} has torsion Z2 (x) L_k, odd degrees are torsion-free
        for m in (1, 2):
            for k in (1, 2, 3):
                tors = lie_group(2 * k, m, QUASI).torsion
                zl = tensor_Z2(lie_group(k, m, LIE))
                assert tors == zl.torsion
            for n in (3, 5):
                assert lie_group(n, m, QUASI).torsion == []


class TestSquaresCentral:
    """((u, u), w) = 0 in L': the Jacobi relator with A = B.  So squares are
    central, and (u, u) spans an order-2 summand exactly where u is nonzero
    in Z2 (x) L_k (sq is injective)."""

    @pytest.mark.parametrize("m,top", [(2, 8), (3, 6)])
    def test_squares(self, m, top):
        lattices = {}

        def quasi_lattice(n):
            if n not in lattices:
                lattices[n] = relation_lattice(lie_group(n, m, QUASI))
            return lattices[n]

        for k in range(1, top // 2 + 1):
            quasi = quasi_lattice(2 * k)
            z2 = tensor_Z2(lie_group(k, m, LIE))
            z2_lattice = relation_lattice(z2)
            for u in rooted_trees(k - 1, m):
                v = tree_coords(lie_group(2 * k, m, QUASI), node(u, u))
                assert quasi.contains({j: 2 * c for j, c in v.items()})
                assert quasi.contains(v) == z2_lattice.contains(
                    tree_coords(z2, u)), u
                for j in range(1, top - 2 * k + 1):
                    g = lie_group(2 * k + j, m, QUASI)
                    for w in rooted_trees(j - 1, m):
                        assert quasi_lattice(2 * k + j).contains(
                            tree_coords(g, node(node(u, u), w))), (u, w)

    def test_some_squares_are_nonzero(self):
        # u = (1, 2) is a basis element of L_2, so ((1,2),(1,2)) has order 2
        g = lie_group(4, 2, QUASI)
        v = tree_coords(g, node(node(leaf(1), leaf(2)), node(leaf(1), leaf(2))))
        assert not relation_lattice(g).contains(v)


class TestRelators:
    @pytest.mark.parametrize("n,m", [(9, 2), (7, 3)])
    @pytest.mark.parametrize("variant", [LIE, QUASI])
    def test_jacobi_columns_are_the_distinct_triple_columns(self, n, m,
                                                            variant):
        # every Jacobi triple, turned into its column, against the distinct
        # columns that the engine builds once each
        g = lie_group(n, m, variant)
        want = [{j: 1 if variant == LIE else 2}
                for j, t in enumerate(g.generators)
                if canonical_rooted(t).self_negating]
        want += relator_columns(g.index, onequad_rooted_expansions(n - 3, m))
        cols = g.relations.sparse_columns()
        assert cols == want
        assert all(list(col) == sorted(col) for col in cols)


class TestBracket:
    def test_self_annihilation_lie(self):
        h = bracket_hom(0, 1, LIE)
        img = h(h.source.gen((1, leaf(1))))
        assert img.is_zero

    def test_self_bracket_quasi_torsion(self):
        h = bracket_hom(0, 1, QUASI)
        img = h(h.source.gen((1, leaf(1))))
        assert not img.is_zero
        assert (2 * img).is_zero
        assert h.target.structure == (0, (2,))

    def test_skew_symmetry(self):
        h = bracket_hom(0, 2, LIE)
        a = h(h.source.gen((2, leaf(1))))
        b = h(h.source.gen((1, leaf(2))))
        assert a == -b

    def test_surjective_both_variants(self):
        for m in (1, 2):
            for n in range(0, 4):
                for var in (LIE, QUASI):
                    assert bracket_hom(n, m, var).surjective


class TestDGroups:
    def test_d0_quasi_rank3_with_lattice(self):
        D = d_group(0, 2, QUASI)
        assert D.group.structure == (3, ())
        src = D.inclusion.target
        got = Lattice(src.ngens, D.inclusion.matrix.sparse_columns())
        want = Lattice(src.ngens)
        vec = [0] * 4
        vec[src.index[(1, leaf(1))]] = 2
        want.add(vec)
        vec = [0] * 4
        vec[src.index[(1, leaf(2))]] = 1
        vec[src.index[(2, leaf(1))]] = 1
        want.add(vec)
        vec = [0] * 4
        vec[src.index[(2, leaf(2))]] = 2
        want.add(vec)
        assert got.equals(want)

    def test_d1_lie_trivial(self):
        assert d_group(1, 2, LIE).group.is_trivial

    def test_d0_rank1_single_label(self):
        assert d_group(0, 1, LIE).group.structure == (1, ())

    def test_basis_rows_are_inclusion_columns(self):
        # the kernel read is over the kernel's basis, the inclusion's
        # columns in order, and rejects an ambient vector outside it
        for m in (1, 2):
            for n in range(0, 4):
                for var in (LIE, QUASI):
                    D = d_group(n, m, var)
                    read = D.bracket.kernel_coordinates
                    cols = D.inclusion.matrix.sparse_columns()
                    assert [read(c) for c in cols] \
                        == [{j: 1} for j in range(len(cols))]
                    coeffs = list(range(1, len(cols) + 1))
                    assert read(D.inclusion.apply_vector(coeffs)) \
                        == dict(enumerate(coeffs))
                    for i, c in enumerate(D.bracket.matrix.sparse_columns()):
                        if not D.bracket.target.element(c).is_zero:
                            with pytest.raises(NotDivisible):
                                read({i: 1})

    def test_inclusion_injective_and_exact(self):
        for m in (1, 2):
            for n in range(0, 4):
                D = d_group(n, m, LIE)
                assert D.inclusion.injective
                assert exact_at(D.inclusion, bracket_hom(n, m, LIE))


class TestProjectionSequence:
    def test_proj_kernels(self):
        assert proj_p(2, 2).kernel.structure == (0, (2, 2))
        assert proj_p(3, 2).isomorphism
        assert proj_p(2, 1).kernel.structure == (0, (2,))

    def test_sequence_exact(self):
        for m in (1, 2):
            for k in (1, 2, 3):
                sqm = sq(k, m)
                p = proj_p(2 * k, m)
                assert sqm.injective
                assert p.surjective
                assert exact_at(sqm, p)

    def test_sq_image_is_kernel_of_p(self):
        for m in (1, 2):
            for k in (1, 2):
                sqm = sq(k, m)
                p = proj_p(2 * k, m)
                ker = Lattice(p.source.ngens, p.kernel_lattice.rows)
                for col in p.source.relations.sparse_columns():
                    vec = [0] * p.source.ngens
                    for i, v in col.items():
                        vec[i] = v
                    ker.add(vec)
                assert sqm.image_lattice.equals(ker)

    def test_sq_examples(self):
        s = sq(1, 1)
        assert s.injective
        assert s.target.structure == (0, (2,))
        s = sq(1, 2)
        assert s.injective
        assert s.source.structure == (0, (2, 2))


class TestSl:
    def test_zero_target_single_label(self):
        s = sl(2, 1)
        assert s.target.is_trivial

    def test_surjective_k1_m2(self):
        assert sl(2, 2).surjective

    def test_lift_independence(self):
        rng = random.Random(11)
        m = 2
        D = d_group(2, m, LIE)
        quasi_br = bracket_hom(2, m, QUASI)
        sqmap = sq(2, m)
        base = sl(2, m)
        rels = D.inclusion.target.relations.sparse_columns()
        n = D.inclusion.target.ngens
        for z, base_col in zip(D.inclusion.matrix.sparse_columns(),
                               base.matrix.sparse_columns()):
            for _ in range(4):
                pert = [z.get(i, 0) for i in range(n)]
                for _ in range(3):
                    col = rng.choice(rels)
                    c = rng.randint(-2, 2)
                    for i, v in col.items():
                        pert[i] += c * v
                x = sqmap.preimage_vector(quasi_br.apply_vector(pert))
                assert x is not None
                diff = [x.get(i, 0) - base_col.get(i, 0)
                        for i in range(sqmap.source.ngens)]
                assert relation_lattice(sqmap.source).contains(diff)


class TestDTilde:
    def test_quotient_matches_t_tilde(self):
        # order 1, two labels: the quotient has the tilde tree group's shape
        from quasilie.treegroups import t_tilde
        dt = d_tilde(1, 2)
        assert dt.structure == t_tilde(1, 2).structure == (0, (2, 2, 2))
        q = AbelianHom.identity(d_group(1, 2, QUASI).group, dt)
        assert q.surjective

    def test_trivial_framing_image_single_label(self):
        dt = d_tilde(1, 1)
        assert dt.structure == d_group(1, 1, QUASI).group.structure

    def test_quotient_always_surjective(self):
        for m in (1, 2):
            for n in (1, 3):
                q = AbelianHom.identity(d_group(n, m, QUASI).group,
                                        d_tilde(n, m))
                assert q.surjective

    def test_odd_only(self):
        with pytest.raises(ValueError):
            d_tilde(2, 1)


class TestDInfinity:
    def test_k1_kernel_of_p(self):
        di = d_infinity(2, 1)
        assert di.p_hom.kernel.structure == (0, (2,))
        assert di.p_hom.surjective

    def test_sq_inf_injective(self):
        for m in (1, 2):
            di = d_infinity(2, m)
            assert di.sq_inf.injective
            assert exact_at(di.sq_inf, di.p_hom)

    def test_basis_rows_are_projection_pairs(self):
        for m in (1, 2):
            di = d_infinity(2, m)
            nd = di.p_hom.target.ngens
            pairs = [a | {nd + i: v for i, v in b.items()}
                     for a, b in zip(di.p_hom.matrix.sparse_columns(),
                                     di.sl_prime.matrix.sparse_columns())]
            assert di.difference.kernel_inclusion.matrix.sparse_columns() \
                == pairs
            assert [di.difference.kernel_coordinates(p) for p in pairs] \
                == [{i: 1} for i in range(len(pairs))]

    def test_basis_is_the_difference_maps_kernel_lattice(self, monkeypatch):
        made = []

        def recording(f, g):
            made.append(pullback(f, g))
            return made[-1]
        monkeypatch.setattr(lie, "pullback", recording)
        di = d_infinity.__wrapped__(2, 2)
        assert di.difference is made[0]
        assert di.group is made[0].kernel
        # each generator's pair of projections has coordinates e_i
        for i, (a, b) in enumerate(zip(di.p_hom.matrix.sparse_columns(),
                                       di.sl_prime.matrix.sparse_columns())):
            assert di.pair_coordinates(a, b) == {i: 1}

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            d_infinity(4, 1)


class TestTensor:
    def test_tensor_replicates_relations(self):
        g = tensor_with_L1(2, 2, QUASI)
        # 2 labels x 3 generators of L'_2(2)
        assert g.ngens == 6
        assert g.structure == (2, (2, 2, 2, 2))
