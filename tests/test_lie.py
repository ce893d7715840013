"""Free Lie / quasi-Lie grades, bracket kernels, and the snake-lemma maps."""

import random

import pytest

from quasilie.abelian import Lattice, exact_at, hom_analysis, tensor_Z2
from quasilie.lie import (LIE, QUASI, bracket_hom, d_group, d_infinity,
                          d_tilde, lie_group, proj_p, sl, sq, tensor_with_L1,
                          witt_rank)
from quasilie.trees import leaf


class TestLieGroups:
    def test_witt_rank_oracle(self):
        for m in (1, 2, 3):
            for n in range(1, 7):
                g = lie_group(n, m, LIE).group
                assert g.structure == (witt_rank(n, m), ()), (n, m)

    def test_quasi_examples(self):
        assert lie_group(2, 2, QUASI).group.structure == (1, (2, 2))
        assert lie_group(2, 1, QUASI).group.structure == (0, (2,))
        assert lie_group(5, 2, LIE).group.structure == (6, ())

    def test_quasi_torsion_is_squaring_kernel(self):
        # L'_{2k} has torsion Z2 (x) L_k, odd degrees are torsion-free
        for m in (1, 2):
            for k in (1, 2, 3):
                tors = lie_group(2 * k, m, QUASI).group.torsion
                zl = tensor_Z2(lie_group(k, m, LIE).group)
                assert tors == zl.torsion
            for n in (3, 5):
                assert lie_group(n, m, QUASI).group.torsion == []


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
                    assert d_group(n, m, var).bracket_surjective


class TestDGroups:
    def test_d0_quasi_rank3_with_lattice(self):
        D = d_group(0, 2, QUASI)
        assert D.group.structure == (3, ())
        src = D.inclusion.target
        got = Lattice(src.ngens,
                      [D.inclusion.matrix.column(j)
                       for j in range(D.group.ngens)])
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
        for m in (1, 2):
            for n in range(0, 4):
                for var in (LIE, QUASI):
                    D = d_group(n, m, var)
                    assert D.basis.rows == D.inclusion.matrix.columns()

    def test_inclusion_injective_and_exact(self):
        for m in (1, 2):
            for n in range(0, 4):
                D = d_group(n, m, LIE)
                assert hom_analysis(D.inclusion).injective
                assert exact_at(D.inclusion, bracket_hom(n, m, LIE))


class TestProjectionSequence:
    def test_proj_kernels(self):
        assert hom_analysis(proj_p(2, 2)).kernel.structure == (0, (2, 2))
        assert hom_analysis(proj_p(3, 2)).isomorphism
        assert hom_analysis(proj_p(2, 1)).kernel.structure == (0, (2,))

    def test_sequence_exact(self):
        for m in (1, 2):
            for k in (1, 2, 3):
                sqm = sq(k, m)
                p = proj_p(2 * k, m)
                assert hom_analysis(sqm).injective
                assert hom_analysis(p).surjective
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
        assert hom_analysis(s).injective
        assert s.target.structure == (0, (2,))
        s = sq(1, 2)
        assert hom_analysis(s).injective
        assert s.source.structure == (0, (2, 2))


class TestSl:
    def test_zero_target_single_label(self):
        s = sl(2, 1)
        assert s.target.is_trivial

    def test_surjective_k1_m2(self):
        assert hom_analysis(sl(2, 2)).surjective

    def test_lift_independence(self):
        rng = random.Random(11)
        m = 2
        D = d_group(2, m, LIE)
        quasi_br = bracket_hom(2, m, QUASI)
        sqmap = sq(2, m)
        base = sl(2, m)
        rels = D.inclusion.target.relations.sparse_columns()
        for j in range(D.group.ngens):
            z = D.inclusion.matrix.column(j)
            for _ in range(4):
                pert = list(z)
                for _ in range(3):
                    col = rng.choice(rels)
                    c = rng.randint(-2, 2)
                    for i, v in col.items():
                        pert[i] += c * v
                x = sqmap.preimage_vector(quasi_br.apply_vector(pert))
                assert x is not None
                diff = [a - b for a, b in zip(x, base.matrix.column(j))]
                assert sqmap.source.relation_lattice.contains(diff)


class TestDTilde:
    def test_quotient_matches_t_tilde(self):
        # order 1, two labels: the quotient has the tilde tree group's shape
        from quasilie.treegroups import t_tilde
        dt, q = d_tilde(1, 2)
        assert dt.structure == t_tilde(1, 2).group.structure == (0, (2, 2, 2))
        assert hom_analysis(q).surjective

    def test_trivial_framing_image_single_label(self):
        dt, _ = d_tilde(1, 1)
        assert dt.structure == d_group(1, 1, QUASI).group.structure

    def test_quotient_always_surjective(self):
        for m in (1, 2):
            for n in (1, 3):
                _, q = d_tilde(n, m)
                assert hom_analysis(q).surjective

    def test_odd_only(self):
        with pytest.raises(ValueError):
            d_tilde(2, 1)


class TestDInfinity:
    def test_k1_kernel_of_p(self):
        di = d_infinity(2, 1)
        a = hom_analysis(di.p_hom)
        assert a.kernel.structure == (0, (2,))
        assert a.surjective

    def test_sq_inf_injective(self):
        for m in (1, 2):
            di = d_infinity(2, m)
            assert hom_analysis(di.sq_inf).injective
            assert exact_at(di.sq_inf, di.p_hom)

    def test_basis_rows_are_projection_pairs(self):
        for m in (1, 2):
            di = d_infinity(2, m)
            assert di.basis.rows == [
                a + b for a, b in zip(di.p_hom.matrix.columns(),
                                      di.sl_prime.matrix.columns())]

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            d_infinity(4, 1)


class TestTensor:
    def test_tensor_replicates_relations(self):
        g = tensor_with_L1(2, 2, QUASI)
        # 2 labels x 3 generators of L'_2(2)
        assert g.ngens == 6
        assert g.structure == (2, (2, 2, 2, 2))
