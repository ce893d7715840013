"""Tree groups T, T~, T^inf and the framing map."""

import pytest

from oracles import (canonical_unrooted_by_rootings, ihx_vertex_raw,
                     onequad_unrooted_expansions, relation_lattice,
                     relator_columns)
from quasilie.abelian import (AbelianHom, FpAbelianGroup, IntMatrix, Lattice,
                              exact_at)
from quasilie.lie import LIE, d_group, witt_rank
from quasilie.treegroups import delta, t_group, t_infinity, t_tilde
from quasilie.trees import canonical_unrooted, leaf, node


class TestPlain:
    def test_small_structures(self):
        assert t_group(0, 2).structure == (3, ())
        assert t_group(1, 2).structure == (0, (2, 2, 2, 2))
        assert t_group(1, 1).structure == (0, (2,))

    def test_h_tree_survives_order2(self):
        # <(1,2),(1,2)> generates free rank in T_2(2)
        assert t_group(2, 2).structure == (1, ())
        assert t_group(2, 1).structure == (0, ())


def canonical_triples(raw):
    """Raw relator triples as triples of oracle canonical forms."""
    return ([canonical_unrooted_by_rootings(*pair) for pair, _sign in trip]
            for trip in raw)


def two_torsion_columns(g):
    """The relators 2t of the self-negating generators t of a tree group."""
    return [{j: 2} for j, t in enumerate(g.generators)
            if canonical_unrooted_by_rootings(t.label, t.tree).self_negating]


class TestRelators:
    def test_ihx_columns_are_the_distinct_triple_columns(self):
        # one triple per 4-valent vertex
        g = t_group(8, 2)
        want = two_torsion_columns(g) + relator_columns(
            g.index, canonical_triples(ihx_vertex_raw(8, 2)))
        cols = g.relations.sparse_columns()
        assert cols == want
        assert all(list(col) == sorted(col) for col in cols)

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 2), (7, 2), (4, 3), (5, 3)])
    def test_same_lattice_as_every_arrangement(self, n, m):
        # IHX as first written, at every arrangement (A, B, C | D) of every
        # vertex, presents the same group on the same generators
        g = t_group(n, m)
        cols = two_torsion_columns(g) + relator_columns(
            g.index, canonical_triples(onequad_unrooted_expansions(n, m)))
        assert len(cols) > g.relations.cols
        assert Lattice(g.ngens, cols).canonicalize().rows \
            == relation_lattice(g).rows
        assert FpAbelianGroup(g.generators, IntMatrix.from_columns(
            cols, g.ngens)).structure == g.structure


class TestRankOracle:
    """Free ranks from the Witt formula alone.

    The bracket L_1 (x) L_{n+1} -> L_{n+2} is onto, so its kernel D_n(m) has
    rank m*W(n+1, m) - W(n+2, m); eta' makes T_n(m) rationally isomorphic to
    D_n(m).
    """

    @staticmethod
    def rank(n, m):
        return m * witt_rank(n + 1, m) - witt_rank(n + 2, m)

    def test_t_two_labels(self):
        for n in range(7):
            assert t_group(n, 2).free_rank == self.rank(n, 2), n

    def test_t4_three_labels(self):
        assert t_group(4, 3).free_rank == self.rank(4, 3) == 28

    def test_d_group(self):
        for m, top in ((1, 4), (2, 4), (3, 3)):
            for n in range(top + 1):
                assert d_group(n, m, LIE).group.free_rank == self.rank(n, m), \
                    (n, m)


class TestDelta:
    def test_mixed_edge(self):
        dl = delta(1, 2)
        src, dst = dl.source, dl.target
        col = dl.matrix.sparse_columns()[
            src.index[canonical_unrooted(1, leaf(2)).tree]]
        y122 = dst.index[canonical_unrooted(1, node(leaf(2), leaf(2))).tree]
        y211 = dst.index[canonical_unrooted(2, node(leaf(1), leaf(1))).tree]
        assert set(col) == {y122, y211}
        assert all(abs(v) == 1 for v in col.values())

    def test_doubled_edge_vanishes(self):
        dl = delta(1, 2)
        col = dl.matrix.sparse_columns()[
            dl.source.index[canonical_unrooted(1, leaf(1)).tree]]
        assert dl.target.element(col).is_zero

    def test_two_delta_vanishes(self):
        for n in (1, 2):
            dl = delta(n, 2)
            for col in dl.matrix.sparse_columns():
                doubled = {i: 2 * x for i, x in col.items()}
                assert relation_lattice(dl.target).contains(doubled)


class TestTilde:
    def test_structures(self):
        assert t_tilde(1, 2).structure == (0, (2, 2, 2))
        assert t_tilde(1, 1).structure == (0, (2,))

    def test_even_is_alias(self):
        tg, tt = t_group(2, 2), t_tilde(2, 2)
        assert tt.same_presentation(tg)

    def test_quotient_surjective(self):
        for n in (1, 3):
            q = AbelianHom.identity(t_group(n, 2), t_tilde(n, 2))
            assert q.surjective


class TestTwisted:
    def test_order0_two_labels(self):
        ti = t_infinity(0, 2)
        assert ti.group.structure == (3, ())
        # 2 X_i^inf = i-i
        g = ti.group
        for i in (1, 2):
            twice = 2 * g.gen(("inf", leaf(i)))
            edge = g.gen(canonical_unrooted(i, leaf(i)).tree)
            assert twice == edge

    def test_order1_two_labels_trivial(self):
        assert t_infinity(1, 2).group.is_trivial

    def test_order1_three_labels(self):
        # boundary twists kill repeated-label Y trees; Y(1,2,3) survives
        ti = t_infinity(1, 3)
        assert ti.group.structure == (1, ())
        g = ti.group
        y123 = g.gen(canonical_unrooted(1, node(leaf(2), leaf(3))).tree)
        assert not y123.is_zero
        y112 = g.gen(canonical_unrooted(1, node(leaf(1), leaf(2))).tree)
        assert y112.is_zero
        # cross-check against the bracket kernel of the same order
        assert ti.group.structure == d_group(1, 3, LIE).group.structure

    def test_order2_single_label(self):
        assert t_infinity(2, 1).group.structure == (0, (2,))

    def test_even_sequence_exact(self):
        for m in (1, 2):
            for n in (0, 2, 4):
                ti = t_infinity(n, m)
                left, right = ti.maps["inclusion"], ti.maps["coker"]
                assert left.injective
                assert exact_at(left, right)
                assert right.surjective
                # cokernel of the inclusion is Z2 (x) L'_{q+1}
                cok = left.cokernel
                assert cok.structure == right.target.structure

    def test_odd_quotient_surjective(self):
        for n in (1, 3):
            assert t_infinity(n, 2).maps["quotient"].surjective
