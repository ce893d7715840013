"""The eta homomorphisms and the claim-verification suite."""

import importlib
import json

import pytest

from oracles import relation_lattice
from quasilie.abelian import (AbelianHom, FpAbelianGroup, IntMatrix,
                              Lattice, NotDivisible, tensor_Z2)
from quasilie.eta import (ALL_CLAIMS, beta_hom, d_tilde, dprime_to_d,
                          dtilde_left_map, eta, eta_infinity, eta_prime,
                          eta_tilde, eta_vector, odd_left_map, verify,
                          verify_all)
from quasilie.lie import (LIE, QUASI, BracketKernel, ConsistencyError,
                          ImageEscapesKernel, WellDefinednessError, d_group,
                          d_infinity, lie_group, sl, tensor_with_L1)
from quasilie.trees import canonical_unrooted, glue, leaf, node, rooted_trees

# the package re-exports the function eta, which shadows the module
E = importlib.import_module("quasilie.eta")


class TestEtaPrime:
    def test_order0_formula(self):
        # eta' into the full tensor group L_1 (x) L'_1
        amb = d_group(0, 2, QUASI).inclusion.compose(eta_prime(0, 2))
        src, dst = amb.source, amb.target
        col = amb.matrix.sparse_columns()[
            src.index[canonical_unrooted(1, leaf(2)).tree]]
        assert {dst.generators[i]: v for i, v in col.items()} \
            == {(1, leaf(2)): 1, (2, leaf(1)): 1}
        col = amb.matrix.sparse_columns()[
            src.index[canonical_unrooted(1, leaf(1)).tree]]
        assert {dst.generators[i]: v for i, v in col.items()} \
            == {(1, leaf(1)): 2}

    def test_order0_is_identity_matrix_in_kernel_basis(self):
        ep = eta_prime(0, 2)
        assert [list(r) for r in ep.matrix.data] \
            == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert ep.isomorphism

    def test_isomorphism_instances(self):
        for m in (1, 2):
            for n in range(0, 4):
                assert eta_prime(n, m).isomorphism, (n, m)


class TestEta:
    def test_infinity_generator_halving(self):
        e = eta(0, 1)
        col = e.matrix.sparse_columns()[e.source.index[("inf", leaf(1))]]
        img = e.target.element(col)
        incl = d_group(0, 1, LIE).inclusion
        amb = incl(img)
        assert list(amb.coeffs) == [1]  # X1 (x) X1

    def test_boundary_twist_killed(self):
        for m in (1, 2):
            ambient = tensor_with_L1(2, m, LIE)
            for i in range(1, m + 1):
                for jt in rooted_trees(0, m):
                    lab, raw = glue(node(leaf(i), jt), jt)
                    vec = eta_vector(ambient, lab, raw)
                    assert relation_lattice(ambient).contains(vec)

    def test_halves_share_one_doubling_map(self, monkeypatch):
        scales = []
        real = AbelianHom.scale

        def scale(h, k):
            scales.append(k)
            return real(h, k)
        monkeypatch.setattr(AbelianHom, "scale", scale)
        h = eta.__wrapped__(6, 2)
        assert scales == [2]
        assert h.matrix == eta(6, 2).matrix

    def test_odd_double_fails_loudly(self, monkeypatch):
        # <1,2> stands in for every <J,J>: its eta image is not divisible by 2
        real = E.glue
        monkeypatch.setattr(E, "glue", lambda a, b: real(leaf(1), leaf(2)))
        with pytest.raises(WellDefinednessError,
                           match=r"eta\(0,2\) image of .* not divisible by 2"
                           ) as e:
            eta.__wrapped__(0, 2)
        assert isinstance(e.value.__cause__, NotDivisible)

    def test_square_infinity_in_kernel(self):
        e = eta(2, 1)
        col = e.matrix.sparse_columns()[
            e.source.index[("inf", node(leaf(1), leaf(1)))]]
        assert e.target.element(col).is_zero or not col

    def test_odd_isomorphisms(self):
        for m in (1, 2):
            for n in (1, 3):
                assert eta(n, m).isomorphism

    def test_4k_isomorphisms(self):
        for m in (1, 2):
            for n in (0, 4):
                assert eta(n, m).isomorphism


class TestEtaTilde:
    def test_isomorphisms(self):
        for m in (1, 2):
            for n in (1, 3):
                assert eta_tilde(n, m).isomorphism

    def test_quotient_square_commutes(self):
        from quasilie.treegroups import t_group, t_tilde
        for m in (1, 2):
            et = eta_tilde(1, m)
            dquot = AbelianHom.identity(d_group(1, m, QUASI).group,
                                        d_tilde(1, m))
            tquot = AbelianHom.identity(t_group(1, m), t_tilde(1, m))
            lhs = et.compose(tquot)
            rhs = dquot.compose(eta_prime(1, m))
            assert lhs.equals(rhs)

    def test_z2_cube_instance(self):
        et = eta_tilde(1, 2)
        assert et.source.structure == (0, (2, 2, 2))
        assert et.isomorphism


class TestEtaInfinity:
    def test_isomorphism_k1(self):
        for m in (1, 2):
            assert eta_infinity(2, m).isomorphism

    def test_square_generator_identity(self):
        # eta_inf((J,J)^inf) = sq_inf(1 (x) J) is asserted at construction;
        # reaching here means it held for every J
        eta_infinity(2, 2)

    def test_projection_recovers_eta(self):
        from quasilie.lie import d_infinity
        for m in (1, 2):
            h = eta_infinity(2, m)
            di = d_infinity(2, m)
            assert di.p_hom.compose(h).equals(eta(2, m))


class TestLeftMaps:
    def test_beta_surjective(self):
        for m in (1, 2):
            for n in (1, 2):
                assert beta_hom(n, m).surjective

    def test_odd_left_injective(self):
        for m in (1, 2):
            for n in (1, 2):
                assert odd_left_map(n, m).injective

    def test_connecting_square(self):
        for m in (1, 2):
            n = 1
            lhs = eta_tilde(2 * n - 1, m).compose(odd_left_map(n, m))
            assert lhs.equals(dtilde_left_map(n, m))


def doubled_reads(monkeypatch, variant):
    """Make eta's bracket kernels of `variant` read coordinates through the
    real `kernel_coordinates` over the doubled kernel lattice.  The kernel
    group and its inclusion are kept, so a vector escapes exactly when one
    of its kernel coordinates is odd."""
    real = E.d_group

    def d_group(n, m, var):
        k = real(n, m, var)
        if var != variant:
            return k
        b = k.bracket
        h = AbelianHom(b.source, b.target, b.matrix, check=False)
        h.kernel, h.kernel_inclusion = b.kernel, b.kernel_inclusion
        h.kernel_lattice = Lattice(
            b.kernel_lattice.n, [{j: 2 * v for j, v in row.items()}
                                 for row in b.kernel_lattice.rows])
        return BracketKernel(h)
    monkeypatch.setattr(E, "d_group", d_group)


class TestDPrimeToD:
    def test_escape_is_a_consistency_error(self, monkeypatch):
        """A D' generator outside the D kernel, forced by doubling the
        lattice that D's coordinate read sees, raises ImageEscapesKernel,
        which the CLI reports with exit 7."""
        doubled_reads(monkeypatch, LIE)
        with pytest.raises(ImageEscapesKernel,
                           match=r"dprime_to_d\(2,2\)") as e:
            dprime_to_d.__wrapped__(2, 2)
        assert isinstance(e.value, ConsistencyError)
        assert isinstance(e.value.__cause__, NotDivisible)

    def test_columns_are_the_quasi_inclusion_read_in_d(self):
        # L_1 (x) L_{n+1} and L_1 (x) L'_{n+1} share their generator keys,
        # so each D' column is, exactly, its D coordinates pushed back out
        for m in (1, 2):
            for n in range(4):
                h = dprime_to_d(n, m)
                assert d_group(n, m, LIE).inclusion.matrix.mul(h.matrix) \
                    == d_group(n, m, QUASI).inclusion.matrix


class TestKernelEscapes:
    """A vector outside the bracket kernel, met on the real code path of a
    builder, raises ImageEscapesKernel with the NotDivisible as its
    cause."""

    def test_root_sum_of_eta_prime(self, monkeypatch):
        doubled_reads(monkeypatch, QUASI)
        with pytest.raises(ImageEscapesKernel,
                           match=r"eta'\(2,2\) image of <.*> escapes D'$"
                           ) as e:
            eta_prime.__wrapped__(2, 2)
        assert isinstance(e.value.__cause__, NotDivisible)

    def test_dtilde_left_map(self, monkeypatch):
        doubled_reads(monkeypatch, QUASI)
        with pytest.raises(ImageEscapesKernel,
                           match=r"dtilde_left_map\(1,2\): squared lift "
                                 r"escapes D'") as e:
            dtilde_left_map.__wrapped__(1, 2)
        assert isinstance(e.value.__cause__, NotDivisible)


class TestMasterBlock:
    def test_missing_pbar_lift_is_named(self, monkeypatch):
        """A column of sl(4, 1) with no lift through pbar: Z2 (x) L'_3 ->
        Z2 (x) L_3 stops the master block with an error that names it."""
        quasi_z2 = tensor_Z2(lie_group(3, 1, QUASI))
        lie_z2 = tensor_Z2(lie_group(3, 1, LIE))
        real = AbelianHom.preimage_vector

        def preimage_vector(h, vec):
            if (h.source.same_presentation(quasi_z2)
                    and h.target.same_presentation(lie_z2)):
                return None
            return real(h, vec)
        monkeypatch.setattr(AbelianHom, "preimage_vector", preimage_vector)
        with pytest.raises(WellDefinednessError,
                           match=r"block\(k=1,m=1\): sl\(4,1\)"):
            verify("master_diagram_1", max_order=4, labels=1)


class TestSparseSeam:
    def test_builders_pass_only_sparse_columns(self, monkeypatch):
        """The eta and lie builders hand sparse dicts to `from_columns`, so
        no column of theirs is made dense on the way."""
        kinds = set()
        real = IntMatrix.from_columns.__func__

        def from_columns(cls, columns, nrows):
            columns = list(columns)
            kinds.update(type(col) for col in columns)
            return real(cls, columns, nrows)
        monkeypatch.setattr(IntMatrix, "from_columns",
                            classmethod(from_columns))
        orders = range(7)
        builds = [(eta_prime, orders), (eta, orders), (dprime_to_d, orders),
                  (eta_infinity, (2, 6)), (d_infinity, (2, 6)),
                  (sl, (0, 2, 4, 6)),
                  # the odd maps at n land in order 2n - 1 <= 6
                  (odd_left_map, (1, 2, 3)), (dtilde_left_map, (1, 2, 3))]
        for build, ns in builds:
            for n in ns:
                build.__wrapped__(n, 2)
        assert kinds == {dict}


class TestVerify:
    def test_all_claims_at_budget(self):
        reports = verify_all(max_order=2, labels=2, seed=0)
        assert len(reports) == len(ALL_CLAIMS) >= 10
        by_claim = {r.claim: r for r in reports}
        assert by_claim["master_diagram_1"].status == "skipped"
        for claim, r in by_claim.items():
            if claim != "master_diagram_1":
                assert r.status == "verified", (claim, r.witness)

    def test_reports_serialize(self):
        r = verify("thm31_i", max_order=1, labels=1)
        d = json.loads(r.to_json())
        assert set(d) == {"claim", "params", "status", "witness"}

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            verify("nonsense")

    def test_thm31_v_witness(self):
        r = verify("thm31_v", max_order=2, labels=1)
        assert r.status == "verified"
        inst = r.witness["instances"]["ker eta(2,1)"]
        assert inst["kernel"] == {"free_rank": 0, "torsion": [2]}
        assert inst["generator_map"]

    def test_tau_odd_concrete_chain(self):
        r = verify("tau_odd", max_order=1, labels=2)
        assert r.status == "verified"
        chain = r.witness["instances"][
            "0->Z2xL'_2->Ttilde_1->Tinf_1 (m=2)"]["chain"]
        assert chain == [{"free_rank": 0, "torsion": [2, 2, 2]},
                         {"free_rank": 0, "torsion": [2, 2, 2]},
                         {"free_rank": 0, "torsion": []}]

    def test_determinism(self):
        a = [r.to_json() for r in verify_all(max_order=1, labels=2, seed=5)]
        b = [r.to_json() for r in verify_all(max_order=1, labels=2, seed=5)]
        assert a == b

    def test_three_labels_within_allowance(self):
        for r in verify_all(max_order=2, labels=3):
            assert r.status in ("verified", "skipped"), (r.claim, r.witness)

    def test_root_sum_iso_at_order_four(self):
        assert verify("thm31_i", max_order=4, labels=2).status == "verified"


class TestLazyAnalysis:
    def test_verified_iso_claim_builds_no_image_or_cokernel(self,
                                                             monkeypatch):
        """A verified isomorphism claim reads the flags only."""
        # fresh maps over the cached groups, so no analysis is memoised yet
        fresh = {}
        for n in (1, 3):
            for m in (1, 2):
                h = eta(n, m)
                fresh[n, m] = AbelianHom(h.source, h.target, h.matrix,
                                         check=False)
        monkeypatch.setattr(E, "eta", lambda n, m: fresh[n, m])
        built = []
        real_init = FpAbelianGroup.__init__
        real_extra = FpAbelianGroup.with_extra_relations

        def init(group, generators, relations=None):
            real_init(group, generators, relations)
            built.append(group.generators)

        def with_extra_relations(group, columns):
            built.append("cokernel")
            return real_extra(group, columns)
        monkeypatch.setattr(FpAbelianGroup, "__init__", init)
        monkeypatch.setattr(FpAbelianGroup, "with_extra_relations",
                            with_extra_relations)
        r = verify("thm31_iii", max_order=4, labels=2)
        assert r.status == "verified"
        assert list(r.witness["instances"]) == [
            "eta(n=1,m=1)", "eta(n=3,m=1)", "eta(n=1,m=2)", "eta(n=3,m=2)"]
        # no cokernel, and no kernel or image presentation, is built
        assert "cokernel" not in built
        assert not any(gens and gens[0][0] in ("ker", "im") for gens in built)
