"""Exact failed and skipped claim reports.

Each test forces one instance of a claim family to fail by patching a
module-level name or a map property the claim reads, then checks the whole
report and that no instance after the offender was built.
"""

import importlib

import pytest

from quasilie.abelian import AbelianHom, FpAbelianGroup
from quasilie.eta import ALL_CLAIMS, verify

# the package re-exports the function eta, which shadows the module
E = importlib.import_module("quasilie.eta")

TRIVIAL = {"free_rank": 0, "torsion": []}
Z = {"free_rank": 1, "torsion": []}
Z2 = {"free_rank": 0, "torsion": [2]}


def params(max_order, labels):
    return {"max_order": max_order, "labels": labels, "seed": 0}


def fail_on_call(real, k, forced):
    """A stand-in for `real` whose k-th call (from 1) returns forced(out)."""
    calls = []

    def fake(*args):
        calls.append(args)
        out = real(*args)
        return forced(out) if len(calls) == k else out
    fake.calls = calls
    return fake


def record(monkeypatch, name, results=None):
    """Replace eta.<name> by a wrapper that records its arguments, and
    appends what it returns to `results` when that is given."""
    real, calls = getattr(E, name), []

    def recorder(*args):
        calls.append(args)
        out = real(*args)
        if results is not None:
            results.append(out)
        return out
    monkeypatch.setattr(E, name, recorder)
    return calls


def force_read(monkeypatch, name, k, value, maps=None):
    """Patch the map property AbelianHom.<name> so that its k-th read (from
    1) returns value; with `maps`, only reads of the maps in that list
    count.  No map's memo is changed.  Returns the maps read, in order."""
    real, reads = getattr(AbelianHom, name), []

    def read(h):
        out = real.__get__(h, AbelianHom)
        if maps is None or h in maps:
            reads.append(h)
            if len(reads) == k:
                return value
        return out
    monkeypatch.setattr(AbelianHom, name, property(read))
    return reads


class TestIsomorphismClaims:
    @pytest.mark.parametrize("claim,built,max_order,k,offender,n", [
        ("thm31_i", "eta_prime", 1, 2, "eta_prime(n=1,m=1)", 1),
        ("thm31_ii", "eta_tilde", 1, 1, "eta_tilde(n=1,m=1)", 1),
        ("thm31_iii", "eta", 1, 1, "eta(n=1,m=1)", 1),
        ("thm31_iv", "eta", 0, 1, "eta(n=0,m=1)", 0),
        ("thm31_vi", "eta_infinity", 2, 1, "eta_infinity(n=2,m=1)", 2),
    ])
    def test_failed_report(self, monkeypatch, claim, built, max_order, k,
                           offender, n):
        force_read(monkeypatch, "isomorphism", k, False)
        calls = record(monkeypatch, built)
        r = verify(claim, max_order=max_order, labels=2)
        assert r.status == "failed"
        assert r.witness["offender"] == offender
        assert r.witness["kernel"] == TRIVIAL
        assert r.witness["cokernel"] == TRIVIAL
        assert set(r.witness) == {"instances", "offender", "kernel",
                                  "cokernel"}
        inst = r.witness["instances"]
        assert list(inst)[-1] == offender and len(inst) == k
        assert inst[offender]["isomorphism"] is False
        # nothing at m=2 was built once m=1 failed
        assert calls[-1] == (n, 1)
        assert all(m == 1 for _, m in calls)

    def test_thm31_i_exact(self, monkeypatch):
        force_read(monkeypatch, "isomorphism", 2, False)
        calls = record(monkeypatch, "eta_prime")
        r = verify("thm31_i", max_order=1, labels=2)
        assert r.to_dict() == {
            "claim": "thm31_i", "params": params(1, 2), "status": "failed",
            "witness": {
                "instances": {
                    "eta_prime(n=0,m=1)": {"source": Z, "target": Z,
                                           "isomorphism": True},
                    "eta_prime(n=1,m=1)": {"source": Z2, "target": Z2,
                                           "isomorphism": False}},
                "offender": "eta_prime(n=1,m=1)",
                "kernel": TRIVIAL, "cokernel": TRIVIAL}}
        assert calls == [(0, 1), (1, 1)]

    def test_thm31_vi_exact(self, monkeypatch):
        force_read(monkeypatch, "isomorphism", 1, False)
        r = verify("thm31_vi", max_order=2, labels=2)
        assert r.to_dict() == {
            "claim": "thm31_vi", "params": params(2, 2), "status": "failed",
            "witness": {
                "instances": {
                    "eta_infinity(n=2,m=1)": {"source": Z2, "target": Z2,
                                              "isomorphism": False}},
                "offender": "eta_infinity(n=2,m=1)",
                "kernel": TRIVIAL, "cokernel": TRIVIAL}}


class TestKernelClaim:
    def test_kernel_mismatch(self, monkeypatch):
        # only eta's kernel: building eta reads the bracket map's kernel
        built = []
        calls = record(monkeypatch, "eta", built)
        force_read(monkeypatch, "kernel", 1, FpAbelianGroup(()), built)
        r = verify("thm31_v", max_order=2, labels=2)
        assert r.to_dict() == {
            "claim": "thm31_v", "params": params(2, 2), "status": "failed",
            "witness": {
                "instances": {"ker eta(2,1)": {"kernel": TRIVIAL,
                                               "expected": Z2}},
                "offender": "ker eta(2,1)"}}
        assert calls == [(2, 1)]

    def test_generator_map_not_iso(self, monkeypatch):
        # the first isomorphism read is the generator map's
        reads = force_read(monkeypatch, "isomorphism", 1, False)
        calls = record(monkeypatch, "eta")
        r = verify("thm31_v", max_order=2, labels=2)
        assert r.to_dict() == {
            "claim": "thm31_v", "params": params(2, 2), "status": "failed",
            "witness": {
                "instances": {"ker eta(2,1)": {"kernel": Z2, "expected": Z2,
                                               "generator_map": False}},
                "offender": "ker eta(2,1)"}}
        assert calls == [(2, 1)] and len(reads) == 1


class TestSquareClaims:
    def test_lemma_cd(self, monkeypatch):
        fake = fail_on_call(AbelianHom.equals, 2, lambda ok: False)
        monkeypatch.setattr(AbelianHom, "equals", fake)
        calls = record(monkeypatch, "eta")
        r = verify("lemma_cd", max_order=4, labels=2)
        assert r.to_dict() == {
            "claim": "lemma_cd", "params": params(4, 2), "status": "failed",
            "witness": {
                "instances": {"square(2k=2,m=1)": {"commutes": True},
                              "square(2k=4,m=1)": {"commutes": False}},
                "offender": "square(2k=4,m=1)"}}
        assert calls == [(2, 1), (4, 1)]

    def test_framing_factorization(self, monkeypatch):
        real = E._sq_tensor_vector
        calls = []

        def fake(n, m, vec):
            calls.append((n, m))
            out = real(n, m, vec)
            # the first generator of L_1 (x) L'_2 is not zero with two labels
            if (n, m) == (1, 2):
                out[0] = out.get(0, 0) + 1
            return out
        monkeypatch.setattr(E, "_sq_tensor_vector", fake)
        r = verify("framing_factorization", max_order=3, labels=2)
        assert r.to_dict() == {
            "claim": "framing_factorization", "params": params(3, 2),
            "status": "failed",
            "witness": {
                "instances": {
                    "eta'(Delta)=sq(1xeta') at n=1, m=1": {"identity": True},
                    "eta'(Delta)=sq(1xeta') at n=2, m=1": {"identity": True},
                    "eta'(Delta)=sq(1xeta') at n=1, m=2": {
                        "identity": False, "offender": "<1,1>"}},
                "offender": "eta'(Delta)=sq(1xeta') at n=1, m=2"}}
        # the first generator at (1, 2) fails; nothing after it is evaluated
        assert calls[-1] == (1, 2) and calls.count((1, 2)) == 1
        assert (2, 2) not in calls


class TestExactSequenceClaims:
    def test_tau_even(self, monkeypatch):
        fake = fail_on_call(E._short_exact, 2, lambda ok: False)
        monkeypatch.setattr(E, "_short_exact", fake)
        calls = record(monkeypatch, "t_infinity")
        r = verify("tau_even", max_order=4, labels=2)
        assert r.to_dict() == {
            "claim": "tau_even", "params": params(4, 2), "status": "failed",
            "witness": {
                "instances": {
                    "0->T_0->Tinf_0->Z2xL'_1 (m=1)": {
                        "exact": True, "cokernel_structure": Z2},
                    "0->T_2->Tinf_2->Z2xL'_2 (m=1)": {
                        "exact": False, "cokernel_structure": Z2}},
                "offender": "0->T_2->Tinf_2->Z2xL'_2 (m=1)"}}
        assert calls == [(0, 1), (2, 1)]

    def test_tau_odd(self, monkeypatch):
        fake = fail_on_call(E._short_exact, 1, lambda ok: False)
        monkeypatch.setattr(E, "_short_exact", fake)
        calls = record(monkeypatch, "odd_left_map")
        r = verify("tau_odd", max_order=3, labels=2)
        assert r.to_dict() == {
            "claim": "tau_odd", "params": params(3, 2), "status": "failed",
            "witness": {
                "instances": {
                    "0->Z2xL'_2->Ttilde_1->Tinf_1 (m=1)": {
                        "exact": False,
                        "chain": [Z2, Z2, TRIVIAL]}},
                "offender": "0->Z2xL'_2->Ttilde_1->Tinf_1 (m=1)"}}
        assert calls == [(1, 1)]


MASTER_CHECKS = ("left_square", "mid_square", "left_ses_T", "left_ses_D",
                 "right_ses_T", "right_ses_D", "connect_square",
                 "right_square", "iso_eta_prime", "iso_eta_tilde",
                 "iso_eta_low")


class TestMasterDiagrams:
    @pytest.mark.parametrize("claim,max_order,iso_hi", [
        ("master_diagram_1", 4, "iso_eta"),
        ("master_diagram_2", 2, "iso_eta_infinity"),
    ])
    def test_failed_block(self, monkeypatch, claim, max_order, iso_hi):
        fake = fail_on_call(AbelianHom.equals, 1, lambda ok: False)
        monkeypatch.setattr(AbelianHom, "equals", fake)
        calls = record(monkeypatch, "odd_left_map")
        r = verify(claim, max_order=max_order, labels=2)
        checks = dict.fromkeys(MASTER_CHECKS + (iso_hi,), True)
        checks["left_square"] = False
        assert r.to_dict() == {
            "claim": claim, "params": params(max_order, 2),
            "status": "failed",
            "witness": {"instances": {"block(k=1,m=1)": checks},
                        "offender": "block(k=1,m=1)"}}
        # the whole block is checked, and no block at m=2 is built
        assert len(fake.calls) == 4
        assert all(m == 1 for _, m in calls)


class TestSkipped:
    NO_INSTANCE = {"reason": "no instance within budget"}

    def test_master_diagram_1_below_order_four(self):
        assert verify("master_diagram_1", max_order=2).to_dict() == {
            "claim": "master_diagram_1", "params": params(2, 2),
            "status": "skipped", "witness": self.NO_INSTANCE}

    @pytest.mark.parametrize("claim", ALL_CLAIMS)
    def test_no_labels(self, claim):
        assert verify(claim, max_order=3, labels=0).to_dict() == {
            "claim": claim, "params": params(3, 0), "status": "skipped",
            "witness": self.NO_INSTANCE}

    @pytest.mark.parametrize("claim,max_order", [
        ("thm31_ii", 0), ("thm31_iii", 0), ("thm31_v", 1), ("thm31_vi", 1),
        ("lemma_cd", 1), ("tau_odd", 0), ("framing_factorization", 0),
        ("master_diagram_2", 1)])
    def test_below_first_order(self, claim, max_order):
        r = verify(claim, max_order=max_order, labels=1)
        assert (r.status, r.witness) == ("skipped", self.NO_INSTANCE)
