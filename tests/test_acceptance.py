"""Acceptance criteria, one test per criterion, each timed and printed.

Run standalone (cold caches) with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time

from quasilie.abelian import exact_at
from quasilie.eta import verify, verify_all
from quasilie.lie import LIE, lie_group, proj_p, sq, witt_rank
from quasilie.quadratic import (bridge_T_infinity, check_axioms,
                                universal_commutative, universal_refinement)

from oracles import (enumerate_extension, presented_noncommutative,
                     presented_torsion_count, torsion_counts)
from test_quadratic import arf_form, random_hermitian


def timed(limit_s, label):
    class _Timer:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            status = "PASS" if exc_type is None and elapsed < limit_s \
                else "FAIL"
            print(f"ACCEPTANCE {label}: {status} ({elapsed:.2f}s "
                  f"/ limit {limit_s}s)")
            if exc_type is None:
                assert elapsed < limit_s, \
                    f"{label} exceeded the {limit_s}s budget ({elapsed:.2f}s)"
            return False

    return _Timer()


def test_criterion_01_witt_rank_oracle():
    with timed(10, "1 Witt ranks n<=6 m<=3"):
        for m in (1, 2, 3):
            for n in range(1, 7):
                g = lie_group(n, m, LIE)
                assert g.structure == (witt_rank(n, m), ()), (n, m)


def test_criterion_02_projection_sequences():
    with timed(30, "2 squaring/projection sequences 2k in {2,4,6} m<=2"):
        for m in (1, 2):
            for k in (1, 2, 3):
                left = sq(k, m)
                right = proj_p(2 * k, m)
                assert left.injective
                assert exact_at(left, right)
                assert right.surjective


def test_criterion_03_isomorphism_claims():
    with timed(300, "3 isomorphism claims thm31_i..vi"):
        assert verify("thm31_i", max_order=3, labels=2).status == "verified"
        assert verify("thm31_ii", max_order=3, labels=2).status == "verified"
        assert verify("thm31_iii", max_order=3, labels=2).status == "verified"
        assert verify("thm31_iv", max_order=4, labels=2).status == "verified"
        assert verify("thm31_v", max_order=2, labels=2).status == "verified"
        assert verify("thm31_vi", max_order=2, labels=2).status == "verified"


def test_criterion_04_tau_sequences():
    with timed(120, "4 tau sequences exact"):
        assert verify("tau_even", max_order=4, labels=2).status == "verified"
        r = verify("tau_odd", max_order=3, labels=2)
        assert r.status == "verified"
        chain = r.witness["instances"][
            "0->Z2xL'_2->Ttilde_1->Tinf_1 (m=2)"]["chain"]
        assert chain == [{"free_rank": 0, "torsion": [2, 2, 2]},
                         {"free_rank": 0, "torsion": [2, 2, 2]},
                         {"free_rank": 0, "torsion": []}]


def test_criterion_05_bridge():
    with timed(60, "5 quadratic bridge 2n in {0,2} m<=2"):
        for n in (0, 1):
            for m in (1, 2):
                br = bridge_T_infinity(n, m)
                assert br.isomorphic and all(br.checks.values()), (n, m)


def test_criterion_06_arf_reproduction():
    with timed(1, "6 Z4 Arf reproduction"):
        F = universal_commutative(arf_form())
        assert F.target.e.structure == (0, (4,))
        a = F.A.gen("a")
        lam_aa = F.form.lam(a, a)
        assert 2 * F.mu(a) == F.target.p(lam_aa)


def test_criterion_07_quadratic_axiom_suite():
    with timed(60, "7 quadratic axiom suite (>=100 random forms)"):
        rng = random.Random(2024)
        failures = 0
        commutative_hits = 0
        for _ in range(100):
            form = random_hermitian(rng)
            F = universal_refinement(form)
            if check_axioms(F.target).status != "verified":
                failures += 1
            r = check_axioms(F)
            if r.status != "verified":
                failures += 1
            if "mu(na)=n^2.mu(a)" in r.witness["checks"]:
                commutative_hits += 1
            # the square lemma on the commutative quotient, |n| <= 3
            Fc = universal_commutative(form)
            a_gens = [Fc.A.gen(g) for g in Fc.A.generators]
            for a in a_gens:
                for n in range(-3, 4):
                    if not (Fc.mu(n * a) - (n * n) * Fc.mu(a)).is_zero:
                        failures += 1
        assert failures == 0
        assert commutative_hits > 0


def test_criterion_08_commuting_square_and_factorization():
    with timed(30, "8 commuting square + framing factorization"):
        assert verify("lemma_cd", max_order=2, labels=2).status == "verified"
        assert verify("framing_factorization", max_order=3,
                      labels=2).status == "verified"


def test_criterion_09_cross_model_agreement():
    with timed(60, "9 presentation vs extension model (25 instances)"):
        rng = random.Random(777)
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
            size = 1
            for d in st[1]:
                size *= d
            assert size == len(els)
            for d in (2, 3, 4, 6):
                assert presented_torsion_count(st, d) \
                    == torsion_counts(els, F.target, [d])[d]


def test_criterion_10_determinism():
    with timed(120, "10 deterministic verify-all reports"):
        a = json.dumps([r.to_dict() for r in
                        verify_all(max_order=2, labels=2, seed=42)],
                       sort_keys=True)
        b = json.dumps([r.to_dict() for r in
                        verify_all(max_order=2, labels=2, seed=42)],
                       sort_keys=True)
        assert a == b
