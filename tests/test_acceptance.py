"""Acceptance gate: one test per shipped claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion states its own tolerance and wall-clock budget and
fails loudly if either is exceeded.
"""

import math
import time
from fractions import Fraction

import numpy as np

from hurwitz_sos.certificate import (
    GramMatrix,
    SandwichBlock,
    bundled_certificate,
    certificate_expansion,
    quadratic_form,
    swap_certificate,
    verify_certificate,
)
from hurwitz_sos.numeric import (
    derive_seed,
    hermitian_eig,
    psd_sqrt,
    random_psd,
    trace_hurwitz_numeric,
)
from hurwitz_sos.rational import grat
from hurwitz_sos.search import (
    SearchOptions,
    SearchStatus,
    build_constraint_map,
    feasibility_search,
)
from hurwitz_sos.validation import TrialConfig, bmv_check_trials, validate_certificate_trials
from hurwitz_sos.words import CyclicClass, hurwitz_expand

from oracles import oracle_forced_grams
from oracles import ref_hermitian as random_hermitian
from oracles import swap_letters

BLOCK_73 = SandwichBlock(prefix="b", suffix=None, basis=("AAB", "ABA", "BAA"))
P6_BLOCK = SandwichBlock(prefix="a", suffix="b", basis=("AB", "BA"))


def _report(num, desc, budget, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num} FAIL: {desc} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {num} PASS: {desc} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget: {elapsed:.2f}s"


def test_criterion_1_expand_7_3():
    def check():
        poly = hurwitz_expand(7, 3)
        assert {str(c) for c in poly.support()} == {
            "AAAABBB",
            "AAABABB",
            "AAABBAB",
            "AABAABB",
            "AABABAB",
        }
        assert all(v == grat(7) for _c, v in poly.items())
        assert poly.total() == grat(math.comb(7, 3))

    _report(1, "word sum (7,3) expands to 5 cyclic classes, multiplicity 7 each", 1.0, check)


def test_criterion_2_expand_6_3():
    def check():
        poly = hurwitz_expand(6, 3)
        got = {str(c): v for c, v in poly.items()}
        assert got == {
            "AAABBB": grat(6),
            "AABABB": grat(6),
            "AABBAB": grat(6),
            "ABABAB": grat(2),
        }

    _report(2, "word sum (6,3) expands to multiplicities 6,6,6,2", 1.0, check)


def test_criterion_3_bundled_certificates_verify():
    def check():
        for r in range(4):
            cert = bundled_certificate(f"p7r{r}.json")
            assert (cert.p, cert.r) == (7, r)
            report = verify_certificate(cert)
            assert report.ok, f"bundled certificate r={r} failed"
            assert certificate_expansion(cert) == hurwitz_expand(7, r)
            swapped = swap_certificate(cert)
            assert swapped.r == 7 - r
            assert verify_certificate(swapped).ok
            assert certificate_expansion(swapped) == hurwitz_expand(7, 7 - r)

    _report(
        3,
        "bundled exact certificates cover r=0..3 and swap to r=4..7, all verify",
        1.0,
        check,
    )


def test_criterion_4_p6_restricted_ansatz_infeasible():
    def check():
        cmap = build_constraint_map(6, 3, (P6_BLOCK,))
        assert cmap.determined
        (forced,) = oracle_forced_grams((P6_BLOCK,), hurwitz_expand(6, 3))
        assert [[forced.at(j, k) for k in range(2)] for j in range(2)] == [
            [grat(6), grat(6)],
            [grat(6), grat(2)],
        ]
        outcome = feasibility_search(6, 3, (P6_BLOCK,))
        assert outcome.status is SearchStatus.INFEASIBLE
        assert outcome.iterations == 0
        assert outcome.witness == (grat(1), grat(-1))
        assert outcome.witness_form == grat(-4)
        assert quadratic_form(forced, outcome.witness) == grat(-4)

    _report(
        4,
        "restricted (6,3) ansatz forces Gram [[6,6],[6,2]]; witness (1,-1) gives -4",
        1.0,
        check,
    )


def test_criterion_5_search_recovers_7_3_certificate():
    def check():
        outcome = feasibility_search(
            7, 3, (BLOCK_73,), SearchOptions(seed=0, max_iters=5000)
        )
        assert outcome.status is SearchStatus.CERTIFICATE
        assert outcome.iterations <= 5000
        report = verify_certificate(outcome.certificate)
        assert report.ok
        assert certificate_expansion(outcome.certificate) == hurwitz_expand(7, 3)

    _report(
        5,
        "search over the 3-word (7,3) ansatz finds an exact certificate",
        10.0,
        check,
    )


def _certificate_for(r):
    if r <= 3:
        return bundled_certificate(f"p7r{r}.json")
    return swap_certificate(bundled_certificate(f"p7r{7 - r}.json"))


def test_criterion_6_certificates_match_brute_force():
    def check():
        config = TrialConfig(seed=0, dims=(1, 2, 3, 4, 5, 6), trials=100, tol_rel=1e-8)
        for r in range(8):
            cert = _certificate_for(r)
            assert verify_certificate(cert).ok
            report = validate_certificate_trials(cert, config)
            assert report.all_passed, f"r={r}: {report.failures[:3]}"
            rows = report.rows
            assert rows[0].oracle == math.comb(7, r) * 2.0 ** (7 - r) * 3.0**r
            if r == 3:
                assert rows[0].oracle == 15120.0
            for row, n in zip(rows[1 : 1 + len(config.dims)], config.dims):
                assert row.oracle == math.comb(7, r) * n

    _report(
        6,
        "sum-of-squares evaluation matches brute force: 100 PSD trials per (r, n), "
        "r=0..7, n=1..6, rel tol 1e-8",
        60.0,
        check,
    )


def test_criterion_7_coefficient_nonnegativity():
    def check():
        for p in (5, 6, 7):
            report = bmv_check_trials(p, TrialConfig(seed=p, dims=(2, 3, 4), trials=500))
            assert report.all_passed, f"p={p}: {report.failures[:3]}"
            assert len(report.rows) == 500

    _report(
        7,
        "all word-sum coefficients nonnegative on 500 random PSD pairs for each "
        "p in {5,6,7}, n in {2,3,4}, tol -1e-9 relative",
        120.0,
        check,
    )


def test_criterion_8_eigensolver_quality():
    def check():
        for t in range(50):
            n = 1 + (t % 16)
            H = random_hermitian(n, seed=derive_seed(800, t))
            w, V = hermitian_eig(H)
            scale = 1.0 + np.linalg.norm(H)
            recon = np.linalg.norm(V @ np.diag(w) @ V.conj().T - H)
            assert recon <= 1e-10 * scale, f"trial {t}: reconstruction {recon:.3e}"
            unit = np.linalg.norm(V.conj().T @ V - np.eye(n))
            assert unit <= 1e-10, f"trial {t}: unitarity {unit:.3e}"
        for t in range(50):
            n = 1 + (t % 8)
            A = random_psd(n, seed=derive_seed(801, t))
            S = psd_sqrt(A)
            scale = 1.0 + np.linalg.norm(A)
            resid = np.linalg.norm(S @ S.conj().T - A)
            assert resid <= 1e-8 * scale, f"trial {t}: sqrt residual {resid:.3e}"

    _report(
        8,
        "50 eigendecompositions (n<=16) reconstruct to 1e-10 and 50 PSD square "
        "roots to 1e-8, relative",
        30.0,
        check,
    )


def test_criterion_9_swap_symmetry():
    def check():
        for p in range(1, 11):
            for r in range(p + 1):
                assert swap_letters(hurwitz_expand(p, r)) == hurwitz_expand(p, p - r)
        for t in range(20):
            p = 5 + (t % 3)
            r = t % (p + 1)
            n = 2 + (t % 3)
            A = random_psd(n, seed=derive_seed(900, 2 * t))
            B = random_psd(n, seed=derive_seed(900, 2 * t + 1))
            lhs = trace_hurwitz_numeric(A, B, p, r)
            rhs = trace_hurwitz_numeric(B, A, p, p - r)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))

    _report(
        9,
        "letter-swap symmetry: exact for all p<=10 and numeric to 1e-9 on 20 trials",
        30.0,
        check,
    )
