"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All algebraic checks are exact (integer/rational arithmetic, zero
tolerance); only radius estimates and fitted slopes carry the stated float
tolerances.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from germradius import (
    MapGerm,
    TruncatedSeries,
    build_t_operators,
    chain_rule_residuals,
    compose,
    estimate_radius,
    extraction_witnesses,
    jacobian_matrix,
    matmul,
    profile,
    recover,
    scaling_fit,
    verify_cramer_base,
    verify_identity_on_monomials,
    verify_order_bound,
    working_degree,
)
from germradius.cli import main as cli_main
from helpers import (
    blowup_germ,
    cube_germ,
    germ_of,
    identity_germ,
    identity_matrix,
    pmap_of,
    random_map,
    random_series,
    series_of,
    square_germ,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {title}")
        raise
    print(f"[criterion {num}] PASS  {title}")


def geometric(radius, degree, trunc=None):
    rho = Fraction(radius)
    return TruncatedSeries(
        1, (0,), degree if trunc is None else trunc,
        {(k,): rho ** -k for k in range(degree + 1)})


def binomial_sqrt_series(a, degree):
    a = Fraction(a)
    coeffs = {}
    for k in range(degree + 1):
        c = Fraction(1)
        for i in range(k):
            c *= Fraction(1, 2) - i
        coeffs[(k,)] = c / math.factorial(k) * a ** (1 - 2 * k)
    return TruncatedSeries(1, (a ** 2,), degree, coeffs)


def _identity_suite(germ, rng, max_beta=3, monomial_degree=4):
    """Chain rule, Cramer base, adjugate identity, defining identity."""
    n = germ.n
    prof = profile(germ)
    g = random_series(rng, n, 3, center=germ.image_point, trunc=germ.trunc)
    for residual in chain_rule_residuals(g, germ):
        assert residual.is_zero
    for residual in verify_cramer_base(germ, g, prof=prof):
        assert residual.is_zero
    jac = jacobian_matrix(germ)
    ident = identity_matrix(n, germ.center, prof.delta.trunc, n)
    for prod in (matmul(jac, prof.adjugate), matmul(prof.adjugate, jac)):
        for i in range(n):
            for j in range(n):
                want = ident[i][j].mul(prof.delta)
                assert prod[i][j] == want
    table = build_t_operators(germ, max_beta, work_degree=germ.trunc - 1)
    records = verify_identity_on_monomials(table, monomial_degree)
    assert records
    assert all(ok for _, _, ok, _ in records)
    return table


FIXTURES = {
    "identity": lambda degree=7: identity_germ(2, degree=degree),
    "square": square_germ,
    "cube": cube_germ,
    "blowup": blowup_germ,
}


def test_criterion_1_exact_identity_suite():
    with criterion(1, "exact identity suite on fixtures + 20 random maps, "
                      "zero tolerance, under a minute"):
        start = time.perf_counter()
        rng = random.Random(1)
        for make, degree in ((FIXTURES["identity"], 7), (FIXTURES["square"], 9),
                             (FIXTURES["cube"], 9), (FIXTURES["blowup"], 8)):
            _identity_suite(make(degree=degree), rng)
        plan = [(1, 7, False)] * 5 + [(1, 9, True)] * 2 \
            + [(2, 6, False)] * 5 + [(2, 8, True)] * 2 + [(3, 5, False)] * 6
        assert len(plan) == 20
        for n, degree, singular in plan:
            germ = random_map(rng, n, trunc=degree, singular=singular)
            _identity_suite(germ, rng)
        elapsed = time.perf_counter() - start
        print(f"  identity suite over 24 maps took {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_2_order_bound_and_hand_values():
    with criterion(2, "operator order bounds for |beta| <= 3; hand values "
                      "for the square map"):
        rng = random.Random(2)
        germs = [FIXTURES["identity"](7), square_germ(degree=9),
                 cube_germ(degree=12), blowup_germ(degree=9),
                 random_map(rng, 2, trunc=9),
                 random_map(rng, 2, trunc=13, singular=True, max_mu=1)]
        for germ in germs:
            table = build_t_operators(germ, 3, work_degree=germ.trunc - 1)
            checks = verify_order_bound(table)
            assert checks and all(c.passed for c in checks)
        table = build_t_operators(square_germ(degree=10), 2)
        assert table.entries[((2,), (1,))].coeffs == {(0,): -2}
        assert table.entries[((2,), (2,))].coeffs == {(1,): 2}


def test_criterion_3_extraction_lemma():
    with criterion(3, "determinant-power pivot: degree (2m-1)mu and "
                      "coefficient power at (2m-1)alpha, m <= 4, exact"):
        for germ, alpha in ((FIXTURES["identity"](7), (0, 0)),
                            (square_germ(degree=8), (1,)),
                            (cube_germ(degree=15), (2,)),
                            (blowup_germ(degree=8), (1, 0))):
            prof = profile(germ)
            assert prof.alpha == alpha
            for m, wt in enumerate(extraction_witnesses(prof, 4), start=1):
                assert wt.passed
                assert wt.min_degree == (2 * m - 1) * prof.mu
                assert wt.pivot_coefficient == (
                    prof.delta.coeffs[prof.alpha] ** (2 * m - 1))


def test_criterion_4_round_trip_recovery():
    with criterion(4, "50 random composites recovered exactly at degree 5; "
                      "blow-up non-composite flagged at degree 1"):
        rng = random.Random(4)
        plan = [(1, False)] * 14 + [(1, True)] * 6 \
            + [(2, False)] * 16 + [(2, True)] * 4 + [(3, False)] * 10
        assert len(plan) == 50
        target = 5
        done = 0
        for n, singular in plan:
            cap_mu = 2 if n == 1 else 1
            # truncation generous enough for the worst mu the draw permits
            germ = random_map(rng, n, trunc=working_degree(cap_mu, target) + 1,
                              singular=singular, max_mu=cap_mu)
            need = working_degree(profile(germ).mu, target)
            g0 = random_series(rng, n, target, center=germ.image_point,
                               trunc=need)
            f = compose(g0, germ)
            report = recover(germ, f, target)
            assert report.g_series.coeffs == g0.coeffs
            assert report.residual.is_zero
            done += 1
        assert done == 50
        blow = blowup_germ(degree=8)
        report = recover(blow, series_of("y", ["x", "y"], degree=7), 2)
        assert not report.composite_within_checked_degree
        index, coeff = report.first_residual_term
        assert sum(index) == 1 and index == (0, 1) and coeff == -1


def test_criterion_5_square_law_first_case():
    with criterion(5, "geometric series through the square map: r_F = "
                      "sqrt(rho), r_G = rho within 1%, fitted exponent "
                      "2.00 +/- 0.05"):
        germ = square_germ(degree=120)
        family = []
        for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            g = geometric(rho, 120)
            f = compose(g, germ)
            r_g = estimate_radius(g).estimate
            r_f = estimate_radius(f).estimate
            assert abs(r_g - float(rho)) <= 0.01 * float(rho)
            assert abs(r_f - math.sqrt(rho)) <= 0.01 * math.sqrt(rho)
            family.append((rho, r_f, r_g))
        fit = scaling_fit(family, x="r_f", y="r_g")
        assert abs(fit.slope - 2.0) <= 0.05


def test_criterion_6_square_law_second_case():
    with criterion(6, "f(x) = x through the square map off-centre: exact "
                      "binomial square-root series, r_G within 10% of a^2 at "
                      "200 coefficients, slope 2.00 +/- 0.05"):
        family = []
        for a in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            germ = square_germ(degree=201, center=(a,))
            f = series_of("x", ["x"], center=(a,), degree=200)
            report = recover(germ, f, 200)
            assert report.g_series == binomial_sqrt_series(a, 200)
            assert report.residual.is_zero
            r_g = estimate_radius(report.g_series).estimate
            assert abs(r_g - float(a) ** 2) <= 0.10 * float(a) ** 2
            family.append((a, 1.0, r_g))
        fit = scaling_fit(family, x="t", y="r_g")
        assert abs(fit.slope - 2.0) <= 0.05


def test_criterion_7_exponent_across_fixtures():
    with criterion(7, "profiles report lambda = 2, 3, 4 for the power maps "
                      "and 2 on the blow-up axis; geometric families give "
                      "ratio 1.0 +/- 0.05"):
        for k in (2, 3, 4):
            germ = germ_of([f"x^{k}"], ["x"], degree=k + 4)
            assert profile(germ).lam == k
        pmap = pmap_of(["x", "x*y"], ["x", "y"])
        for y0 in (Fraction(0), Fraction(1), Fraction(-1)):
            prof = profile(pmap.germ_at((0, y0), 4))
            assert (prof.mu, prof.nu, prof.lam) == (1, 0, 2)
            assert prof.alpha == (1, 0)
        for k in (2, 3, 4):
            germ = germ_of([f"x^{k}"], ["x"], degree=60 * k)
            lam = profile(germ).lam
            assert lam == k
            for rho in (Fraction(1, 4), Fraction(1, 2)):
                g = geometric(rho, 60, trunc=60 * k)
                f = compose(g, germ)
                r_g = estimate_radius(g.truncated(60)).estimate
                r_f = estimate_radius(f).estimate
                ratio = r_g / r_f ** lam
                assert abs(ratio - 1.0) <= 0.05


def test_criterion_8_stratification(tmp_path):
    with criterion(8, "blow-up on the 5x5 rational grid: exactly two strata "
                      "with the expected invariants, byte-deterministic"):
        axis = ["-1", "-1/2", "0", "1/2", "1"]
        job = {
            "command": "stratify", "n": 2, "variables": ["x", "y"],
            "map": ["x", "x*y"], "center": ["0", "0"], "degree": 4,
            "grid_axes": [axis, axis],
        }
        import json
        job_path = tmp_path / "stratify.json"
        job_path.write_text(json.dumps(job))
        payloads = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = cli_main(["stratify", "--job", str(job_path),
                             "--out", str(out)])
            assert code == 0
            payloads.append((out / "report.json").read_bytes()
                            + (out / "strata.csv").read_bytes())
        assert payloads[0] == payloads[1]
        report = json.loads((tmp_path / "run_a" / "report.json").read_text())
        strata = report["strata"]
        assert len(strata) == 2
        assert (strata[0]["mu"], strata[0]["nu"]) == (1, 0)
        assert strata[0]["alpha"] == [1, 0]
        assert len(strata[0]["points"]) == 5
        assert all(p[0] == "0" for p in strata[0]["points"])
        assert (strata[1]["mu"], strata[1]["nu"]) == (0, 0)
        assert strata[1]["alpha"] == [0, 0]
        assert len(strata[1]["points"]) == 20
        assert report["singular_points"] == []
