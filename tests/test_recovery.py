"""Recovery of the outer series from composites: extraction, round trips,
residual flags, and the pivot structure of determinant powers."""

import math
import random
from fractions import Fraction

import pytest

from germradius import (
    TruncatedSeries,
    TruncationError,
    build_t_operators,
    compose,
    enumerate_upto,
    extraction_witnesses,
    max_recoverable_degree,
    profile,
    recover,
    report_to_dict,
    working_degree,
)
from germradius.cramerops import _delta_power, iter_h_levels
from germradius.mindex import grlex_key
from helpers import (
    assemble_H,
    blowup_germ,
    cube_germ,
    germ_of,
    identity_germ,
    random_map,
    random_series,
    square_germ,
    series_of,
    streamed_h_levels,
)


def binomial_sqrt_series(a, degree):
    """Closed-form oracle: Taylor coefficients of sqrt(y) at y = a^2,
    positive branch, i.e. binomial(1/2, k) * a^(1 - 2k)."""
    coeffs = {}
    for k in range(degree + 1):
        c = Fraction(1)
        for i in range(k):
            c *= Fraction(1, 2) - i
        c /= math.factorial(k)
        coeffs[(k,)] = c * Fraction(a) ** (1 - 2 * k)
    return TruncatedSeries(1, (Fraction(a) ** 2,), degree, coeffs)


# -- working-degree bookkeeping ----------------------------------------------


def test_working_degree_rule():
    assert working_degree(0, 5) == 5
    assert working_degree(1, 4) == 11
    assert working_degree(2, 5) == 23
    for mu in (0, 1, 2, 3):
        for b in range(1, 8):
            assert max_recoverable_degree(mu, working_degree(mu, b)) == b
            assert max_recoverable_degree(mu, working_degree(mu, b) - 1) == b - 1


def test_recover_reports_needed_degree():
    germ = square_germ(degree=8)
    f = series_of("x^2", ["x"], degree=7)
    with pytest.raises(TruncationError) as err:
        recover(germ, f, 5)
    assert err.value.needed_degree == working_degree(1, 5)


# -- assemble / extract -------------------------------------------------------


def test_assemble_H_square_fixture():
    germ = square_germ(degree=10)
    table = build_t_operators(germ, 2)
    f = series_of("x^2", ["x"], degree=9)
    h1 = assemble_H(table, f, (1,))
    assert h1.coeffs == {(1,): 2}
    h2 = assemble_H(table, f, (2,))
    assert h2.is_zero


def test_assemble_H_identity_map_is_derivative():
    germ = identity_germ(2, degree=8)
    table = build_t_operators(germ, 2, work_degree=6)
    rng = random.Random(2)
    f = random_series(rng, 2, 6, trunc=8)
    for beta in [(1, 0), (0, 2), (1, 1)]:
        assert assemble_H(table, f, beta) == f.derive(beta).truncated(
            assemble_H(table, f, beta).trunc)


def test_extract_square_fixture():
    germ = square_germ(degree=10)
    f = series_of("x^2", ["x"], degree=9)
    report = recover(germ, f, 2, trace=True)
    assert report.g_series.coeffs == {(1,): 1}
    assert report.per_beta_trace[(1,)] == (2, 2)
    assert report.per_beta_trace[(2,)] == (0, 16)


def test_extract_cube_normalization():
    # the test that separates the coefficient-normalized divisor from the
    # raw derivative value: they differ by alpha! = 2 here
    germ = cube_germ(degree=16)
    prof = profile(germ)
    f = series_of("x^3", ["x"], degree=15)
    report = recover(germ, f, 1, trace=True)
    h, divisor = report.per_beta_trace[(1,)]
    assert (h, divisor) == (3, 3)
    assert report.g_series.coeffs == {(1,): 1}
    assert prof.d_alpha_delta == 6
    wrong = Fraction(h, prof.d_alpha_delta)
    assert wrong == Fraction(1, 2)  # the unnormalized reading is off by alpha!


def _fraction_series(rng, n, center, trunc):
    """Random series with Fraction coefficients in every degree up to trunc:
    not a composite of a singular map in general."""
    coeffs = {}
    for gamma in enumerate_upto(n, trunc):
        if rng.random() < 0.7:
            coeffs[gamma] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(n, center, trunc, coeffs)


@pytest.mark.parametrize("n,singular", [
    (1, False), (1, True), (2, False), (2, True), (3, False), (3, True)])
def test_streamed_h_matches_table_sum(n, singular):
    # the H recurrence against the table-based reference Σ T · D^alpha F on
    # non-composite F, and recover's trace against the reference's
    # extraction coefficient
    rng = random.Random(900 + n + 10 * singular)
    target = 3
    work = working_degree(int(singular), target)
    germs = [random_map(rng, n, trunc=work + 1, singular=singular, max_mu=1)
             for _ in range(2)]
    if n == 2 and singular:
        # fractional determinant and adjugate: recover rescales them
        germs.append(germ_of(["1/3*x^2", "y + 1/2*x*y"], ["x", "y"],
                             degree=work + 1))
    for germ in germs:
        prof = profile(germ)
        assert prof.mu == int(singular)
        f = _fraction_series(rng, n, germ.center, work)
        table = build_t_operators(germ, target, work_degree=work)
        report = recover(germ, f, target, trace=True)
        seen = 0
        for m, level in streamed_h_levels(f, target, work, prof.delta,
                                          prof.adjugate):
            for beta, h in level.items():
                ref = assemble_H(table, f, beta)
                common = min(h.trunc, ref.trunc)
                assert h.truncated(common) == ref.truncated(common)
                idx = tuple(e * (2 * m - 1) for e in prof.alpha)
                assert report.per_beta_trace[beta][0] == ref.coefficient(idx)
                seen += 1
        assert seen == len(enumerate_upto(n, target)) - 1
        # every F is a composite of a regular germ, almost none of a singular one
        assert report.composite_within_checked_degree == (not singular)


@pytest.mark.parametrize("n,singular", [
    (1, False), (1, True), (2, False), (2, True), (3, False), (3, True)])
def test_streamed_h_keeps_the_working_truncation(n, singular):
    # level m of the H recurrence is valid to degree work - m, also when F
    # carries more degrees than the working rule needs
    rng = random.Random(950 + n + 10 * singular)
    target = 3
    work = working_degree(int(singular), target)
    germ = random_map(rng, n, trunc=work + 1, singular=singular, max_mu=1)
    prof = profile(germ)
    for extra in (0, 2):
        f = _fraction_series(rng, n, germ.center, work + extra)
        levels = list(streamed_h_levels(f, target, work, prof.delta,
                                        prof.adjugate))
        assert [m for m, _ in levels] == list(range(1, target + 1))
        for m, level in levels:
            assert level and all(h.trunc == work - m for h in level.values())


@pytest.mark.parametrize("n,singular", [
    (1, False), (1, True), (2, False), (2, True), (3, False), (3, True)])
def test_h_levels_read_the_streamed_pivots(n, singular):
    # iter_h_levels yields, per beta, the coefficient of the whole streamed
    # sum at (2m - 1)·alpha, also when F carries more degrees than needed
    rng = random.Random(980 + n + 10 * singular)
    target = 3
    work = working_degree(int(singular), target)
    germ = random_map(rng, n, trunc=work + 1, singular=singular, max_mu=1)
    prof = profile(germ)
    for extra in (0, 2):
        f = _fraction_series(rng, n, germ.center, work + extra)
        args = (f, target, work, prof.delta, prof.adjugate)
        pivots = list(iter_h_levels(*args, prof.alpha))
        sums = list(streamed_h_levels(*args))
        assert [m for m, _ in pivots] == [m for m, _ in sums]
        for (m, level), (_, ref) in zip(pivots, sums):
            idx = tuple(e * (2 * m - 1) for e in prof.alpha)
            assert level == {beta: h.coefficient(idx)
                             for beta, h in ref.items()}


def test_h_levels_refuse_a_pivot_beyond_truncation():
    # mu = 1 at work_degree = B: level m holds degrees <= B - m, so the
    # pivot at degree 2m - 1 is known up to m = (B + 1) // 3 and not after
    germ = square_germ(degree=10)
    prof = profile(germ)
    assert prof.mu == 1
    f = series_of("x^2 + x^3", ["x"], degree=9)
    for work in range(2, 10):
        args = (f, work, work, prof.delta, prof.adjugate)
        levels = iter_h_levels(*args, prof.alpha)
        last = (work + 1) // 3
        yielded = [next(levels)[0] for _ in range(last)]
        assert yielded == list(range(1, last + 1))
        with pytest.raises(TruncationError):
            next(levels)
        # the whole sum at that level does not know its pivot either
        m, level = list(streamed_h_levels(*args))[last]
        with pytest.raises(TruncationError):
            level[(m,)].coefficient((2 * m - 1,))


def test_recover_builds_no_series_from_the_sums(monkeypatch):
    # the operator sums stay packed: recover reads only their pivots
    import germradius.cramerops as cramerops

    def refuse(*args):
        raise AssertionError("an operator sum became a series")

    monkeypatch.setattr(cramerops._LevelBuilder, "_series", refuse)
    cases = ((["x^2"], ["x"], 6), (["x + y^2", "x*y + y^3"], ["x", "y"], 3))
    for exprs, variables, target in cases:
        n = len(variables)
        mu = profile(germ_of(exprs, variables)).mu
        need = working_degree(mu, target)
        germ = germ_of(exprs, variables, degree=need + 1)
        g0 = random_series(random.Random(target), n, target,
                           center=germ.image_point, trunc=need)
        report = recover(germ, compose(g0, germ), target, trace=True)
        assert report.g_series.coeffs == g0.coeffs
        assert report.residual.is_zero


@pytest.mark.parametrize("target", [True, False])
def test_recover_refuses_a_bool_target_before_any_work(monkeypatch, target):
    import germradius.recovery as recovery

    def refuse(*args):
        raise AssertionError("recover profiled the map")

    monkeypatch.setattr(recovery, "profile", refuse)
    germ = square_germ(degree=8)
    f = series_of("x^2", ["x"], degree=7)
    with pytest.raises(ValueError):
        recover(germ, f, target)


# -- extraction lemma ---------------------------------------------------------


@pytest.mark.parametrize("germ_builder,alpha", [
    (lambda: identity_germ(2, degree=9), (0, 0)),
    (lambda: square_germ(degree=9), (1,)),
    (lambda: cube_germ(degree=16), (2,)),
    (lambda: blowup_germ(degree=9), (1, 0)),
])
def test_extraction_witness_fixtures(germ_builder, alpha):
    prof = profile(germ_builder())
    assert prof.alpha == alpha
    for m, wt in enumerate(extraction_witnesses(prof, 4), start=1):
        assert wt.m == m
        assert wt.passed
        assert wt.min_degree == (2 * m - 1) * prof.mu
        assert wt.min_index == tuple(e * (2 * m - 1) for e in prof.alpha)
        assert wt.pivot_coefficient == prof.delta.coeffs[prof.alpha] ** (2 * m - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extraction_witnesses_match_each_power_built_alone(n):
    # the chained powers, truncated to (2m-1)·mu, against delta^(2m-1)
    # built from delta at that cap for each m on its own
    rng = random.Random(40 + n)
    for singular in (False, True):
        prof = profile(random_map(rng, n, trunc=13, singular=singular))
        max_m = 6 // max(prof.mu, 1)
        for wt in extraction_witnesses(prof, max_m):
            cap = (2 * wt.m - 1) * prof.mu
            power = _delta_power(prof.delta, 2 * wt.m - 1, upto=cap).coeffs
            low = min(power, key=grlex_key)
            assert (wt.min_index, wt.pivot_coefficient) == (low, power[low])
            assert wt.passed


def test_extraction_witness_needs_truncation():
    prof = profile(cube_germ(degree=8))  # delta trunc 7 < 7*mu = 14
    with pytest.raises(TruncationError):
        extraction_witnesses(prof, 4)


# -- full recovery ------------------------------------------------------------


def test_recover_geometric_composite():
    g0 = TruncatedSeries(1, (0,), 40, {(k,): 4 ** k for k in range(41)})
    germ = square_germ(degree=41)
    f = compose(g0, germ)
    report = recover(germ, f, 5)
    assert report.g_series.coeffs == {(k,): 4 ** k for k in range(6)}
    assert report.residual.is_zero
    assert report.max_recoverable_degree == max_recoverable_degree(1, 40)


def test_recover_degree_zero_only():
    germ = square_germ(degree=8)
    f = series_of("3 + x^2", ["x"], degree=7)
    report = recover(germ, f, 0)
    assert report.g_series.coeffs == {(0,): 3}


def test_recover_trace_records_divisors():
    germ = square_germ(degree=12)
    g0 = TruncatedSeries(1, (0,), 11, {(0,): 1, (1,): 2})
    f = compose(g0, germ)
    report = recover(germ, f, 2, trace=True)
    assert report.per_beta_trace[(1,)] == (4, 2)
    d = report_to_dict(report)
    assert d["per_beta_trace"][1] == {
        "beta": [1], "h_coefficient": "4", "divisor": "2"}



@pytest.mark.parametrize("exprs,variables,center,target", [
    (["x^2"], ["x"], (Fraction(7, 3),), 8),
    (["x + y^2", "x*y + y^3"], ["x", "y"], (0, 0), 3),
    (["1/3*x^2", "y + 1/2*x*y"], ["x", "y"], (Fraction(1, 2), 1), 3),
])
def test_recover_levels_see_only_integers(monkeypatch, exprs, variables,
                                          center, target):
    # F with rational coefficients is cleared of its denominators once: the
    # level loop receives int coefficients and G comes out exactly
    import germradius.recovery as recovery
    seen = []

    def spy(f, *args):
        seen.append(f)
        return iter_h_levels(f, *args)

    monkeypatch.setattr(recovery, "iter_h_levels", spy)
    n = len(variables)
    mu = profile(germ_of(exprs, variables, center=center)).mu
    need = working_degree(mu, target)
    germ = germ_of(exprs, variables, center=center, degree=need + 1)
    g0 = TruncatedSeries(n, germ.image_point, need, {
        gamma: Fraction(1, 2 ** sum(gamma) + 1 + gamma[0])
        for gamma in enumerate_upto(n, target)})
    f = compose(g0, germ)
    assert any(isinstance(c, Fraction) for c in f.coeffs.values())
    report = recover(germ, f, target)
    assert len(seen) == 1
    assert all(type(c) is int for c in seen[0].coeffs.values())
    assert report.g_series.coeffs == g0.coeffs
    assert report.residual.is_zero

@pytest.mark.parametrize("n,singular", [
    (1, False), (1, True), (2, False), (2, True), (3, False)])
def test_round_trip_random(n, singular):
    rng = random.Random(500 + n + 10 * singular)
    for _ in range(3):
        target = 4
        germ_probe = random_map(rng, n, trunc=6, singular=singular)
        prof = profile(germ_probe)
        need = working_degree(prof.mu, target)
        germ = (germ_probe if germ_probe.trunc >= need + 1 else
                random_map(random.Random(rng.random()), n, trunc=need + 1,
                           singular=singular))
        g0 = random_series(rng, n, target, center=germ.image_point,
                           trunc=need)
        f = compose(g0, germ)
        report = recover(germ, f, target)
        assert report.g_series.coeffs == g0.coeffs
        assert report.residual.is_zero


def test_recovery_prefix_stability():
    # each coefficient depends only on F, the operators, and the profile:
    # recovering to a lower degree gives the same leading coefficients
    germ = blowup_germ(degree=16)
    rng = random.Random(8)
    g0 = random_series(rng, 2, 3, trunc=15)
    f = compose(g0, germ)
    full = recover(germ, f, 3).g_series
    part = recover(germ, f, 2).g_series
    for gamma, c in part.coeffs.items():
        assert full.coeffs.get(gamma, 0) == c
    for gamma, c in full.coeffs.items():
        if sum(gamma) <= 2:
            assert part.coeffs.get(gamma, 0) == c


def test_non_composite_blowup_flagged():
    germ = blowup_germ(degree=8)
    f = series_of("y", ["x", "y"], degree=7)
    report = recover(germ, f, 2)
    assert not report.composite_within_checked_degree
    assert report.first_residual_term == ((0, 1), -1)
    again = recover(germ, f, 2)
    assert again.first_residual_term == report.first_residual_term
    assert again.residual == report.residual


def test_recover_binomial_sqrt_at_half():
    a = Fraction(1, 2)
    germ = square_germ(degree=13, center=(a,))
    f = series_of("x", ["x"], center=(a,), degree=12)
    report = recover(germ, f, 12)
    assert report.g_series == binomial_sqrt_series(a, 12)
    assert report.residual.is_zero


def test_recover_rejects_center_mismatch():
    from germradius import CenterMismatch
    germ = square_germ(degree=8)
    f = series_of("x", ["x"], center=(1,), degree=7)
    with pytest.raises(CenterMismatch):
        recover(germ, f, 1)

