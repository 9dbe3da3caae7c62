"""Root-test radius estimation, scaling fits, bound reports, stratification."""

import math
import random
from fractions import Fraction

import pytest

from germradius import (
    DegenerateFamilyError,
    DimensionMismatch,
    InsufficientShellsError,
    Polynomial,
    PolynomialMap,
    TruncatedSeries,
    TruncationError,
    bound_report,
    compose,
    estimate_radius,
    profile,
    scaling_fit,
    shells_to_csv,
    stratification_to_csv,
    stratify,
)
from helpers import (
    germ_of,
    pmap_of,
    random_map,
    reference_stratify,
    series_of,
    square_germ,
)


def geometric(radius, degree, n=1, center=None):
    rho = Fraction(radius)
    coeffs = {(k,) + (0,) * (n - 1): rho ** -k for k in range(degree + 1)}
    if center is None:
        center = (0,) * n
    return TruncatedSeries(n, center, degree, coeffs)


def test_geometric_exact_quarter():
    est = estimate_radius(geometric(Fraction(1, 4), 40))
    assert est.estimate == 0.25
    assert all(v == 0.25 for _, v in est.per_shell)


def test_even_shell_series_gives_square_root():
    f = TruncatedSeries(1, (0,), 60, {(2 * k,): 4 ** k for k in range(31)})
    est = estimate_radius(f)
    assert est.estimate == pytest.approx(0.5, rel=1e-12)
    assert [d for d, _ in est.per_shell] == [2 * k for k in range(1, 31)]


def test_too_few_shells():
    with pytest.raises(InsufficientShellsError):
        estimate_radius(geometric(Fraction(1, 2), 10), window=10)


@pytest.mark.parametrize("window", [0, -1, True, False, 2.5, "10", None])
def test_window_must_be_a_positive_int(window):
    with pytest.raises(ValueError):
        estimate_radius(geometric(Fraction(1, 4), 40), window=window)


def test_huge_magnitudes_do_not_overflow():
    # coefficients around 8^(2k-1) exceed double range long before k = 400
    a = Fraction(1, 8)
    coeffs = {(k,): a ** (1 - 2 * k) for k in range(1, 401)}
    s = TruncatedSeries(1, (0,), 400, coeffs)
    est = estimate_radius(s)
    assert est.estimate == pytest.approx(float(a) ** 2, rel=1e-2)


def test_root_test_exact_on_geometric_shells():
    # |coeff| = rho^(-d) on the support: every shell value is rho on the
    # nose, so the estimate is exact for any window
    rho = Fraction(1, 3)
    coeffs = {(d,): rho ** -d for d in range(1, 41)}
    s = TruncatedSeries(1, (0,), 40, coeffs)
    for window in (5, 10, 20):
        est = estimate_radius(s, window=window)
        assert est.estimate == pytest.approx(float(rho), rel=1e-12)
    # a constant prefactor c decays like c^(-1/d): gone in the limit only
    scaled = TruncatedSeries(1, (0,), 40, {g: 5 * c for g, c in coeffs.items()})
    est = estimate_radius(scaled)
    assert est.estimate == pytest.approx(float(rho), rel=0.05)


def test_shell_maxima_match_the_fraction_reference():
    # shells of mixed int and rational coefficients of either sign, with
    # equal magnitudes in one shell: each shell value is the one the
    # largest |c| as a Fraction gives, to the bit
    rng = random.Random(11)
    coeffs = {}
    for d in range(1, 31):
        for i in range(d + 1):
            c = rng.choice([rng.randint(-50, 50),
                            Fraction(rng.randint(-9 ** d, 9 ** d),
                                     rng.randint(1, 7 ** d))])
            if c:
                coeffs[(i, d - i)] = c
        coeffs[(0, d)] = -coeffs.get((d, 0), 1)
    s = TruncatedSeries(2, (0, 0), 30, coeffs)
    want = []
    for d in range(1, 31):
        top = max(abs(Fraction(c)) for g, c in coeffs.items() if sum(g) == d)
        log2 = math.log2(top.numerator) - math.log2(top.denominator)
        want.append((d, 2.0 ** (-log2 / d)))
    assert estimate_radius(s).per_shell == want


def test_bound_report_square_family():
    germ = square_germ(degree=8)
    prof = profile(germ)
    rep = bound_report(prof, r_f=0.5, r_g=0.25)
    assert rep.lam == 2
    assert rep.ratio == pytest.approx(1.0)
    assert rep.d_alpha_delta == 2


def test_scaling_fit_square_family():
    family = []
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        g = geometric(rho, 60)
        germ = square_germ(degree=61)
        f = compose(g, germ)
        family.append((rho, estimate_radius(f).estimate,
                       estimate_radius(g).estimate))
    fit = scaling_fit(family, x="r_f", y="r_g")
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    inverse = scaling_fit(family, x="r_g", y="r_f")
    assert inverse.slope == pytest.approx(0.5, abs=1e-9)


def test_scaling_fit_identity_family():
    family = [(t, float(t), float(t)) for t in (0.1, 0.3, 0.9)]
    fit = scaling_fit(family, x="r_f", y="r_g")
    assert fit.slope == pytest.approx(1.0)
    assert fit.max_abs_residual < 1e-12


def test_scaling_fit_degenerate():
    with pytest.raises(DegenerateFamilyError):
        scaling_fit([(1, 0.5, 0.25)])
    with pytest.raises(DegenerateFamilyError):
        scaling_fit([(1, 0.5, 0.25), (2, 0.5, 0.3)], x="r_f", y="r_g")
    with pytest.raises(DegenerateFamilyError):
        scaling_fit([(1, -0.5, 0.25), (2, 0.7, 0.3)], x="r_f", y="r_g")


# -- stratification -----------------------------------------------------------


def test_stratify_blowup_three_grid():
    pmap = pmap_of(["x", "x*y"], ["x", "y"])
    axis = [-1, 0, 1]
    grid = [(a, b) for a in axis for b in axis]
    strat = stratify(pmap, grid)
    assert [(g.mu, g.nu) for g in strat.groups] == [(1, 0), (0, 0)]
    on_axis, off_axis = strat.groups
    assert on_axis.alpha == (1, 0)
    assert sorted(s.point for s in on_axis.samples) == [(0, -1), (0, 0), (0, 1)]
    assert off_axis.alpha == (0, 0)
    assert len(off_axis.samples) == 6
    assert strat.singular == []


def test_stratify_square_map_line():
    pmap = pmap_of(["x^2"], ["x"])
    grid = [(Fraction(v),) for v in (-1, Fraction(-1, 2), 0, Fraction(1, 2), 1)]
    strat = stratify(pmap, grid)
    assert [(g.mu, g.nu) for g in strat.groups] == [(1, 0), (0, 0)]
    assert [s.point for s in strat.groups[0].samples] == [(0,)]


def test_stratify_identity_single_stratum():
    pmap = pmap_of(["x", "y"], ["x", "y"])
    grid = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    strat = stratify(pmap, grid)
    assert len(strat.groups) == 1
    assert (strat.groups[0].mu, strat.groups[0].nu) == (0, 0)
    assert strat.groups[0].alpha == (0, 0)
    assert len(strat.groups[0].samples) == 9


def test_stratify_reports_singular_points_separately():
    # x*y has determinant identically... a map with delta == 0 somewhere:
    # (x^2/?, ...) use (x*y, y): delta = y * ... check: J = [[y, x], [0, 1]],
    # delta = y -> vanishes identically nowhere. Use a genuinely degenerate
    # map: (x*y, x*y) has delta == 0 everywhere.
    pmap = pmap_of(["x*y", "x*y"], ["x", "y"])
    strat = stratify(pmap, [(0, 0), (1, 1)])
    assert strat.groups == []
    assert strat.singular == [(0, 0), (1, 1)]


def test_stratify_deterministic():
    pmap = pmap_of(["x", "x*y"], ["x", "y"])
    axis = [Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), Fraction(1)]
    grid = [(a, b) for a in axis for b in axis]
    s1 = stratify(pmap, grid)
    s2 = stratify(pmap, grid)
    assert stratification_to_csv(s1) == stratification_to_csv(s2)


def _strata_view(strat):
    return ([(g.mu, g.nu, g.alpha,
              [(s.point, s.mu, s.nu, s.alpha) for s in g.samples])
             for g in strat.groups],
            strat.singular, strat.computed_at_degree)


def _seeded_pmap(seed, n, singular):
    # the truncation is the polynomial degree: the germ at the origin holds
    # every coefficient of the map (cubics in 3-D made the reference slow)
    deg = 2 if n == 3 else 3
    germ = random_map(random.Random(seed), n, deg, deg=deg, singular=singular)
    return PolynomialMap([Polynomial(n, c.coeffs) for c in germ.components])


_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)
_STRATIFY_CASES = [
    pytest.param(_seeded_pmap(seed, n, sg),
                 id=f"seeded-{n}d-{'singular' if sg else 'regular'}-{seed}")
    for n in (1, 2, 3) for sg in (False, True) for seed in (0, 1)
] + [
    pytest.param(pmap_of(exprs, ["x", "y", "z"][:len(exprs)]),
                 id=",".join(exprs))
    for exprs in (["x", "x"], ["x*y", "x*y"], ["x^2*y", "x*y^2"], ["x^3"],
                  ["x^2", "y^2", "z^2"], ["x", "(x - 1/2)*y"],
                  ["x", "y", "(x - 1/3)*z + 2*x"])
]


@pytest.mark.parametrize("pmap", _STRATIFY_CASES)
def test_stratify_matches_per_point_profiles(pmap):
    # every grid holds the origin, where the seeded singular maps and the
    # monomial maps are singular, and the zeros x = 1/2 (in 1-D and 2-D)
    # and x = 1/3 of the two off-centre maps' determinants
    axis = {1: (-1, 0, _THIRD, _HALF, 1), 2: (-1, 0, _THIRD, _HALF),
            3: (0, _THIRD)}[pmap.n]
    grid = [()]
    for _ in range(pmap.n):
        grid = [p + (a,) for p in grid for a in axis]
    for degree in [None] + list(range(1, pmap.default_profile_degree() + 2)):
        strat = stratify(pmap, grid, degree=degree)
        ref = reference_stratify(pmap, grid, degree=degree)
        assert _strata_view(strat) == _strata_view(ref), degree
        assert (stratification_to_csv(strat).encode()
                == stratification_to_csv(ref).encode())


def test_stratify_coordinate_squares_by_zero_coordinates():
    # delta = 8xyz: at a point with k zero coordinates mu = k, and the
    # adjugate entries 4yz, 4xz, 4xy have order k - 1 there (0 when k = 0)
    pmap = pmap_of(["x^2", "y^2", "z^2"], ["x", "y", "z"])
    grid = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    strat = stratify(pmap, grid)
    assert [(g.mu, g.nu, len(g.samples)) for g in strat.groups] == [
        (3, 2, 1), (2, 1, 3), (1, 0, 3), (0, 0, 1)]
    assert strat.groups[0].alpha == (1, 1, 1)
    assert strat.groups[1].alpha is None  # (1, 1, 0), (1, 0, 1), (0, 1, 1)
    assert strat.singular == []


def test_stratify_wrong_length_point_on_singular_map():
    # (x, x) is singular everywhere, yet a point of the wrong length is
    # still a dimension error
    pmap = pmap_of(["x", "x"], ["x", "y"])
    with pytest.raises(DimensionMismatch):
        stratify(pmap, [(0, 0), (1,)])


def test_stratify_degree_zero_is_truncation_error():
    pmap = pmap_of(["x", "x*y"], ["x", "y"])
    with pytest.raises(TruncationError) as info:
        stratify(pmap, [(0, 0), (1, 1)], degree=0)
    assert info.value.needed_degree == 1


def test_csv_shapes():
    est = estimate_radius(geometric(Fraction(1, 2), 40))
    text = shells_to_csv(est)
    lines = text.strip().split("\n")
    assert lines[0] == "degree,shell_value"
    assert len(lines) == 41
    pmap = pmap_of(["x", "x*y"], ["x", "y"])
    strat = stratify(pmap, [(0, 0), (1, 1)])
    table = stratification_to_csv(strat, ["x", "y"])
    assert table.splitlines()[0] == "x,y,mu,nu,alpha"
    assert "0,0,1,0,1 0" in table


def test_sqrt_series_estimate_converges_to_square_of_center():
    # binomial sqrt series at a = 1/2: the subexponential k^(-3/2) factor
    # biases the root test upward by ~(3/2) log k / k; at 200 shells that is
    # just above 5 percent, dropping below it by 250 shells
    a = Fraction(1, 2)
    c = Fraction(1)
    coeffs = {}
    for k in range(251):
        if k:
            c *= (Fraction(1, 2) - (k - 1)) / k
        coeffs[(k,)] = c * a ** (1 - 2 * k)
    full = TruncatedSeries(1, (a * a,), 250, coeffs)
    at_200 = estimate_radius(full.truncated(200)).estimate
    assert abs(at_200 - 0.25) <= 0.06 * 0.25
    at_250 = estimate_radius(full).estimate
    assert abs(at_250 - 0.25) <= 0.05 * 0.25
