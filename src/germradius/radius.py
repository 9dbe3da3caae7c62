"""Convergence-radius estimation from coefficient tables, scaling-law fits,
and exact stratification of polynomial maps by their vanishing invariants.

Stratification builds the map's Jacobian determinant and adjugate entries,
which are polynomials, once per call, and reads every grid point off their
exact Taylor shifts to that point, cut at the degree the invariants read.
One shift serves the whole sweep, so grid points that share a coordinate
value share its binomial rows and powers.

This is the only module where floating point appears; everything upstream is
exact.  Shell values are computed from exact coefficient magnitudes through
base-2 logarithms (Python's log2 takes arbitrarily large ints), so magnitudes
far beyond double range still produce accurate floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import linear_regression, median

from .errors import (
    DegenerateFamilyError,
    InsufficientShellsError,
    SingularJacobianError,
    TruncationError,
)
from .jacobian import _invariants, profile
from .polymap import _TaylorShift, _exact_point
from .pseries import rational_str

_FLOAT_NOTE = "float64 shell values from exact magnitudes via base-2 logarithms"


def _log2_magnitude(pair):
    """log2 of the magnitude |numerator| / denominator held as a pair of
    ints."""
    num, den = pair
    return math.log2(num) - math.log2(den)


@dataclass(eq=False)
class RadiusEstimate:
    per_shell: list  # (degree, shell value) for every nonzero shell, ascending
    estimate: float
    window: int
    note: str = _FLOAT_NOTE


def estimate_radius(series, window=10):
    """Root-test radius: per nonzero shell d >= 1 the value
    (max |coefficient| over |gamma| = d) ** (-1/d); the estimate is the
    median over the last ``window`` nonzero shells.

    Shells without nonzero coefficients are skipped entirely — they never
    enter the median as infinite values.  Needs at least 2*window nonzero
    shells to call the tail stable.
    """
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise ValueError(f"window must be a positive int, got {window!r}")
    # per shell, the largest |c| as the pair (|numerator|, denominator):
    # int coefficients compare as ints, the others by cross-multiplication
    whole, frac = {}, {}
    for g, c in series.coeffs.items():
        d = sum(g)
        if d == 0:
            continue
        if type(c) is int:
            m = abs(c)
            cur = whole.get(d)
            if cur is None or m > cur:
                whole[d] = m
        else:
            num, den = abs(c.numerator), c.denominator
            cur = frac.get(d)
            if cur is None or num * cur[1] > cur[0] * den:
                frac[d] = num, den
    shell_max = {d: (m, 1) for d, m in whole.items()}
    for d, (num, den) in frac.items():
        cur = shell_max.get(d)
        if cur is None or num > cur[0] * den:
            shell_max[d] = num, den
    degrees = sorted(shell_max)
    if len(degrees) < 2 * window:
        raise InsufficientShellsError(
            f"root test needs at least {2 * window} nonzero shells, "
            f"found {len(degrees)}")
    per_shell = [
        (d, 2.0 ** (-_log2_magnitude(shell_max[d]) / d)) for d in degrees]
    estimate = median(v for _, v in per_shell[-window:])
    return RadiusEstimate(per_shell=per_shell, estimate=estimate, window=window)


@dataclass(frozen=True, eq=False)
class BoundReport:
    """The ratio whose lower bound the scaling law asserts.

    No pass/fail on the multiplicative constant: it is an existence
    constant, reported alongside, never asserted.
    """

    lam: int
    ratio: float
    d_alpha_delta: object


def bound_report(prof, r_f, r_g):
    return BoundReport(
        lam=prof.lam,
        ratio=r_g / (r_f ** prof.lam),
        d_alpha_delta=prof.d_alpha_delta)


@dataclass(eq=False)
class ScalingFit:
    slope: float
    intercept: float
    max_abs_residual: float


def scaling_fit(family, x="r_f", y="r_g"):
    """Least-squares slope of log(y) against log(x) over family records
    (t, r_f, r_g); ``x`` and ``y`` name the fields on each axis."""
    pick = {"t": 0, "r_f": 1, "r_g": 2}
    rows = [tuple(rec) for rec in family]
    if len(rows) < 2:
        raise DegenerateFamilyError("a scaling fit needs at least two members")
    xs = [float(r[pick[x]]) for r in rows]
    ys = [float(r[pick[y]]) for r in rows]
    if any(v <= 0 for v in xs) or any(v <= 0 for v in ys):
        raise DegenerateFamilyError("log-log fit needs positive values")
    lx = [math.log(v) for v in xs]
    ly = [math.log(v) for v in ys]
    if max(lx) == min(lx):
        raise DegenerateFamilyError("family parameter is constant")
    slope, intercept = linear_regression(lx, ly)
    residuals = [yv - (slope * xv + intercept) for xv, yv in zip(lx, ly)]
    return ScalingFit(slope=slope, intercept=intercept,
                      max_abs_residual=max(abs(r) for r in residuals))


@dataclass(frozen=True, eq=False)
class StratumSample:
    point: tuple
    mu: int
    nu: int
    alpha: tuple


@dataclass(eq=False)
class StratumGroup:
    mu: int
    nu: int
    alpha: tuple | None  # the common extraction index, None if mixed
    samples: list


@dataclass(eq=False)
class Stratification:
    groups: list  # ordered by decreasing mu, then decreasing nu
    singular: list  # points whose determinant vanished identically
    computed_at_degree: int


def stratify(pmap, grid, degree=None):
    """Exact profile at every grid point of a polynomial map, grouped by
    (mu, nu) and ordered by decreasing mu (the sampled coarse filtration).

    The Jacobian determinant and the adjugate entries of a polynomial map
    are polynomials.  They are built once, from the profile at the origin at
    the map's default degree, whose degree bound cuts no term off.  Each
    grid point then shifts them exactly to the point, forming only the terms
    of degree < ``degree``: the coefficients a germ of that truncation
    degree gives there, and all that the invariants read.  The default
    degree decides every vanishing order exactly.  Points where the
    determinant vanishes identically (every point, when it is the zero
    polynomial) are reported separately, never silently dropped.
    """
    if degree is None:
        degree = pmap.default_profile_degree()
    if degree < 1:
        raise TruncationError(
            "need truncation degree >= 1 to differentiate the map",
            needed_degree=1)
    n = pmap.n
    try:
        prof = profile(pmap.germ_at((0,) * n, pmap.default_profile_degree()))
    except SingularJacobianError:
        delta, adj = {}, []
    else:
        delta = prof.delta.coeffs
        adj = [e.coeffs for row in prof.adjugate for e in row]
    top = degree - 1
    shift = _TaylorShift(n, top, [delta] + adj)
    buckets = {}
    singular = []
    for raw_point in grid:
        point = _exact_point(raw_point, n)
        # _invariants reads only where terms are nonzero, so no division;
        # it reads the adjugate entries, and they are shifted, only at mu > 0
        found = _invariants(shift.numerators(delta, point)[0],
                            (shift.numerators(e, point)[0] for e in adj), top)
        if found is None:
            singular.append(point)
            continue
        mu, alpha, nu = found
        buckets.setdefault((mu, nu), []).append(
            StratumSample(point=point, mu=mu, nu=nu, alpha=alpha))
    groups = []
    for mu, nu in sorted(buckets, key=lambda k: (-k[0], -k[1])):
        samples = buckets[(mu, nu)]
        alpha = samples[0].alpha
        if any(s.alpha != alpha for s in samples):
            alpha = None
        groups.append(StratumGroup(mu=mu, nu=nu, alpha=alpha, samples=samples))
    return Stratification(
        groups=groups, singular=singular, computed_at_degree=degree)


# -- CSV export (the plotting boundary) --------------------------------------


def shells_to_csv(estimate):
    """Per-shell table 'degree,shell_value' as one CSV string."""
    lines = ["degree,shell_value"]
    lines.extend(f"{d},{v!r}" for d, v in estimate.per_shell)
    return "\n".join(lines) + "\n"


def stratification_to_csv(strat, var_names=None):
    """Sample table 'point coords..., mu, nu, alpha' as one CSV string."""
    first = (strat.groups[0].samples[0].point if strat.groups
             else strat.singular[0] if strat.singular else None)
    n = len(first) if first is not None else 0
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(n)]
    header = list(var_names) + ["mu", "nu", "alpha"]
    lines = [",".join(header)]
    for group in strat.groups:
        for s in group.samples:
            coords = [rational_str(c) for c in s.point]
            lines.append(",".join(coords + [str(s.mu), str(s.nu),
                                            " ".join(map(str, s.alpha))]))
    return "\n".join(lines) + "\n"
