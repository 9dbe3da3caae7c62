"""Coefficient-by-coefficient recovery of G from a purported composite
F = G ∘ germ, with a recomposition residual as the self-check.

For beta of degree m >= 1, the operator sum H = Σ_alpha T[beta, alpha] · D^alpha F
has, at the extraction index (2m-1)·alpha(a), the value

    (coefficient of delta at alpha)^(2m-1) · beta! · G_beta :

every other contribution at that index needs a delta-power coefficient below
the minimal graded-lex index (2m-1)·alpha, which vanishes by additivity of
the order.  Dividing by the nonzero pivot recovers G_beta exactly.  The
divisor is the normalized COEFFICIENT of delta at alpha, not the derivative
value: the two differ by alpha!^(2m-1), and the cube-map fixture (alpha! = 2)
pins the coefficient form via the round trip.

The degree-zero coefficient is read off directly: G_0 = F(a).  The working
rule: to reach degree B, F needs truncation (2B-1)·mu + B (the map germ one
more), because the extraction coefficient lives at degree (2m-1)·mu and each
level consumes one derivative.

No operator table is built: ``cramerops.iter_h_levels`` recurs on the sums
H themselves, one packed sum per beta, and each sum equals the table's
Σ_alpha T[beta, alpha] · D^alpha F, so the recovered values are the same
rationals a table-backed extraction gives (the test suite's
``tests/helpers.assemble_H`` forms that table sum as the reference).  The
sums stay packed inside the level builder; only the coefficient at the
extraction index leaves it, so no sum becomes a series here.  The pivot
power grows by pivot² per level, and G is assembled from the quotients
directly.

The sums run on integers.  The determinant and the adjugate (a tuple of
rows) are scaled by the least common denominator c of their coefficients,
and F by its own d, so an integer F stays as it is.  A level-m sum then
holds c^(2m-1) · d times its value, and the divisor
beta! · (c · delta_alpha)^(2m-1) · d absorbs both: each G_beta is one
quotient of two ints.  The trace prints the sum's coefficient and the
divisor with that scale divided out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterMismatch, DimensionMismatch, TruncationError
from .cramerops import iter_h_levels, working_degree
from .jacobian import profile
from .mindex import grlex_key, mi_factorial, scale
from .pseries import (
    TruncatedSeries,
    _cleared,
    as_exact,
    compose,
    rational_str,
    series_to_dict,
)


@dataclass(eq=False)
class RecoveryReport:
    g_series: TruncatedSeries
    residual: TruncatedSeries
    max_recoverable_degree: int
    per_beta_trace: dict | None = None

    @property
    def composite_within_checked_degree(self):
        return self.residual.is_zero

    @property
    def first_residual_term(self):
        """Graded-lex-smallest nonzero residual term, or None."""
        if self.residual.is_zero:
            return None
        g = min(self.residual.coeffs, key=grlex_key)
        return g, self.residual.coeffs[g]


def max_recoverable_degree(mu, available_degree):
    """Largest target degree whose working rule fits in ``available_degree``."""
    return (available_degree + mu) // (2 * mu + 1)


def _integer_copies(prof):
    """The least common denominator c of the determinant and adjugate
    coefficients, and both scaled by c.  Scaling multiplies every level-m
    operator sum by c^(2m-1), which the divisor absorbs exactly, and it keeps
    the hot arithmetic in plain integers."""
    k = len(prof.adjugate)
    den, (delta, *entries) = _cleared(
        [prof.delta] + [e for row in prof.adjugate for e in row])
    return den, delta, [entries[i:i + k] for i in range(0, k * k, k)]


def recover(germ, f_series, target_degree, trace=False, prof=None):
    """Recover G up to ``target_degree`` from F, plus the recomposition
    residual computed to the largest degree both sides support.

    The residual is shipped even for exact composites, where it must be
    identically zero: it is the self-check that does not depend on how the
    operator sums were constructed.  ``prof`` is the germ's profile when
    the caller has it; by default it is computed here.
    """
    if (not isinstance(target_degree, int) or isinstance(target_degree, bool)
            or target_degree < 0):
        raise ValueError(f"target degree must be a nonnegative int, got {target_degree!r}")
    if f_series.n != germ.n:
        raise DimensionMismatch("series and map disagree on dimension")
    if f_series.center != germ.center:
        raise CenterMismatch("series and map disagree on the centre")
    if prof is None:
        prof = profile(germ)
    available = min(f_series.trunc, germ.trunc - 1)
    max_deg = max_recoverable_degree(prof.mu, available)
    if target_degree > max_deg:
        need = working_degree(prof.mu, target_degree)
        raise TruncationError(
            f"recovering to degree {target_degree} needs F truncation "
            f"{need} (map germ {need + 1}); the inputs support "
            f"degree {max_deg}", needed_degree=need)
    zero_idx = (0,) * germ.n
    coeffs = {}
    trace_data = {} if trace else None
    g0 = f_series.coefficient(zero_idx)
    if g0:
        coeffs[zero_idx] = g0
    if trace:
        trace_data[zero_idx] = (as_exact(Fraction(g0)), 1)
    if target_degree >= 1:
        work = working_degree(prof.mu, target_degree)
        den, delta, adj = _integer_copies(prof)
        fden, (f_int,) = _cleared([f_series])
        pivot = delta.coeffs[prof.alpha]
        square = pivot * pivot
        pivot_pow = pivot * fden  # pivot^(2m - 1) · fden at level m
        for m, level in iter_h_levels(f_int, target_degree, work, delta, adj,
                                      prof.alpha):
            if trace:
                scaling = den ** (2 * m - 1) * fden
            for beta, total in level.items():
                divisor = mi_factorial(beta) * pivot_pow
                if total:
                    coeffs[beta] = as_exact(Fraction(total, divisor))
                if trace:
                    trace_data[beta] = (as_exact(Fraction(total, scaling)),
                                        as_exact(Fraction(divisor, scaling)))
            pivot_pow *= square
    g_series = TruncatedSeries._raw(germ.n, germ.image_point, target_degree,
                                    coeffs)
    checked = min(f_series.trunc, target_degree)
    residual = compose(g_series, germ) - f_series.truncated(checked)
    return RecoveryReport(
        g_series=g_series, residual=residual,
        max_recoverable_degree=max_deg, per_beta_trace=trace_data)


@dataclass(frozen=True, eq=False)
class ExtractionWitness:
    """Pivot structure of delta^(2m-1) for one exponent m."""

    m: int
    min_index: tuple
    min_degree: int
    pivot_coefficient: object
    expected_index: tuple
    expected_degree: int
    expected_coefficient: object

    @property
    def passed(self):
        return (self.min_index == self.expected_index
                and self.min_degree == self.expected_degree
                and self.pivot_coefficient == self.expected_coefficient)


def extraction_witnesses(prof, max_m):
    """Check the pivot structure of delta^(2m-1) for m = 1..max_m: minimal
    graded-lex index (2m-1)·alpha at minimal degree (2m-1)·mu, with
    coefficient equal to the alpha-coefficient of delta raised to the 2m-1.

    The odd powers delta, delta^3, ... are one chain, each the last times
    delta², all capped at (2·max_m − 1)·mu; witness m reads its power
    truncated to (2m−1)·mu, which holds the whole pivot structure."""
    if max_m < 1:
        raise ValueError("exponent level must be >= 1")
    cap = (2 * max_m - 1) * prof.mu
    if prof.delta.trunc < cap:
        raise TruncationError(
            f"determinant truncation {prof.delta.trunc} below pivot degree "
            f"{cap}", needed_degree=cap)
    power = prof.delta.truncated(cap)
    square = power.mul(power) if max_m > 1 else None
    pivot = Fraction(prof.delta.coeffs[prof.alpha])
    witnesses = []
    for m in range(1, max_m + 1):
        if m > 1:
            power = power.mul(square)
        exponent = 2 * m - 1
        low = power.truncated(exponent * prof.mu).coeffs
        min_index = min(low, key=grlex_key)
        witnesses.append(ExtractionWitness(
            m=m,
            min_index=min_index,
            min_degree=sum(min_index),
            pivot_coefficient=low[min_index],
            expected_index=scale(prof.alpha, exponent),
            expected_degree=exponent * prof.mu,
            expected_coefficient=as_exact(pivot ** exponent),
        ))
    return witnesses


def report_to_dict(report):
    out = {
        "g_series": series_to_dict(report.g_series),
        "residual": series_to_dict(report.residual),
        "max_recoverable_degree": report.max_recoverable_degree,
        "composite_within_checked_degree": report.composite_within_checked_degree,
    }
    first = report.first_residual_term
    if first is not None:
        out["first_residual"] = {
            "index": list(first[0]),
            "coeff": rational_str(first[1]),
        }
    if report.per_beta_trace is not None:
        out["per_beta_trace"] = [
            {
                "beta": list(beta),
                "h_coefficient": rational_str(h),
                "divisor": rational_str(d),
            }
            for beta, (h, d) in sorted(
                report.per_beta_trace.items(), key=lambda kv: grlex_key(kv[0]))
        ]
    return out
