"""Exact sparse polynomials and polynomial maps.

A polynomial is validated coefficient data written about the origin: the
parser builds it, and this module re-expands it exactly about any rational
centre (the Taylor shift) to materialize it as a truncated series of any
degree.  The shift runs over plain ints: the coefficients' common
denominator and the centre's denominators are scaled out, so every
binomial weight is an int, and each output coefficient is one division.
It forms only the terms of degree <= the truncation its caller reads, and
the binomial rows and centre powers it reads are formed once per
coordinate value and shared by every polynomial shifted there: a map's
components, or the Jacobian determinant and adjugate entries at every
point of a grid sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

from .errors import DimensionMismatch
from .pseries import (
    MapGerm,
    TruncatedSeries,
    _clean_coeffs,
    _unpacked,
    _valid_trunc,
    as_exact,
)


def _exact_point(point, n):
    """``point`` as a tuple of exact rationals with ``n`` coordinates."""
    point = tuple(as_exact(p) for p in point)
    if len(point) != n:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates for dimension {n}")
    return point


_UNIT_ROW = [(0, 1)]  # x_i^0 at an integer a_i: leaves a weight as it is


class _TaylorShift:
    """Exact Taylor shifts, cut at degree ``top``, of the polynomials
    ``polys`` (coefficient dicts in ``n`` variables) to rational points.

    Coordinate i of a point is a_i/q_i in lowest terms, and e_i is the
    largest exponent of x_i in ``polys``.  A polynomial whose coefficients
    have common denominator D has its term c·x^δ contribute, at each γ <= δ
    with |γ| <= top, the int weight
    (c·D)·Π_i C(δ_i, γ_i)·a_i^(δ_i−γ_i)·q_i^(e_i−δ_i+γ_i): its share of the
    coefficient at γ, scaled by D·Π_i q_i^e_i.  Each output coefficient is
    then one division by that scale.

    The factors of coordinate i and exponent δ_i form a row over γ_i.  A
    row depends only on i and a_i/q_i, so it is built on first use and kept
    for every polynomial and every point of one sweep that shares that
    coordinate; ``powers`` holds the powers base^k, by (base, k), that the
    rows and scales read, and no others.  Weights are summed in packed
    keys, laid out as ``pseries`` packs series terms (total degree in the
    top field), so each γ is one integer sum and the cut at ``top`` one
    comparison.
    """

    __slots__ = ("n", "top", "bound", "shift", "limit", "powers", "_axes",
                 "_point", "_rows", "_scale")

    def __init__(self, n, top, polys):
        keys = [g for coeffs in polys for g in coeffs]
        self.n = n
        self.top = top
        self.bound = tuple(map(max, zip(*keys))) if keys else (0,) * n
        self.shift = top.bit_length() or 1
        self.limit = (top + 1) << n * self.shift
        self.powers = {}
        self._axes = {}  # (i, a_i, q_i): ({δ_i: row}, q_i^e_i)
        self._point = None

    def _power_range(self, base, lo, hi):
        """[base^lo, ..., base^hi], each formed once and kept in
        ``powers``."""
        powers = self.powers
        out = []
        p = None
        for k in range(lo, hi + 1):
            v = powers.get((base, k))
            if v is None:
                v = powers[base, k] = base ** k if p is None else p * base
            out.append(v)
            p = v
        return out

    def _at(self, point):
        """Point the rows and the scale at ``point``."""
        axes = self._axes
        rows = []
        scale = 1
        for i, p in enumerate(point):
            a, q = p.numerator, p.denominator
            axis = axes.get((i, a, q))
            if axis is None:
                if q == 1:
                    axis = {0: _UNIT_ROW}, 1
                else:
                    e = self.bound[i]
                    axis = {}, self._power_range(q, e, e)[0]
                axes[i, a, q] = axis
            rows.append(axis[0])
            scale *= axis[1]
        self._point, self._rows, self._scale = point, rows, scale

    def _row(self, i, d):
        """Packed (γ_i key, weight factor) pairs for exponent ``d`` of x_i
        at the current point."""
        p = self._point[i]
        a, q = p.numerator, p.denominator
        unit = (1 << self.n * self.shift) + (1 << i * self.shift)
        m = min(d, self.top)
        if not a:  # only γ_i = δ_i survives a_i = 0, and q_i = 1
            row = [(d * unit, 1)] if d == m else []
        else:
            apow = self._power_range(a, d - m, d)  # a_i^(d-g) at index m - g
            row = [(g * unit, comb(d, g) * apow[m - g]) for g in range(m + 1)]
            if q != 1:
                lift = self.bound[i] - d
                row = [(k, w * qp) for (k, w), qp in
                       zip(row, self._power_range(q, lift, lift + m))]
        self._rows[i][d] = row
        return row

    def numerators(self, coeffs, point):
        """(terms, den): the terms of degree <= ``top`` of the polynomial
        ``coeffs`` written about the exact ``point`` are terms[γ] / den.
        Away from the origin the terms are nonzero ints."""
        top = self.top
        if not any(point):
            return {g: c for g, c in coeffs.items() if sum(g) <= top}, 1
        if point is not self._point:
            self._at(point)
        den = math.lcm(*[c.denominator for c in coeffs.values()])
        limit, rows = self.limit, self._rows
        acc = {}
        get = acc.get
        for delta, c in coeffs.items():
            if den != 1:
                c = c.numerator * (den // c.denominator)
            terms = [(0, c)]
            for i, d in enumerate(delta):
                row = rows[i].get(d)
                if row is None:
                    row = self._row(i, d)
                if row is not _UNIT_ROW:
                    terms = [(k + rk, w * rw) for k, w in terms
                             for rk, rw in row if k + rk < limit]
            for k, w in terms:
                acc[k] = get(k, 0) + w
        return _unpacked(acc.items(), self.n, self.shift), den * self._scale

    def __call__(self, coeffs, point):
        """The terms of degree <= ``top`` of the polynomial ``coeffs``
        written about the exact ``point``, as an exponent-tuple dict of
        exact coefficients: one division each."""
        out, den = self.numerators(coeffs, point)
        if den != 1:
            for g, v in out.items():
                out[g] = Fraction(v, den) if v % den else v // den
        return out


class Polynomial:
    """Sparse exact polynomial in n variables, written about the origin."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DimensionMismatch(f"dimension must be a positive int, got {n}")
        self.n = n
        self.coeffs = _clean_coeffs(coeffs, n)

    def degree(self):
        """Total degree; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(sum(g) for g in self.coeffs)

    @classmethod
    def _raw(cls, n, coeffs):
        obj = object.__new__(cls)
        obj.n = n
        obj.coeffs = coeffs
        return obj

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    __hash__ = None

    def to_series(self, center, trunc):
        """Truncated series of the polynomial about ``center``.

        Terms above ``trunc`` are honestly forgotten, never formed; the
        result is a valid germ of the polynomial at that centre.
        """
        center = _exact_point(center, self.n)
        shift = _TaylorShift(self.n, _valid_trunc(trunc), [self.coeffs])
        return TruncatedSeries._raw(self.n, center, trunc,
                                    shift(self.coeffs, center))

    def __repr__(self):
        return f"Polynomial(n={self.n}, terms={len(self.coeffs)})"


class PolynomialMap:
    """n polynomials in n variables: a map-germ factory for any centre."""

    __slots__ = ("n", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DimensionMismatch("a polynomial map needs at least one component")
        n = components[0].n
        if len(components) != n:
            raise DimensionMismatch(
                f"{len(components)} components in {n} variables; maps are square")
        for comp in components:
            if comp.n != n:
                raise DimensionMismatch("components disagree on dimension")
        self.n = n
        self.components = components

    def default_profile_degree(self):
        """Germ truncation that decides vanishing orders exactly: one more
        than the degree bound of the Jacobian determinant and its
        cofactors."""
        return sum(max(c.degree() - 1, 0) for c in self.components) + 1

    def germ_at(self, point, trunc):
        """The germ of the map at ``point`` to degree ``trunc``: every
        component is shifted by one ``_TaylorShift``, so they share its
        binomial rows and centre powers."""
        n = self.n
        point = _exact_point(point, n)
        shift = _TaylorShift(n, _valid_trunc(trunc),
                             [c.coeffs for c in self.components])
        return MapGerm([TruncatedSeries._raw(n, point, trunc,
                                             shift(c.coeffs, point))
                        for c in self.components])

    def __repr__(self):
        return f"PolynomialMap(n={self.n})"
