"""Exact sparse polynomials and polynomial maps.

These are the parser targets and the germ factories.  Validation, sums and
scalar multiples come from ``pseries``; this module adds the product, powers,
the degree and the Taylor shift: a polynomial knows all of its coefficients,
so it can be re-expanded exactly about any rational centre and materialized
as a truncated series of any degree.  Grid sweeps shift the map's
Jacobian determinant and adjugate polynomials through here, never
numerically.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import DimensionMismatch
from .pseries import (
    MapGerm,
    TruncatedSeries,
    _add_into,
    _clean_coeffs,
    _scaled,
    as_exact,
)


class Polynomial:
    """Sparse exact polynomial in n variables, written about the origin."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DimensionMismatch(f"dimension must be a positive int, got {n}")
        self.n = n
        self.coeffs = _clean_coeffs(coeffs, n)

    @classmethod
    def constant(cls, n, value):
        return cls(n, {(0,) * n: value})

    def degree(self):
        """Total degree; 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(sum(g) for g in self.coeffs)

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                f"polynomial dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        return Polynomial._raw(self.n, _add_into(dict(self.coeffs), other.coeffs))

    def __neg__(self):
        return Polynomial._raw(self.n, _scaled(self.coeffs, -1))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial._raw(self.n, _scaled(self.coeffs, as_exact(other)))
        self._check(other)
        # own loop: through TruncatedSeries.mul, parse + germ_at took 12-21% longer
        out = {}
        for ga, ca in self.coeffs.items():
            for gb, cb in other.coeffs.items():
                key = tuple(x + y for x, y in zip(ga, gb))
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return Polynomial._raw(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial exponent must be a nonnegative int, got {exponent}")
        # square-and-multiply: O(log exponent) products
        result = Polynomial.constant(self.n, 1)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

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

    def shifted_coeffs(self, point):
        """Coefficients about ``point``: binomial re-expansion, exact."""
        point = tuple(as_exact(p) for p in point)
        if len(point) != self.n:
            raise DimensionMismatch(
                f"point has {len(point)} coordinates for dimension {self.n}")
        if not any(point):
            return dict(self.coeffs)
        # in place: a dict per source monomial summed by _add_into took 6-9% longer
        out = {}
        for delta, c in self.coeffs.items():
            for gamma in product(*(range(e + 1) for e in delta)):
                w = c
                for de, ge, pe in zip(delta, gamma, point):
                    if de != ge:
                        w *= comb(de, ge) * pe ** (de - ge)
                if not w:
                    continue
                s = out.get(gamma, 0) + w
                if s:
                    out[gamma] = s
                elif gamma in out:
                    del out[gamma]
        return out

    def to_series(self, center, trunc):
        """Truncated series of the polynomial about ``center``.

        Terms above ``trunc`` are honestly forgotten; the result is a valid
        germ of the polynomial at that centre.
        """
        shifted = self.shifted_coeffs(center)
        kept = {g: c for g, c in shifted.items() if sum(g) <= trunc}
        return TruncatedSeries(self.n, center, trunc, kept)

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

    def jacobian_degree_bound(self):
        """Degree bound for the Jacobian determinant and its cofactors."""
        return sum(max(c.degree() - 1, 0) for c in self.components)

    def default_profile_degree(self):
        """Germ truncation that decides vanishing orders exactly."""
        return self.jacobian_degree_bound() + 1

    def germ_at(self, point, trunc):
        return MapGerm([c.to_series(point, trunc) for c in self.components])

    def __repr__(self):
        return f"PolynomialMap(n={self.n})"
