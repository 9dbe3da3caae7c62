"""Exact sparse polynomials and polynomial maps.

A polynomial is validated coefficient data written about the origin: the
parser builds it, and this module re-expands it exactly about any rational
centre (the Taylor shift) to materialize it as a truncated series of any
degree.  The shift forms only the terms of degree <= the truncation its
caller reads.  Grid sweeps shift the map's Jacobian determinant and
adjugate coefficients through here, never numerically.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .errors import DimensionMismatch
from .pseries import MapGerm, TruncatedSeries, _clean_coeffs, as_exact


def _exact_point(point, n):
    """``point`` as a tuple of exact rationals with ``n`` coordinates."""
    point = tuple(as_exact(p) for p in point)
    if len(point) != n:
        raise DimensionMismatch(
            f"point has {len(point)} coordinates for dimension {n}")
    return point


def _shifted(coeffs, point, top):
    """The terms of degree <= ``top`` of the polynomial ``coeffs`` written
    about the exact ``point``: binomial re-expansion, exact.  No term above
    ``top`` is formed."""
    if not any(point):
        return {g: c for g, c in coeffs.items() if sum(g) <= top}
    # in place: a dict per source monomial summed by _add_into took 6-9% longer
    out = {}
    for delta, c in coeffs.items():
        gammas = product(*(range(e + 1) for e in delta))
        # capped only here: capping every range slowed the shifts below top
        # by 4% (roundtrip_nd) and 18% (cli_jobs)
        if sum(delta) > top:
            gammas = (g for g in product(*(range(min(e, top) + 1)
                                           for e in delta)) if sum(g) <= top)
        for gamma in gammas:
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
        return TruncatedSeries(self.n, center, trunc,
                               _shifted(self.coeffs, center, trunc))

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
        return MapGerm([c.to_series(point, trunc) for c in self.components])

    def __repr__(self):
        return f"PolynomialMap(n={self.n})"
