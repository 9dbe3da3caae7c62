"""Multi-indices as plain integer tuples under the graded lexicographic order.

A multi-index is an ordinary ``tuple`` of nonnegative ints, used directly as
a dict key in coefficient tables.  The order compares total degree first and
breaks degree ties lexicographically left to right, i.e. it orders indices by
the key ``(sum(g), g[0], ..., g[-1])``.  This order is additive: ``a >= b``
and ``c >= d`` imply ``a + c >= b + d``, with equality only when both inputs
are equal, which is what makes pivot extraction from products of series
sound.
"""

from __future__ import annotations

from math import factorial

from .errors import DimensionMismatch


def validate(gamma, n=None):
    """Check an exponent tuple and return it as a tuple."""
    gamma = tuple(gamma)
    if n is not None and len(gamma) != n:
        raise DimensionMismatch(f"expected {n} exponents, got {len(gamma)}")
    for e in gamma:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"exponents must be nonnegative integers: {gamma}")
    return gamma


def grlex_key(gamma):
    """Sort key realizing the graded lexicographic order."""
    return (sum(gamma), gamma)


def enumerate_degree(n, d):
    """All exponent tuples in n variables of total degree d, lex ascending."""
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in enumerate_degree(n - 1, d - first))
    return out


def enumerate_upto(n, d):
    """All tuples with degree <= d in graded-lex order; comb(n+d, n) of them."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"degree bound must be >= 0, got {d}")
    out = []
    for deg in range(d + 1):
        out.extend(enumerate_degree(n, deg))
    return out


def mi_factorial(beta):
    """Product of the componentwise factorials, exact."""
    out = 1
    for e in beta:
        out *= factorial(e)
    return out


def scale(gamma, m):
    """Componentwise multiple m * gamma."""
    return tuple(e * m for e in gamma)


def sub(a, b):
    """Componentwise difference, or None if any entry would go negative."""
    if len(a) != len(b):
        raise DimensionMismatch(
            f"multi-index dimensions differ: {len(a)} vs {len(b)}")
    out = tuple(x - y for x, y in zip(a, b))
    for e in out:
        if e < 0:
            return None
    return out


def unit(n, i):
    """The i-th coordinate index e_i in n variables."""
    return tuple(1 if k == i else 0 for k in range(n))
