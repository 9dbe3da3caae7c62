"""Truncated multivariate formal power series over exact rational coefficients.

A series is stored sparsely: a dict from exponent tuple to coefficient,
together with a centre point and an explicit truncation degree ``trunc``.
Absent coefficients of degree <= trunc are zero; anything beyond trunc is
unknown, and asking for it raises ``TruncationError`` instead of returning a
silent zero.  Coefficients are exact — Python ints or ``fractions.Fraction``
(whole fractions normalize to int at the boundaries, and arithmetic promotes
between the two transparently).  Floating point never appears here.

Truncation propagates through arithmetic as the min of the operand degrees;
differentiation of order alpha lowers it by |alpha| (one loop over the
terms, touching only alpha's nonzero coordinates); composition keeps the
min of the series and map degrees, which is sound because every substituted
component vanishes at the centre, so deeper coefficients of the outer series
cannot reach down.  ``compose`` clears denominators once: its products and
sums run over plain ints, with one division per output coefficient.

Products work on packed exponents (Monagan & Pearce's packed exponent
vectors).  For a cap t, each term of degree <= t becomes a (key,
coefficient) pair: the key holds shift = t.bit_length() bits per
coordinate, the first coordinate lowest, and the total degree in the top
field.  The exponent of a product term is then one integer addition, and
a term pair lies within the cap exactly when its key sum is below
(t + 1) << n·shift.  Packed operands are sorted by key, so the one pair
loop, ``_products_into``, breaks at the cap.  ``mul``, ``_sum_of_products``,
``compose`` and the CLI's expression expansion all run on it: each packs
its operands once, sums every product in packed keys and unpacks once.  Terms above the cap are dropped
before packing; they cannot reach the product, and their coordinates
could overflow into the next field.

Series values are immutable once constructed: every operation returns a new
object and instances can be shared freely between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import (
    CenterMismatch,
    CompositionError,
    DimensionMismatch,
    TruncationError,
)
from .mindex import grlex_key, unit, validate as validate_index


def as_exact(value):
    """Coerce to an exact coefficient; whole fractions collapse to int."""
    if isinstance(value, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return as_exact(Fraction(value))
    raise TypeError(f"not an exact rational: {value!r}")


def rational_str(value):
    """Canonical lowest-terms string: '7', '-3/2', '0'."""
    return str(Fraction(value))


def _valid_trunc(trunc):
    """``trunc`` if it is a truncation degree: an int >= 0."""
    if not isinstance(trunc, int) or isinstance(trunc, bool) or trunc < 0:
        raise TruncationError(f"truncation degree must be >= 0, got {trunc}")
    return trunc


def _clean_coeffs(coeffs, n, trunc=None):
    """Validated exact copy of ``coeffs`` without its zeros; with ``trunc``,
    an index above that degree is an error."""
    clean = {}
    for gamma, value in (coeffs or {}).items():
        gamma = validate_index(gamma, n)
        if trunc is not None and sum(gamma) > trunc:
            raise TruncationError(
                f"index {gamma} exceeds truncation degree {trunc}",
                needed_degree=sum(gamma))
        value = as_exact(value)
        if value:
            clean[gamma] = value
    return clean


def _add_into(out, coeffs):
    """Add ``coeffs`` into ``out`` in place, dropping the zeros the sum
    makes; returns ``out``."""
    for g, c in coeffs.items():
        s = out.get(g, 0) + c
        if s:
            out[g] = s
        elif g in out:
            del out[g]
    return out


def _scaled(coeffs, value):
    """``value * coeffs``; empty when ``value`` is zero."""
    if not value:
        return {}
    if value == -1:  # negation without a Fraction product per coefficient
        return {g: -c for g, c in coeffs.items()}
    return {g: c * value for g, c in coeffs.items()}


def _packed(coeffs, shift, cap):
    """Sorted (key, coefficient) terms of degree <= ``cap``.  A key holds the
    total degree in its top field, above ``shift`` bits per coordinate with
    the first coordinate lowest, so keys sort by degree first; terms above
    the cap are dropped, since their coordinates could overflow a field."""
    out = []
    for g, c in coeffs.items():
        key = sum(g)
        if key <= cap:
            for e in reversed(g):
                key = key << shift | e
            out.append((key, c))
    out.sort()
    return out


def _products_into(acc, a, b, limit):
    """Add into ``acc`` each product of a term of ``a`` and a term of ``b``,
    both sorted packed terms, whose key sum lies below ``limit``."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for ka, ca in a:
        room = limit - ka
        for kb, cb in b:
            if kb >= room:
                break
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb


def _sorted_terms(acc):
    """The nonzero terms of a packed accumulator, sorted by key."""
    terms = [kc for kc in acc.items() if kc[1]]
    terms.sort()
    return terms


def _packed_derivative(terms, i, fields, shift):
    """D^{e_i} of sorted packed terms whose degree field sits above
    ``fields`` fields: every surviving key loses the same constant, one
    degree and one unit of coordinate i, so it stays sorted."""
    pos = i * shift
    mask = (1 << shift) - 1
    drop = (1 << fields * shift) + (1 << pos)
    out = []
    for k, c in terms:
        e = k >> pos & mask
        if e:
            out.append((k - drop, c * e))
    return out


def _unpacked(terms, n, shift):
    """Exponent-tuple dict of the nonzero (key, coefficient) ``terms``."""
    mask = (1 << shift) - 1
    if n == 1:  # below the degree field a 1-D key is the exponent itself
        return {(k & mask,): c for k, c in terms if c}
    shifts = range(0, n * shift, shift)
    return {tuple([k >> s & mask for s in shifts]): c for k, c in terms if c}


class TruncatedSeries:
    """Formal power series centred at a point, known up to ``trunc``."""

    __slots__ = ("n", "center", "trunc", "coeffs")

    def __init__(self, n, center, trunc, coeffs=None):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DimensionMismatch(f"dimension must be a positive int, got {n}")
        center = tuple(as_exact(c) for c in center)
        if len(center) != n:
            raise DimensionMismatch(
                f"centre has {len(center)} coordinates for dimension {n}")
        self.n = n
        self.center = center
        self.trunc = _valid_trunc(trunc)
        self.coeffs = _clean_coeffs(coeffs, n, trunc)

    @classmethod
    def _raw(cls, n, center, trunc, coeffs):
        """Trusted constructor for internal arithmetic: no validation, no copy."""
        obj = object.__new__(cls)
        obj.n = n
        obj.center = center
        obj.trunc = trunc
        obj.coeffs = coeffs
        return obj

    @classmethod
    def constant(cls, value, n, center, trunc):
        return cls(n, center, trunc, {(0,) * n: value})

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, gamma):
        """Coefficient at ``gamma``; beyond the truncation degree this is an
        error, never zero."""
        gamma = validate_index(gamma, self.n)
        d = sum(gamma)
        if d > self.trunc:
            raise TruncationError(
                f"coefficient at {gamma} (degree {d}) is beyond truncation "
                f"degree {self.trunc}", needed_degree=d)
        return self.coeffs.get(gamma, 0)

    def eval_at_center(self):
        """Value at the centre: the constant coefficient."""
        return self.coeffs.get((0,) * self.n, 0)

    def order_at_center(self):
        """Smallest total degree with a nonzero coefficient, or ``math.inf``
        when every stored coefficient vanishes (order exceeds ``trunc``)."""
        if not self.coeffs:
            return math.inf
        return min(sum(g) for g in self.coeffs)

    def support(self):
        """Nonzero indices in graded-lex order."""
        return sorted(self.coeffs, key=grlex_key)

    def truncated(self, new_trunc):
        """Forget coefficients beyond ``new_trunc`` (never extends)."""
        if new_trunc > self.trunc:
            raise TruncationError(
                f"cannot extend truncation {self.trunc} to {new_trunc}",
                needed_degree=new_trunc)
        if new_trunc == self.trunc:
            return self
        kept = {g: c for g, c in self.coeffs.items() if sum(g) <= new_trunc}
        return TruncatedSeries._raw(self.n, self.center, new_trunc, kept)

    def _require_same_frame(self, other):
        if self.n != other.n:
            raise DimensionMismatch(
                f"series dimensions differ: {self.n} vs {other.n}")
        if self.center != other.center:
            raise CenterMismatch(
                f"series centres differ: {self.center} vs {other.center}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_frame(other)
            t = min(self.trunc, other.trunc)
            out = _add_into(dict(self.truncated(t).coeffs),
                            other.truncated(t).coeffs)
            return TruncatedSeries._raw(self.n, self.center, t, out)
        value = as_exact(other)
        if not value:
            return self
        out = _add_into(dict(self.coeffs), {(0,) * self.n: value})
        return TruncatedSeries._raw(self.n, self.center, self.trunc, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(
            self.n, self.center, self.trunc, _scaled(self.coeffs, -1))

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-as_exact(other))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return TruncatedSeries._raw(self.n, self.center, self.trunc,
                                    _scaled(self.coeffs, as_exact(other)))

    __rmul__ = __mul__

    def mul(self, other, upto=None):
        """Cauchy product truncated at min of the operand degrees, or lower
        when ``upto`` caps it: the one-pair case of ``_sum_of_products``.
        Both operands are packed with the total degree in the key's top
        field, the sorted pair loop breaks at the cap, and the product is
        unpacked once."""
        return _sum_of_products(((self, other),), upto)

    def derive(self, alpha):
        """Formal derivative of mixed order ``alpha``; lowers trunc by |alpha|.

        One loop over the terms touches only alpha's nonzero coordinates;
        each factor γ_i!/(γ_i − α_i)! is ``math.perm(γ_i, α_i)``."""
        alpha = validate_index(alpha, self.n)
        total = sum(alpha)
        if total > self.trunc:
            raise TruncationError(
                f"derivative order {total} exceeds truncation degree {self.trunc}",
                needed_degree=total)
        if total == 0:
            return self
        steps = [(i, a) for i, a in enumerate(alpha) if a]
        perm = math.perm
        out = {}
        for g, c in self.coeffs.items():
            ng = list(g)
            for i, a in steps:
                e = g[i]
                if e < a:
                    break
                ng[i] = e - a
                c *= perm(e, a)
            else:
                out[tuple(ng)] = c
        return TruncatedSeries._raw(self.n, self.center, self.trunc - total, out)

    # -- comparison / repr --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.n == other.n and self.center == other.center
                and self.trunc == other.trunc and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return (f"TruncatedSeries(n={self.n}, trunc={self.trunc}, "
                f"terms={len(self.coeffs)})")


class MapGerm:
    """An n-tuple of series in n variables sharing centre and truncation.

    The image point is exactly the tuple of constant coefficients, so each
    component minus its image coordinate has order >= 1 by construction.
    """

    __slots__ = ("components", "n", "center", "trunc", "image_point")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DimensionMismatch("a map germ needs at least one component")
        first = components[0]
        n = first.n
        if len(components) != n:
            raise DimensionMismatch(
                f"{len(components)} components in {n} variables; maps are square")
        for comp in components[1:]:
            if comp.n != n:
                raise DimensionMismatch("components disagree on dimension")
            if comp.center != first.center:
                raise CenterMismatch("components disagree on the centre")
            if comp.trunc != first.trunc:
                raise TruncationError(
                    "components must share a truncation degree")
        self.components = components
        self.n = n
        self.center = first.center
        self.trunc = first.trunc
        self.image_point = tuple(c.eval_at_center() for c in components)

    def deviations(self):
        """Components minus their centre values; each has order >= 1."""
        return tuple(c - b for c, b in zip(self.components, self.image_point))

    def __repr__(self):
        return f"MapGerm(n={self.n}, trunc={self.trunc})"


def _cleared(series_list):
    """Clear denominators once: the least common denominator of every
    coefficient in ``series_list``, and each series scaled by it, whose
    coefficients are then plain ints."""
    den = math.lcm(*(c.denominator for s in series_list
                     for c in s.coeffs.values()))
    return den, [
        TruncatedSeries._raw(s.n, s.center, s.trunc, {
            g: c.numerator * (den // c.denominator)
            for g, c in s.coeffs.items()})
        for s in series_list]


def _monomial_power(kappa, cache, times):
    """(devs)^kappa with memoized predecessors, built without recursion;
    ``times(power, j)`` is the product step power · devs[j].  A power whose
    parent is cached takes one step; the stack walks back to the nearest
    cached predecessor only when the parent is missing."""
    p = cache.get(kappa)
    if p is not None:
        return p
    j = max(i for i, e in enumerate(kappa) if e)
    p = cache.get(kappa[:j] + (kappa[j] - 1,) + kappa[j + 1:])
    if p is not None:
        p = cache[kappa] = times(p, j)
        return p
    stack = [kappa]
    while stack:
        cur = stack[-1]
        if cur in cache:
            stack.pop()
            continue
        j = max(i for i, e in enumerate(cur) if e)
        prev = cur[:j] + (cur[j] - 1,) + cur[j + 1:]
        p = cache.get(prev)
        if p is None:
            stack.append(prev)
            continue
        cache[cur] = times(p, j)
        stack.pop()
    return cache[kappa]


def compose(g, germ):
    """Formal composition: substitute the germ's components into ``g``.

    ``g`` must be centred exactly at the germ's image point.  The result is
    centred at the germ's centre with truncation min(g.trunc, germ.trunc);
    coefficients up to that degree depend only on the retained coefficients
    of both inputs because every substituted deviation has order >= 1.

    The deviations are scaled once by the least common denominator L of
    their coefficients, and each weight g_κ / L^|κ| is written over one
    common denominator M, so the powers and their weighted sum are computed
    over the integers.  The deviations are packed once, the powers and the
    weighted sum stay in packed keys, and each output coefficient is unpacked
    once and divided once by M.
    """
    if not isinstance(germ, MapGerm):
        raise TypeError("compose expects a MapGerm as its second argument")
    if g.n != germ.n:
        raise DimensionMismatch(
            f"series in {g.n} variables composed with a {germ.n}-component map")
    if g.center != germ.image_point:
        raise CompositionError(
            f"series centre {g.center} differs from map image {germ.image_point}")
    t = min(g.trunc, germ.trunc)
    devs = [d if d.trunc <= t else d.truncated(t) for d in germ.deviations()]
    for d in devs:
        if d.coeffs.get((0,) * germ.n):
            raise CompositionError(
                "map component has a nonzero deviation at the centre")
    den, devs = _cleared(devs)
    weights = {}  # g_κ / den^|κ| in lowest terms: (numerator, denominator)
    scales = [1]  # den^d, one product per degree up to g's top degree
    for _ in range(min(t, max(map(sum, g.coeffs), default=0))):
        scales.append(scales[-1] * den)
    for kappa, c in g.coeffs.items():
        if sum(kappa) <= t:
            scale = scales[sum(kappa)]
            r = math.gcd(c.numerator, scale)
            weights[kappa] = c.numerator // r, c.denominator * (scale // r)
    order = sorted(weights, key=grlex_key)
    # the common denominator, highest degree first: the lower degrees'
    # denominators then mostly divide it, and a remainder test is cheaper
    # than the gcd math.lcm takes for every one
    m = 1
    for kappa in reversed(order):
        q = weights[kappa][1]
        if m % q:
            m *= q // math.gcd(m, q)
    shift = t.bit_length() or 1
    limit = (t + 1) << germ.n * shift
    packed = [_packed(d.coeffs, shift, t) for d in devs]

    def times(power, j):
        acc = {}
        _products_into(acc, power, packed[j], limit)
        return _sorted_terms(acc)

    cache = {(0,) * germ.n: [(0, 1)]}
    acc = {}
    get = acc.get
    for kappa in order:
        p, q = weights[kappa]
        w = p * (m // q)
        for k, c in _monomial_power(kappa, cache, times):
            acc[k] = get(k, 0) + w * c
    acc = _unpacked(acc.items(), germ.n, shift)
    if m != 1:
        acc = {k: as_exact(Fraction(v, m)) for k, v in acc.items()}
    return TruncatedSeries._raw(germ.n, germ.center, t, acc)


def _sum_of_products(pairs, upto=None):
    """Σ a·b over the (a, b) pairs in one frame, truncated at the minimum of
    every operand degree and ``upto``, as a chain of ``mul`` and ``+`` is.

    Each distinct operand is packed once at shift = t.bit_length() for that
    cap t.  A key carries the total degree in its top field, so a term pair
    lies within the cap exactly when its key sum is below (t + 1) << n·shift;
    then no coordinate field carries into the next.  Operands are sorted by
    key, so the pair loop breaks at the cap.  Every product lands in one
    accumulator, whose nonzero keys are unpacked once."""
    pairs = list(pairs)
    operands = {id(s): s for pair in pairs for s in pair}
    first = pairs[0][0]
    t = first.trunc if upto is None else upto
    for s in operands.values():
        first._require_same_frame(s)
        t = min(t, s.trunc)
    if t < 0:
        raise TruncationError("product capped below degree 0")
    n = first.n
    shift = t.bit_length() or 1
    limit = (t + 1) << n * shift
    packed = {k: _packed(s.coeffs, shift, t) for k, s in operands.items()}
    acc = {}
    for a, b in pairs:
        _products_into(acc, packed[id(a)], packed[id(b)], limit)
    return TruncatedSeries._raw(n, first.center, t,
                                _unpacked(acc.items(), n, shift))


def product_coefficient(a, b, gamma):
    """Coefficient of a*b at ``gamma`` without forming the whole product."""
    a._require_same_frame(b)
    gamma = validate_index(gamma, a.n)
    d = sum(gamma)
    if d > min(a.trunc, b.trunc):
        raise TruncationError(
            f"product coefficient at degree {d} exceeds the valid degree "
            f"{min(a.trunc, b.trunc)}", needed_degree=d)
    if len(b.coeffs) < len(a.coeffs):
        a, b = b, a
    total = 0
    bc = b.coeffs
    for g, c in a.coeffs.items():
        rest = tuple(x - y for x, y in zip(gamma, g))
        if any(e < 0 for e in rest):
            continue
        other = bc.get(rest)
        if other:
            total += c * other
    return as_exact(total) if total else 0


def chain_rule_residuals(g, germ):
    """Residuals d(g∘φ)/dx_i - Σ_j ((dg/dy_j)∘φ)·(dφ_j/dx_i) for each i.

    All residuals are identically zero within truncation; this is the
    correctness witness for ``compose`` against ``derive``.
    """
    f = compose(g, germ)
    n = germ.n
    outer = [compose(g.derive(unit(n, j)), germ) for j in range(n)]
    residuals = []
    for i in range(n):
        e_i = unit(n, i)
        residuals.append(f.derive(e_i) - _sum_of_products(
            (outer[j], germ.components[j].derive(e_i)) for j in range(n)))
    return residuals


# -- serialization -----------------------------------------------------------


def series_to_dict(series):
    """Series literal: n, centre, degree, and graded-lex-sorted terms."""
    return {
        "n": series.n,
        "center": [rational_str(c) for c in series.center],
        "degree": series.trunc,
        "terms": [
            {"index": list(g), "coeff": rational_str(series.coeffs[g])}
            for g in series.support()
        ],
    }


# plain ASCII integer text; Fraction also reads '+3', ' 3', '1_0' and
# non-ASCII digits, so those keep its route
_INT_TEXT = re.compile(r"-?[0-9]+\Z")


def _json_rational(value):
    """An exact rational from a JSON int or text such as '-3/2'; a bool, a
    float, a zero denominator or unreadable text is a ValueError.  A float
    is refused because its repr can drop digits the file spells.  Plain
    integer text goes straight to ``int``, with the same value and the same
    refusals as the ``Fraction`` route."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, str) and _INT_TEXT.match(value):
        return int(value)
    try:
        return as_exact(value if isinstance(value, int) else str(value))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator: {value!r}") from exc


def series_from_dict(data):
    """Inverse of :func:`series_to_dict`; round trips are bit-exact."""
    try:
        n = data["n"]
        center = [_json_rational(c) for c in data["center"]]
        trunc = data["degree"]
        coeffs = {}
        for term in data.get("terms", ()):
            index = tuple(term["index"])
            if index in coeffs:
                raise ValueError(f"repeated index {list(index)}")
            coeffs[index] = _json_rational(term["coeff"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed series literal: {exc}") from exc
    return TruncatedSeries(n, center, trunc, coeffs)
