"""Series arithmetic, differentiation, composition, and serialization."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germradius import (
    CenterMismatch,
    CompositionError,
    DimensionMismatch,
    MapGerm,
    TruncatedSeries,
    TruncationError,
    chain_rule_residuals,
    compose,
    product_coefficient,
    recover,
    series_from_dict,
    series_to_dict,
)
from germradius.mindex import enumerate_upto, unit
from germradius.pseries import (
    _json_rational,
    as_exact,
    _packed,
    _packed_derivative,
    _sum_of_products,
    _unpacked,
)
from helpers import (
    germ_of,
    identity_germ,
    random_series,
    reference_compose,
    reference_mul,
    series_of,
    square_germ,
)


def S(coeffs, n=1, center=None, trunc=8):
    if center is None:
        center = (0,) * n
    return TruncatedSeries(n, center, trunc, coeffs)


# -- construction and lookup --------------------------------------------------


def test_zero_coefficients_dropped_and_validated():
    s = S({(1,): 2, (2,): 0})
    assert s.coeffs == {(1,): 2}
    with pytest.raises(TruncationError):
        S({(9,): 1}, trunc=8)
    with pytest.raises(ValueError):
        S({(-1,): 1})


def test_coefficient_beyond_truncation_is_an_error():
    s = S({(1,): 1}, trunc=3)
    assert s.coefficient((3,)) == 0
    with pytest.raises(TruncationError) as err:
        s.coefficient((4,))
    assert err.value.needed_degree == 4


def test_order_at_center():
    assert S({(2,): 1, (3,): 1}).order_at_center() == 2
    assert S({(0,): 1, (1,): 1}).order_at_center() == 0
    assert S({}, trunc=8).order_at_center() == math.inf


# -- arithmetic ---------------------------------------------------------------


def test_add_and_scale():
    one_plus_x = S({(0,): 1, (1,): 1})
    x = S({(1,): 1})
    assert (one_plus_x + x).coeffs == {(0,): 1, (1,): 2}
    assert (S({(2,): 1}) * 0).is_zero
    xy_sum = S({(1, 0): 1, (0, 1): 1}, n=2)
    xy_diff = S({(1, 0): 1, (0, 1): -1}, n=2)
    assert (xy_sum + xy_diff).coeffs == {(1, 0): 2}


def test_center_and_dimension_mismatch():
    with pytest.raises(CenterMismatch):
        S({(1,): 1}) + S({(1,): 1}, center=(1,))
    with pytest.raises(DimensionMismatch):
        S({(1,): 1}) + S({(1, 0): 1}, n=2)


def test_mul_truncates_and_is_exact():
    one_plus_x = S({(0,): 1, (1,): 1}, trunc=4)
    one_minus_x = S({(0,): 1, (1,): -1}, trunc=4)
    assert (one_plus_x * one_minus_x).coeffs == {(0,): 1, (2,): -1}
    # x*x at trunc 1: the square is beyond truncation
    x1 = S({(1,): 1}, trunc=1)
    prod = x1 * x1
    assert prod.is_zero and prod.trunc == 1


def test_mul_geometric_oracle():
    # (sum x^k) * (1 - x) = 1 exactly up to degree 10
    geo = S({(k,): 1 for k in range(11)}, trunc=10)
    one_minus_x = S({(0,): 1, (1,): -1}, trunc=10)
    assert (geo * one_minus_x).coeffs == {(0,): 1}


def test_truncation_is_min_of_inputs():
    a = S({(1,): 1}, trunc=5)
    b = S({(1,): 1}, trunc=3)
    assert (a + b).trunc == 3
    assert (a * b).trunc == 3
    assert a.mul(b, upto=2).trunc == 2


def test_ring_laws_on_random_series():
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _ in range(4):
            a = random_series(rng, n, 8 if n == 1 else 5)
            b = random_series(rng, n, 8 if n == 1 else 5)
            c = random_series(rng, n, 8 if n == 1 else 5)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


# -- products against the term-pair reference ---------------------------------


def _assert_mul_matches_reference(a, b, upto=None):
    got = a.mul(b, upto=upto)
    ref = reference_mul(a, b, upto)
    assert got.coeffs == ref.coeffs
    assert got.trunc == ref.trunc
    assert all(got.coeffs.values())


def _exponent(rng, n, d):
    """A random exponent tuple of total degree ``d``."""
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, d]))


def _coeff(rng, rational):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(c, rng.randint(1, 5)) if rational else c


def _sparse_series(rng, n, cap, rational, count, trunc):
    """Random terms of degree <= ``cap``, three above it, and one per
    coordinate whose exponent is at least 2**cap.bit_length()."""
    wide = 2 ** (cap.bit_length() or 1)
    coeffs = {_exponent(rng, n, rng.randint(0, cap)): _coeff(rng, rational)
              for _ in range(count)}
    for _ in range(3):
        coeffs[_exponent(rng, n, rng.randint(cap + 1, trunc))] = \
            _coeff(rng, rational)
    for i in range(n):
        coeffs[tuple(wide + i if k == i else 0 for k in range(n))] = \
            _coeff(rng, rational)
    return TruncatedSeries(n, (0,) * n, trunc, coeffs)


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_matches_reference_across_packing_widths(n, rational):
    # caps on both sides of each bit-length edge; every operand also holds
    # terms above the cap whose exponents would overflow a packed field
    rng = random.Random(10 * n + rational)
    for cap in (0, 1, 2, 3, 4, 7, 8, 15, 16):
        trunc = 2 ** (cap.bit_length() or 1) + cap + n
        a = _sparse_series(rng, n, cap, rational, 2 * cap + 3, trunc)
        b = _sparse_series(rng, n, cap, rational, 2 * cap + 3, trunc)
        _assert_mul_matches_reference(a, b, upto=cap)
        _assert_mul_matches_reference(b, a, upto=cap)
        _assert_mul_matches_reference(a, a, upto=cap)
        # the cap set by an operand's truncation instead of ``upto``
        _assert_mul_matches_reference(a.truncated(cap), b)


@pytest.mark.parametrize("n, cap", [(1, 300), (2, 260)])
def test_mul_matches_reference_at_wide_caps(n, cap):
    rng = random.Random(cap)
    a = _sparse_series(rng, n, cap, False, 60, 2 * cap)
    b = _sparse_series(rng, n, cap, True, 60, 2 * cap)
    _assert_mul_matches_reference(a, b, upto=cap)
    _assert_mul_matches_reference(a.truncated(cap), b)


def test_mul_drops_cancelled_terms():
    x_plus_y = S({(1, 0): 1, (0, 1): 1}, n=2)
    x_minus_y = S({(1, 0): 1, (0, 1): -1}, n=2)
    assert (x_plus_y * x_minus_y).coeffs == {(2, 0): 1, (0, 2): -1}
    _assert_mul_matches_reference(x_plus_y, x_minus_y)
    halves = S({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, n=2)
    other = S({(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)}, n=2)
    assert (halves * other).coeffs == {(2, 0): Fraction(1, 4),
                                       (0, 2): Fraction(-1, 9)}
    _assert_mul_matches_reference(halves, other)
    # (1 + x)(1 - x + x^2) = 1 + x^3: capped at 2 only the 1 is left
    one_plus_x = S({(0,): 1, (1,): 1})
    rest = S({(0,): 1, (1,): -1, (2,): 1})
    assert one_plus_x.mul(rest, upto=2).coeffs == {(0,): 1}
    _assert_mul_matches_reference(one_plus_x, rest, upto=2)


@pytest.mark.parametrize("cap", [1, 3, 7, 15, 31, 8, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_matches_reference_at_full_field_caps(n, cap):
    # at cap = 2**k - 1 a coordinate fills its k-bit field, and a pair just
    # past the cap carries into the next field or into the degree field
    rng = random.Random(1000 * n + cap)

    def near_cap():
        coeffs = {}
        for i in range(n):
            for d in (0, 1, cap - 1, cap, cap + 1):
                coeffs[tuple(d * e for e in unit(n, i))] = _coeff(rng, True)
        for d in (1, 2, cap - 2, cap - 1, cap, cap + 1):
            for _ in range(4 if d >= 0 else 0):
                coeffs[_exponent(rng, n, d)] = _coeff(rng, rng.random() < 0.5)
        return TruncatedSeries(n, (0,) * n, cap + 1, coeffs)

    a, b = near_cap(), near_cap()
    _assert_mul_matches_reference(a, b, upto=cap)
    _assert_mul_matches_reference(b, a, upto=cap)
    _assert_mul_matches_reference(a, a, upto=cap)
    _assert_mul_matches_reference(a.truncated(cap), b)


def _mixed_series(rng, n):
    """Random int and Fraction terms below a random truncation degree."""
    trunc = rng.randint(0, 9)
    coeffs = {_exponent(rng, n, rng.randint(0, trunc)):
              _coeff(rng, rng.random() < 0.5)
              for _ in range(rng.randint(0, 12))}
    return TruncatedSeries(n, (0,) * n, trunc, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_of_products_matches_reference_sum(n):
    # operands with their own truncations, some shared between pairs, and
    # the cap given by ``upto`` or by the operands
    rng = random.Random(40 + n)
    for upto in (None, 0, 1, 3, 5, 8, None, 4):
        operands = [_mixed_series(rng, n) for _ in range(4)]
        pairs = [(rng.choice(operands), rng.choice(operands))
                 for _ in range(rng.randint(1, 5))]
        got = _sum_of_products(pairs, upto)
        ref = reference_mul(*pairs[0], upto)
        for a, b in pairs[1:]:
            ref = ref + reference_mul(a, b, upto)
        assert got.coeffs == ref.coeffs
        assert got.trunc == ref.trunc
        assert all(got.coeffs.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_packed_derivative_matches_derive(n):
    rng = random.Random(70 + n)
    for _ in range(12):
        s = _mixed_series(rng, n)
        if not s.trunc:
            continue
        shift = s.trunc.bit_length()
        terms = _packed(s.coeffs, shift, s.trunc)
        for i in range(n):
            got = _packed_derivative(terms, i, n, shift)
            want = s.derive(unit(n, i)).coeffs
            # the same keys, degree field included, in the same order
            assert got == _packed(want, shift, s.trunc)
            assert _unpacked(got, n, shift) == want


_COEFFS = st.one_of(st.integers(-9, 9),
                    st.fractions(-4, 4, max_denominator=6))


@st.composite
def _series_in_one_frame(draw, count):
    """``count`` sparse series in one dimension 1-3, each with its own
    truncation, and a product cap (or none)."""
    n = draw(st.integers(1, 3))
    series = []
    for _ in range(count):
        trunc = draw(st.integers(0, 7))
        # a multiset of at most ``trunc`` variables is a monomial within it
        index = st.lists(st.integers(0, n - 1), max_size=trunc).map(
            lambda vs: tuple(vs.count(i) for i in range(n)))
        coeffs = draw(st.dictionaries(index, _COEFFS, max_size=8))
        series.append(TruncatedSeries(n, (0,) * n, trunc, coeffs))
    return series, draw(st.none() | st.integers(0, 7))


_PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


@_PROPERTY
@given(_series_in_one_frame(2))
def test_mul_is_commutative_and_matches_reference(drawn):
    (a, b), upto = drawn
    ab = a.mul(b, upto=upto)
    assert ab == b.mul(a, upto=upto)
    assert ab == reference_mul(a, b, upto)


@_PROPERTY
@given(_series_in_one_frame(3))
def test_mul_is_associative_under_a_common_cap(drawn):
    (a, b, c), upto = drawn
    assert (a.mul(b, upto=upto).mul(c, upto=upto)
            == a.mul(b.mul(c, upto=upto), upto=upto))


@_PROPERTY
@given(_series_in_one_frame(3))
def test_mul_distributes_over_addition(drawn):
    (a, b, c), upto = drawn
    assert (a.mul(b + c, upto=upto)
            == a.mul(b, upto=upto) + a.mul(c, upto=upto))


# -- differentiation ----------------------------------------------------------


def test_derive_examples():
    assert S({(2,): 1}).derive((1,)).coeffs == {(1,): 2}
    s = S({(2, 1): 1}, n=2)
    assert s.derive((1, 1)).coeffs == {(1, 0): 2}
    # termwise oracle: derivative of sum x^k twice
    s = S({(k,): 1 for k in range(6)}, trunc=5)
    got = s.derive((2,))
    expect = {(k,): (k + 2) * (k + 1) for k in range(4)}
    assert got.coeffs == expect and got.trunc == 3


def test_derive_order_checks():
    s = S({(1,): 1}, trunc=2)
    with pytest.raises(TruncationError):
        s.derive((3,))


def _reference_derive(coeffs, alpha):
    """Termwise derivative: a term some order of alpha exceeds is dropped,
    and the rest is multiplied by its falling factorials one factor at a
    time."""
    out = {}
    for g, c in coeffs.items():
        if any(e < a for e, a in zip(g, alpha)):
            continue
        for e, a in zip(g, alpha):
            for k in range(e - a + 1, e + 1):
                c *= k
        out[tuple(e - a for e, a in zip(g, alpha))] = c
    return out


@st.composite
def _series_and_order(draw):
    (s,), _ = draw(_series_in_one_frame(1))
    return s, tuple(draw(st.lists(st.integers(0, 4), min_size=s.n,
                                  max_size=s.n)))


@_PROPERTY
@given(_series_and_order())
def test_derive_matches_termwise_reference(drawn):
    s, alpha = drawn
    total = sum(alpha)
    if total > s.trunc:
        with pytest.raises(TruncationError) as err:
            s.derive(alpha)
        assert err.value.needed_degree == total
        return
    got = s.derive(alpha)
    assert got.trunc == s.trunc - total
    assert got.coeffs == _reference_derive(s.coeffs, alpha)
    if not total:
        assert got is s


def test_derive_drops_the_terms_an_order_zeroes():
    s = S({(1, 3): Fraction(1, 2), (2, 0): 5, (3, 2): -1}, n=2, trunc=6)
    assert s.derive((2, 1)).coeffs == {(1, 1): -12}
    assert s.derive((0, 4)).coeffs == {}
    assert s.derive((0, 4)).trunc == 2


def test_derive_composes_additively():
    rng = random.Random(3)
    s = random_series(rng, 2, 6)
    assert s.derive((1, 0)).derive((0, 2)) == s.derive((1, 2))
    assert s.derive((1, 1)).derive((1, 0)) == s.derive((2, 1))


# -- composition --------------------------------------------------------------


def test_compose_coordinate_examples():
    phi = germ_of(["x^2"], ["x"], degree=6)
    g = S({(1,): 1}, trunc=6)
    assert compose(g, phi).coeffs == {(2,): 1}
    sigma = germ_of(["x", "x*y"], ["x", "y"], degree=6)
    v = S({(0, 1): 1}, n=2, trunc=6)
    assert compose(v, sigma).coeffs == {(1, 1): 1}


def test_compose_geometric_through_square():
    g = S({(k,): 4 ** k for k in range(7)}, trunc=6)
    phi = germ_of(["x^2"], ["x"], degree=6)
    f = compose(g, phi)
    # direct substitution oracle: sum 4^k (x^2)^k truncated at 6
    assert f.coeffs == {(0,): 1, (2,): 4, (4,): 16, (6,): 64}


def test_compose_identity_keeps_coefficients():
    rng = random.Random(11)
    g = random_series(rng, 2, 6)
    ident = identity_germ(2, degree=6)
    assert compose(g, ident).coeffs == g.coeffs


def test_compose_center_checks():
    phi = germ_of(["x^2"], ["x"], degree=6)
    g_wrong = S({(1,): 1}, center=(1,), trunc=6)
    with pytest.raises(CompositionError):
        compose(g_wrong, phi)
    g_dim = S({(1, 0): 1}, n=2, trunc=6)
    with pytest.raises(DimensionMismatch):
        compose(g_dim, phi)


def test_compose_image_point_matching():
    # map with image (2,): series must be centred there
    phi = germ_of(["x^2"], ["x"], center=(0,), degree=6)
    shifted = germ_of(["2 + x^2"], ["x"], degree=6)
    assert shifted.image_point == (2,)
    g_at_2 = S({(1,): 1}, center=(2,), trunc=6)
    assert compose(g_at_2, shifted).coeffs == {(2,): 1}
    with pytest.raises(CompositionError):
        compose(g_at_2, phi)


def test_chain_rule_exact():
    rng = random.Random(23)
    for exprs, variables in [(
            ["x^2"], ["x"]), (["x", "x*y"], ["x", "y"]),
            (["x + y^2", "y - x*y"], ["x", "y"])]:
        germ = germ_of(exprs, variables, degree=7)
        g = random_series(rng, germ.n, 4, center=germ.image_point, trunc=7)
        for residual in chain_rule_residuals(g, germ):
            assert residual.is_zero


def _compose_reference(g, germ):
    """Σ_κ g_κ·Π_i dev_i^κ_i by plain products and sums over Fraction."""
    t = min(g.trunc, germ.trunc)
    devs = [d.truncated(t) for d in germ.deviations()]
    one = TruncatedSeries.constant(1, germ.n, germ.center, t)
    acc = TruncatedSeries(germ.n, germ.center, t)
    for kappa, c in g.coeffs.items():
        if sum(kappa) > t:
            continue
        term = one
        for dev, e in zip(devs, kappa):
            for _ in range(e):
                term = term.mul(dev)
        acc = acc + term * Fraction(c)
    return acc


def _random_coeffs(rng, n, degree, rational, skip_constant=False):
    coeffs = {}
    for gamma in enumerate_upto(n, degree):
        if (skip_constant and not sum(gamma)) or rng.random() > 0.6:
            continue
        c = rng.randint(-5, 5)
        coeffs[gamma] = Fraction(c, rng.randint(1, 9)) if rational else c
    return coeffs


def _random_germ(rng, n, trunc, rational):
    """Germ of random polynomials of degree <= 3; a rational germ has a
    rational centre and Fraction coefficients."""
    center = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 6))
                   if rational else rng.randint(-2, 2) for _ in range(n))
    return MapGerm([
        TruncatedSeries(n, center, trunc,
                        _random_coeffs(rng, n, min(trunc, 3), rational))
        for _ in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_matches_fraction_reference(n):
    rng = random.Random(100 + n)
    germ_trunc = {1: 9, 2: 6, 3: 4}[n]
    cases = []
    for rational in (True, False):
        germ = _random_germ(rng, n, germ_trunc, rational)
        b = germ.image_point
        for g_trunc, skip_constant in ((germ_trunc, False),
                                       (germ_trunc + 2, False),
                                       (germ_trunc - 1, True)):
            coeffs = _random_coeffs(rng, n, g_trunc, rational, skip_constant)
            cases.append((TruncatedSeries(n, b, g_trunc, coeffs), germ))
        cases.append((TruncatedSeries(n, b, germ_trunc + 1, {}), germ))
    # L = 15 and M = 10, and the coefficient at e_0 is the whole number 1
    e = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    halves = MapGerm([TruncatedSeries(n, (Fraction(1, 2),) * n, 4, {
        (0,) * n: 1, e[i]: Fraction(2, 3), tuple(2 * k for k in e[i]):
        Fraction(1, 5)}) for i in range(n)])
    cases.append((TruncatedSeries(n, (1,) * n, 4, {e[0]: Fraction(3, 2)}),
                  halves))
    for g, germ in cases:
        got = compose(g, germ)
        ref = _compose_reference(g, germ)
        assert got.coeffs == ref.coeffs
        assert (got.trunc, got.center) == (ref.trunc, ref.center)
        assert got.trunc == min(g.trunc, germ.trunc)
        assert all(type(c) is int for c in got.coeffs.values()
                   if Fraction(c).denominator == 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compose_matches_tuple_reference_off_origin(n):
    # rational centres and deviations against products on exponent tuples
    rng = random.Random(300 + n)
    germ_trunc = {1: 8, 2: 6, 3: 4}[n]
    for _ in range(4):
        germ = _random_germ(rng, n, germ_trunc, rational=True)
        g_trunc = germ_trunc + rng.randint(-1, 1)
        g = TruncatedSeries(n, germ.image_point, g_trunc,
                            _random_coeffs(rng, n, g_trunc, rational=True))
        assert compose(g, germ) == reference_compose(g, germ)


def _sqrt_recovery():
    a = Fraction(7, 13)
    germ = square_germ(degree=61, center=(a,))
    f = series_of("x", ["x"], center=(a,), degree=60)
    return recover(germ, f, 60)


def _rational_2d_composite():
    center = (Fraction(1, 3), Fraction(-2, 5))
    germ = germ_of(["x + (1/3)*y^2 - 1/2", "2*y - x*y + (3/7)*x^3"],
                   ["x", "y"], center=center, degree=7)
    rng = random.Random(29)
    g = TruncatedSeries(2, germ.image_point, 7,
                        _random_coeffs(rng, 2, 7, rational=True))
    return compose(g, germ)


@pytest.mark.parametrize("make_series, digest", [
    (lambda: _sqrt_recovery().g_series,
     "50b2881cb7c41e137b636b19d79fe6458bd0e39b1da1b471f325c062ca232a7c"),
    (lambda: _sqrt_recovery().residual,
     "0ed6dda4960e33feae0066b562e9701942fd4c66b61f1b3fae49e01346cb02d3"),
    (_rational_2d_composite,
     "f514d9aa26021b97f8376ab5e3f2adf47fd34c1aaf1a56b8afe9f760369b90f4"),
], ids=["sqrt_g", "sqrt_residual", "rational_2d"])
def test_composed_series_golden_digest(make_series, digest):
    # pins the composed series across changes to compose's arithmetic
    dump = json.dumps(series_to_dict(make_series()), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == digest


def test_product_coefficient_matches_full_product():
    rng = random.Random(5)
    a = random_series(rng, 2, 6)
    b = random_series(rng, 2, 6)
    full = a * b
    for gamma in [(0, 0), (1, 2), (3, 3), (6, 0)]:
        assert product_coefficient(a, b, gamma) == full.coefficient(gamma)
    with pytest.raises(TruncationError):
        product_coefficient(a, b, (7, 0))


# -- serialization ------------------------------------------------------------


def test_series_literal_round_trip_bit_exact():
    s = TruncatedSeries(2, (Fraction(1, 2), 0), 5,
                        {(1, 0): Fraction(-3, 2), (0, 2): 7, (2, 2): Fraction(1, 3)})
    d = series_to_dict(s)
    assert d["center"] == ["1/2", "0"]
    assert d["degree"] == 5
    text = json.dumps(d, sort_keys=True)
    back = series_from_dict(json.loads(text))
    assert back == s
    assert json.dumps(series_to_dict(back), sort_keys=True) == text


def test_series_literal_shape():
    s = S({(2,): Fraction(4, 2)})  # normalizes to int 2
    d = series_to_dict(s)
    assert d["terms"] == [{"index": [2], "coeff": "2"}]
    with pytest.raises(ValueError):
        series_from_dict({"n": 1, "center": ["0"]})


def test_series_literal_rejects_a_repeated_index():
    terms = [{"index": [1], "coeff": "2"}, {"index": [1], "coeff": "3"}]
    with pytest.raises(ValueError, match=r"repeated index \[1\]"):
        series_from_dict({"n": 1, "center": ["0"], "degree": 2,
                          "terms": terms})


@pytest.mark.parametrize("value", [0.5, 0.12345678901234567890, 2.0, True])
def test_json_rational_rejects_floats_and_bools(value):
    with pytest.raises(ValueError, match="not a rational"):
        _json_rational(value)


def test_json_rational_reads_ints_and_text():
    assert _json_rational(3) == 3
    assert _json_rational("-3/2") == Fraction(-3, 2)
    assert _json_rational("0.5") == Fraction(1, 2)


def _read_or_error(read, text):
    try:
        value = read(text)
    except (ValueError, ZeroDivisionError):
        return ValueError
    return type(value), value


@pytest.mark.parametrize("text", [
    "1_0", " 3", "+3", "\u0663", "3\n", "3 ", "-0", "007", "-007", "3/2",
    "-6/4", "3/0", "1e3", "0x10", "", "-", "--3", "\u00b2", "\uff13",
    "-12345678901234567890", pytest.param("1" * 5000, id="5000-digits")])
def test_json_rational_text_reads_as_fraction_does(text):
    # integer text skips Fraction; it must give the same value (an int),
    # and refuse what Fraction refuses (5000 digits pass int's limit)
    assert (_read_or_error(_json_rational, text)
            == _read_or_error(lambda t: as_exact(Fraction(t)), text))


def test_eval_at_center():
    s = S({(0,): Fraction(3, 2), (1,): 5})
    assert s.eval_at_center() == Fraction(3, 2)
    assert S({(1,): 5}).eval_at_center() == 0
