"""Jacobian matrix, adjugate, determinant via the profile, vanishing profiles."""

import itertools
import random
from fractions import Fraction

import pytest

from germradius import (
    SingularJacobianError,
    TruncatedSeries,
    TruncationError,
    adjugate,
    jacobian_matrix,
    matmul,
    profile,
)
from helpers import (
    blowup_germ,
    cube_germ,
    germ_of,
    identity_germ,
    identity_matrix,
    random_map,
    random_series,
    reference_adjugate,
    series_of,
    square_germ,
)


def permutation_determinant(m):
    """Independent oracle: Leibniz expansion over permutations."""
    k = len(m)
    first = m[0][0]
    n, center, trunc = first.n, first.center, first.trunc
    total = TruncatedSeries(n, center, trunc)
    for perm in itertools.permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = TruncatedSeries.constant(sign, n, center, trunc)
        for i in range(k):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def test_jacobian_matrix_examples():
    jac = jacobian_matrix(square_germ(degree=6))
    assert jac[0][0].coeffs == {(1,): 2}
    sigma = jacobian_matrix(blowup_germ(degree=6))
    assert sigma[0][0].coeffs == {(0, 0): 1}
    assert sigma[0][1].is_zero
    assert sigma[1][0].coeffs == {(0, 1): 1}
    assert sigma[1][1].coeffs == {(1, 0): 1}
    ident = jacobian_matrix(identity_germ(2, degree=6))
    assert ident == identity_matrix(2, (0, 0), 5, 2)


def test_jacobian_needs_degree_one():
    flat = germ_of(["x"], ["x"], degree=0)
    with pytest.raises(TruncationError):
        jacobian_matrix(flat)


def test_determinant_and_adjugate_blowup():
    jac = jacobian_matrix(blowup_germ(degree=6))
    delta = profile(blowup_germ(degree=6)).delta
    assert delta.coeffs == {(1, 0): 1}
    adj = adjugate(jac)
    assert adj[0][0].coeffs == {(1, 0): 1}
    assert adj[0][1].is_zero
    assert adj[1][0].coeffs == {(0, 1): -1}
    assert adj[1][1].coeffs == {(0, 0): 1}
    # J * adj = delta * I on the nose
    prod = matmul(jac, adj)
    for i in range(2):
        for j in range(2):
            want = delta if i == j else TruncatedSeries(2, (0, 0), delta.trunc)
            assert prod[i][j].coeffs == want.coeffs


def test_one_by_one_adjugate_convention():
    jac = jacobian_matrix(square_germ(degree=6))
    assert profile(square_germ(degree=6)).delta.coeffs == {(1,): 2}
    assert adjugate(jac)[0][0].coeffs == {(0,): 1}


def test_identity_map_determinant():
    jac = jacobian_matrix(identity_germ(2, degree=6))
    assert profile(identity_germ(2, degree=6)).delta.coeffs == {(0, 0): 1}
    assert adjugate(jac) == identity_matrix(2, (0, 0), 5, 2)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_packed_adjugate_matches_series_laplace(k):
    # rational entries about a rational centre, each with its own
    # truncation: every cofactor keeps the smallest truncation among its
    # minor's entries, as the series Laplace expansion gives it
    rng = random.Random(300 + k)
    center = (Fraction(1, 2), -1)
    for _ in range(5):
        m = []
        for r in range(k):
            row = []
            for c in range(k):
                t = rng.randint(1, 2) + r + c
                coeffs = random_series(rng, 2, t, density=0.5).coeffs
                row.append(TruncatedSeries(2, center, t, {
                    g: Fraction(c, rng.randint(1, 4))
                    for g, c in coeffs.items()}))
            m.append(tuple(row))
        m = tuple(m)
        got = adjugate(m)
        assert got == reference_adjugate(m)
        if k > 2:
            assert len({e.trunc for row in got for e in row}) > 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_determinant_against_permutation_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        germ = random_map(rng, n, trunc=5)
        jac = jacobian_matrix(germ)
        assert profile(germ).delta == permutation_determinant(jac)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_cofactor_identity_random(n):
    rng = random.Random(200 + n)
    for singular in (False, True):
        germ = random_map(rng, n, trunc=5, singular=singular)
        jac = jacobian_matrix(germ)
        delta = permutation_determinant(jac)
        adj = adjugate(jac)
        left = matmul(jac, adj)
        right = matmul(adj, jac)
        for i in range(n):
            for j in range(n):
                want = delta.coeffs if i == j else {}
                assert left[i][j].coeffs == want
                assert right[i][j].coeffs == want


def test_profile_square_matches_scaling_example():
    p = profile(square_germ(degree=8))
    assert (p.mu, p.nu, p.alpha, p.d_alpha_delta, p.lam) == (1, 0, (1,), 2, 2)
    assert p.computed_at_degree == 7


def test_profile_blowup():
    p = profile(blowup_germ(degree=8))
    assert (p.mu, p.nu, p.alpha, p.lam) == (1, 0, (1, 0), 2)
    # the degree-1 index (0,1) precedes (1,0) but carries a zero coefficient
    assert p.delta.coefficient((0, 1)) == 0
    assert p.delta.coefficient((1, 0)) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_profile_power_maps(k):
    germ = germ_of([f"x^{k}"], ["x"], degree=k + 6)
    p = profile(germ)
    assert (p.mu, p.nu, p.lam) == (k - 1, 0, k)
    assert p.alpha == (k - 1,)
    assert p.d_alpha_delta == __import__("math").factorial(k - 1) * k


def test_profile_coordinate_squares_have_positive_nu():
    # delta = 8xyz; every adjugate entry is 0 or 4 times a product of two
    # coordinates, so nu = 2 and lambda = 3 - 2 + 1
    p = profile(germ_of(["x^2", "y^2", "z^2"], ["x", "y", "z"], degree=5))
    assert (p.mu, p.nu, p.alpha, p.d_alpha_delta, p.lam) == (3, 2, (1, 1, 1), 8, 2)


def test_profile_invariants_on_random_maps():
    rng = random.Random(31)
    for n in (1, 2, 3):
        for singular in (False, True):
            germ = random_map(rng, n, trunc=6, singular=singular)
            p = profile(germ)
            assert sum(p.alpha) == p.mu
            assert p.mu >= p.nu
            assert p.lam >= 1
            assert p.d_alpha_delta != 0
            if n == 1:
                assert p.nu == 0
            # indices strictly below alpha in graded-lex have no coefficient
            from germradius.mindex import enumerate_upto, grlex_key
            for gamma in enumerate_upto(n, p.mu):
                if grlex_key(gamma) < grlex_key(p.alpha):
                    assert p.delta.coefficient(gamma) == 0


def test_profile_rejects_identically_singular():
    germ = germ_of(["x*y", "x*y"], ["x", "y"], degree=5)
    with pytest.raises(SingularJacobianError):
        profile(germ)

