"""Operator table construction, the defining identity, and order bounds."""

import hashlib
import json
import math
import random

import pytest

from germradius import (
    TOperatorTable,
    TruncatedSeries,
    TruncationError,
    build_t_operators,
    compose,
    profile,
    table_to_dict,
    verify_cramer_base,
    verify_defining_identity,
    verify_identity_on_monomials,
    verify_order_bound,
)
from germradius.mindex import enumerate_upto, unit
from helpers import (
    blowup_germ,
    cube_germ,
    germ_of,
    identity_germ,
    leibniz_table,
    random_map,
    random_series,
    reference_monomial_records,
    square_germ,
)


def test_base_level_is_cramers_rule():
    table = build_t_operators(square_germ(degree=8), 1)
    assert table.entries[((1,), (0,))].is_zero
    assert table.entries[((1,), (1,))].coeffs == {(0,): 1}
    sigma = build_t_operators(blowup_germ(degree=10), 1)
    adj = sigma.profile.adjugate
    for i in range(2):
        for j in range(2):
            assert (sigma.entries[(unit(2, j), unit(2, i))].coeffs
                    == adj[i][j].coeffs)
    assert sigma.entries[((1, 0), (0, 0))].is_zero
    assert sigma.entries[((0, 1), (0, 0))].is_zero


def test_square_map_level_two_hand_values():
    table = build_t_operators(square_germ(degree=10), 2)
    assert table.entries[((2,), (0,))].is_zero
    assert table.entries[((2,), (1,))].coeffs == {(0,): -2}
    assert table.entries[((2,), (2,))].coeffs == {(1,): 2}


def test_defining_identity_square_hand_case():
    # g = y^2 through x^2: the second-derivative identity evaluates to
    # 16 x^3 on both sides
    germ = square_germ(degree=10)
    table = build_t_operators(germ, 2)
    g = TruncatedSeries(1, (0,), 10, {(2,): 1})
    residual = verify_defining_identity(table, g, (2,))
    assert residual.is_zero
    f = compose(g, germ)
    lhs = table.profile.delta * table.profile.delta * table.profile.delta
    lhs = lhs * compose(g.derive((2,)), germ)
    assert lhs.coefficient((3,)) == 16


def test_defining_identity_identity_map():
    germ = identity_germ(2, degree=8)
    table = build_t_operators(germ, 2, work_degree=6)
    rng = random.Random(1)
    g = random_series(rng, 2, 4, trunc=8)
    for beta in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        assert verify_defining_identity(table, g, beta).is_zero
    # for the identity map the operator table is a Kronecker delta
    for alpha in enumerate_upto(2, 2):
        entry = table.entries[((1, 1), alpha)]
        if alpha == (1, 1):
            assert entry.coeffs == {(0, 0): 1}
        else:
            assert entry.is_zero


def test_defining_identity_blowup_mixed_beta():
    germ = blowup_germ(degree=12)
    table = build_t_operators(germ, 2)
    g = TruncatedSeries(2, (0, 0), 12, {(1, 1): 1})  # u*v in image coordinates
    assert verify_defining_identity(table, g, (1, 1)).is_zero


def test_identity_on_monomials_fixtures():
    for germ in (identity_germ(2, degree=9), square_germ(degree=12),
                 cube_germ(degree=18), blowup_germ(degree=12)):
        prof = profile(germ)
        work = germ.trunc - 1
        table = build_t_operators(germ, 3, work_degree=work)
        records = verify_identity_on_monomials(table, 4)
        assert records and all(ok for _, _, ok, _ in records)


def test_identity_on_monomials_matches_single_checks():
    germ = blowup_germ(degree=10)
    table = build_t_operators(germ, 2, work_degree=8)
    records = verify_identity_on_monomials(table, 3)
    # spot check one record against the direct computation
    g = TruncatedSeries(2, (0, 0), 10, {(2, 1): 1})
    direct = verify_defining_identity(table, g, (1, 1))
    rec = [ok for beta, kappa, ok, _ in records
           if beta == (1, 1) and kappa == (2, 1)]
    assert rec == [direct.is_zero]


def _with_entry(table, key, entry):
    entries = dict(table.entries)
    entries[key] = entry
    return TOperatorTable(table.germ, table.profile, table.max_beta_degree,
                          table.work_degree, entries)


def _differential_tables():
    """(table, g_degree) pairs: seeded random maps in 1-3 dimensions, regular
    and singular, the four fixtures and one g_degree below max_beta."""
    rng = random.Random(16)
    out = []
    for n in (1, 2, 3):
        for singular in (False, True):
            germ = random_map(rng, n, trunc=16 if n < 3 else 9,
                              singular=singular, max_mu=2 if n < 3 else 1)
            out.append((build_t_operators(germ, 3 if n < 3 else 2), 4))
    for germ in (identity_germ(2, degree=9), square_germ(degree=12),
                 cube_germ(degree=18), blowup_germ(degree=12)):
        out.append((build_t_operators(germ, 3, work_degree=germ.trunc - 1), 4))
    out.append((build_t_operators(blowup_germ(degree=12), 3), 1))
    return out


def test_identity_on_monomials_matches_reference():
    # the exponential certificate against the per-record loop, on right
    # tables and on each table with one entry corrupted by a low-degree
    # monomial, so that nonzero records and their degrees are compared too
    rng = random.Random(61)
    nonzero = 0
    for table, g_degree in _differential_tables():
        key = rng.choice(sorted(table.entries))
        entry = table.entries[key]
        gamma = rng.choice(enumerate_upto(entry.n, min(1, entry.trunc)))
        bump = TruncatedSeries(entry.n, entry.center, entry.trunc,
                               {gamma: rng.choice([-2, 1, 3])})
        for t in (table, _with_entry(table, key, entry + bump)):
            want = reference_monomial_records(t, g_degree)
            assert verify_identity_on_monomials(t, g_degree) == want
            nonzero += sum(not ok for _, _, ok, _ in want)
    assert nonzero > 0


@pytest.mark.parametrize("make_germ, max_beta, g_degree, digest", [
    (lambda: cube_germ(degree=18), 3, 5,
     "5fa7cca972459ad5423f7ac2973400478e476363edf27464e65171ddf6526fca"),
    (lambda: blowup_germ(degree=12), 3, 5,
     "cebdc2a36b3baab12c1761bc2ba85385add8394f7dcc46a4c4f272e3983d63d7"),
    (lambda: random_map(random.Random(41), 3, trunc=9, singular=True), 2, 3,
     "e27c18779c5082ca09a8d6857713fd5b28e5788ecd31dda957c2b39fc6408ab6"),
], ids=["cube", "blowup", "random3_singular"])
def test_monomial_records_golden_digest(make_germ, max_beta, g_degree, digest):
    # pins every (beta, kappa) record, its order and its checked degree
    table = build_t_operators(make_germ(), max_beta)
    records = verify_identity_on_monomials(table, g_degree)
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest


def test_cramer_base_random_maps():
    rng = random.Random(9)
    for n in (1, 2, 3):
        germ = random_map(rng, n, trunc=6)
        g = random_series(rng, n, 3, center=germ.image_point, trunc=6)
        for residual in verify_cramer_base(germ, g, profile(germ)):
            assert residual.is_zero


def test_order_bound_hand_cases():
    table = build_t_operators(square_germ(degree=10), 2)
    checks = {(c.beta, c.alpha): c for c in verify_order_bound(table)}
    c = checks[((2,), (1,))]
    assert (c.required_bound, c.observed_order, c.passed) == (0, 0, True)
    c = checks[((2,), (2,))]
    assert (c.required_bound, c.observed_order, c.passed) == (1, 1, True)
    # zero entries have infinite observed order and pass vacuously
    c = checks[((2,), (0,))]
    assert c.observed_order == math.inf and c.passed


def test_order_bound_identity_map():
    table = build_t_operators(identity_germ(2, degree=8), 2, work_degree=6)
    for c in verify_order_bound(table):
        assert c.required_bound <= 0 or c.observed_order >= c.required_bound
        assert c.passed


def test_order_bound_all_fixtures():
    rng = random.Random(41)
    germs = [square_germ(degree=12), cube_germ(degree=18), blowup_germ(degree=12),
             random_map(rng, 2, trunc=12), random_map(rng, 2, trunc=16, singular=True)]
    for germ in germs:
        table = build_t_operators(germ, 3)
        assert all(c.passed for c in verify_order_bound(table))


def test_j_choice_is_certified_by_identity():
    # the canonical smallest-coordinate choice must satisfy the identity on a
    # monomial basis of degree |beta| + 2
    germ = blowup_germ(degree=12)
    table = build_t_operators(germ, 3, work_degree=10)
    records = verify_identity_on_monomials(table, 5)
    assert all(ok for _, _, ok, _ in records)


def test_rebuild_is_bit_identical():
    germ = blowup_germ(degree=10)
    t1 = build_t_operators(germ, 2)
    t2 = build_t_operators(germ, 2)
    assert t1.entries.keys() == t2.entries.keys()
    for key in t1.entries:
        assert t1.entries[key] == t2.entries[key]
    assert table_to_dict(t1) == table_to_dict(t2)


@pytest.mark.parametrize("make_germ, max_beta, digest", [
    (lambda: cube_germ(degree=18), 3,
     "5cb0b944a376155e9883022418753e8c94d8fbe88de322b23274795957270501"),
    (lambda: blowup_germ(degree=12), 3,
     "414c3486b262ad2290fab968dc576308bce2ff612be2d3a10a4611e0396afa62"),
    (lambda: random_map(random.Random(41), 3, trunc=9, singular=True), 2,
     "3a9f0acc1c98c204001fd551c910a6857b24bae4be7adaa6dfad1d7aa8317a83"),
], ids=["cube", "blowup", "random3_singular"])
def test_table_golden_digest(make_germ, max_beta, digest):
    # pins whole tables (every entry and its truncation degree) across
    # changes to the level recurrence
    table = build_t_operators(make_germ(), max_beta)
    dump = json.dumps(table_to_dict(table), sort_keys=True).encode()
    assert hashlib.sha256(dump).hexdigest() == digest


def _assert_same_entries(table, oracle):
    assert table.entries.keys() == oracle.keys()
    for key, entry in oracle.items():
        got = table.entries[key]
        assert (got.trunc, got.coeffs) == (entry.trunc, entry.coeffs), key


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("singular", [False, True])
def test_table_matches_leibniz_rows(n, singular):
    rng = random.Random(500 + 10 * n + singular)
    for _ in range(2):
        germ = random_map(rng, n, trunc=14 if n < 3 else 9, singular=singular,
                          max_mu=2 if n < 3 else 1)
        table = build_t_operators(germ, 3)
        _assert_same_entries(
            table, leibniz_table(germ, 3, table.work_degree))


@pytest.mark.parametrize("exprs, variables", [
    (["x"], ["x"]), (["x", "y"], ["x", "y"]), (["x + y", "y"], ["x", "y"]),
])
def test_table_matches_leibniz_rows_past_the_working_degree(exprs, variables):
    # max_beta_degree 4 above work_degree 3: a z-exponent reaches 4, which
    # the working degree's two bits cannot hold
    germ = germ_of(exprs, variables, degree=4)
    _assert_same_entries(build_t_operators(germ, 4, work_degree=3),
                         leibniz_table(germ, 4, 3))


def test_level_one_at_working_degree_zero():
    # level one is the adjugate and takes no derivative of delta
    germ = germ_of(["x"], ["x"], degree=1)
    table = build_t_operators(germ, 1, work_degree=0)
    entry = table.entries[((1,), (1,))]
    assert (entry.trunc, entry.coeffs) == (0, {(0,): 1})
    table = build_t_operators(
        germ_of(["x + 2*y", "3*x + y"], ["x", "y"], degree=1), 1,
        work_degree=0)
    adj = table.profile.adjugate
    for i in range(2):
        for j in range(2):
            entry = table.entries[(unit(2, j), unit(2, i))]
            assert entry.trunc == 0
            assert entry.coeffs == adj[i][j].truncated(0).coeffs
    with pytest.raises(TruncationError, match="exhausted at level 2"):
        build_t_operators(germ, 2, work_degree=0)


def test_germ_truncation_must_cover_work_degree():
    germ = square_germ(degree=5)
    with pytest.raises(TruncationError):
        build_t_operators(germ, 2, work_degree=6)


def test_singular_jacobian_propagates():
    germ = germ_of(["x*y", "x*y"], ["x", "y"], degree=6)
    from germradius import SingularJacobianError
    with pytest.raises(SingularJacobianError):
        build_t_operators(germ, 2)
