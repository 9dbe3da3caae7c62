"""Jacobian matrix, adjugate, and pointwise vanishing invariants.

A matrix is a tuple of rows of ``TruncatedSeries``: entry (i, j) is
``m[i][j]``.  Its entries share dimension and centre; a product of entries
of different truncations takes the smaller, as every series product does.
The adjugate is the transposed cofactor matrix, the unique matrix with
J · adj(J) = adj(J) · J = det(J) · I.  Each cofactor is the Laplace
expansion of its minor, run in the packed product kernel of ``pseries``:
the entries are packed once, and each cofactor is unpacked once.  For a
1x1 matrix the adjugate is the constant [1] (empty-minor convention),
which forces the adjugate vanishing order to 0 in one variable and thereby
pins the scaling exponent of the one-variable fixtures.  The determinant is
the first-row Laplace sum Σ_j J[0][j] · adj[j][0] over the cofactors the
adjugate already holds.
One helper reads (mu, alpha, nu) off the coefficients of the determinant
and the adjugate entries; ``radius.stratify`` reads its grid points with it.

A profile is only meaningful relative to the truncation degree it was
computed at; it records that degree and callers must not read more into it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularJacobianError, TruncationError
from .mindex import grlex_key, mi_factorial, unit
from .pseries import (
    TruncatedSeries,
    _packed,
    _products_into,
    _sorted_terms,
    _sum_of_products,
    _unpacked,
    as_exact,
    rational_str,
)


def jacobian_matrix(germ):
    """Rows whose (j, i) entry is the derivative of component j in x_i."""
    if germ.trunc < 1:
        raise TruncationError(
            "need truncation degree >= 1 to differentiate the map",
            needed_degree=1)
    n = germ.n
    units = [unit(n, i) for i in range(n)]
    return tuple(tuple(comp.derive(u) for u in units)
                 for comp in germ.components)


def matmul(a, b):
    """Product of two square matrices given as rows of series."""
    if len(a) != len(b):
        raise DimensionMismatch("matrix sizes differ")
    cols = list(zip(*b))
    return tuple(tuple(_sum_of_products(zip(row, col)) for col in cols)
                 for row in a)


def adjugate(m):
    """Transposed cofactor matrix; [1] for 1x1 by the empty-minor convention.

    Each cofactor is the Laplace expansion of its minor along the minor's
    first row, with the truncation the series expansion gives it: the
    minimum over the minor's entries.  Every entry is packed once, at the
    shift of the largest truncation; the signs are folded into the
    first-row coefficients, every product of the expansion runs in the
    packed kernel at the cofactor's cap, and each cofactor is unpacked
    once.  The cofactors of a 2x2 matrix are its entries, two negated."""
    k = len(m)
    first = m[0][0]
    n, center = first.n, first.center
    if k == 1:
        return ((TruncatedSeries.constant(1, n, center, first.trunc),),)
    if k == 2:
        (a, b), (c, d) = m
        return ((d, -b), (-c, a))
    for row in m:
        for e in row:
            first._require_same_frame(e)
    shift = max(e.trunc for row in m for e in row).bit_length() or 1
    packed = [[_packed(e.coeffs, shift, e.trunc) for e in row] for row in m]
    negated = [[[(key, -c) for key, c in terms] for terms in row]
               for row in packed]

    def laplace_into(acc, rows, cols, odd, limit):
        """Add (−1)^odd · det of m's rows × cols into ``acc``."""
        top, rest = rows[0], rows[1:]
        for idx, col in enumerate(cols):
            head = (negated if (odd + idx) % 2 else packed)[top][col]
            if not head:
                continue
            others = cols[:idx] + cols[idx + 1:]
            if len(rest) == 1:
                minor = packed[rest[0]][others[0]]
            else:
                sub = {}
                laplace_into(sub, rest, others, 0, limit)
                minor = _sorted_terms(sub)
            _products_into(acc, head, minor, limit)

    def cofactor(i, j):
        rows = [r for r in range(k) if r != j]
        cols = [c for c in range(k) if c != i]
        t = min(m[r][c].trunc for r in rows for c in cols)
        acc = {}
        laplace_into(acc, rows, cols, (i + j) % 2, (t + 1) << n * shift)
        return TruncatedSeries._raw(n, center, t,
                                    _unpacked(acc.items(), n, shift))

    return tuple(tuple(cofactor(i, j) for j in range(k)) for i in range(k))


@dataclass(frozen=True, eq=False)
class JacobianProfile:
    """Vanishing data of a map germ at its centre.

    mu is the vanishing order of the determinant, nu the minimum vanishing
    order over adjugate entries, alpha the graded-lex-smallest index with a
    nonzero determinant coefficient (so |alpha| = mu), d_alpha_delta the
    corresponding derivative value alpha! * coefficient (nonzero by
    construction), and lam = mu - nu + 1 the radius scaling exponent.
    """

    delta: TruncatedSeries
    adjugate: tuple  # rows of TruncatedSeries
    mu: int
    nu: int
    alpha: tuple
    d_alpha_delta: object
    lam: int
    computed_at_degree: int


def _invariants(delta, adj, top):
    """(mu, alpha, nu) from the coefficient dict of the determinant and an
    iterable of the adjugate entries' dicts about one point, reading terms
    of degree <= ``top``; None when the determinant has none (the point is
    singular).

    alpha is the determinant's graded-lex-smallest index and mu = |alpha|.
    nu is the smallest order among the adjugate entries, read only when
    mu > 0: at mu = 0 the adjugate delta * J^-1 is invertible at the point,
    so nu = 0.  A determinant term of degree <= top is a sum of products
    with adjugate terms of degree <= top, so nu needs no cut at ``top``.
    """
    if not delta:
        return None
    alpha = min(delta, key=grlex_key)
    mu = sum(alpha)
    if mu > top:
        return None
    return mu, alpha, min(sum(g) for entry in adj for g in entry) if mu else 0


def profile(germ):
    """Vanishing invariants of the Jacobian determinant at the germ's centre.

    Raises ``SingularJacobianError`` when the determinant vanishes
    identically within the truncation degree; recovery and radius work must
    refuse to run off such a germ.  A nonzero determinant is a sum of
    products with adjugate entries, so some adjugate entry is nonzero too.
    """
    jac = jacobian_matrix(germ)
    adj = adjugate(jac)
    delta = (jac[0][0] if len(jac) == 1 else _sum_of_products(
        (e, row[0]) for e, row in zip(jac[0], adj)))
    found = _invariants(delta.coeffs,
                        (e.coeffs for row in adj for e in row), delta.trunc)
    if found is None:
        raise SingularJacobianError(
            f"Jacobian determinant vanishes identically to degree {delta.trunc}")
    mu, alpha, nu = found
    d_alpha = as_exact(mi_factorial(alpha) * delta.coeffs[alpha])
    return JacobianProfile(
        delta=delta, adjugate=adj, mu=mu, nu=nu, alpha=alpha,
        d_alpha_delta=d_alpha, lam=mu - nu + 1,
        computed_at_degree=delta.trunc)


def profile_to_dict(p):
    return {
        "mu": p.mu,
        "nu": p.nu,
        "alpha": list(p.alpha),
        "lambda": p.lam,
        "d_alpha_delta": rational_str(p.d_alpha_delta),
        "computed_at_degree": p.computed_at_degree,
    }

