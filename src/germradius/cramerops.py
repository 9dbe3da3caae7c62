"""Higher-order Cramer operator tables.

For a map germ with Jacobian determinant ``delta`` and adjugate entries
``adj[i][j]``, the table stores, for every pair (beta, alpha) with
|alpha| <= |beta| <= B and |beta| >= 1, a series T[beta, alpha] satisfying,
for EVERY formal g centred at the image point and f = g ∘ germ,

    delta^(2|beta|-1) · ((D^beta g) ∘ germ) = Σ_{|alpha| <= |beta|} T[beta, alpha] · D^alpha f

exactly within truncation.  Level one is Cramer's rule: T[e_j, e_i] is the
(i, j) adjugate entry and T[e_j, 0] = 0.  Level m+1 comes from the level-m
identity by differentiating in direction e_i, contracting with adjugate
column j (the smallest coordinate of the new beta), and multiplying through
by delta.  For an operator sum H_beta satisfying the level-m identity, with
gradient D_i H_beta, that is one step:

    H_{beta + e_j} = delta · Σ_i adj[i][j] · D_i H_beta
                     - (2|beta| - 1) · (Σ_i adj[i][j] · D^{e_i} delta) · H_beta

Take g ∘ germ = e^{z·(x - a)}: D^alpha becomes multiplication by z^alpha, so
the table row R_beta = Σ_alpha T[beta, alpha] · z^alpha is that exponential's
operator sum divided by it.  The rows take the same step with the gradient
D_i R_beta + z_i · R_beta, from R_{e_j} = Σ_i z_i · adj[i][j];
``iter_t_levels`` splits each row into its entries, and ``iter_h_levels``
takes the step on the sums Σ_alpha T[beta, alpha] · D^alpha f for one f
and hands recovery the one coefficient of each that it reads.  The build is
deterministic, so recomputation is bit-identical.

The recurrence is a construction device; the identity over the monomial
basis g = (y - b)^kappa is the contract that certifies a table.
``verify_identity_on_monomials`` checks it on the exponential instead, once
per beta: with g = e^{w·(y - b)}, D^alpha (g ∘ germ) is a polynomial Q_alpha
in w times g ∘ germ, so the identity divided by g ∘ germ reads
E_beta = Σ_alpha T[beta, alpha] · Q_alpha - delta^(2|beta|-1) · w^beta = 0.
Its coefficients in w give every monomial residual, so the records are
exactly those of the monomials one by one, read from the stored entries.

Entries at level m carry truncation work_degree - (m - 1): each level spends
one derivative.  Construction is sequential in the level; finished tables
are immutable values.

The levels run on ``pseries``'s packed product kernel.  A sum key holds n
coordinate fields below the degree field.  A row key puts n marker fields
for the exponent of z between them, and its degree field counts x only, so
the cap stays one comparison.  Every field has
max(work_degree, max_beta_degree).bit_length() bits: a coordinate stays
within the working degree and a marker reaches max_beta_degree.  delta, the
adjugate entries and the contractions s_j are packed once per run; rows and
sums stay packed from one level to the next.  Rows are unpacked once, when
their level is yielded.  Sums are never unpacked: only the coefficient at
the extraction index (2m - 1)·alpha leaves each, found by its key.  The
certificate's Q_alpha and E_beta hold w in the same marker fields.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import TruncationError
from .jacobian import profile
from .mindex import (
    enumerate_degree,
    enumerate_upto,
    grlex_key,
    mi_factorial,
    sub as mi_sub,
    unit,
)
from .pseries import (
    MapGerm,
    TruncatedSeries,
    _monomial_power,
    _packed,
    _packed_derivative,
    _products_into,
    _sorted_terms,
    _sum_of_products,
    _unpacked,
    compose,
    series_to_dict,
)


@dataclass(eq=False)
class TOperatorTable:
    germ: MapGerm
    profile: object
    max_beta_degree: int
    work_degree: int
    entries: dict  # (beta, alpha) -> TruncatedSeries


class _LevelBuilder:
    """Builds successive operator levels from a determinant/adjugate pair in
    one level loop with one step, either as operator rows R_beta (``rows``)
    or as operator sums H_beta.  Series are held as (trunc, sorted packed
    terms) pairs in the key layout of the module docstring."""

    __slots__ = ("n", "center", "work_degree", "max_beta_degree", "shift",
                 "fields", "z", "delta", "adj", "s_cols")

    def __init__(self, n, center, work_degree, max_beta_degree, delta, adj,
                 rows):
        if delta.trunc < work_degree:
            raise TruncationError(
                f"determinant truncation {delta.trunc} below working degree "
                f"{work_degree}", needed_degree=work_degree)
        if max_beta_degree < 1:
            raise ValueError("max_beta_degree must be >= 1")
        self.n = n
        self.center = center
        self.work_degree = work_degree
        self.max_beta_degree = max_beta_degree
        self.shift = max(work_degree, max_beta_degree).bit_length() or 1
        markers = n if rows else 0
        self.fields = n + markers
        # z_i times a row adds this constant to every key
        self.z = [1 << (n + i) * self.shift for i in range(markers)]
        self.delta = self._pack(delta)
        self.adj = [[self._pack(e) for e in row] for row in adj]
        self.s_cols = None  # built with the first level past one

    def _pack(self, series):
        """``series`` capped at the working degree: no product exceeds it."""
        w = self.work_degree
        pad = (0,) * (self.fields - self.n)
        return min(series.trunc, w), _packed(
            {g + pad: c for g, c in series.coeffs.items()}, self.shift, w)

    def _series(self, trunc, terms):
        return TruncatedSeries._raw(self.n, self.center, trunc,
                                    _unpacked(terms, self.n, self.shift))

    def levels(self, first, cap):
        """Yield (m, {beta: packed S_beta}) for m = 1..max_beta_degree.
        Level one is S_{e_j} = Σ_i adj[i][j] · first[i] capped at ``cap``;
        each later level is capped one degree below the one before and takes
        ``_step`` on the gradient parts of S_beta."""
        for m in range(1, self.max_beta_degree + 1):
            if cap < 0:
                raise TruncationError(
                    f"working degree {self.work_degree} exhausted at level {m}",
                    needed_degree=m - 1)
            if m == 1:
                level = {unit(self.n, j): self._contract([first], j, cap)
                         for j in range(self.n)}
            else:
                if m == 2:
                    # column contractions of the determinant gradient, reused
                    # at every later level; level one needs no derivative
                    grad = [self._grad(self.delta)]
                    self.s_cols = [self._contract(grad, j, self.work_degree)
                                   for j in range(self.n)]
                parts = {beta: self._parts(s) for beta, s in level.items()}
                level = {beta_new: self._step(level[beta], parts[beta], j,
                                              m - 1, cap)
                         for beta_new, j, beta in self._parents(m - 1)}
            yield m, level
            cap -= 1

    def _grad(self, series):
        trunc, terms = series
        if trunc < 1:
            raise TruncationError(
                f"derivative order 1 exceeds truncation degree {trunc}",
                needed_degree=1)
        return [(trunc - 1,
                 _packed_derivative(terms, i, self.fields, self.shift))
                for i in range(self.n)]

    def _marker(self, alpha):
        """The key offset of z^alpha."""
        return sum(a * z for a, z in zip(alpha, self.z))

    def _parts(self, series):
        """The gradient parts of ``series``: D_i series, and on a row also
        z_i · series; the sums carry no markers."""
        grad = self._grad(series)
        if not self.z:
            return [grad]
        trunc, terms = series
        return [grad, [(trunc, [(k + z, c) for k, c in terms])
                       for z in self.z]]

    def _contract(self, grads, j, target):
        """Σ_i adj[i][j] · Σ_g g[i] over the gradients in ``grads``, capped
        at ``target``, in one accumulator."""
        col = [row[j] for row in self.adj]
        trunc = target
        for parts in (col, *grads):
            for t, _ in parts:
                if t < trunc:
                    trunc = t
        limit = (trunc + 1) << self.fields * self.shift
        acc = {}
        for g in grads:
            for (_, a), (_, b) in zip(col, g):
                _products_into(acc, a, b, limit)
        return trunc, _sorted_terms(acc)

    def _step(self, prev, grads, j, m, target):
        """delta · Σ_i adj[i][j] · grad[i] - (2m - 1) · s_j · prev: the
        level-(m+1) recurrence for ``prev`` with gradient Σ ``grads``.  Both
        products go into one accumulator; s_j's few terms carry the scale."""
        c_trunc, contraction = self._contract(grads, j, target)
        s_trunc, s = self.s_cols[j]
        trunc = min(c_trunc, self.delta[0], prev[0], s_trunc)
        limit = (trunc + 1) << self.fields * self.shift
        scale = -(2 * m - 1)
        acc = {}
        _products_into(acc, self.delta[1], contraction, limit)
        _products_into(acc, prev[1], [(k, c * scale) for k, c in s], limit)
        return trunc, _sorted_terms(acc)

    def _parents(self, m):
        """Each beta of degree m+1 with its contraction column j (the first
        nonzero coordinate) and the degree-m beta it extends."""
        for beta_new in enumerate_degree(self.n, m + 1):
            j = next(k for k, e in enumerate(beta_new) if e > 0)
            beta = beta_new[:j] + (beta_new[j] - 1,) + beta_new[j + 1:]
            yield beta_new, j, beta

    def entries(self, rows, m):
        """Split each degree-m row into T[beta, alpha] for |alpha| <= m: the
        x-part of its z^alpha terms, or zero at the row's truncation."""
        xbits = self.n * self.shift
        xmask = (1 << xbits) - 1
        zmask = xmask << xbits
        alphas = [(alpha, self._marker(alpha))
                  for alpha in enumerate_upto(self.n, m)]
        out = {}
        for beta, (trunc, terms) in rows.items():
            split = {}
            for k, c in terms:
                split.setdefault(k & zmask, []).append((k & xmask, c))
            for alpha, zkey in alphas:
                out[(beta, alpha)] = self._series(trunc, split.get(zkey, ()))
        return out


def iter_t_levels(germ, max_beta_degree, work_degree, prof):
    """Yield (m, level entries) for m = 1..max_beta_degree, one level at a
    time, from the germ's profile ``prof``.  Level one is the row
    R_{e_j} = Σ_i z_i · adj[i][j]."""
    if germ.trunc < work_degree + 1:
        raise TruncationError(
            f"map germ truncation {germ.trunc} too low for working degree "
            f"{work_degree}", needed_degree=work_degree + 1)
    builder = _LevelBuilder(germ.n, germ.center, work_degree, max_beta_degree,
                            prof.delta, prof.adjugate, rows=True)
    markers = [(work_degree, [(z, 1)]) for z in builder.z]
    for m, rows in builder.levels(markers, work_degree):
        yield m, builder.entries(rows, m)


def _sum_levels(f_series, max_beta_degree, work_degree, delta, adj):
    """The level builder of the operator sums on ``f_series`` and its
    levels (m, {beta: packed H_beta}), valid to degree work_degree - m at
    most.  Level one is H_{e_j} = Σ_i adj[i][j] · D^{e_i} f_series."""
    builder = _LevelBuilder(f_series.n, f_series.center, work_degree,
                            max_beta_degree, delta, adj, rows=False)
    first = builder._grad(builder._pack(f_series))
    return builder, builder.levels(first, work_degree - 1)


def iter_h_levels(f_series, max_beta_degree, work_degree, delta, adj, alpha):
    """Yield (m, {beta: coefficient}) for m = 1..max_beta_degree: the
    coefficient at (2m - 1)·alpha of H_beta = Σ_alpha' T[beta, alpha'] ·
    D^alpha' f_series, the operator sum of the table built from ``delta``
    and ``adj``.  The sums start from H_{e_j} = Σ_i adj[i][j] · D^{e_i}
    f_series and take the table's step with the gradient of H_beta, which
    holds by linearity for every f_series, composite or not.

    Each H_beta stays packed inside the builder; only its pivot coefficient
    leaves.  The pivot's key is 2m - 1 times alpha's key, found in the
    sorted terms by bisection.  No field overflows: the pivot's degree is
    checked against the level's truncation first, and that truncation is
    below work_degree, which each field holds.  A pivot beyond the
    truncation raises ``TruncationError``: an unknown coefficient is never
    read as zero.
    """
    builder, levels = _sum_levels(f_series, max_beta_degree, work_degree,
                                  delta, adj)
    mu = sum(alpha)
    [(step, _)] = _packed({alpha: 1}, builder.shift, mu)
    for m, level in levels:
        degree = (2 * m - 1) * mu
        pivot = ((2 * m - 1) * step,)
        out = {}
        for beta, (trunc, terms) in level.items():
            if degree > trunc:
                raise TruncationError(
                    f"pivot at degree {degree} is beyond truncation degree "
                    f"{trunc} of level {m}", needed_degree=degree + m)
            i = bisect_left(terms, pivot)
            out[beta] = (terms[i][1] if i < len(terms)
                         and terms[i][0] == pivot[0] else 0)
        yield m, out


def working_degree(mu, max_beta_degree):
    """Working truncation (2B - 1)·mu + B for operator levels up to B, and
    for F when recovering G to degree B: the extraction coefficient lives at
    degree (2B - 1)·mu and each level consumes one derivative."""
    return (2 * max_beta_degree - 1) * mu + max_beta_degree


def build_t_operators(germ, max_beta_degree, work_degree=None):
    """Materialize the full operator table for |beta| <= max_beta_degree.

    ``work_degree`` defaults to the working rule for the germ's own
    invariants; the germ truncation must exceed it by one so the base level
    carries the full working degree.
    """
    prof = profile(germ)
    if work_degree is None:
        work_degree = working_degree(prof.mu, max_beta_degree)
    entries = {}
    for _, level in iter_t_levels(germ, max_beta_degree, work_degree, prof=prof):
        entries.update(level)
    return TOperatorTable(
        germ=germ, profile=prof, max_beta_degree=max_beta_degree,
        work_degree=work_degree, entries=entries)


def _delta_power(delta, exponent, upto=None):
    """delta^exponent, capped at ``upto`` when given."""
    out = delta if upto is None else delta.truncated(min(delta.trunc, upto))
    for _ in range(exponent - 1):
        out = out.mul(delta, upto=upto)
    return out


def verify_defining_identity(table, g, beta):
    """Residual of the defining identity for one concrete g and beta in the
    table range; it is identically zero within truncation exactly when the
    table is right."""
    beta = tuple(beta)
    m = sum(beta)
    if not 1 <= m <= table.max_beta_degree:
        raise ValueError(
            f"beta degree {m} outside the table range 1..{table.max_beta_degree}")
    germ = table.germ
    f = compose(g, germ)
    rhs = _sum_of_products(
        (table.entries[(beta, alpha)], f.derive(alpha))
        for alpha in enumerate_upto(germ.n, m))
    lhs = _delta_power(table.profile.delta, 2 * m - 1).mul(
        compose(g.derive(beta), germ))
    return lhs - rhs


def verify_cramer_base(germ, g, prof):
    """Residuals of the level-one contraction for each image coordinate j:
    delta · ((dg/dy_j) ∘ germ) - Σ_i (df/dx_i) · adj[i][j], from the germ's
    profile ``prof``."""
    n = germ.n
    f = compose(g, germ)
    f_grad = [f.derive(unit(n, i)) for i in range(n)]
    residuals = []
    for j in range(n):
        lhs = prof.delta.mul(compose(g.derive(unit(n, j)), germ))
        residuals.append(lhs - _sum_of_products(
            (f_grad[i], prof.adjugate[i][j]) for i in range(n)))
    return residuals


def verify_identity_on_monomials(table, g_degree):
    """Run the defining identity over every centred monomial g of degree
    <= g_degree, for every beta in the table.

    Returns records (beta, kappa, residual_is_zero, checked_degree), for
    m = |beta| ascending, beta and then kappa in graded-lex order; record
    (beta, kappa) is the identity's residual at g = (y - b)^kappa.  They are
    read off one identity per beta on the exponential g = e^{w·(y - b)}, for
    which D^alpha (g ∘ germ) = Q_alpha · (g ∘ germ) with Q_0 = 1 and
    Q_{alpha + e_i} = D_i Q_alpha + (Σ_j w_j · D_i germ_j) · Q_alpha.  So

        E_beta = Σ_alpha T[beta, alpha] · Q_alpha - delta^(2m-1) · w^beta

    is that identity's residual divided by g ∘ germ, and its coefficient of
    w^kappa / kappa! is minus the monomial residual

        Σ_{lambda <= kappa} kappa!/(kappa - lambda)! · E_beta[lambda] · P_{kappa - lambda}

    where P_kappa = (germ - b)^kappa.  When E_beta has no term with
    |lambda| <= g_degree, every record of beta is zero; otherwise the powers
    P_kappa are built and each record sums its terms.  Either way the records
    are exactly the monomial ones, each checked to the lowest of
    work_degree - m + 1, germ.trunc - m, the degree of delta^(2m-1) and those
    of the stored entries T[beta, alpha].  The Q_alpha hold w in the row
    builder's marker fields and are built once per call; E_beta takes one
    packed product per stored entry.
    """
    germ = table.germ
    n = germ.n
    w = table.work_degree
    kappas = enumerate_upto(n, g_degree)
    builder = _LevelBuilder(n, germ.center, w, table.max_beta_degree,
                            table.profile.delta, table.profile.adjugate,
                            rows=True)
    fields, shift = builder.fields, builder.shift
    zmask = ((1 << n * shift) - 1) << n * shift
    # Σ_j w_j · D_i germ_j for each i, then every Q_alpha from its parent
    # alpha - e_i; Q_alpha is needed to degree work_degree + 1 - |alpha|
    factors = [sorted((k + z, c) for comp, z in zip(germ.components, builder.z)
                      for k, c in builder._pack(comp.derive(unit(n, i)))[1])
               for i in range(n)]
    all_alphas = enumerate_upto(n, table.max_beta_degree)
    q = {(0,) * n: (w + 1, [(0, 1)])}
    for alpha in all_alphas[1:]:
        i = next(k for k, e in enumerate(alpha) if e)
        trunc, terms = q[mi_sub(alpha, unit(n, i))]
        acc = dict(_packed_derivative(terms, i, fields, shift))
        _products_into(acc, factors[i], terms, trunc << fields * shift)
        q[alpha] = trunc - 1, _sorted_terms(acc)
    # E_beta's terms in w^lambda for the lambda a monomial record can read
    lambdas = {builder._marker(lam): lam for lam in all_alphas
               if sum(lam) <= g_degree}
    devs = list(germ.deviations())
    powers = {(0,) * n: TruncatedSeries.constant(1, n, germ.center, w)}

    def power(kappa):
        return _monomial_power(kappa, powers,
                               lambda p, j: p.mul(devs[j], upto=w))

    records = []
    for m in range(1, table.max_beta_degree + 1):
        cap = w - m + 1
        d_trunc, dpow = builder._pack(
            _delta_power(table.profile.delta, 2 * m - 1, upto=cap))
        alphas = [alpha for alpha in all_alphas if sum(alpha) <= m]
        for beta in enumerate_degree(n, m):
            entries = [table.entries[(beta, alpha)] for alpha in alphas]
            t = min(cap, germ.trunc - m, d_trunc, *(e.trunc for e in entries))
            limit = (t + 1) << fields * shift
            acc = {}
            for entry, alpha in zip(entries, alphas):
                _products_into(acc, builder._pack(entry)[1], q[alpha][1], limit)
            _products_into(acc, [(builder._marker(beta), -1)], dpow, limit)
            split = {}
            for k, c in acc.items():
                zkey = k & zmask
                lam = lambdas.get(zkey)
                if c and lam is not None:
                    split.setdefault(lam, []).append((k - zkey, c))
            e_beta = {lam: builder._series(t, terms)
                      for lam, terms in split.items()}
            for kappa in kappas:
                pairs = [(e * (mi_factorial(kappa) // mi_factorial(down)),
                          power(down))
                         for lam, e in e_beta.items()
                         if (down := mi_sub(kappa, lam)) is not None]
                zero = not pairs or _sum_of_products(pairs, t).is_zero
                records.append((beta, kappa, zero, t))
    return records


@dataclass(frozen=True, eq=False)
class OrderBoundCheck:
    beta: tuple
    alpha: tuple
    observed_order: object  # int or math.inf for entries zero within truncation
    required_bound: int
    passed: bool


def verify_order_bound(table):
    """Order lower bounds |alpha| - mu + |beta|(mu + nu - 1) for every stored
    entry, measured relative to the working truncation."""
    mu = table.profile.mu
    nu = table.profile.nu
    out = []
    keys = sorted(table.entries, key=lambda k: (grlex_key(k[0]), grlex_key(k[1])))
    for beta, alpha in keys:
        required = sum(alpha) - mu + sum(beta) * (mu + nu - 1)
        observed = table.entries[(beta, alpha)].order_at_center()
        passed = required <= 0 or observed >= required
        out.append(OrderBoundCheck(beta, alpha, observed, required, passed))
    return out


def table_to_dict(table):
    """Table dump: per (beta, alpha), the series in the standard literal."""
    keys = sorted(table.entries, key=lambda k: (grlex_key(k[0]), grlex_key(k[1])))
    return {
        "max_beta_degree": table.max_beta_degree,
        "work_degree": table.work_degree,
        "entries": [
            {
                "beta": list(beta),
                "alpha": list(alpha),
                "series": series_to_dict(table.entries[(beta, alpha)]),
            }
            for beta, alpha in keys
        ],
    }
