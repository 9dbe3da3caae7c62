"""Shared fixture builders (parsed germs, seeded random series and maps),
the exponent-dict sum, product and power, the atom-by-atom expression
parser built on them that tests check ``parse_expression`` against, the
reference product and composition that tests check
``TruncatedSeries.mul`` and ``compose`` against, the series Laplace
determinant and adjugate that tests check the packed ``adjugate``
against, the table-based operator sum that tests check the H recurrence
against, the whole streamed sums whose pivots tests check
``iter_h_levels`` against, the row-by-row operator table that tests check
the level builder against, the monomial-by-monomial identity records that
tests check the exponential certificate against, the point-by-point
stratification that tests check ``stratify`` against, and the identity
matrix as rows of series."""

from fractions import Fraction

from germradius import (
    MapGerm,
    ParseError,
    SingularJacobianError,
    TruncatedSeries,
    profile,
)
from germradius.cli import _tokenize, parse_expression, parse_polynomial
from germradius.cramerops import _delta_power, _sum_levels
from germradius.mindex import (
    enumerate_degree,
    enumerate_upto,
    mi_factorial,
    sub as mi_sub,
    unit,
)
from germradius.pseries import _monomial_power, _sum_of_products, as_exact
from germradius.polymap import Polynomial, PolynomialMap
from germradius.radius import Stratification, StratumGroup, StratumSample


def series_of(expr, variables, center=None, degree=None):
    return parse_polynomial(expr, variables, center=center, degree=degree)


def germ_of(exprs, variables, center=None, degree=8):
    n = len(variables)
    if center is None:
        center = (0,) * n
    return MapGerm([parse_polynomial(e, variables, center=center, degree=degree)
                    for e in exprs])


def pmap_of(exprs, variables):
    return PolynomialMap([parse_expression(e, variables) for e in exprs])


def identity_germ(n=2, degree=8):
    variables = ["x", "y", "z"][:n]
    return germ_of(variables, variables, degree=degree)


def square_germ(degree=8, center=None):
    return germ_of(["x^2"], ["x"], center=center, degree=degree)


def cube_germ(degree=16, center=None):
    return germ_of(["x^3"], ["x"], center=center, degree=degree)


def blowup_germ(degree=8, center=None):
    return germ_of(["x", "x*y"], ["x", "y"], center=center, degree=degree)


def dict_add(a, b, sign=1):
    """``a + sign * b`` on exponent dicts, dropping the zeros the sum makes."""
    out = dict(a)
    for g, c in b.items():
        s = out.get(g, 0) + sign * c
        if s:
            out[g] = s
        elif g in out:
            del out[g]
    return out


def dict_mul(a, b, upto=None):
    """Product of two exponent dicts, term pair by term pair; with ``upto``,
    pairs landing above that degree are skipped."""
    out = {}
    for ga, ca in a.items():
        for gb, cb in b.items():
            key = tuple(x + y for x, y in zip(ga, gb))
            if upto is not None and sum(key) > upto:
                continue
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def dict_pow(a, k, n):
    """``a`` to the power ``k`` by squaring and multiplying, so a huge
    exponent costs O(log k) products."""
    result = {(0,) * n: 1}
    while k:
        if k & 1:
            result = dict_mul(result, a)
        k >>= 1
        if k:
            a = dict_mul(a, a)
    return result


class _ReferenceParser:
    """Recursive descent that multiplies exponent dicts atom by atom."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = {name: k for k, name in enumerate(variables)}
        self.n = len(variables)

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[1] or 'end of input'!r}",
                tok[2])
        self.pos += 1
        return tok

    def parse(self):
        coeffs = self.expr()
        kind, text, pos = self.take()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        # through the constructor, so a whole coefficient is stored as an int
        return Polynomial(self.n, coeffs)

    def expr(self):
        node = self.term()
        while True:
            kind = self.peek()
            if kind == "+":
                self.take()
                node = dict_add(node, self.term())
            elif kind == "-":
                self.take()
                node = dict_add(node, self.term(), -1)
            else:
                return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "*":
                node = dict_mul(node, rhs)
                continue
            divisor = rhs.get((0,) * self.n)
            if divisor is None or len(rhs) != 1:
                raise ParseError("divisor must be a nonzero constant", pos)
            node = {g: Fraction(c) / divisor for g, c in node.items()}
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return {g: -c for g, c in self.factor().items()}
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            kind, text, pos = self.take()
            if kind != "number":
                raise ParseError("exponent must be a nonnegative integer", pos)
            return dict_pow(base, int(text), self.n)
        return base

    def atom(self):
        kind, text, pos = self.take()
        if kind == "number":
            value = int(text)
            return {(0,) * self.n: value} if value else {}
        if kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", pos)
            return {unit(self.n, self.variables[text]): 1}
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(
            f"expected a number, variable or '(', found "
            f"{text or 'end of input'!r}", pos)


def reference_parse_expression(text, variables):
    """``parse_expression`` as it was before the tree: every atom is an
    exponent dict and every operator one dict operation."""
    return _ReferenceParser(text, list(variables)).parse()


def reference_mul(a, b, upto=None):
    """Truncated Cauchy product of two series in one frame, term pair by
    term pair on exponent tuples: the oracle for ``TruncatedSeries.mul``."""
    t = min(a.trunc, b.trunc)
    if upto is not None:
        t = min(t, upto)
    return TruncatedSeries(a.n, a.center, t, dict_mul(a.coeffs, b.coeffs, t))


def reference_compose(g, germ):
    """Σ_κ g_κ · Π_i dev_i^κ_i from ``reference_mul`` products and plain
    sums over exponent tuples: the oracle for ``compose``."""
    t = min(g.trunc, germ.trunc)
    devs = [d.truncated(t) for d in germ.deviations()]
    out = {}
    for kappa, c in g.coeffs.items():
        if sum(kappa) > t:
            continue
        power = TruncatedSeries.constant(1, germ.n, germ.center, t)
        for dev, e in zip(devs, kappa):
            for _ in range(e):
                power = reference_mul(power, dev)
        for gamma, v in power.coeffs.items():
            out[gamma] = out.get(gamma, 0) + c * v
    return TruncatedSeries(germ.n, germ.center, t, out)


def series_det(rows):
    """Determinant of rows of series by Laplace expansion along the first
    row, each step one series sum of products: the oracle for the packed
    cofactors of ``adjugate``."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    return _sum_of_products(
        (-rows[0][j] if j % 2 else rows[0][j],
         series_det([[row[c] for c in range(k) if c != j] for row in rows[1:]]))
        for j in range(k))


def reference_adjugate(m):
    """Transposed cofactor matrix from ``series_det`` minors, [1] for 1x1."""
    k = len(m)
    if k == 1:
        e = m[0][0]
        return ((TruncatedSeries.constant(1, e.n, e.center, e.trunc),),)

    def cofactor(i, j):
        term = series_det([[row[c] for c in range(k) if c != i]
                           for r, row in enumerate(m) if r != j])
        return -term if (i + j) % 2 else term

    return tuple(tuple(cofactor(i, j) for j in range(k)) for i in range(k))


def reference_matmul(a, b):
    """Product of two square matrices with each entry one series sum of
    products: the oracle for the packed ``jacobian.matmul``."""
    cols = list(zip(*b))
    return tuple(tuple(_sum_of_products(zip(row, col)) for col in cols)
                 for row in a)


def identity_matrix(n_vars, center, trunc, size):
    one = TruncatedSeries.constant(1, n_vars, center, trunc)
    zero = TruncatedSeries(n_vars, center, trunc)
    return tuple(tuple(one if i == j else zero for j in range(size))
                 for i in range(size))


def assemble_H(table, f, beta):
    """Operator sum Σ_alpha T[beta, alpha] · D^alpha f, read off the table
    entry by entry: the reference for ``streamed_h_levels``."""
    beta = tuple(beta)
    total = TruncatedSeries(f.n, f.center, f.trunc)
    for alpha in enumerate_upto(f.n, sum(beta)):
        total = total + table.entries[(beta, alpha)].mul(f.derive(alpha))
    return total


def streamed_h_levels(f_series, max_beta_degree, work_degree, delta, adj):
    """Yield (m, {beta: H_beta}) for m = 1..max_beta_degree: the whole
    operator sums of ``cramerops.iter_h_levels``, unpacked from the level
    builder into series valid to degree work_degree - m at most; the
    reference for the pivots ``iter_h_levels`` reads off them."""
    builder, levels = _sum_levels(f_series, max_beta_degree, work_degree,
                                  delta, adj)
    for m, level in levels:
        yield m, {beta: builder._series(*h) for beta, h in level.items()}


def leibniz_table(germ, max_beta_degree, work_degree):
    """Operator table entries from the explicit row recurrence, on
    ``TruncatedSeries`` ``derive``, ``mul`` and ``+``:

        T[beta + e_j, alpha] = delta · Σ_i adj[i][j] · (D_i T[beta, alpha]
                               + T[beta, alpha - e_i])
                               - (2m - 1) · s_j · T[beta, alpha]

    with s_j = Σ_i adj[i][j] · D_i delta, from T[e_j, e_i] = adj[i][j] and
    T[e_j, 0] = 0 at the working degree: the oracle for
    ``cramerops.build_t_operators``."""
    n, center, w = germ.n, germ.center, work_degree
    prof = profile(germ)
    delta = prof.delta.truncated(w)
    adj = [[e.truncated(w) for e in row] for row in prof.adjugate]
    units = [unit(n, i) for i in range(n)]
    s = [sum((adj[i][j].mul(delta.derive(units[i])) for i in range(n)),
             TruncatedSeries(n, center, w)) for j in range(n)]
    table = {}
    for j in range(n):
        table[(units[j], (0,) * n)] = TruncatedSeries(n, center, w)
        for i in range(n):
            table[(units[j], units[i])] = adj[i][j]
    for m in range(1, max_beta_degree):
        absent = TruncatedSeries(n, center, w - m + 1)
        for beta_new in enumerate_degree(n, m + 1):
            j = next(k for k, e in enumerate(beta_new) if e)
            beta = mi_sub(beta_new, units[j])
            for alpha in enumerate_upto(n, m + 1):
                prev = table.get((beta, alpha), absent)
                total = TruncatedSeries(n, center, w - m)
                for i in range(n):
                    part = prev.derive(units[i])
                    down = mi_sub(alpha, units[i])
                    if down is not None:
                        part = part + table[(beta, down)]
                    total = total + adj[i][j].mul(part)
                table[(beta_new, alpha)] = (
                    delta.mul(total) - (2 * m - 1) * s[j].mul(prev))
    return table


def reference_monomial_records(table, g_degree):
    """Run the defining identity over every centred monomial g of degree
    <= g_degree, for every beta in the table, one (beta, kappa) record at a
    time: the oracle for ``cramerops.verify_identity_on_monomials``.

    Returns records (beta, kappa, residual_is_zero, checked_degree).  For
    g = (y - b)^kappa, f is the deviation power P_kappa and D^beta g composes
    to kappa!/(kappa - beta)! · P_{kappa - beta}; the powers, their
    derivatives and the delta-power products are tabulated, not per record.
    """
    germ = table.germ
    n = germ.n
    w = table.work_degree
    devs = list(germ.deviations())
    kappas = enumerate_upto(n, g_degree)
    powers = {(0,) * n: TruncatedSeries.constant(1, n, germ.center, germ.trunc)}
    for kappa in kappas:
        _monomial_power(kappa, powers,
                        lambda p, j: p.mul(devs[j], upto=germ.trunc))
    all_alphas = enumerate_upto(n, table.max_beta_degree)
    derivs = {(kappa, alpha): powers[kappa].derive(alpha)
                for kappa in kappas for alpha in all_alphas}
    delta = table.profile.delta
    records = []
    for m in range(1, table.max_beta_degree + 1):
        cap = w - m + 1
        dpow = _delta_power(delta.truncated(min(delta.trunc, cap)), 2 * m - 1)
        scaled = {d: dpow.mul(powers[d], upto=cap)
                  for d in kappas if sum(d) <= g_degree - m}
        zero = TruncatedSeries(n, germ.center, cap)
        alphas = [alpha for alpha in all_alphas if sum(alpha) <= m]
        for beta in enumerate_degree(n, m):
            for kappa in kappas:
                down = mi_sub(kappa, beta)
                lhs = zero if down is None else (
                    scaled[down] * (mi_factorial(kappa) // mi_factorial(down)))
                residual = lhs - _sum_of_products(
                    ((table.entries[(beta, alpha)], derivs[(kappa, alpha)])
                     for alpha in alphas), cap)
                records.append((beta, kappa, residual.is_zero, residual.trunc))
    return records


def reference_stratify(pmap, grid, degree=None):
    """Stratification from a fresh germ and a full profile at every grid
    point: the oracle for ``stratify``, which reads every point off the
    determinant and adjugate polynomials it builds once."""
    if degree is None:
        degree = pmap.default_profile_degree()
    buckets = {}
    singular = []
    for raw_point in grid:
        point = tuple(as_exact(p) for p in raw_point)
        try:
            prof = profile(pmap.germ_at(point, degree))
        except SingularJacobianError:
            singular.append(point)
            continue
        buckets.setdefault((prof.mu, prof.nu), []).append(
            StratumSample(point=point, mu=prof.mu, nu=prof.nu, alpha=prof.alpha))
    groups = []
    for mu, nu in sorted(buckets, key=lambda k: (-k[0], -k[1])):
        samples = buckets[(mu, nu)]
        alpha = samples[0].alpha
        if any(s.alpha != alpha for s in samples):
            alpha = None
        groups.append(StratumGroup(mu=mu, nu=nu, alpha=alpha, samples=samples))
    return Stratification(
        groups=groups, singular=singular, computed_at_degree=degree)


def random_series(rng, n, degree, center=None, span=4, density=0.7,
                  trunc=None):
    """Random exact series: integer coefficients, roughly `density` filled."""
    if center is None:
        center = (0,) * n
    if trunc is None:
        trunc = degree
    coeffs = {}
    for gamma in enumerate_upto(n, degree):
        if rng.random() < density:
            c = rng.randint(-span, span)
            if c:
                coeffs[gamma] = c
    return TruncatedSeries(n, center, trunc, coeffs)


def random_map(rng, n, trunc, deg=3, singular=False, max_mu=2):
    """Seeded random polynomial map germ at the origin with a usable profile.

    With ``singular`` the linear part of every component is dropped in one
    variable's favour so the determinant vanishes at the centre; maps whose
    determinant dies identically (or whose mu exceeds ``max_mu``) are
    redrawn, keeping the draw deterministic for a given rng state.
    """
    variables = ["x", "y", "z"][:n]
    while True:
        comps = []
        for _ in range(n):
            coeffs = {}
            for gamma in enumerate_upto(n, deg):
                if rng.random() < 0.6:
                    c = rng.randint(-3, 3)
                    if c:
                        coeffs[gamma] = c
            comps.append(Polynomial(n, coeffs))
        if singular:
            # kill the constant-and-linear data of the first component;
            # degree-2+ terms alone force the determinant to vanish at 0
            first = {g: c for g, c in comps[0].coeffs.items() if sum(g) >= 2}
            comps[0] = Polynomial(n, first)
        pm = PolynomialMap(comps)
        germ = pm.germ_at((0,) * n, trunc)
        try:
            prof = profile(germ)
        except SingularJacobianError:
            continue
        if singular:
            if prof.mu == 0 or prof.mu > max_mu:
                continue
        elif prof.mu != 0:
            continue
        return germ
