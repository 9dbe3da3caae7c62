"""Command line: job files in, deterministic JSON/CSV reports out.

Grammar for polynomial expressions: nonnegative integer literals, declared
variable names, '+', '-', '*', '/', '^' with nonnegative integer exponents,
and parentheses.  '/' divides by a nonzero constant ('3/2*x', 'x^2/3');
'^' binds tighter than '*' and '/', so '3/2^2' is 3/4.  No implicit
multiplication.

An expression is parsed into a tuple tree that records each node's
syntactic degree bound d (a product adds its factors' bounds, a power
multiplies its base's by the exponent, a sum takes the largest), then
expanded once in packed keys wide enough for d, through the product kernel
``pseries._products_into``, over plain ints with one common denominator.
A divisor is expanded where it is read, so it is checked in text order.
Before a product or power is formed, its term count is bounded by
min(t_a·t_b or comb(t - 1 + k, k), comb(n + d, n)); a bound over
``_MAX_TERMS`` is a ParseError at the operator.  A power's coefficient bits
are bounded too, by k·(⌈log2 Σ|num|⌉ + ⌈log2 den⌉) over its base; a bound
over ``_MAX_BITS`` is a ParseError at the '^'.  So a hostile power fails at
once instead of expanding.

``load_job`` reads every key of a job file before any work: the core keys,
then the payload through its command's entry in ``_PAYLOADS``, which gives
each key its reader, default and cap.  A bad or unknown key is an input
error there, so the handlers use read values and check nothing.

Exit codes: 0 success, 1 domain error (singular Jacobian, insufficient
truncation, failed verify), 2 input error (bad expression, bad job file).
Reports are byte-deterministic for a given job file: keys are sorted,
rationals print in canonical lowest terms, and any randomness is seeded
from the job.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cramerops import (
    build_t_operators,
    table_to_dict,
    verify_cramer_base,
    verify_identity_on_monomials,
    verify_order_bound,
    working_degree,
)
from .errors import GermRadiusError, JobError, ParseError
from .jacobian import jacobian_matrix, matmul, profile, profile_to_dict
from .mindex import enumerate_upto
from .polymap import Polynomial, PolynomialMap
from .pseries import (
    TruncatedSeries,
    _add_into,
    _chain_parts,
    _json_rational,
    _products_into,
    _scaled,
    _sorted_terms,
    _unpacked,
    as_exact,
    chain_rule_residuals,
    compose,
    series_from_dict,
    series_to_dict,
)
from .radius import (
    estimate_radius,
    scaling_fit,
    shells_to_csv,
    stratification_to_csv,
    stratify,
)
from .recovery import (
    extraction_witnesses,
    max_recoverable_degree,
    recover,
    report_to_dict,
)

COMMANDS = ("compose", "recover", "profile", "stratify", "radius", "verify")


# -- expression parsing -------------------------------------------------------


# one alternative per token kind; whitespace matches none and is skipped
_TOKEN = re.compile(
    r"(?P<number>\d+)|(?P<name>[^\W\d]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(text):
    """(kind, text, pos) triples ending in an 'end' token; an operator's
    kind is the operator itself."""
    out = []
    for m in _TOKEN.finditer(text):
        kind, tok, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", pos)
        out.append((tok if kind == "op" else kind, tok, pos))
    out.append(("end", "", len(text)))
    return out


# The most terms one product or power may expand to; a larger bound is
# refused before any product is formed.  The largest dense powers it admits,
# (1 + x)^999 and (1/3 + 2/7*x)^999, expand in 0.18 s and 1.7 s (Python 3.11
# on 2 shared cores).
_MAX_TERMS = 1000

# The largest coefficient-bit bound a power may have: (1/3 + 2/7*x)^999
# above bounds at 8991 bits and is admitted; (123456789/987654321 +
# 2/7*x)^999, which took 53 s, bounds at 58941 and 2^1000000000 at 10^9, and
# both are refused.
_MAX_BITS = 10000


def _comb_exceeds(a, b):
    """Whether comb(a, b) exceeds _MAX_TERMS, without forming a huge
    binomial: with b <= a - b each step at least doubles the partial
    binomial comb(a - b + i, i)."""
    b = min(b, a - b)
    c = 1
    for i in range(1, b + 1):
        c = c * (a - b + i) // i
        if c > _MAX_TERMS:
            return True
    return False


class _ExprParser:
    """Recursive descent to a tuple tree whose second item is the node's
    syntactic degree bound: ('const', 0, value), ('var', 1, index),
    ('sum', d, [(sign, node), ...]), ('prod', d, scalar, [(pos, node), ...])
    and ('pow', d, base, exponent, pos).  A product's factors carry the
    position of their '*' and a power the position of its '^', for the
    budget.  Constant factors and divisors fold into a product's scalar,
    and a nested sum into its parent sum."""

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
        node = self.expr()
        kind, text, pos = self.take()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", pos)
        return node

    def expr(self):
        terms, sign = [], 1
        while True:
            node = self.term()
            if (node[0] == "prod" and node[2] == -1 and len(node[3]) == 1
                    and node[3][0][1][0] == "sum"):
                sign, node = -sign, node[3][0][1]
            if node[0] == "sum":
                terms.extend((sign * s, t) for s, t in node[2])
            else:
                terms.append((sign, node))
            if self.peek() not in ("+", "-"):
                break
            sign = 1 if self.take()[0] == "+" else -1
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return ("sum", max(t[1][1] for t in terms), terms)

    def term(self):
        scalar, factors = 1, []
        op, pos = "*", None
        while True:
            node = self.factor()
            if op == "/":
                scalar = Fraction(scalar) / self.divisor(node, pos)
            elif node[0] == "const":
                scalar *= node[2]
            else:
                factors.append((pos, node))
            if self.peek() not in ("*", "/"):
                break
            op, _, pos = self.take()
        if not factors:
            return ("const", 0, scalar)
        if len(factors) == 1 and scalar == 1:
            return factors[0][1]
        return ("prod", sum(f[1][1] for f in factors), scalar, factors)

    def divisor(self, node, pos):
        """The value of a divisor, expanded where it is read."""
        if node[0] == "const":
            value = node[2]
        else:
            terms, den = _Expansion(self.n, node[1]).terms(node)
            value = Fraction(terms[0], den) if list(terms) == [0] else 0
        if not value:
            raise ParseError("divisor must be a nonzero constant", pos)
        return value

    def factor(self):
        kind, text, pos = self.take()
        if kind == "-":
            node = self.factor()
            if node[0] == "const":
                return ("const", 0, -node[2])
            return ("prod", node[1], -1, [(None, node)])
        if kind == "number":
            node = ("const", 0, int(text))
        elif kind == "name":
            if text not in self.variables:
                raise ParseError(f"unknown variable {text!r}", pos)
            node = ("var", 1, self.variables[text])
        elif kind == "(":
            node = self.expr()
            self.take(")")
        else:
            raise ParseError(
                f"expected a number, variable or '(', found "
                f"{text or 'end of input'!r}", pos)
        if self.peek() != "^":
            return node
        _, _, op_pos = self.take()
        kind, text, pos = self.take()
        if kind != "number":
            raise ParseError("exponent must be a nonnegative integer", pos)
        k = int(text)
        return ("pow", node[1] * k, node, k, op_pos)


class _Expansion:
    """Expands trees of degree bound <= ``degree`` in packed keys with fields
    wide enough for that bound, so every product term lies below
    ``limit``.  A value is (terms, den): a dict of packed key -> nonzero
    int over one positive common denominator, so products multiply plain
    ints."""

    def __init__(self, n, degree):
        self.n = n
        self.shift = max(degree, 1).bit_length()
        self.limit = (degree + 1) << n * self.shift

    def terms(self, node):
        kind = node[0]
        if kind == "const":
            value = node[2]
            return ({0: value.numerator} if value else {}), value.denominator
        if kind == "var":
            return {1 << self.n * self.shift | 1 << node[2] * self.shift: 1}, 1
        if kind == "sum":
            parts = [(sign, *self.terms(child)) for sign, child in node[2]]
            den = math.lcm(*(part[2] for part in parts))
            out = {}
            for sign, terms, d in parts:
                factor = sign * (den // d)
                if factor != 1:
                    terms = _scaled(terms, factor)
                _add_into(out, terms)
            return out, den
        if kind == "prod":
            return self.product(node)
        return self.power(node)

    def times(self, a, b):
        acc = {}
        _products_into(acc, a, b, self.limit)
        return _sorted_terms(acc)

    def check_budget(self, exceeds, degree, pos):
        if exceeds and _comb_exceeds(self.n + degree, self.n):
            raise ParseError(
                f"expansion would exceed the limit of {_MAX_TERMS} terms", pos)

    def product(self, node):
        _, _, scalar, factors = node
        num, den = scalar.numerator, scalar.denominator
        poly = None
        for pos, child in factors:
            part, d = self.terms(child)
            den *= d
            if not part or (len(part) == 1 and 0 in part):
                num *= part.get(0, 0)
            elif poly is None:
                poly, degree = sorted(part.items()), child[1]
            else:
                degree += child[1]
                self.check_budget(len(poly) * len(part) > _MAX_TERMS,
                                  degree, pos)
                poly = self.times(poly, sorted(part.items()))
        if poly is None:
            return ({0: num} if num else {}), den
        return _scaled(dict(poly), num), den

    def power(self, node):
        _, degree, base, k, pos = node
        terms, den = self.terms(base)
        if not k:
            return {0: 1}, 1
        if not terms or k == 1:  # no product to form
            return terms, den
        self.check_budget(_comb_exceeds(len(terms) - 1 + k, k), degree, pos)
        # (m - 1).bit_length() is ceil(log2 m); the result's numerators are
        # at most (sum |num|)^k and its denominator den^k
        bits = k * ((sum(map(abs, terms.values())) - 1).bit_length()
                    + (den - 1).bit_length())
        if bits > _MAX_BITS:
            raise ParseError(
                f"power would exceed the limit of {_MAX_BITS} coefficient bits",
                pos)
        base = sorted(terms.items())
        result = None
        den **= k
        while True:
            if k & 1:
                result = base if result is None else self.times(result, base)
            k >>= 1
            if not k:
                return dict(result), den
            base = self.times(base, base)

    def polynomial(self, node):
        """The tree's value, unpacked once, as a ``Polynomial``."""
        terms, den = self.terms(node)
        coeffs = _unpacked(terms.items(), self.n, self.shift)
        if den != 1:
            coeffs = {g: as_exact(Fraction(c, den)) for g, c in coeffs.items()}
        return Polynomial._raw(self.n, coeffs)


def parse_expression(text, variables):
    """Parse to an exact polynomial over the declared variables."""
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise JobError("variable names must be distinct")
    tree = _ExprParser(text, variables).parse()
    return _Expansion(len(variables), tree[1]).polynomial(tree)


def parse_polynomial(text, variables, center=None, degree=None):
    """Parse and materialize as a centred truncated series.

    Recentring is exact polynomial re-expansion.  The default centre is the
    origin and the default degree is the polynomial's own total degree.
    """
    poly = parse_expression(text, variables)
    n = len(variables)
    if center is None:
        center = (0,) * n
    if degree is None:
        degree = poly.degree()
    return poly.to_series(center, degree)


# -- job files ----------------------------------------------------------------

_CORE_KEYS = {"command", "n", "variables", "map", "center", "degree"}

# The most variables a job may have.  The adjugate expands n^2 cofactors by
# Laplace in the packed kernel and keeps each sub-determinant for the
# cofactors that share it, about n²·2^n products where the entries are
# dense.  A profile at degree 2 of the identity map took 0.11 s at n = 6, 7,
# 8 and 12, and a default verify of it 0.12 s at n = 6; of a dense mu = 1
# map (perfbench's random_map, seed 1) the profile took 0.84 s at n = 6 and
# 8.0 s at n = 7 (whole runs with start-up, Python 3.11 on 2 shared cores).
# The verify jobs under _MAX_BETAS bound n as well.
_MAX_N = 6

# The most points a ``grid_axes`` product may have: 100 x 100 axes stratify
# in 0.30 s and 300 x 300 in 1.3 s, and two 3000-value axes did not finish
# in 30 s.  A literal ``grid`` grows only with the job file.
_MAX_GRID_POINTS = 10_000

# The most betas a verify job's operator table may have, comb(n + max_beta,
# n) - 1 of them.  A beta's cost grows with n and with the germ's density,
# so no cap on max_beta alone fits every n.  Whole verify runs on dense
# mu = 1 maps at rational centres (perfbench's random_map, seed 1) took, at
# n = 2, 1.2 s for max_beta 6 (27 betas), 4.9 s for 7 (35) and 10.3 s for 8
# (44); at n = 3, 0.35 s for 3 (19) and 3.5 s for 4 (34); at n = 4, 1.2 s
# for 2 (14) and 8.1 s for 3 (34).  So the cap admits max_beta 30 at n = 1,
# 6 at n = 2, 3 at n = 3 and the default 2 at n = 4 to 6.  The slowest jobs
# it admits are that default on such maps: 15 s at n = 5 (20 betas) and
# 161 s at n = 6 (27), where max_beta 1 took 6.5 s; with mu = 0 at n = 6, 2
# took 0.49 s and 4 (209) 16 s.  Only a cap on n refuses those.
_MAX_BETAS = 30

# The largest extraction_max: verify builds delta, delta^3, ... as one
# chain, each power the last times delta², all capped at
# (2·extraction_max − 1)·mu, and the powers have more terms as n grows.  On
# the dense mu = 1 maps above at max_beta 1, extraction_max 10 took 0.14 s
# at n = 3, 0.38 s at n = 4 and 2.0 s at n = 5 (1.0 s at the default 3),
# the slowest measured it admits; 20 took 0.72 s at n = 3 and 17 s at n = 4
# (whole runs with start-up, Python 3.11 on 2 shared cores).
_MAX_EXTRACTION = 10


@dataclass
class JobSpec:
    command: str
    n: int
    variables: list
    map_exprs: list
    center: tuple
    degree: int
    payload: dict


def _job_int(value, name, minimum=None, maximum=None):
    """An integer job field; a bool, a non-int or a value below ``minimum``
    or above ``maximum`` is an input error."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bounds = " and ".join(f"{op} {v}" for op, v in
                              ((">=", minimum), ("<=", maximum))
                              if v is not None)
        wanted = f"an integer {bounds}" if bounds else "an integer"
        raise JobError(f"{name} must be {wanted}, got {value!r}")
    return value


def _exact_from_json(value, context):
    try:
        return _json_rational(value)
    except ValueError as exc:
        raise JobError(f"bad rational in {context}: {value!r}") from exc


def _job_point(point, field, n):
    """A point of ``n`` exact rationals, such as the centre or a grid point."""
    if not isinstance(point, list) or len(point) != n:
        raise JobError(f"{field} must list {n} rationals, got {point!r}")
    return tuple(_exact_from_json(c, field) for c in point)


def _refuse_unknown(keys, allowed, where):
    unknown = sorted(set(keys) - allowed)
    if unknown:
        raise JobError(f"unknown keys in {where}: "
                       + ", ".join(map(repr, unknown)))


def _integer(minimum, maximum=None):
    return lambda value, key, n: _job_int(value, key, minimum, maximum)


def _max_beta(value, key, n):
    """At most the largest max_beta with no more than ``_MAX_BETAS`` betas."""
    top = max(b for b in range(1, _MAX_BETAS + 1)
              if math.comb(n + b, n) - 1 <= _MAX_BETAS)
    return _job_int(value, key, 1, top)


def _flag(value, key, n):
    if not isinstance(value, bool):
        raise JobError(f"{key} must be true or false, got {value!r}")
    return value


def _job_names(names, key, n):
    """``n`` distinct nonempty variable names."""
    if (not isinstance(names, list) or len(names) != n
            or any(not isinstance(v, str) or not v for v in names)
            or len(set(names)) != n):
        raise JobError(f"{key} must be {n} distinct nonempty names")
    return list(names)


def _text(value, key, n):
    """Expression text; the handler parses it once ``--degree`` is known."""
    if not isinstance(value, str):
        raise JobError(f"{key} must be an expression string")
    return value


def _series_literal(literal, key, n):
    try:
        return series_from_dict(literal)
    except (ValueError, GermRadiusError) as exc:
        raise JobError(f"bad series literal in {key!r}: {exc}") from exc


def _grid(points, key, n):
    if not isinstance(points, list) or not points:
        raise JobError("grid must be a nonempty list of points")
    return tuple(_job_point(p, "grid point", n) for p in points)


def _grid_axes(axes, key, n):
    """The product of the axes, counted before any point is formed."""
    if (not isinstance(axes, list) or len(axes) != n
            or any(not isinstance(a, list) or not a for a in axes)):
        raise JobError(f"grid_axes must list {n} nonempty axes")
    count = math.prod(len(axis) for axis in axes)
    if count > _MAX_GRID_POINTS:
        raise JobError(f"grid_axes spans {count} points, more than the "
                       f"limit of {_MAX_GRID_POINTS}")
    exact_axes = [[_exact_from_json(c, key) for c in axis] for axis in axes]
    return tuple(itertools.product(*exact_axes))


def _family(members, key, n):
    """Radius family members as (t or None, {"f": series, "g": series})."""
    if not isinstance(members, list) or not members:
        raise JobError("family must be a nonempty list of members")
    out = []
    for idx, member in enumerate(members):
        where = f"family[{idx}]"
        if not isinstance(member, dict):
            raise JobError(f"{where} must be an object")
        _refuse_unknown(member, {"t", "f", "g"}, where)
        t = _exact_from_json(member["t"], f"{where}.t") if "t" in member else None
        out.append((t, {k: _series_literal(member[k], f"{where}.{k}", n)
                        for k in ("f", "g") if k in member}))
    return tuple(out)


# Each command's payload: the exclusive pair of which a job gives exactly
# one key, and every key with its reader and the default an absent key
# takes (a callable default is called with n; a pair key has none).  A
# reader takes (value, key, n) and returns what the handler uses; the caps
# are its maxima.  ``trace`` (a flag, default false) is valid for every
# command.
_PAYLOADS = {
    "compose": (("g", "g_expr"), {
        "g": (_series_literal, None), "g_expr": (_text, None),
        "image_variables": (_job_names, lambda n: (
            ["y"] if n == 1 else [f"y{i + 1}" for i in range(n)]))}),
    "recover": (("f", "f_expr"), {
        "f": (_series_literal, None), "f_expr": (_text, None),
        "target_degree": (_integer(0), None)}),
    "profile": ((), {}),
    "stratify": (("grid", "grid_axes"), {
        "grid": (_grid, None), "grid_axes": (_grid_axes, None),
        "profile_degree": (_integer(1), None)}),
    "radius": (("series", "family"), {
        "series": (_series_literal, None), "family": (_family, None),
        "window": (_integer(1), 10)}),
    "verify": ((), {
        "max_beta": (_max_beta, 2), "monomial_degree": (_integer(1), 4),
        "extraction_max": (_integer(1, _MAX_EXTRACTION), 3),
        "roundtrip_degree": (_integer(1), 3), "seed": (_integer(None), 0)}),
}


def load_job(path, command=None):
    """Read and check every key of a job file before any work."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise JobError(f"cannot read job file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"job file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise JobError("job file must hold a JSON object")
    job_command = data.get("command", command)
    if "command" in data and job_command is None:
        raise JobError("command must be a command name, got null")
    if job_command is None:
        raise JobError("no command given on the command line or in the job file")
    if command is not None and job_command != command:
        raise JobError(
            f"job file says command {job_command!r} but {command!r} was requested")
    if job_command not in COMMANDS:
        raise JobError(f"unknown command {job_command!r}")
    pair, readers = _PAYLOADS[job_command]
    readers = dict(readers, trace=(_flag, False))
    _refuse_unknown(data, _CORE_KEYS | set(readers), f"a {job_command} job")
    n = _job_int(data.get("n"), "n", 1, _MAX_N)
    variables = _job_names(data.get("variables"), "variables", n)
    map_exprs = data.get("map")
    if (not isinstance(map_exprs, list) or len(map_exprs) != n
            or any(not isinstance(e, str) for e in map_exprs)):
        raise JobError(f"map must be a list of {n} expression strings")
    center = _job_point(data.get("center"), "center", n)
    degree = _job_int(data.get("degree"), "degree", 1)
    if pair and sum(key in data for key in pair) != 1:
        raise JobError(f"a {job_command} job needs exactly one of "
                       f"{pair[0]!r} and {pair[1]!r}")
    payload = {}
    for key, (read, default) in readers.items():
        if key in data:
            payload[key] = read(data[key], key, n)
        elif key not in pair:
            payload[key] = default(n) if callable(default) else default
    return JobSpec(command=job_command, n=n, variables=variables,
                   map_exprs=list(map_exprs), center=center, degree=degree,
                   payload=payload)


# -- command handlers ---------------------------------------------------------


class _JobContext:
    def __init__(self, job, out_dir, trace=False):
        self.job = job
        self.out = Path(out_dir)
        self.trace = trace or job.payload["trace"]
        self.pmap = PolynomialMap(
            [parse_expression(e, job.variables) for e in job.map_exprs])

    def germ(self, degree=None):
        return self.pmap.germ_at(self.job.center,
                                 self.job.degree if degree is None else degree)

    def profiled(self):
        """The germ at the job degree, or at the map's default profile
        degree when that is higher, and its Jacobian profile."""
        germ = self.germ(max(self.job.degree,
                             self.pmap.default_profile_degree()))
        return germ, profile(germ)


def _cmd_compose(ctx):
    job, germ = ctx.job, ctx.germ()
    g = job.payload["g"] if "g" in job.payload else parse_polynomial(
        job.payload["g_expr"], job.payload["image_variables"],
        germ.image_point, job.degree)
    return {"command": "compose", "f": series_to_dict(compose(g, germ))}, {}


def _cmd_profile(ctx):
    return {"command": "profile",
            "profile": profile_to_dict(ctx.profiled()[1])}, {}


def _cmd_recover(ctx):
    job = ctx.job
    f = job.payload["f"] if "f" in job.payload else parse_polynomial(
        job.payload["f_expr"], job.variables, job.center, job.degree)
    _, prof = ctx.profiled()
    target = job.payload["target_degree"]
    if target is None:
        target = max_recoverable_degree(prof.mu, f.trunc)
    germ = ctx.germ(max(working_degree(prof.mu, max(target, 1)) + 1, job.degree))
    report = recover(germ, f, target, trace=ctx.trace)
    return {
        "command": "recover",
        "profile": profile_to_dict(prof),
        "recovery": report_to_dict(report),
    }, {}


def _cmd_stratify(ctx):
    job = ctx.job
    points = job.payload.get("grid") or job.payload["grid_axes"]
    strat = stratify(ctx.pmap, points, degree=job.payload["profile_degree"])
    report = {
        "command": "stratify",
        "computed_at_degree": strat.computed_at_degree,
        "strata": [
            {
                "mu": grp.mu,
                "nu": grp.nu,
                "alpha": list(grp.alpha) if grp.alpha is not None else None,
                "points": [[str(Fraction(c)) for c in s.point]
                           for s in grp.samples],
            }
            for grp in strat.groups
        ],
        "singular_points": [[str(Fraction(c)) for c in p]
                            for p in strat.singular],
    }
    files = {"strata.csv": stratification_to_csv(strat, job.variables)}
    return report, files


def _fit_entry(rows, x, y):
    """One scaling fit as a report entry, or the error that stopped it."""
    try:
        fit = scaling_fit(rows, x=x, y=y)
    except GermRadiusError as exc:
        return {"error": str(exc)}
    return {"slope": fit.slope, "intercept": fit.intercept,
            "max_abs_residual": fit.max_abs_residual}


def _cmd_radius(ctx):
    job = ctx.job
    window = job.payload["window"]
    if "series" in job.payload:
        est = estimate_radius(job.payload["series"], window=window)
        report = {
            "command": "radius",
            "window": est.window,
            "estimate": est.estimate,
            "nonzero_shells": len(est.per_shell),
            "note": est.note,
        }
        return report, {"shells.csv": shells_to_csv(est)}
    members = []
    csv_parts = ["label,degree,shell_value"]
    fit_rows = []
    for idx, (t_val, member) in enumerate(job.payload["family"]):
        row = {"t": str(Fraction(t_val)) if t_val is not None else None}
        for key, series in member.items():
            est = estimate_radius(series, window=window)
            row[f"r_{key}"] = est.estimate
            csv_parts.extend(
                f"{idx}:{key},{d},{v!r}" for d, v in est.per_shell)
        members.append(row)
        fit_rows.append((t_val, row.get("r_f"), row.get("r_g")))
    fits = {}
    if all(rf is not None and rg is not None for _, rf, rg in fit_rows):
        fits["log_rg_vs_log_rf"] = _fit_entry(
            [(0, rf, rg) for _, rf, rg in fit_rows], "r_f", "r_g")
    if all(t is not None for t, _, _ in fit_rows):
        by_t = [(abs(Fraction(t)), rf, rg) for t, rf, rg in fit_rows]
        for key, pos in (("r_f", 1), ("r_g", 2)):
            if all(row[pos] is not None for row in fit_rows):
                fits[f"log_{key}_vs_log_t"] = _fit_entry(by_t, "t", key)
    return ({"command": "radius", "window": window, "members": members,
             "fits": fits},
            {"shells.csv": "\n".join(csv_parts) + "\n"})


def _random_series(rng, n, center, degree, trunc=None):
    coeffs = {}
    for gamma in enumerate_upto(n, degree):
        c = rng.randint(-3, 3)
        if c:
            coeffs[gamma] = c
    coeffs[(0,) * n] = coeffs.get((0,) * n, 0) or 1
    return TruncatedSeries(n, center, degree if trunc is None else trunc,
                           coeffs)


def _cmd_verify(ctx):
    job = ctx.job
    max_beta, extraction_max, roundtrip_degree = (job.payload[key] for key in (
        "max_beta", "extraction_max", "roundtrip_degree"))
    germ, prof = ctx.profiled()
    work = working_degree(prof.mu, max(max_beta, roundtrip_degree))
    germ_degree = max(work + 1, (2 * extraction_max - 1) * prof.mu + 1,
                      job.degree)
    if germ.trunc != germ_degree:
        germ, prof = ctx.germ(germ_degree), None
    # one germ and one profile serve the table, every check and the round
    # trip; the chain rule and Cramer's rule read the same compositions
    table = build_t_operators(germ, max_beta, work_degree=work, prof=prof)
    prof = table.profile
    rng = random.Random(job.payload["seed"])
    b = germ.image_point
    g_rand = _random_series(rng, job.n, b, 3)
    parts = _chain_parts(g_rand, germ)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    residuals = chain_rule_residuals(g_rand, germ, parts=parts)
    record("chain_rule", all(r.is_zero for r in residuals),
           f"{len(residuals)} coordinate residuals, zero to degree "
           f"{min(r.trunc for r in residuals)}")
    residuals = verify_cramer_base(germ, g_rand, prof, parts=parts)
    record("cramer_base", all(r.is_zero for r in residuals),
           f"{len(residuals)} column residuals, zero to degree "
           f"{min(r.trunc for r in residuals)}")
    jac = jacobian_matrix(germ)
    adj = prof.adjugate
    off_diagonal = prof.delta * 0
    want = tuple(tuple(prof.delta if i == j else off_diagonal
                       for j in range(job.n)) for i in range(job.n))
    record("adjugate_identity", matmul(jac, adj) == want == matmul(adj, jac),
           "J·adj and adj·J against det·I")
    results = verify_identity_on_monomials(table, job.payload["monomial_degree"])
    record("defining_identity", all(r[2] for r in results),
           f"{len(results)} (beta, monomial) pairs")
    bounds = verify_order_bound(table)
    record("order_bound", all(c.passed for c in bounds),
           f"{len(bounds)} table entries")
    witnesses = extraction_witnesses(prof, extraction_max)
    record("extraction", all(wt.passed for wt in witnesses),
           f"pivot structure for m <= {extraction_max}")
    g0 = _random_series(rng, job.n, b, roundtrip_degree, trunc=germ.trunc - 1)
    f0 = compose(g0, germ)
    rec = recover(germ, f0, roundtrip_degree, prof=prof)
    round_ok = (rec.g_series.coeffs == g0.coeffs) and rec.residual.is_zero
    record("round_trip", round_ok,
           f"random composite recovered to degree {roundtrip_degree}")
    report = {
        "command": "verify",
        "work_degree": work,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
    files = {}
    if ctx.trace:
        files["table.json"] = json.dumps(
            table_to_dict(table), indent=2, sort_keys=True) + "\n"
    return report, files


_HANDLERS = {
    "compose": _cmd_compose,
    "profile": _cmd_profile,
    "recover": _cmd_recover,
    "stratify": _cmd_stratify,
    "radius": _cmd_radius,
    "verify": _cmd_verify,
}


def run_job(job, out_dir, degree_override=None, window_override=None,
            trace=False):
    """Run one job, write report.json (and any CSV files), return the report."""
    if degree_override is not None:
        job.degree = _job_int(degree_override, "--degree", 1)
    if window_override is not None:
        job.payload["window"] = _job_int(window_override, "--window", 1)
    ctx = _JobContext(job, out_dir, trace=trace)
    report, files = _HANDLERS[job.command](ctx)
    ctx.out.mkdir(parents=True, exist_ok=True)
    (ctx.out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, text in files.items():
        (ctx.out / name).write_text(text)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="germ-radius",
        description="Composite power series recovery, Jacobian vanishing "
                    "profiles, and convergence-radius estimation.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--job", required=True, help="job file (JSON)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--degree", type=int, default=None,
                        help="override the job's working truncation degree")
    parser.add_argument("--window", type=int, default=None,
                        help="root-test window (radius jobs)")
    parser.add_argument("--trace", action="store_true",
                        help="include per-coefficient traces / table dumps")
    args = parser.parse_args(argv)
    try:
        job = load_job(args.job, args.command)
        report = run_job(job, args.out, degree_override=args.degree,
                         window_override=args.window, trace=args.trace)
    except (JobError, ParseError) as exc:
        print(f"input error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except GermRadiusError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    if job.command == "verify" and not report.get("passed", True):
        print("verify: FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
