"""The three benchmark workloads: seeded inputs, operations and oracles.

Each workload turns a seed into a pool of inputs with plain Python (the
library only wraps generated coefficient tables as series), runs one
user-level operation per input through the library's public names, and checks
the output against an oracle that does not use the code under test.  The pool
is built in rounds: every round holds one input per shape (degree, dimension,
job kind) in an order shuffled by the seed, and the timed loop runs whole
rounds, so every run sees the same mix of shapes.  A run that outlasts the
pool repeats inputs; the library keeps no caches between calls.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

VARIABLES = ("x", "y", "z")


class Mismatch(Exception):
    """An operation's output disagreed with its oracle."""


def require(condition, message):
    if not condition:
        raise Mismatch(message)


# -- shared oracle helpers -----------------------------------------------------


def binomial_sqrt_coefficients(a, degree):
    """Taylor coefficients of sqrt(y) at y = a^2 (the branch through a), in
    closed form: binom(1/2, k) * a^(1 - 2k)."""
    out = {}
    b = Fraction(1)
    for k in range(degree + 1):
        if k:
            b = b * (Fraction(1, 2) - (k - 1)) / k
        out[(k,)] = b * a ** (1 - 2 * k)
    return out


def root_test(coefficients, window=10):
    """Independent root-test radius: the median of |c_d|^(-1/d) over the last
    ``window`` degrees, computed from the exact values through logarithms."""
    shells = {}
    for index, c in coefficients.items():
        d = sum(index)
        if d and c:
            c = Fraction(c)
            log_mag = math.log(abs(c.numerator)) - math.log(c.denominator)
            shells[d] = max(shells.get(d, -math.inf), log_mag)
    tail = sorted(shells)[-window:]
    return statistics.median(math.exp(-shells[d] / d) for d in tail)


def close(x, y, rel=1e-9):
    return abs(x - y) <= rel * max(abs(x), abs(y))


def rational_text(value):
    return str(Fraction(value))


# -- random polynomial maps with a known vanishing profile ----------------------


def _determinant(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _sign_matrix(rng, n):
    """A nonsingular n x n matrix of random signs.  Every entry is +-1 and
    |det| is 2^(n-1) for n <= 3, so all draws are equally dense."""
    while True:
        m = [[rng.choice((-1, 1)) for _ in range(n)] for _ in range(n)]
        if _determinant(m):
            return m


def _kernel_of_first_rows(lmat):
    """k = L^(-1) e_n, the direction the first n-1 rows of L annihilate."""
    n = len(lmat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == n - 1))]
           for i, row in enumerate(lmat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def _shift_text(name, c):
    """The text of name - c."""
    return name if c == 0 else f"({name} - {c})" if c > 0 else f"({name} + {-c})"


def _sum_text(terms):
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


def _linear_text(coeffs, atoms):
    return "(" + _sum_text(
        [f"{c}*{a}" for c, a in zip(coeffs, atoms) if c]) + ")"


@dataclass
class PolyMapSpec:
    """A square polynomial map phi = M * psi(L * (x - c)) + b.

    psi_i = u_i +- u_(i+1)^2 (indices cyclic), except psi_n = u_n^2 +- u_1^3
    when mu = 1.  L and M are nonsingular sign matrices, so the
    determinant's vanishing order at c is exactly mu, and for mu = 1 the
    linear part of phi annihilates ``kernel``.  Only signs, the centre and
    the image are drawn: the structure, and so the cost, is fixed by n and
    mu.
    """

    n: int
    mu: int
    exprs: list
    center: tuple
    image: tuple
    kernel: list


def _small_rational(rng, span=2, dens=(1, 2, 3)):
    return Fraction(rng.randint(-span * 3, span * 3), rng.choice(dens))


def random_map(rng, n, mu):
    names = VARIABLES[:n]
    center = tuple(_small_rational(rng) for _ in range(n))
    image = tuple(rng.randint(-2, 2) for _ in range(n))
    lmat = _sign_matrix(rng, n)
    mmat = _sign_matrix(rng, n)
    shifted = [_shift_text(v, c) for v, c in zip(names, center)]
    us = [_linear_text(row, shifted) for row in lmat]
    psi = []
    for i in range(n):
        sign = rng.choice(("+", "-"))
        if mu == 1 and i == n - 1:
            psi.append(f"({us[i]}^2 {sign} {us[0]}^3)")
        else:
            psi.append(f"({us[i]} {sign} {us[(i + 1) % n]}^2)")
    exprs = []
    for i in range(n):
        body = _sum_text([f"{c}*{p}" for c, p in zip(mmat[i], psi) if c])
        exprs.append(_sum_text([body, str(image[i])]) if image[i] else body)
    return PolyMapSpec(n=n, mu=mu, exprs=exprs, center=center, image=image,
                       kernel=_kernel_of_first_rows(lmat))


def random_integer_coeffs(rng, n, degree, span=3):
    """Dense random integer coefficients on every index of degree <= degree,
    plain tuples in graded order (no library code)."""
    out = {}
    for d in range(degree + 1):
        for index in _indices_of_degree(n, d):
            c = rng.randint(-span, span)
            if c:
                out[index] = c
    return out


def _indices_of_degree(n, d):
    if n == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d + 1)
            for rest in _indices_of_degree(n - 1, d - first)]


def working_degree(mu, target):
    """Truncation F and the operator levels need to reach ``target``: the
    working rule (2B - 1)·mu + B of the recovery contract."""
    return (2 * target - 1) * mu + target


class Workload:
    """A workload provides generate(gr, rng, workdir) -> pool of inputs,
    trace_set(pool) -> its first round, small(pool) -> a cheap input,
    operate(gr, inp) -> output and check(inp, output) -> checked value;
    this base class holds the defaults for the other hooks."""

    writes_reports = False  # check() returns the bytes of report files

    def prepare_oracles(self, pool):
        """Compute expected outputs after the timed set-up."""

    def closing(self, gr, completed):
        """A check over all (input, checked value) pairs of a run; returns
        a note to print or None."""
        return None


# -- workload: sqrt_law --------------------------------------------------------


@dataclass
class SqrtInput:
    a: Fraction
    degree: int
    expected: dict = field(default=None, repr=False)
    expected_radius: float = None

    def describe(self):
        return f"a={self.a} B={self.degree}"


class SqrtLaw(Workload):
    """f(x) = x through x -> x^2 at a seeded centre a: recover the square-root
    series, estimate its radius, and fit the radius law across centres."""

    name = "sqrt_law"
    why = ("1-D and dense: a few long products whose integers grow with the "
           "degree, so operator levels and big-integer TruncatedSeries.mul "
           "dominate.")
    # Slot j of round r has B = 40 + 4j + (r + s_j) mod 4, with s_j drawn
    # once per slot, so the costs spread evenly with no gaps for the tail to
    # fall into, and any four consecutive rounds hold every B in 40..75 once.
    # A run then sees nearly the same degrees on every seed; drawing B
    # afresh per round moved the median operation's degree between seeds.
    degree_steps = tuple(range(40, 73, 4))
    rounds = 16
    # The root test over degrees <= 75 overestimates a^2 by the factor
    # (2 sqrt(pi) d^(3/2) / |a|)^(1/d), between 1.1 and 1.3 for |a| >= 1/16
    # and d >= 31; the acceptance tests quote 10% only at 200 coefficients.
    radius_ratio = (1.0, 1.4)
    slope_tolerance = 0.1

    def generate(self, gr, rng, workdir):
        pool = []
        shifts = {step: rng.randrange(4) for step in self.degree_steps}
        for r in range(self.rounds):
            for step in rng.sample(self.degree_steps, len(self.degree_steps)):
                degree = step + (r + shifts[step]) % 4
                q = rng.randint(2, 16)
                a = Fraction(rng.randint(1, q - 1), q) * rng.choice((1, -1))
                pool.append(SqrtInput(a, degree))
        return pool

    def prepare_oracles(self, pool):
        for inp in pool:
            inp.expected = binomial_sqrt_coefficients(inp.a, inp.degree)
            inp.expected_radius = root_test(inp.expected)

    def trace_set(self, pool):
        """The first round: one input per shape."""
        return pool[:len(self.degree_steps)]

    def small(self, pool):
        return min(pool, key=lambda inp: inp.degree)

    def operate(self, gr, inp):
        a = inp.a
        square = gr.MapGerm([gr.cli.parse_polynomial(
            "x^2", ["x"], center=(a,), degree=inp.degree + 1)])
        f = gr.cli.parse_polynomial("x", ["x"], center=(a,), degree=inp.degree)
        report = gr.recover(square, f, inp.degree)
        return report, gr.estimate_radius(report.g_series).estimate

    def check(self, inp, out):
        report, radius = out
        g = report.g_series
        require(g.center == (inp.a ** 2,), f"G centred at {g.center}")
        require(g.coeffs == inp.expected, "G differs from the binomial series")
        require(report.residual.is_zero, "nonzero recomposition residual")
        require(close(radius, inp.expected_radius),
                f"radius {radius} vs independent root test {inp.expected_radius}")
        ratio = radius / float(inp.a ** 2)
        lo, hi = self.radius_ratio
        require(lo <= ratio <= hi, f"r_G / a^2 = {ratio}")
        return radius

    def closing(self, gr, completed):
        """Scaling fit of log r_G against log |a| over the distinct centres
        run; the exponent must be lambda = 2."""
        family = {}
        for inp, radius in completed:
            family[(inp.a, inp.degree)] = (abs(inp.a), 1.0, radius)
        if len(family) < 2:
            return "scaling fit skipped: fewer than two centres"
        fit = gr.scaling_fit(list(family.values()), x="t", y="r_g")
        require(abs(fit.slope - 2.0) <= self.slope_tolerance,
                f"scaling exponent {fit.slope}, expected 2")
        return f"scaling fit over {len(family)} centres: slope {fit.slope:.4f}"


# -- workload: roundtrip_nd ----------------------------------------------------


@dataclass
class RoundTripInput:
    kind: str  # "composite" or "non_composite"
    spec: PolyMapSpec
    degree: int
    work: int
    g: object = None  # TruncatedSeries G centred at the image (composite)
    f: object = None  # TruncatedSeries F centred at the source (non-composite)

    def describe(self):
        s = self.spec
        return (f"{self.kind} n={s.n} mu={s.mu} B={self.degree} "
                f"center=({', '.join(map(str, s.center))}) map={s.exprs}")


class RoundTripND(Workload):
    """compose then recover on seeded 2-D and 3-D polynomial maps; about one
    operation in five feeds a non-composite F to a singular map instead."""

    name = "roundtrip_nd"
    why = ("n-D and sparse: many (beta, alpha) operator entries and "
           "multivariate products with small coefficients, where building "
           "exponent tuples dominates.")
    # (kind, n, mu, B): B is bounded per dimension and mu so that no single
    # draw runs for seconds (3-D, mu = 1 costs about 60 s at B = 5).
    shapes = (
        ("composite", 2, 0, 5), ("composite", 2, 0, 6),
        ("composite", 2, 0, 7), ("composite", 2, 0, 8),
        ("composite", 2, 1, 3), ("composite", 2, 1, 4),
        ("composite", 3, 0, 3), ("composite", 3, 0, 4),
        ("composite", 3, 1, 2),
        ("non_composite", 2, 1, 3), ("non_composite", 2, 1, 4),
        ("non_composite", 3, 1, 2),
    )
    rounds = 8

    def generate(self, gr, rng, workdir):
        pool = []
        for _ in range(self.rounds):
            for kind, n, mu, degree in rng.sample(self.shapes, len(self.shapes)):
                spec = random_map(rng, n, mu)
                work = working_degree(mu, degree)
                inp = RoundTripInput(kind, spec, degree, work)
                if kind == "composite":
                    inp.g = gr.TruncatedSeries(
                        n, spec.image, work,
                        random_integer_coeffs(rng, n, degree))
                else:
                    coeffs = random_integer_coeffs(rng, n, work)
                    units = [tuple(int(i == j) for j in range(n))
                             for i in range(n)]
                    if not sum(coeffs.get(u, 0) * k
                               for u, k in zip(units, spec.kernel)):
                        j = next(i for i, k in enumerate(spec.kernel) if k)
                        coeffs[units[j]] = coeffs.get(units[j], 0) + 1
                    inp.f = gr.TruncatedSeries(n, spec.center, work, coeffs)
                pool.append(inp)
        return pool

    def trace_set(self, pool):
        return pool[:len(self.shapes)]

    def small(self, pool):
        return next(inp for inp in pool
                    if (inp.kind, inp.spec.n, inp.spec.mu, inp.degree)
                    == ("composite", 2, 0, 5))

    def operate(self, gr, inp):
        spec = inp.spec
        names = list(VARIABLES[:spec.n])
        pmap = gr.PolynomialMap(
            [gr.cli.parse_expression(e, names) for e in spec.exprs])
        germ = pmap.germ_at(spec.center, inp.work + 1)
        f = gr.compose(inp.g, germ) if inp.kind == "composite" else inp.f
        return gr.recover(germ, f, inp.degree)

    def check(self, inp, report):
        g = report.g_series
        require(g.center == inp.spec.image, f"G centred at {g.center}")
        if inp.kind == "composite":
            require(g.coeffs == inp.g.coeffs, "recovered G differs from the seeded G")
            require(report.residual.is_zero, "nonzero residual on a composite")
        else:
            # The linear part of F is outside the row space of the map's
            # linear part, so no G can match it at degree 1.
            require(not report.residual.is_zero,
                    "non-composite F was not flagged")
            require(any(sum(i) == 1 for i in report.residual.coeffs),
                    "residual misses the degree-1 obstruction")
        return None


# -- workload: cli_jobs --------------------------------------------------------


@dataclass
class JobInput:
    label: str
    path: Path
    out: Path
    oracle: object  # callable(report dict) -> None, raising Mismatch
    first_files: dict = None

    def describe(self):
        return f"{self.label} job={self.path.name}"


def _output_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _expect_profile(mu, nu, lam):
    def oracle(report):
        p = report["profile"]
        require((p["mu"], p["nu"], p["lambda"]) == (mu, nu, lam),
                f"profile {p}, expected mu={mu} nu={nu} lambda={lam}")
    return oracle


def _expect_passed(report):
    require(report["passed"] is True, "verify did not pass")
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    require(not failed, f"verify checks failed: {failed}")


def _expect_recovered(coefficients):
    want = {k[0]: Fraction(v) for k, v in coefficients.items() if v}

    def oracle(report):
        rec = report["recovery"]
        got = {t["index"][0]: Fraction(t["coeff"])
               for t in rec["g_series"]["terms"]}
        require(got == want, "recovered G differs from its closed form")
        require(rec["composite_within_checked_degree"] is True,
                "nonzero residual")
    return oracle


def _expect_radius(value):
    def oracle(report):
        require(close(report["estimate"], value, 1e-12),
                f"radius {report['estimate']}, expected {value}")
    return oracle


def _expect_family_slopes(report):
    fits = report["fits"]
    for key, want in (("log_rg_vs_log_rf", 2.0), ("log_r_f_vs_log_t", 1.0),
                      ("log_r_g_vs_log_t", 2.0)):
        require(abs(fits[key]["slope"] - want) <= 1e-9,
                f"{key} slope {fits[key]}, expected {want}")


def _expect_strata(singular_points, regular_points):
    """Two strata: (mu, nu) = (1, 0) on the singular hyperplane, (0, 0) off it."""
    def as_set(points):
        return {tuple(rational_text(c) for c in p) for p in points}

    def oracle(report):
        strata = report["strata"]
        require([(s["mu"], s["nu"]) for s in strata] == [(1, 0), (0, 0)],
                f"strata {[(s['mu'], s['nu']) for s in strata]}")
        require(as_set(strata[0]["points"]) == as_set(singular_points),
                "wrong points on the singular stratum")
        require(as_set(strata[1]["points"]) == as_set(regular_points),
                "wrong points on the regular stratum")
        require(report["singular_points"] == [], "unexpected singular points")
    return oracle


def _series_literal(n, coeffs, degree):
    return {"n": n, "center": ["0"] * n, "degree": degree,
            "terms": [{"index": list(i), "coeff": str(c)}
                      for i, c in sorted(coeffs.items(),
                                         key=lambda kv: (sum(kv[0]), kv[0]))]}


def _base_job(command, n, exprs, center, degree):
    return {"command": command, "n": n, "variables": list(VARIABLES[:n]),
            "map": exprs, "center": [rational_text(c) for c in center],
            "degree": degree}


class CliJobs(Workload):
    """In-process load_job + run_job on job files: the six demo jobs plus
    seeded verify, stratify, profile and radius jobs on small maps."""

    name = "cli_jobs"
    why = ("Whole CLI jobs where recover is a small share: parser, polymap "
           "re-expansion, profile, whole operator tables for verify, radius "
           "and report writing.")
    writes_reports = True
    # Every round holds the six demo jobs and a fresh draw of each seeded
    # job.  A seeded job's cost moves by up to 15% between draws; with one
    # draw per run, op_p50_s and ops_per_s followed the seed.  Over eight
    # draws they do not.
    rounds = 8
    demo_dir = Path(__file__).resolve().parent.parent / "demos" / "jobs"

    def demo_jobs(self):
        sqrt_half = binomial_sqrt_coefficients(Fraction(1, 2), 40)
        return {
            "profile_square": _expect_profile(1, 0, 2),
            "radius_geometric": _expect_radius(0.25),
            "recover_geometric": _expect_recovered(
                {(k,): 4 ** k for k in range(4)}),
            "recover_sqrt_offcenter": _expect_recovered(sqrt_half),
            "stratify_blowup": _expect_strata(
                [(0, y) for y in ("-1", "-1/2", "0", "1/2", "1")],
                [(x, y) for x in ("-1", "-1/2", "1/2", "1")
                 for y in ("-1", "-1/2", "0", "1/2", "1")]),
            "verify_blowup": _expect_passed,
        }

    def seeded_jobs(self, rng):
        """The seeded radius and stratify sizes put the median operation on
        demo:verify_blowup (about 9 ms), between radius_2d and verify_2d_mu0.
        At their first sizes the median was a 5 ms stratify job, a tenth of
        it creating two files, and it drifted with the disk's load."""
        jobs = []
        # profile: a k-th power in one coordinate of a 2-D and a 3-D map has
        # mu = k - 1, nu = 0, lambda = k on that coordinate's zero set.
        for n in (2, 3):
            k = rng.randint(2, 5)
            j = rng.randrange(n)
            exprs = [f"{v}^{k}" if i == j else v
                     for i, v in enumerate(VARIABLES[:n])]
            center = [0 if i == j else _small_rational(rng) for i in range(n)]
            jobs.append((f"profile_{n}d", _base_job("profile", n, exprs, center, 4),
                         _expect_profile(k - 1, 0, k)))
        # radius: a 2-D series with coefficients m^|gamma| has radius 1/m.
        m = rng.randint(2, 9)
        coeffs = {i: m ** sum(i) for d in range(37) for i in _indices_of_degree(2, d)}
        job = _base_job("radius", 2, ["x", "y"], (0, 0), 4)
        job["series"] = _series_literal(2, coeffs, 36)
        jobs.append(("radius_2d", job, _expect_radius(1 / m)))
        # radius family: f geometric with ratio m, g with ratio m^2, t = 1/m.
        ms = rng.sample(range(2, 10), 3)
        job = _base_job("radius", 1, ["x"], (0,), 4)
        job["family"] = [
            {"t": f"1/{m}",
             "f": _series_literal(1, {(d,): m ** d for d in range(121)}, 120),
             "g": _series_literal(1, {(d,): m ** (2 * d) for d in range(121)}, 120)}
            for m in ms]
        jobs.append(("radius_family", job, _expect_family_slopes))
        # stratify: det J = x - c, so the grid points with x = c form the
        # (1, 0) stratum and the rest the (0, 0) stratum.
        for n, per_axis in ((2, 7), (3, 3)):
            c = _small_rational(rng)
            r = rng.randint(-3, 3)
            last = VARIABLES[n - 1]
            exprs = list(VARIABLES[:n - 1]) + [f"{_shift_text('x', c)}*{last} + {r}*x"]
            axes = []
            for i in range(n):
                axis = set()
                while len(axis) < per_axis:
                    v = _small_rational(rng)
                    if v != c:
                        axis.add(v)
                axes.append(sorted(axis | ({c} if i == 0 else set())))
            points = [()]
            for axis in axes:
                points = [p + (v,) for p in points for v in axis]
            job = _base_job("stratify", n, exprs, [0] * n, 4)
            job["grid_axes"] = [[rational_text(v) for v in axis] for axis in axes]
            jobs.append((f"stratify_{n}d", job, _expect_strata(
                [p for p in points if p[0] == c],
                [p for p in points if p[0] != c])))
        # verify: the identity suite on random maps with known mu.
        for n, mu in ((2, 0), (2, 1), (3, 0)):
            spec = random_map(rng, n, mu)
            job = _base_job("verify", n, spec.exprs, spec.center, 4)
            job.update(max_beta=2, monomial_degree=3, extraction_max=2,
                       roundtrip_degree=2, seed=rng.randrange(1000))
            jobs.append((f"verify_{n}d_mu{mu}", job, _expect_passed))
        return jobs

    def generate(self, gr, rng, workdir):
        pool = []
        for r in range(self.rounds):
            batch = []
            for name, oracle in self.demo_jobs().items():
                batch.append(JobInput(f"demo:{name}",
                                      self.demo_dir / f"{name}.json",
                                      workdir / "out" / f"{name}_r{r}", oracle))
            for name, job, oracle in self.seeded_jobs(rng):
                path = workdir / f"{name}_r{r}.json"
                path.write_text(json.dumps(job, indent=2, sort_keys=True) + "\n")
                batch.append(JobInput(f"seeded:{name}", path,
                                      workdir / "out" / f"{name}_r{r}", oracle))
            pool.extend(rng.sample(batch, len(batch)))
        return pool

    def trace_set(self, pool):
        """The first round: the six demo jobs and one draw of each seeded job."""
        return pool[:len(pool) // self.rounds]

    def small(self, pool):
        return next(inp for inp in pool if inp.label == "demo:verify_blowup")

    def operate(self, gr, inp):
        job = gr.cli.load_job(inp.path)
        return gr.cli.run_job(job, inp.out)

    def check(self, inp, report):
        inp.oracle(report)
        files = _output_files(inp.out)
        # Each run after the first writes new files into the directory the
        # first made: on ext4, rewriting a file just truncated forces its
        # data to disk on close, and removing a directory waited on the disk
        # every time; removing the files did not.
        for name in files:
            (inp.out / name).unlink()
        if inp.first_files is None:
            inp.first_files = files
        require(files == inp.first_files,
                "report files differ from the first run of this job")
        return sum(len(b) for b in files.values())


WORKLOADS = {w.name: w for w in (SqrtLaw(), RoundTripND(), CliJobs())}
