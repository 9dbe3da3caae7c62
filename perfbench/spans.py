"""Spans around germradius's public entry points, installed from outside.

``install`` replaces each traced function under every name its callers look
it up by: the attribute in every germradius module that holds the original
function object (``recovery.compose``, ``cramerops.profile``,
``cli.recover``, the package namespace, ...) and the traced methods on their
classes.  ``uninstall`` puts the originals back.

A span records its name and duration; its self time is the duration minus
the time of its child spans.  The self times of one operation's spans are
summed into ``op_self_s``, for the caller to compare with the operation's
wall time measured outside the tracer.  Per-call counters (product sizes, coefficient
bit lengths, level sizes) are gathered inside a ``trace.bookkeeping`` span so
their cost is kept out of the layers they describe.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

ROOT = "bench.op"
BOOKKEEPING = "trace.bookkeeping"


def bits(value):
    """Bit length of an exact coefficient: the larger of numerator and
    denominator for a fraction."""
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return value.bit_length()


class Tracer:
    def __init__(self):
        self.stack = []  # [name, start, child time]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self.max_bits = Counter()
        self._op_self = 0.0
        self.op_self_s = None  # self times of the last operation, summed

    def enter(self, name):
        self.stack.append([name, perf_counter(), 0.0])

    def exit(self, count=True):
        end = perf_counter()
        name, start, child = self.stack.pop()
        duration = end - start
        own = duration - child
        self.self_s[name] += own
        self.total_s[name] += duration
        self._op_self += own
        if count:
            self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.op_self_s = self._op_self
            self._op_self = 0.0

    def run_op(self, fn, *args):
        """Run one operation under the root span."""
        self.enter(ROOT)
        try:
            return fn(*args)
        finally:
            self.exit()

    def note_max_bits(self, name, value):
        if value > self.max_bits[name]:
            self.max_bits[name] = value


def _span(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            tracer.enter(BOOKKEEPING)
            try:
                after(args, result)
            finally:
                tracer.exit()
        return result
    return wrapper


def _levels(tracer, fn):
    """Wrap the operator-level generator: each next() is one level span."""
    name = "cramerops.level"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                tracer.exit(count=False)
                return
            except BaseException:
                tracer.exit()
                raise
            tracer.exit()
            tracer.enter(BOOKKEEPING)
            _, level = item
            tracer.counts[name + ".entries"] += len(level)
            for entry in level.values():
                tracer.counts[name + ".terms"] += len(entry.coeffs)
                if entry.coeffs:
                    tracer.note_max_bits(
                        name, max(bits(c) for c in entry.coeffs.values()))
            tracer.exit()
            yield item
    return wrapper


def install(tracer, gr):
    """Wrap germradius's public entry points; returns the undo list."""
    ps, cr, rec, rad, cli = gr.pseries, gr.cramerops, gr.recovery, gr.radius, gr.cli

    def mul_stats(args, out):
        a, b = args[0], args[1]
        da = Counter(sum(g) for g in a.coeffs)
        db = Counter(sum(g) for g in b.coeffs)
        t = out.trunc
        tracer.counts["pseries.mul.term_pairs"] += sum(
            na * nb for x, na in da.items() for y, nb in db.items() if x + y <= t)
        tracer.counts["pseries.mul.out_terms"] += len(out.coeffs)
        if out.coeffs:
            tracer.note_max_bits(
                "pseries.mul", max(bits(c) for c in out.coeffs.values()))

    def recover_stats(args, report):
        coeffs = report.g_series.coeffs
        tracer.counts["recovery.g_terms"] += len(coeffs)
        if coeffs:
            tracer.note_max_bits(
                "recovery.g", max(bits(c) for c in coeffs.values()))

    functions = {
        gr.mindex.enumerate_degree: "mindex.enumerate",
        gr.mindex.enumerate_upto: "mindex.enumerate",
        ps.compose: "pseries.compose",
        ps.product_coefficient: "pseries.product_coefficient",
        gr.jacobian.profile: "jacobian.profile",
        cr.build_t_operators: "cramerops.build_t_operators",
        cr.verify_cramer_base: "cramerops.verify",
        cr.verify_defining_identity: "cramerops.verify",
        cr.verify_identity_on_monomials: "cramerops.verify",
        cr.verify_order_bound: "cramerops.verify",
        rec.recover: "recovery.recover",
        rad.estimate_radius: "radius.estimate_radius",
        rad.stratify: "radius.stratify",
        rad.scaling_fit: "radius.scaling_fit",
        cli.load_job: "cli.load_job",
        cli.parse_expression: "cli.parse",
        cli.parse_polynomial: "cli.parse",
        cli.run_job: "cli.run_job",
    }
    after = {rec.recover: recover_stats}
    wrapped = {fn: _span(tracer, name, fn, after.get(fn))
               for fn, name in functions.items()}
    wrapped[cr.iter_t_levels] = _levels(tracer, cr.iter_t_levels)
    compose = ps.compose
    # recovery calls compose only for its recomposition residual.
    residual = _span(tracer, "recovery.residual", wrapped[compose])

    undo = []

    def replace(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    modules = [gr, gr.mindex, ps, gr.polymap, gr.jacobian, cr, rec, rad, cli]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if module is rec and value is compose:
                replace(module, attr, residual)
            elif callable(value) and value in wrapped:
                replace(module, attr, wrapped[value])
    series = ps.TruncatedSeries
    replace(series, "mul", _span(tracer, "pseries.mul", series.mul, mul_stats))
    replace(series, "derive", _span(tracer, "pseries.derive", series.derive))
    for attr in ("__add__", "__radd__"):
        replace(series, attr, _span(tracer, "pseries.add", vars(series)[attr]))
    replace(gr.polymap.PolynomialMap, "germ_at", _span(
        tracer, "polymap.germ_at", gr.polymap.PolynomialMap.germ_at))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def layer_metrics(tracer, report_bytes):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, s, t, n = tracer.calls, tracer.self_s, tracer.total_s, tracer.counts
    out = {}
    for layer in ("mindex.enumerate", "pseries.mul", "pseries.derive",
                  "pseries.add", "pseries.compose",
                  "pseries.product_coefficient", "polymap.germ_at",
                  "jacobian.profile", "recovery.recover"):
        out[layer + ".calls"] = (c[layer], "count")
        out[layer + ".self_s"] = (s[layer], "s")
    out["pseries.mul.term_pairs"] = (n["pseries.mul.term_pairs"], "count")
    out["pseries.mul.out_terms"] = (n["pseries.mul.out_terms"], "count")
    out["pseries.mul.max_bits"] = (tracer.max_bits["pseries.mul"], "bits")
    level = "cramerops.level"
    out[level + ".count"] = (c[level], "count")
    out[level + ".self_s"] = (s[level], "s")
    out[level + ".total_s"] = (t[level], "s")
    out[level + ".entries"] = (n[level + ".entries"], "count")
    out[level + ".terms"] = (n[level + ".terms"], "count")
    out[level + ".max_bits"] = (tracer.max_bits[level], "bits")
    out["cramerops.build_t_operators.total_s"] = (
        t["cramerops.build_t_operators"], "s")
    out["cramerops.verify.total_s"] = (t["cramerops.verify"], "s")
    out["recovery.recover.total_s"] = (t["recovery.recover"], "s")
    out["recovery.residual.total_s"] = (t["recovery.residual"], "s")
    out["recovery.g_terms"] = (n["recovery.g_terms"], "count")
    out["recovery.g_max_bits"] = (tracer.max_bits["recovery.g"], "bits")
    for layer in ("radius.estimate_radius", "radius.stratify",
                  "radius.scaling_fit", "cli.load_job", "cli.parse",
                  "cli.run_job", ROOT, BOOKKEEPING):
        out[layer + ".self_s"] = (s[layer], "s")
    out["cli.report_bytes"] = (report_bytes, "bytes")
    return out
