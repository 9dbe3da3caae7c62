"""Expression grammar, job files, command runs, exit codes, determinism."""

import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import germradius
from germradius import JobError, ParseError, series_from_dict, series_to_dict
from germradius import cli
from germradius.cli import (
    _MAX_BETAS,
    _MAX_EXTRACTION,
    _PAYLOADS,
    load_job,
    main,
    parse_expression,
    parse_polynomial,
    run_job,
)
from germradius.polymap import Polynomial
from helpers import dict_add, dict_mul, dict_pow, series_of


# -- expression grammar -------------------------------------------------------


def test_parse_simple_monomial():
    s = parse_polynomial("x^2", ["x"])
    assert s.coeffs == {(2,): 1}


def test_parse_mixed_terms():
    s = parse_polynomial("x*y - 3/2*x", ["x", "y"])
    assert s.coeffs == {(1, 1): 1, (1, 0): Fraction(-3, 2)}


def test_parse_square_expansion():
    s = parse_polynomial("(x+y)^2", ["x", "y"])
    # expansion oracle: multiply the parsed linear form by itself
    lin = parse_expression("x+y", ["x", "y"])
    assert s.coeffs == dict_mul(lin.coeffs, lin.coeffs)
    assert s.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_huge_exponent_is_one_monomial():
    assert parse_expression("x^1000000000", ["x"]) == Polynomial(
        1, {(1000000000,): 1})


def test_parse_unary_minus_and_parens():
    assert parse_polynomial("-x^2 + (1 - x)*(1 + x)", ["x"]).coeffs == {
        (0,): 1, (2,): -2}


def test_parse_rational_literals():
    assert parse_polynomial("2/4", ["x"]).coeffs == {(0,): Fraction(1, 2)}
    assert parse_polynomial("7", ["x"]).coeffs == {(0,): 7}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x^-1", ["x"])
    assert "nonnegative integer" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("x^(1/2)", ["x"])
    assert parse_expression("x^1/2", ["x"]) == Polynomial(
        1, {(1,): Fraction(1, 2)})
    with pytest.raises(ParseError) as err:
        parse_expression("x + * y", ["x", "y"])
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("2x", ["x"])  # no implicit multiplication
    with pytest.raises(ParseError) as err:
        parse_expression("x + z", ["x", "y"])
    assert "unknown variable" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("x / y", ["x", "y"])
    with pytest.raises(ParseError):
        parse_expression("(x + y", ["x", "y"])


def test_parse_recenter_exact():
    s = parse_polynomial("x^2", ["x"], center=(Fraction(1, 2),), degree=4)
    assert s.coeffs == {(0,): Fraction(1, 4), (1,): 1, (2,): 1}


def test_parse_serialize_parse_identity():
    s = parse_polynomial("(x - 2*y)^3 + 1/3", ["x", "y"], degree=5)
    d = series_to_dict(s)
    assert series_from_dict(json.loads(json.dumps(d))) == s


@pytest.mark.parametrize("text,want", [
    ("x^2/3", {(2,): Fraction(1, 3)}),
    ("(x^2)/3", {(2,): Fraction(1, 3)}),
    ("x/2", {(1,): Fraction(1, 2)}),
    ("2/3*x", {(1,): Fraction(2, 3)}),
    ("3/2^2", {(0,): Fraction(3, 4)}),  # '^' binds tighter than '/'
    ("x/(1 + 1)/-3", {(1,): Fraction(-1, 6)}),
])
def test_parse_division_by_a_constant(text, want):
    assert parse_expression(text, ["x"]) == Polynomial(1, want)


@pytest.mark.parametrize("text,pos", [
    ("x/y", 1), ("1/0", 1), ("x + 2/(1 - 1)", 5), ("x/(y + 1)", 1),
])
def test_parse_rejects_a_divisor_that_is_not_a_nonzero_constant(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, ["x", "y"])
    assert err.value.position == pos
    assert "nonzero constant" in str(err.value)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return ("int", rng.randint(0, 9))
        return ("var", rng.randrange(2))
    op = rng.choice(["add", "sub", "neg", "mul", "div", "pow"])
    a = _random_tree(rng, depth - 1)
    if op == "neg":
        return (op, a)
    if op == "div":
        k = ("int", rng.randint(1, 5))
        return (op, a, k if rng.random() < 0.5 else ("pow", k, rng.randint(0, 2)))
    if op == "pow":
        return (op, a, rng.randint(0, 3))
    return (op, a, _random_tree(rng, depth - 1))


def _render(node):
    """(text, precedence) with only the parentheses the grammar needs.

    Precedence as the grammar reads it: sums 1, products and quotients 2,
    unary minus 3, powers 4, literals and names 5.  A left operand may share
    its parent's precedence, a right one must bind tighter.
    """
    def wrap(child, least):
        text, prec = _render(child)
        return text if prec >= least else f"({text})"

    kind = node[0]
    if kind == "int":
        return str(node[1]), 5
    if kind == "var":
        return "xy"[node[1]], 5
    if kind == "pow":
        return f"{wrap(node[1], 5)}^{node[2]}", 4
    if kind == "neg":
        return f"-{wrap(node[1], 3)}", 3
    sym, prec = {"add": ("+", 1), "sub": ("-", 1),
                 "mul": ("*", 2), "div": ("/", 2)}[kind]
    return f"{wrap(node[1], prec)}{sym}{wrap(node[2], prec + 1)}", prec


def _evaluate(node):
    """The tree's value as an exponent dict in x, y."""
    kind = node[0]
    if kind == "int":
        return {(0, 0): node[1]} if node[1] else {}
    if kind == "var":
        return {tuple(int(k == node[1]) for k in range(2)): 1}
    if kind == "neg":
        return {g: -c for g, c in _evaluate(node[1]).items()}
    if kind == "pow":
        return dict_pow(_evaluate(node[1]), node[2], 2)
    a, b = _evaluate(node[1]), _evaluate(node[2])
    if kind == "add":
        return dict_add(a, b)
    if kind == "sub":
        return dict_add(a, b, -1)
    if kind == "mul":
        return dict_mul(a, b)
    return {g: Fraction(c, b[(0, 0)]) for g, c in a.items()}


def test_parse_matches_direct_arithmetic_on_random_trees():
    rng = random.Random(8)
    for _ in range(400):
        tree = _random_tree(rng, 4)
        text, _ = _render(tree)
        assert parse_expression(text, ["x", "y"]) == Polynomial(
            2, _evaluate(tree)), text


# -- job loading --------------------------------------------------------------


def write_job(tmp_path, name="job.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return path


BASE = dict(command="profile", n=1, variables=["x"], map=["x^2"],
            center=["0"], degree=8)


def test_load_job_roundtrip(tmp_path):
    job = load_job(write_job(tmp_path, **BASE), "profile")
    assert job.command == "profile" and job.n == 1 and job.degree == 8


def test_load_job_reads_text_rationals(tmp_path):
    job = load_job(write_job(tmp_path, **dict(BASE, center=["1/2"])))
    assert job.center == (Fraction(1, 2),)


@pytest.mark.parametrize("patch", [
    {"n": 0}, {"variables": ["x", "x"]}, {"variables": "x"},
    {"map": ["x", "y"]}, {"center": ["0", "0"]}, {"degree": 0},
    {"command": "bogus"}, {"n": True}, {"degree": True},
])
def test_load_job_rejects_bad_fields(tmp_path, patch):
    fields = dict(BASE)
    fields.update(patch)
    if patch.get("variables") == ["x", "x"]:
        fields["n"] = 2
        fields["map"] = ["x", "x"]
        fields["center"] = ["0", "0"]
    with pytest.raises(JobError):
        load_job(write_job(tmp_path, **fields), fields.get("command", "profile"))


def test_load_job_command_conflict(tmp_path):
    path = write_job(tmp_path, **BASE)
    with pytest.raises(JobError):
        load_job(path, "recover")


# -- commands -----------------------------------------------------------------


def test_profile_command(tmp_path):
    path = write_job(tmp_path, **BASE)
    out = tmp_path / "out"
    assert main(["profile", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["profile"] == {
        "mu": 1, "nu": 0, "alpha": [1], "lambda": 2,
        "d_alpha_delta": "2", "computed_at_degree": 7}


def test_compose_command(tmp_path):
    path = write_job(tmp_path, command="compose", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=6, g_expr="y^3")
    out = tmp_path / "out"
    assert main(["compose", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    f = series_from_dict(report["f"])
    assert f.coeffs == {(6,): 1}


def test_compose_command_off_origin(tmp_path):
    # the map sends 1/2 to 5/4, so g = y^3 is re-expanded about 5/4
    path = write_job(tmp_path, command="compose", n=1, variables=["x"],
                     map=["x^2 + 1"], center=["1/2"], degree=6, g_expr="y^3")
    out = tmp_path / "out"
    assert main(["compose", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert series_from_dict(report["f"]) == parse_polynomial(
        "(x^2 + 1)^3", ["x"], center=(Fraction(1, 2),), degree=6)


def test_recover_command_geometric(tmp_path):
    # F = 1 + 4 x^2 + 16 x^4 + 64 x^6 through x^2: G_k = 4^k, zero residual
    f = series_of("1 + 4*x^2 + 16*x^4 + 64*x^6", ["x"], degree=7)
    path = write_job(tmp_path, command="recover", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8,
                     f=series_to_dict(f))
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rec = report["recovery"]
    assert rec["max_recoverable_degree"] == 2
    g = series_from_dict(rec["g_series"])
    assert g.coeffs == {(0,): 1, (1,): 4, (2,): 16}
    assert rec["composite_within_checked_degree"] is True
    assert series_from_dict(rec["residual"]).is_zero


def test_recover_command_flags_non_composite(tmp_path):
    path = write_job(tmp_path, command="recover", n=2,
                     variables=["x", "y"], map=["x", "x*y"],
                     center=["0", "0"], degree=8, f_expr="y",
                     target_degree=2)
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out)]) == 0
    rec = json.loads((out / "report.json").read_text())["recovery"]
    assert rec["composite_within_checked_degree"] is False
    assert rec["first_residual"] == {"index": [0, 1], "coeff": "-1"}


def test_recover_command_high_degree_f_expr(tmp_path):
    # G = y^10000 about 1/2 through the identity map, read to degree 5: the
    # shift forms six terms, not ten thousand
    path = write_job(tmp_path, command="recover", n=1, variables=["x"],
                     map=["x"], center=["1/2"], degree=5, f_expr="x^10000")
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out)]) == 0
    rec = json.loads((out / "report.json").read_text())["recovery"]
    assert series_from_dict(rec["g_series"]).coeffs == {
        (k,): Fraction(math.comb(10000, k), 2 ** (10000 - k))
        for k in range(6)}
    assert rec["composite_within_checked_degree"] is True


def test_recover_command_trace(tmp_path):
    path = write_job(tmp_path, command="recover", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=10,
                     f_expr="x^2", target_degree=2)
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out),
                 "--trace"]) == 0
    rec = json.loads((out / "report.json").read_text())["recovery"]
    assert rec["per_beta_trace"][1] == {
        "beta": [1], "h_coefficient": "2", "divisor": "2"}


def test_stratify_command_two_strata(tmp_path):
    axis = ["-1", "-1/2", "0", "1/2", "1"]
    path = write_job(tmp_path, command="stratify", n=2, variables=["x", "y"],
                     map=["x", "x*y"], center=["0", "0"], degree=4,
                     grid_axes=[axis, axis])
    out = tmp_path / "out"
    assert main(["stratify", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    strata = report["strata"]
    assert len(strata) == 2
    assert strata[0]["mu"] == 1 and strata[0]["nu"] == 0
    assert strata[0]["alpha"] == [1, 0]
    assert len(strata[0]["points"]) == 5
    assert strata[1]["mu"] == 0 and strata[1]["alpha"] == [0, 0]
    assert len(strata[1]["points"]) == 20
    csv_text = (out / "strata.csv").read_text()
    assert csv_text.splitlines()[0] == "x,y,mu,nu,alpha"


def test_stratify_byte_deterministic(tmp_path):
    axis = ["-1", "-1/2", "0", "1/2", "1"]
    path = write_job(tmp_path, command="stratify", n=2, variables=["x", "y"],
                     map=["x", "x*y"], center=["0", "0"], degree=4,
                     grid_axes=[axis, axis])
    outs = []
    for name in ("out_a", "out_b"):
        out = tmp_path / name
        assert main(["stratify", "--job", str(path), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes()
                    + (out / "strata.csv").read_bytes())
    assert outs[0] == outs[1]


def test_radius_command_single(tmp_path):
    geo = {"n": 1, "center": ["0"], "degree": 40,
           "terms": [{"index": [k], "coeff": str(4 ** k)} for k in range(41)]}
    path = write_job(tmp_path, command="radius", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, series=geo)
    out = tmp_path / "out"
    assert main(["radius", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["estimate"] == 0.25
    shells = (out / "shells.csv").read_text().splitlines()
    assert shells[0] == "degree,shell_value" and len(shells) == 41


def test_radius_command_family(tmp_path):
    def geo_literal(rho_num, rho_den, square=False):
        terms = []
        for k in range(41):
            c = Fraction(rho_den, rho_num) ** k
            idx = 2 * k if square else k
            terms.append({"index": [idx], "coeff": str(c)})
        return {"n": 1, "center": ["0"], "degree": 82 if square else 41,
                "terms": terms}

    family = [
        {"t": "1/4", "f": geo_literal(1, 4, square=True),
         "g": geo_literal(1, 4)},
        {"t": "1/2", "f": geo_literal(1, 2, square=True),
         "g": geo_literal(1, 2)},
        {"t": "1", "f": geo_literal(1, 1, square=True),
         "g": geo_literal(1, 1)},
    ]
    path = write_job(tmp_path, command="radius", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, family=family)
    out = tmp_path / "out"
    assert main(["radius", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fits"]["log_rg_vs_log_rf"]["slope"] == pytest.approx(2.0, abs=1e-9)
    assert report["members"][0]["r_g"] == 0.25


def test_radius_family_fit_on_an_underflowed_radius_is_an_error(tmp_path):
    # |f_d| = 2^(1100 d) and 2^(1200 d) put each r_f below the smallest
    # double: it reads 0.0, and every fit on r_f must say so, not use 1
    def literal(log2_base):
        return {"n": 1, "center": ["0"], "degree": 2,
                "terms": [{"index": [d], "coeff": str(2 ** (log2_base * d))}
                          for d in range(3)]}

    family = [{"t": "1/2", "f": literal(1100), "g": literal(1)},
              {"t": "1", "f": literal(1200), "g": literal(2)}]
    path = write_job(tmp_path, command="radius", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, window=1,
                     family=family)
    out = tmp_path / "out"
    assert main(["radius", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [m["r_f"] for m in report["members"]] == [0.0, 0.0]
    fits = report["fits"]
    positive = {"error": "log-log fit needs positive values"}
    assert fits["log_r_f_vs_log_t"] == positive
    assert fits["log_rg_vs_log_rf"] == positive
    assert fits["log_r_g_vs_log_t"]["slope"] == pytest.approx(-1.0)


def test_verify_command_passes(tmp_path):
    path = write_job(tmp_path, command="verify", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, max_beta=2,
                     monomial_degree=3, extraction_max=3, roundtrip_degree=3)
    out = tmp_path / "out"
    assert main(["verify", "--job", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert names == {"chain_rule", "cramer_base", "adjugate_identity",
                     "defining_identity", "order_bound", "extraction",
                     "round_trip"}


def test_verify_trace_dumps_table(tmp_path):
    path = write_job(tmp_path, command="verify", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, max_beta=2,
                     monomial_degree=2, extraction_max=2, roundtrip_degree=2)
    out = tmp_path / "out"
    assert main(["verify", "--job", str(path), "--out", str(out),
                 "--trace"]) == 0
    table = json.loads((out / "table.json").read_text())
    entries = {(tuple(e["beta"]), tuple(e["alpha"])): e["series"]
               for e in table["entries"]}
    assert entries[((2,), (1,))]["terms"] == [{"index": [0], "coeff": "-2"}]


def _count_set_up_calls(monkeypatch):
    """Count profile, compose and germ_at calls under every name the
    package looks them up by."""
    counts = {"profile": 0, "compose": 0, "germ_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [germradius.pseries, germradius.jacobian, germradius.cramerops,
               germradius.recovery, germradius.radius, cli]
    for name, fn in (("profile", germradius.jacobian.profile),
                     ("compose", germradius.pseries.compose)):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted(name, fn))
    pmap = germradius.polymap.PolynomialMap
    monkeypatch.setattr(pmap, "germ_at", counted("germ_at", pmap.germ_at))
    return counts


def test_verify_builds_germ_profile_and_compositions_once(tmp_path,
                                                          monkeypatch):
    # at degree 4 the verify germ is the profile's germ (default profile
    # degree 4, working degree 2): one germ and one profile serve the
    # table, the checks and the round trip, and the chain rule and Cramer's
    # rule share f, ∇f and every (D_j g)∘φ, so compose runs n + 3 times
    path = write_job(tmp_path, command="verify", n=3,
                     variables=["x", "y", "z"],
                     map=["x + y^2", "y - z^2", "z + 2*x^2 - 1"],
                     center=["1/2", "-1", "0"], degree=4, max_beta=2,
                     monomial_degree=3, extraction_max=2, roundtrip_degree=2)
    counts = _count_set_up_calls(monkeypatch)
    report = run_job(load_job(path), tmp_path / "out")
    assert report["passed"] is True
    assert counts == {"profile": 1, "compose": 6, "germ_at": 1}


def test_verify_blowup_demo_profiles_twice(tmp_path, monkeypatch):
    # its verify germ (degree 9) is above the profile's (degree 8), so the
    # table, the checks and the round trip share a second profile
    counts = _count_set_up_calls(monkeypatch)
    report = run_job(load_job(_DEMO_JOBS / "verify_blowup.json"),
                     tmp_path / "out")
    assert report["passed"] is True
    assert counts == {"profile": 2, "compose": 5, "germ_at": 2}


# -- exit codes ---------------------------------------------------------------


def test_exit_code_2_on_parse_error(tmp_path):
    path = write_job(tmp_path, command="profile", n=1, variables=["x"],
                     map=["x^-1"], center=["0"], degree=4)
    out = tmp_path / "out"
    assert main(["profile", "--job", str(path), "--out", str(out)]) == 2


def test_exit_code_2_on_bad_job(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert main(["profile", "--job", str(path), "--out", str(tmp_path)]) == 2


def test_exit_code_2_on_null_command(tmp_path, capsys):
    # a present "command" key must name a command, even when the command
    # line gives one
    path = write_job(tmp_path, **dict(BASE, command=None))
    out = tmp_path / "out"
    assert main(["profile", "--job", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and "command must be" in err
    assert not (out / "report.json").exists()


def test_load_job_null_command_without_command_line(tmp_path):
    path = write_job(tmp_path, **dict(BASE, command=None))
    with pytest.raises(JobError, match="command must be"):
        load_job(path)


_DEMO_JOBS = Path(__file__).resolve().parent.parent / "demos" / "jobs"
_ONE_D =dict(n=1, variables=["x"], map=["x^2"], center=["0"])
_NUMBER_JOBS = {
    "profile": dict(_ONE_D, degree=8),
    "recover": dict(_ONE_D, degree=8, f_expr="x^2"),
    "stratify": dict(_ONE_D, degree=4, grid=[["0"], ["1"]]),
    "radius": dict(_ONE_D, degree=8, series={
        "n": 1, "center": ["0"], "degree": 12,
        "terms": [{"index": [k], "coeff": "1"} for k in range(13)]}),
    "verify": dict(_ONE_D, degree=8, max_beta=1, monomial_degree=1,
                   extraction_max=1, roundtrip_degree=1),
}


@pytest.mark.parametrize("command,patch,flags,field", [
    pytest.param("recover", {"target_degree": True}, [], "target_degree",
                 id="target_degree-bool"),
    pytest.param("profile", {"trace": "no"}, [], "trace", id="trace-string"),
    pytest.param("radius", {"window": "abc"}, [], "window", id="window-string"),
    pytest.param("radius", {"window": 0}, [], "window", id="window-zero"),
    pytest.param("radius", {"window": True}, [], "window", id="window-bool"),
    pytest.param("radius", {}, ["--window", "0"], "--window",
                 id="window-flag-zero"),
    pytest.param("profile", {}, ["--degree", "0"], "--degree",
                 id="degree-flag-zero"),
    pytest.param("stratify", {"profile_degree": "x"}, [], "profile_degree",
                 id="profile_degree-string"),
    pytest.param("stratify", {"profile_degree": -1}, [], "profile_degree",
                 id="profile_degree-negative"),
    pytest.param("verify", {"max_beta": True}, [], "max_beta",
                 id="max_beta-bool"),
    pytest.param("verify", {"roundtrip_degree": 0}, [], "roundtrip_degree",
                 id="roundtrip_degree-zero"),
    pytest.param("verify", {"seed": "0"}, [], "seed", id="seed-string"),
    pytest.param("recover", {"target_degree": None}, [], "target_degree",
                 id="target_degree-null"),
    pytest.param("radius", {"window": None}, [], "window", id="window-null"),
    pytest.param("stratify", {"profile_degree": None}, [], "profile_degree",
                 id="profile_degree-null"),
    pytest.param("verify", {"seed": None}, [], "seed", id="seed-null"),
    pytest.param("verify", {"monomial_degree": 0}, [], "monomial_degree",
                 id="monomial_degree-zero"),
    pytest.param("verify", {"monomial_degree": 2.0}, [], "monomial_degree",
                 id="monomial_degree-float"),
    pytest.param("verify", {"extraction_max": "3"}, [], "extraction_max",
                 id="extraction_max-string"),
    pytest.param("verify", {"extraction_max": None}, [], "extraction_max",
                 id="extraction_max-null"),
    # caps: in one variable max_beta is the beta count itself
    pytest.param("verify", {"max_beta": _MAX_BETAS + 1}, [], "max_beta",
                 id="max_beta-over-cap"),
    pytest.param("verify", {"extraction_max": _MAX_EXTRACTION + 1}, [],
                 "extraction_max", id="extraction_max-over-cap"),
])
def test_exit_code_2_on_bad_job_number(tmp_path, capsys, command, patch,
                                       flags, field):
    path = write_job(tmp_path, command=command,
                     **dict(_NUMBER_JOBS[command], **patch))
    out = tmp_path / "out"
    assert main([command, "--job", str(path), "--out", str(out)] + flags) == 2
    assert f"{field} must be" in capsys.readouterr().err
    assert not (out / "report.json").exists()


_LITERAL = {"n": 1, "center": ["0"], "degree": 2,
            "terms": [{"index": [1], "coeff": "2"}]}


@pytest.mark.parametrize("patch", [
    pytest.param({"series": dict(_LITERAL, n=True)}, id="literal-n-bool"),
    pytest.param({"series": dict(_LITERAL, degree=True)},
                 id="literal-degree-bool"),
    pytest.param({"series": dict(_LITERAL, terms=[
        {"index": [1], "coeff": "1/0"}])}, id="literal-coeff-zero-denominator"),
    pytest.param({"map": ["x^2 + 1/0*x"]}, id="map-division-by-zero"),
])
def test_exit_code_2_on_bad_number_in_literal_or_map(tmp_path, capsys, patch):
    path = write_job(tmp_path, command="radius",
                     **dict(_NUMBER_JOBS["radius"], **patch))
    out = tmp_path / "out"
    assert main(["radius", "--job", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("input error")
    assert not (out / "report.json").exists()


_TWO_D = dict(n=2, variables=["x", "y"], map=["x", "x*y"],
              center=["0", "0"], degree=4)


@pytest.mark.parametrize("command,job,field", [
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr="u^3",
                                 image_variables=["u", "v"]),
                 "image_variables", id="image_variables-length"),
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr="u^3",
                                 image_variables=[["u"]]),
                 "image_variables", id="image_variables-list-name"),
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr="u^3",
                                 image_variables=[""]),
                 "image_variables", id="image_variables-empty-name"),
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr="y^3",
                                 image_variables=None),
                 "image_variables", id="image_variables-null"),
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr=None), "g_expr",
                 id="g_expr-null"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=None), "grid",
                 id="grid-null"),
    pytest.param("radius", dict(_ONE_D, degree=8, series=None), "'series'",
                 id="series-null"),
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr="y^3", g=_LITERAL),
                 "'g_expr'", id="g-and-g_expr"),
    pytest.param("recover", dict(_ONE_D, degree=8), "'f_expr'",
                 id="no-f-or-f_expr"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=[["0"]],
                                  grid_axes=[["0"]]),
                 "'grid_axes'", id="grid-and-grid_axes"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=[]), "grid",
                 id="grid-empty"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=[["0", "1"]]),
                 "grid point", id="grid-point-length"),
    pytest.param("stratify", dict(_TWO_D, grid_axes=[["0"]]), "grid_axes",
                 id="grid_axes-count"),
    pytest.param("stratify", dict(_TWO_D, grid_axes=["12", "34"]),
                 "grid_axes", id="grid_axes-strings"),
    pytest.param("stratify", dict(_TWO_D, grid_axes=[1, 2]), "grid_axes",
                 id="grid_axes-numbers"),
    pytest.param("stratify", dict(_TWO_D, grid_axes=[[], ["1"]]),
                 "grid_axes", id="grid_axes-empty-axis"),
    pytest.param("stratify", dict(_ONE_D, degree=4), "'grid_axes'",
                 id="no-grid"),
    pytest.param("radius", dict(_NUMBER_JOBS["radius"], family=[
        {"f": _LITERAL}]), "'family'", id="series-and-family"),
    pytest.param("radius", dict(_ONE_D, degree=8), "'family'",
                 id="no-series-or-family"),
    pytest.param("radius", dict(_ONE_D, degree=8, family=["x"]),
                 "family[0]", id="family-member-not-object"),
    pytest.param("profile", [dict(_ONE_D, degree=8)], "JSON object",
                 id="job-is-a-list"),
    # a JSON float can lose digits: 0.12345678901234567890 parses as
    # 0.12345678901234568, so no float is read as a rational
    pytest.param("profile", dict(_ONE_D, degree=8, center=[0.5]), "center",
                 id="center-float"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=[[0.5]]),
                 "grid point", id="grid-point-float"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid_axes=[[0.5]]),
                 "grid_axes", id="grid_axes-float"),
    pytest.param("radius", dict(_ONE_D, degree=8, family=[
        {"t": 0.5, "f": _LITERAL}]), "family[0].t", id="family-t-float"),
    pytest.param("radius", dict(_ONE_D, degree=8, series=dict(
        _LITERAL, terms=[{"index": [1], "coeff": 0.5}])), "'series'",
                 id="series-coeff-float"),
    pytest.param("radius", dict(_ONE_D, degree=8, series=dict(
        _LITERAL, terms=[{"index": [1], "coeff": "2"},
                         {"index": [1], "coeff": "3"}])),
                 "repeated index [1]", id="series-repeated-index"),
    pytest.param("radius", dict(_ONE_D, degree=8, family=[{"g": dict(
        _LITERAL, terms=[{"index": [1], "coeff": "2"},
                         {"index": [1], "coeff": "2"}])}]),
                 "family[0].g", id="family-g-repeated-index"),
    # caps on the work a job may ask for, checked before any of it
    pytest.param("profile", dict(
        n=7, variables=[f"x{i}" for i in range(7)],
        map=[f"x{i}" for i in range(7)], center=["0"] * 7, degree=2),
                 "n must be an integer >= 1 and <= 6", id="n-over-cap"),
    pytest.param("stratify", dict(_TWO_D, grid_axes=[
        [str(k) for k in range(101)], [str(k) for k in range(100)]]),
                 "grid_axes spans 10100 points", id="grid_axes-over-cap"),
    # a key the command does not read
    pytest.param("profile", dict(_ONE_D, degree=8, window=5), "'window'",
                 id="profile-window"),
    pytest.param("radius", dict(_ONE_D, degree=8, family=[
        {"t": "1", "f": _LITERAL, "h": _LITERAL}]), "family[0]: 'h'",
                 id="family-member-unknown-key"),
    # with these keys ignored, the demo job ran at the default target
    pytest.param("recover", dict(json.loads(
        (_DEMO_JOBS / "recover_geometric.json").read_text()),
        target_degre=3, windw=5), "'target_degre', 'windw'",
                 id="recover_geometric-misspelled-keys"),
])
def test_exit_code_2_on_bad_payload(tmp_path, capsys, command, job, field):
    path = tmp_path / "job.json"
    if isinstance(job, dict):
        job = dict(job, command=command)
    path.write_text(json.dumps(job))
    out = tmp_path / "out"
    assert main([command, "--job", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and field in err
    assert not (out / "report.json").exists()


def test_compose_names_the_image_variables(tmp_path):
    reports = []
    for name, extra in (("u", {"image_variables": ["u"]}), ("y", {})):
        path = write_job(tmp_path, command="compose", g_expr=f"{name}^3",
                         **dict(_ONE_D, degree=6, **extra))
        out = tmp_path / f"out_{name}"
        assert main(["compose", "--job", str(path), "--out", str(out)]) == 0
        reports.append(json.loads((out / "report.json").read_text())["f"])
    assert reports[0] == reports[1]
    assert series_from_dict(reports[0]).coeffs == {(6,): 1}


def test_exit_code_1_on_domain_error(tmp_path):
    # identically singular Jacobian
    path = write_job(tmp_path, command="profile", n=2, variables=["x", "y"],
                     map=["x*y", "x*y"], center=["0", "0"], degree=4)
    out = tmp_path / "out"
    assert main(["profile", "--job", str(path), "--out", str(out)]) == 1


def test_exit_code_1_on_insufficient_truncation(tmp_path):
    f = series_of("x^2", ["x"], degree=3)
    path = write_job(tmp_path, command="recover", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8,
                     f=series_to_dict(f), target_degree=5)
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out)]) == 1


def test_module_entry_point(tmp_path):
    path = write_job(tmp_path, **BASE)
    out = tmp_path / "out"
    # the child finds the checkout's package whether or not it is installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "germradius", "profile", "--job", str(path),
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (out / "report.json").exists()


def test_degree_override_flag(tmp_path):
    path = write_job(tmp_path, command="compose", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=4, g_expr="y^3")
    out = tmp_path / "out"
    assert main(["compose", "--job", str(path), "--out", str(out),
                 "--degree", "10"]) == 0
    f = series_from_dict(json.loads((out / "report.json").read_text())["f"])
    assert f.trunc == 10 and f.coeffs == {(6,): 1}


def test_window_override_flag(tmp_path):
    geo = {"n": 1, "center": ["0"], "degree": 12,
           "terms": [{"index": [k], "coeff": str(2 ** k)} for k in range(13)]}
    path = write_job(tmp_path, command="radius", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8, series=geo)
    out = tmp_path / "out"
    # the default window of 10 needs 20 nonzero shells; 12 are available
    assert main(["radius", "--job", str(path), "--out", str(out)]) == 1
    assert main(["radius", "--job", str(path), "--out", str(out),
                 "--window", "5"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["window"] == 5 and report["estimate"] == 0.5


def test_recover_defaults_to_max_recoverable(tmp_path):
    f = series_of("1 + 4*x^2 + 16*x^4 + 64*x^6 + 256*x^8", ["x"], degree=8)
    path = write_job(tmp_path, command="recover", n=1, variables=["x"],
                     map=["x^2"], center=["0"], degree=8,
                     f=series_to_dict(f))
    out = tmp_path / "out"
    assert main(["recover", "--job", str(path), "--out", str(out)]) == 0
    rec = json.loads((out / "report.json").read_text())["recovery"]
    g = series_from_dict(rec["g_series"])
    assert g.trunc == 3 == rec["max_recoverable_degree"]
    assert g.coeffs == {(0,): 1, (1,): 4, (2,): 16, (3,): 64}


def test_grid_axes_at_the_cap_are_admitted(tmp_path):
    axes = [[str(k) for k in range(100)], [str(k) for k in range(100)]]
    job = load_job(write_job(tmp_path, **dict(_TWO_D, command="stratify",
                                              grid_axes=axes)))
    points = job.payload["grid_axes"]
    assert len(points) == 10_000 and points[101] == (1, 1)


@pytest.mark.parametrize("n,admitted", [(1, 30), (2, 6), (3, 3), (4, 2),
                                        (6, 2)])
def test_max_beta_cap_counts_the_betas(tmp_path, n, admitted):
    # comb(n + max_beta, n) - 1 betas, at most _MAX_BETAS of them
    assert math.comb(n + admitted, n) - 1 <= _MAX_BETAS
    assert math.comb(n + admitted + 1, n) - 1 > _MAX_BETAS
    names = [f"x{i}" for i in range(n)]
    job = dict(command="verify", n=n, variables=names, map=names,
               center=["0"] * n, degree=4)
    path = write_job(tmp_path, **dict(job, max_beta=admitted))
    assert load_job(path).payload["max_beta"] == admitted
    path = write_job(tmp_path, **dict(job, max_beta=admitted + 1))
    with pytest.raises(JobError, match=f"max_beta must be an integer >= 1 "
                                       f"and <= {admitted}, got"):
        load_job(path)


_BAD = {"n": 1, "center": ["0"], "degree": 2,
        "terms": [{"index": [1], "coeff": "1/0"}]}


@pytest.mark.parametrize("command,job,named", [
    pytest.param("compose", dict(_ONE_D, degree=6, g_expr=3), "g_expr",
                 id="g_expr-number"),
    pytest.param("compose", dict(_ONE_D, degree=6, g=_BAD), "'g'",
                 id="g-bad-literal"),
    pytest.param("recover", dict(_NUMBER_JOBS["recover"], target_degree=-1),
                 "target_degree", id="target_degree-negative"),
    pytest.param("stratify", dict(_ONE_D, degree=4, grid=[["1/0"]]),
                 "grid point", id="grid-zero-denominator"),
    pytest.param("radius", dict(_NUMBER_JOBS["radius"], window=0), "window",
                 id="window-zero"),
    pytest.param("radius", dict(_ONE_D, degree=8, family=[{"f": _BAD}]),
                 "family[0].f", id="family-bad-literal"),
    pytest.param("profile", dict(_NUMBER_JOBS["profile"], trace=1), "trace",
                 id="trace-number"),
    pytest.param("verify", dict(_NUMBER_JOBS["verify"],
                                max_beta=_MAX_BETAS + 1),
                 f"max_beta must be an integer >= 1 and <= {_MAX_BETAS}",
                 id="max_beta-over-cap"),
    pytest.param("verify", dict(_NUMBER_JOBS["verify"],
                                extraction_max=_MAX_EXTRACTION + 1),
                 f"extraction_max must be an integer >= 1 and <= "
                 f"{_MAX_EXTRACTION}", id="extraction_max-over-cap"),
])
def test_payload_is_read_before_any_work(tmp_path, capsys, monkeypatch,
                                         command, job, named):
    # the map and every expression go through parse_expression, so a bad
    # payload value that reaches the handlers would call it first
    calls = []

    def parse_expression(*args):
        calls.append(args)
        raise AssertionError("an expression was parsed")

    monkeypatch.setattr(cli, "parse_expression", parse_expression)
    path = write_job(tmp_path, command=command, **job)
    out = tmp_path / "out"
    assert main([command, "--job", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error") and named in err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("name", ["verify_blowup", "radius_geometric"])
def test_demo_jobs_spell_out_the_defaults(tmp_path, name):
    # every optional key these demos write is at its default: without them
    # the job writes the same bytes, so a default that drifts fails here
    job = json.loads((_DEMO_JOBS / f"{name}.json").read_text())
    readers = _PAYLOADS[job["command"]][1]
    optional = [key for key in job if key in readers
                and key not in _PAYLOADS[job["command"]][0]]
    assert optional and all(job[key] == readers[key][1] for key in optional)
    reports = []
    for label, fields in (("full", job), ("bare", {
            k: v for k, v in job.items() if k not in optional})):
        path = write_job(tmp_path, f"{label}.json", **fields)
        assert main([job["command"], "--job", str(path),
                     "--out", str(tmp_path / label)]) == 0
        reports.append((tmp_path / label / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_readme_table_lists_every_payload_key():
    lines = (_DEMO_JOBS.parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| command | payload key | default | cap |") + 2
    listed = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, keys, default, _ = (c.strip() for c in line[1:-1].split("|"))
        for key in re.findall(r"`(\w+)`", keys):
            listed.setdefault(command.strip("`"), {})[key] = default
    want = {command: set(readers)
            for command, (_, readers) in _PAYLOADS.items() if readers}
    want["every command"] = {"trace"}
    assert {command: set(keys) for command, keys in listed.items()} == want
    # an integer default is spelled out as it stands in the table
    for command, (_, readers) in _PAYLOADS.items():
        for key, (_, default) in readers.items():
            if isinstance(default, int):
                assert listed[command][key] == str(default), (command, key)
