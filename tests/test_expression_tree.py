"""The expression parser against the atom-by-atom reference parser, and the
expansion budgets that refuse an oversized product or power, in terms or
in coefficient bits, up front."""

import json
import random

import pytest

from germradius import ParseError
from germradius import cli
from germradius.cli import _MAX_BITS, _MAX_TERMS, main, parse_expression
from germradius.polymap import Polynomial
from helpers import reference_parse_expression

NAMES = "xyz"


def _outcome(parse, text, names):
    """('ok', polynomial) or ('error', message, position)."""
    try:
        return ("ok", parse(text, names))
    except ParseError as exc:
        return ("error", str(exc), exc.position)


def _assert_same_outcome(text, names):
    got = _outcome(parse_expression, text, names)
    want = _outcome(reference_parse_expression, text, names)
    assert got == want, text
    if got[0] == "ok":
        # a whole coefficient is stored as an int
        assert all(isinstance(c, int) or c.denominator != 1
                   for c in got[1].coeffs.values()), text
    return got


# -- seeded texts ---------------------------------------------------------------


def _random_tree(rng, n, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return ("int", rng.randint(0, 9))
        return ("var", rng.randrange(n))
    op = rng.choice(["add", "sub", "neg", "mul", "div", "pow"])
    a = _random_tree(rng, n, depth - 1)
    if op == "neg":
        return (op, a)
    if op == "pow":
        return (op, a, rng.randint(0, 3))
    if op == "div":
        divisor = rng.choice([("int", rng.randint(1, 5)),
                              ("pow", ("int", rng.randint(1, 3)), 2),
                              ("add", ("int", 1), ("int", rng.randint(1, 4)))])
        return (op, a, divisor)
    return (op, a, _random_tree(rng, n, depth - 1))


def _render(rng, node):
    """(text, precedence): sums 1, products 2, unary minus 3, powers 4,
    atoms 5.  A child is parenthesized when the grammar needs it, and now
    and then when it does not; spaces are sprinkled between tokens."""
    def wrap(child, least):
        text, prec = _render(rng, child)
        return f"({text})" if prec < least or rng.random() < 0.1 else text

    def gap():
        return rng.choice(["", "", " "])

    kind = node[0]
    if kind == "int":
        return str(node[1]), 5
    if kind == "var":
        return NAMES[node[1]], 5
    if kind == "pow":
        return f"{wrap(node[1], 5)}{gap()}^{gap()}{node[2]}", 4
    if kind == "neg":
        return f"-{gap()}{wrap(node[1], 3)}", 3
    sym, prec = {"add": ("+", 1), "sub": ("-", 1),
                 "mul": ("*", 2), "div": ("/", 2)}[kind]
    return (f"{wrap(node[1], prec)}{gap()}{sym}{gap()}"
            f"{wrap(node[2], prec + 1)}", prec)


def _rational_text(rng):
    num, den = rng.randint(1, 6), rng.choice([1, 2, 3])
    return str(num) if den == 1 else f"{num}/{den}"


def _map_texts(rng, n):
    """The n components of phi = M * psi(L * (x - c)) + b, written the way
    generated benchmark maps are: rational centre c, sign matrices L and M,
    psi_i = u_i +- u_(i+1)^2 and, now and then, psi_n = u_n^2 +- u_1^3."""
    shifted = []
    for name in NAMES[:n]:
        sign = rng.choice("+-")
        shifted.append(name if rng.random() < 0.2
                       else f"({name} {sign} {_rational_text(rng)})")

    def signed_sum(parts):
        return " + ".join(f"{rng.choice((1, -1))}*{p}" for p in parts).replace(
            "+ -", "- ")

    us = [f"({signed_sum(shifted)})" for _ in range(n)]
    psi = [f"({us[i]} {rng.choice('+-')} {us[(i + 1) % n]}^2)"
           for i in range(n)]
    if rng.random() < 0.5:
        psi[-1] = f"({us[-1]}^2 {rng.choice('+-')} {us[0]}^3)"
    texts = []
    for _ in range(n):
        body = signed_sum(psi)
        image = rng.randint(-2, 2)
        texts.append(f"{body} + {image}".replace("+ -", "- ") if image else body)
    return texts


def _well_formed(rng, count):
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        text, _ = _render(rng, _random_tree(rng, n, 4))
        out.append((text, list(NAMES[:n])))
    return out


def _corrupted(rng, text):
    """One to two edits with non-digit characters; a deletion never joins
    two digits, so no exponent grows."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        edit = rng.choice(["insert", "delete", "replace"])
        if edit == "insert" or i == len(text):
            text = text[:i] + rng.choice("+-*/^()# w") + text[i:]
            continue
        if (text[i].isdigit() or (0 < i < len(text) - 1
                                  and text[i - 1].isdigit()
                                  and text[i + 1].isdigit())):
            continue
        new = "" if edit == "delete" else rng.choice("+-*/^()#")
        text = text[:i] + new + text[i + 1:]
    return text


def test_random_texts_match_the_reference_parser():
    rng = random.Random(18)
    outcomes = [_assert_same_outcome(text, names)[0]
                for text, names in _well_formed(rng, 300)]
    # divisions by a nonzero constant only: every text parses
    assert outcomes == ["ok"] * 300


def test_map_texts_match_the_reference_parser():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 3)
        for text in _map_texts(rng, n):
            assert _assert_same_outcome(text, list(NAMES[:n]))[0] == "ok"


def test_malformed_texts_fail_as_the_reference_parser_does():
    rng = random.Random(20)
    texts = _well_formed(rng, 150)
    for _ in range(20):
        n = rng.randint(1, 3)
        texts.extend((t, list(NAMES[:n])) for t in _map_texts(rng, n))
    errors = 0
    for text, names in texts:
        outcome = _assert_same_outcome(_corrupted(rng, text), names)
        assert not (outcome[0] == "error" and "limit of" in outcome[1])
        errors += outcome[0] == "error"
    assert errors > len(texts) // 2


@pytest.mark.parametrize("text,pos", [
    ("x/0 +", 1),                # the divisor is read before the end
    ("x/(y-y) + * 2", 1),
    ("x/y + (", 1),
    ("x + (y/(x - x) *", 6),
    ("x^2/(1 - 1)^2 + #", 16),   # every character is read first
    ("x^2/(1 - 1)^2 + ", 3),
    ("(x + y)^2 / x", 10),
    ("(x + y z", 7),
    ("x ^ y", 4),
    ("", 0),
])
def test_doubly_bad_texts_fail_at_the_first_fault(text, pos):
    outcome = _assert_same_outcome(text, ["x", "y"])
    assert outcome[0] == "error" and outcome[2] == pos


# -- expansion budget -----------------------------------------------------------


@pytest.mark.parametrize("text,names,pos", [
    ("(1+x)^100000", "x", 5),
    ("(x+y+z)^1000", "xyz", 7),
    ("2*(1 + x)^600*(1 + x)^600", "x", 13),   # at the second '*'
    ("x/(1 + x)^5000", "x", 9),               # in a divisor, as it is read
])
def test_oversized_expansion_is_refused_at_its_operator(text, names, pos):
    with pytest.raises(ParseError) as err:
        parse_expression(text, list(names))
    assert err.value.position == pos
    assert f"limit of {_MAX_TERMS} terms" in str(err.value)


def _no_products(*args):
    raise AssertionError("a product was formed")


def test_refused_power_forms_no_product(monkeypatch):
    monkeypatch.setattr(cli, "_products_into", _no_products)
    with pytest.raises(AssertionError):  # the patch is what powers call
        parse_expression("(1+x)^2", ["x"])
    for text, names in (("(1+x)^100000", ["x"]),
                        ("(x+y+z)^1000", ["x", "y", "z"])):
        with pytest.raises(ParseError):
            parse_expression(text, names)


@pytest.mark.parametrize("text,pos", [
    ("2^1000000000", 1),                          # bound 10^9 bits
    ("(123456789/987654321 + 2/7*x)^999", 29),    # bound 58941 bits
])
def test_oversized_coefficients_are_refused_at_the_power(
        monkeypatch, text, pos):
    monkeypatch.setattr(cli, "_products_into", _no_products)
    with pytest.raises(ParseError) as err:
        parse_expression(text, ["x"])
    assert err.value.position == pos
    assert f"limit of {_MAX_BITS} coefficient bits" in str(err.value)


@pytest.mark.parametrize("text", [
    "(1/3 + 2/7*x)^999",   # bound 8991 bits
    "(1+x)^999",           # bound 999 bits
    "x^1000000000",        # bound 0 bits
])
def test_powers_within_the_bit_budget_are_expanded(monkeypatch, text):
    # the first product is where expansion starts, past both budgets
    monkeypatch.setattr(cli, "_products_into", _no_products)
    with pytest.raises(AssertionError, match="a product was formed"):
        parse_expression(text, ["x"])


@pytest.mark.parametrize("text,names,want", [
    ("(x - x)^100000", "x", Polynomial(1)),
    ("0^0 + 0^7", "x", Polynomial(1, {(0,): 1})),
    ("y^1000000000", "xyz", Polynomial(3, {(0, 1000000000, 0): 1})),
])
def test_powers_with_few_terms_are_admitted(text, names, want):
    assert parse_expression(text, list(names)) == want


def test_product_bounded_by_its_degree_is_admitted():
    # 45 * 45 term pairs, but at most comb(2 + 16, 2) = 153 terms
    text = "(x + y + 1)^8 * (x - y + 2)^8"
    assert _assert_same_outcome(text, ["x", "y"])[0] == "ok"


def test_oversized_map_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "profile", "n": 1, "variables": ["x"],
        "map": ["(1+x)^100000"], "center": ["0"], "degree": 4}))
    assert main(["profile", "--job", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"limit of {_MAX_TERMS} terms" in capsys.readouterr().err


def test_oversized_coefficients_exit_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "recover", "n": 1, "variables": ["x"], "map": ["x"],
        "center": ["0"], "degree": 4, "f_expr": "2^1000000000"}))
    assert main(["recover", "--job", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert f"limit of {_MAX_BITS} coefficient bits" in capsys.readouterr().err
