"""Scalar tower: canonical forms, parsing, and evaluation homomorphisms."""

import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homcolor.scalars import (
    ContextMismatchError,
    Scalar,
    ScalarContext,
    ScalarError,
    ScalarParseError,
    _Parser,
    _check_independent,
)
from homcolor import scalars as scalars_module

from tests.util import eval_float, eval_mod, sqrt_mod


@pytest.fixture(scope="module")
def ctx():
    return ScalarContext(params=["lambda1", "mu2"], roots={"sqrt2": 2})


def naive_product_terms(a: Scalar, b: Scalar, radicands):
    """Term-by-term multiplication oracle, independent of Scalar.__mul__.

    Multiplies exponent dictionaries pairwise and reduces root symbols by
    r*r = q, returning a monomial -> coefficient mapping.
    """
    out: dict = {}
    for mono_a, coeff_a in a.terms:
        for mono_b, coeff_b in b.terms:
            exps: dict = {}
            for sym, e in (*mono_a, *mono_b):
                exps[sym] = exps.get(sym, 0) + e
            coeff = coeff_a * coeff_b
            reduced = []
            for sym in sorted(exps):
                e = exps[sym]
                if sym in radicands:
                    coeff *= radicands[sym] ** (e // 2)
                    e %= 2
                if e:
                    reduced.append((sym, e))
            key = tuple(reduced)
            out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v != 0}


class TestArithmetic:
    def test_half_plus_half_is_one(self, ctx):
        assert ctx.parse("1/2") + ctx.parse("1/2") == ctx.one

    def test_sqrt2_squares_to_two(self, ctx):
        root = ctx.root("sqrt2")
        assert root * root == ctx.scalar(2)

    def test_difference_of_squares_matches_naive_multiplier(self, ctx):
        a = ctx.parse("lambda1 + 1")
        b = ctx.parse("lambda1 - 1")
        product = a * b
        expected = naive_product_terms(a, b, ctx.roots)
        assert {m: c for m, c in product.terms} == expected
        assert product == ctx.parse("lambda1*lambda1 - 1")

    def test_zero_is_unique_empty_form(self, ctx):
        zero = ctx.param("lambda1") * ctx.scalar(0)
        assert zero.terms == ()
        assert zero.is_zero()
        assert zero == ctx.zero

    def test_sqrt_reduction_gives_exact_zero(self, ctx):
        value = ctx.parse("sqrt(2)*sqrt(2) - 2")
        assert value.is_zero()
        # float sanity oracle, never used by the checks themselves
        approx = eval_float(ctx.root("sqrt2") * ctx.root("sqrt2") - ctx.scalar(2))
        assert abs(approx) < 1e-9

    def test_mixed_context_arithmetic_is_rejected(self, ctx):
        other = ScalarContext(params=["lambda1"])
        with pytest.raises(ContextMismatchError):
            ctx.param("lambda1") + other.param("lambda1")

    def test_power_and_int_coercion(self, ctx):
        lam = ctx.param("lambda1")
        assert (lam + 1) ** 2 == lam * lam + 2 * lam + 1
        with pytest.raises(ScalarError):
            lam ** -1


class TestContext:
    def test_root_must_be_positive(self):
        with pytest.raises(ScalarError):
            ScalarContext(roots={"sqrtm1": -1})

    def test_name_collision_rejected(self):
        with pytest.raises(ScalarError):
            ScalarContext(params=["x"], roots={"x": 2})

    def test_reserved_sqrt_name(self):
        with pytest.raises(ScalarError):
            ScalarContext(params=["sqrt"])

    def test_union_merges_and_rejects_conflicts(self, ctx):
        other = ScalarContext(params=["nu1"], roots={"sqrt2": 2})
        merged = ctx.union(other)
        assert set(merged.params) == {"lambda1", "mu2", "nu1"}
        conflicting = ScalarContext(roots={"sqrt2": 3})
        with pytest.raises(ScalarError):
            ctx.union(conflicting)

    def test_square_radicand_rejected(self):
        for q in (4, 1, "9/4"):
            with pytest.raises(ScalarError, match="rational square"):
                ScalarContext(roots={"r": q})

    def test_dependent_radicands_rejected(self):
        for roots in ({"r": 2, "s": 8}, {"r": 2, "s": "1/2"}, {"r": 2, "s": 3, "t": 6}):
            with pytest.raises(ScalarError, match="rational square"):
                ScalarContext(roots=roots)

    def test_independent_radicands_accepted(self):
        ctx = ScalarContext(roots={"r": 2, "s": 3, "t": 5})
        assert (ctx.root("r") * ctx.root("s")).terms == (((("r", 1), ("s", 1)), Fraction(1)),)

    def test_forty_prime_radicands_accepted(self):
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, math.isqrt(p) + 1))][:40]
        ctx = ScalarContext(roots={f"r{i}": p for i, p in enumerate(primes)})
        assert len(ctx.roots) == 40

    def test_fraction_times_integer_square_rejected(self):
        with pytest.raises(ScalarError, match="roots r, s is 4, a rational square"):
            ScalarContext(roots={"r": "2/3", "s": 6})

    def test_four_way_dependency_rejected(self):
        with pytest.raises(ScalarError, match="roots a, b, c, d is 900, a rational square"):
            ScalarContext(roots={"a": 2, "b": 3, "c": 5, "d": 30})

    def test_rebase_into_union(self, ctx):
        merged = ctx.union(ScalarContext(params=["nu1"]))
        value = ctx.parse("lambda1*sqrt2 + 1/3")
        moved = value.rebase(merged)
        assert str(moved) == str(value)
        assert moved.context == merged


class TestParser:
    def test_round_trip_through_str(self, ctx):
        value = ctx.parse("-2*sqrt2 + lambda1*mu2 - 1/2")
        assert ctx.parse(str(value)) == value

    def test_parentheses_and_unary_minus(self, ctx):
        assert ctx.parse("-(lambda1 - 2) * -1") == ctx.parse("lambda1 - 2")

    def test_nested_radical_rejected(self, ctx):
        with pytest.raises(ScalarParseError):
            ctx.parse("sqrt(sqrt(2))")

    def test_undeclared_radicand_rejected(self, ctx):
        with pytest.raises(ScalarParseError):
            ctx.parse("sqrt(3)")

    def test_undeclared_name_rejected(self, ctx):
        with pytest.raises(ScalarParseError):
            ctx.parse("lambda9")

    def test_division_only_in_literals(self, ctx):
        with pytest.raises(ScalarParseError):
            ctx.parse("lambda1/2")

    def test_error_position_reported(self, ctx):
        with pytest.raises(ScalarParseError, match="position"):
            ctx.parse("1 + )")


    @pytest.mark.parametrize("text", ["(" * 101 + "1" + ")" * 101, "-" * 101 + "1", "-(" * 51 + "1" + ")" * 51])
    def test_nesting_is_bounded(self, ctx, text):
        with pytest.raises(ScalarParseError, match="nesting deeper than 100"):
            ctx.parse(text)

    @pytest.mark.parametrize("text", ["(" * 100 + "1" + ")" * 100, "-" * 100 + "1", "-(" * 50 + "1" + ")" * 50])
    def test_nesting_up_to_the_bound_parses(self, ctx, text):
        assert ctx.parse(text) == ctx.one


def _outcome(parse, text):
    """Terms of the parsed value, or the type and message of the error."""
    try:
        return parse(text).terms
    except (ScalarError, ValueError) as exc:
        return type(exc), str(exc)


_INTEGER_TEXT = st.one_of(
    st.integers().map(str),
    st.from_regex(r"-?[0-9]{1,60}", fullmatch=True),
    st.sampled_from(["0", "-0", "00", "007", "-007", "1", "-1", "7" * 5000, "-" + "7" * 5000]),
)


class TestIntegerLiterals:
    """``parse`` reads plain ASCII integer literals without the tokenizer."""

    @given(_INTEGER_TEXT)
    def test_fast_path_matches_the_parser(self, text):
        assert _outcome(_CTX.parse, text) == _outcome(lambda t: _Parser(_CTX, t).parse(), text)

    def test_zero_and_one_are_the_shared_constants(self, ctx):
        assert ctx.parse("0") is ctx.zero
        assert ctx.parse("-0") is ctx.zero
        assert ctx.parse("1") is ctx.one
        # Numbers too, so the kernel's ``is one`` shortcuts hold for unit
        # entries read from JSON integers.
        for value in (1, Fraction(3, 3), "1"):
            assert ctx.scalar(value) is ctx.one, value
        for value in (0, Fraction(0, 5), "0"):
            assert ctx.scalar(value) is ctx.zero, value
        assert ctx.scalar(-1) == -ctx.one and ctx.scalar(-1) is not ctx.one

    @pytest.mark.parametrize("text", [" 1", "1 ", "+1", "\u0661", "1/1", "(1)", "--1", "1\n"])
    def test_other_text_takes_the_parser_path(self, ctx, text, monkeypatch):
        seen = []

        class Recording(_Parser):
            def __init__(self, context, source):
                seen.append(source)
                super().__init__(context, source)

        expected = _outcome(lambda t: _Parser(ctx, t).parse(), text)
        monkeypatch.setattr(scalars_module, "_Parser", Recording)
        assert _outcome(ctx.parse, text) == expected
        assert seen == [text]
        seen.clear()
        ctx.parse("12")
        assert seen == []


class TestDeclaredNames:
    """``parse`` reads a bare declared parameter or root name without the
    tokenizer; any other name text takes the parser, with its messages."""

    @staticmethod
    def _recording(monkeypatch):
        seen = []

        class Recording(_Parser):
            def __init__(self, context, source):
                seen.append(source)
                super().__init__(context, source)

        monkeypatch.setattr(scalars_module, "_Parser", Recording)
        return seen

    @pytest.mark.parametrize("name", ["lambda1", "mu2", "sqrt2"])
    def test_a_declared_name_skips_the_parser(self, ctx, name, monkeypatch):
        expected = _Parser(ctx, name).parse()
        seen = self._recording(monkeypatch)
        value = ctx.parse(name)
        assert seen == []
        assert value == expected and value.terms == expected.terms
        assert value == (ctx.root(name) if name in ctx.roots else ctx.param(name))

    @pytest.mark.parametrize("text", ["lambda9", "sqrt", "Lambda1", " lambda1", "lambda1 ", "lambda1*mu2"])
    def test_other_name_text_takes_the_parser_path(self, ctx, text, monkeypatch):
        expected = _outcome(lambda t: _Parser(ctx, t).parse(), text)
        seen = self._recording(monkeypatch)
        assert _outcome(ctx.parse, text) == expected
        assert seen == [text]

    def test_an_undeclared_name_is_refused_with_the_parser_message(self, ctx):
        with pytest.raises(ScalarParseError, match=r"^undeclared name 'lambda9' at position 0$"):
            ctx.parse("lambda9")


_small = st.integers(min_value=-4, max_value=4)


@st.composite
def scalars(draw, ctx):
    atoms = [
        ctx.scalar(draw(_small)),
        ctx.param("lambda1"),
        ctx.param("mu2"),
        ctx.root("sqrt2"),
    ]
    value = ctx.scalar(draw(_small))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        op = draw(st.sampled_from(["+", "*", "-"]))
        other = draw(st.sampled_from(atoms))
        value = value + other if op == "+" else value - other if op == "-" else value * other
    return value


_CTX = ScalarContext(params=["lambda1", "mu2"], roots={"sqrt2": 2})
_PRIME = 10007  # 2 is a quadratic residue mod 10007


class TestAlgebraicLaws:
    @given(a=scalars(_CTX), b=scalars(_CTX), c=scalars(_CTX))
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)

    @given(a=scalars(_CTX), b=scalars(_CTX), la=_small, mu=_small)
    def test_mod_evaluation_is_a_homomorphism(self, a, b, la, mu):
        assign = {"lambda1": la, "mu2": mu}
        root = {"sqrt2": sqrt_mod(2, _PRIME)}

        def ev(s):
            return eval_mod(s, _PRIME, assign, root)

        assert ev(a * b) == ev(a) * ev(b) % _PRIME
        assert ev(a + b) == (ev(a) + ev(b)) % _PRIME

    @given(a=scalars(_CTX), la=_small, mu=_small)
    def test_zero_evaluates_to_zero_everywhere(self, a, la, mu):
        difference = a - a
        assert difference.is_zero()
        assert eval_mod(difference, _PRIME, {"lambda1": la, "mu2": mu}) == 0

    @given(a=scalars(_CTX))
    def test_canonical_form_round_trips(self, a):
        assert _CTX.parse(str(a)) == a


def test_sqrt_mod_finds_square_roots():
    r = sqrt_mod(2, _PRIME)
    assert r * r % _PRIME == 2
    with pytest.raises(ScalarError):
        sqrt_mod(2, 3)  # 2 is not a square mod 3


def test_substitute_parameters(ctx):
    value = ctx.parse("lambda1*lambda1 - mu2")
    spot = value.substitute({"lambda1": "3/2", "mu2": 2})
    assert spot == ctx.parse("1/4")
    with pytest.raises(ScalarError):
        value.substitute({"sqrt2": 1})


def test_fractional_radicand():
    half = ScalarContext(roots={"sqrthalf": "1/2"})
    root = half.root("sqrthalf")
    assert root * root == half.parse("1/2")
    assert half.parse("sqrt(1/2) * sqrt(1/2) - 1/2").is_zero()
    assert abs(eval_float(root) - 0.7071067811865476) < 1e-12


# -- fast paths of Scalar arithmetic against a term-by-term expansion ----------


def _rank(ctx):
    """Canonical symbol order, restated here: roots, then params, by name."""
    return {name: i for i, name in enumerate([*sorted(ctx.roots), *sorted(ctx.params)])}


def _canonical(ctx, mapping):
    rank = _rank(ctx)
    kept = [(m, c) for m, c in mapping.items() if c != 0]
    return tuple(sorted(kept, key=lambda mc: tuple((rank[s], e) for s, e in mc[0])))


def naive_mul(ctx, a, b):
    rank = _rank(ctx)
    out: dict = {}
    for mono_a, coeff_a in a.terms:
        for mono_b, coeff_b in b.terms:
            exps: dict = {}
            for sym, e in (*mono_a, *mono_b):
                exps[sym] = exps.get(sym, 0) + e
            coeff = coeff_a * coeff_b
            mono = []
            for sym in sorted(exps, key=rank.__getitem__):
                e = exps[sym]
                if sym in ctx.roots:
                    coeff *= ctx.roots[sym] ** (e // 2)
                    e %= 2
                if e:
                    mono.append((sym, e))
            out[tuple(mono)] = out.get(tuple(mono), 0) + coeff
    return _canonical(ctx, out)


def naive_add(ctx, a, b, sign=1):
    out = dict(a.terms)
    for mono, coeff in b.terms:
        out[mono] = out.get(mono, 0) + sign * coeff
    return _canonical(ctx, out)


_CONSTANTS = st.sampled_from([0, 1, -1, 2, -3, Fraction(-1, 2), Fraction(3, 7)])


@st.composite
def monomials(draw, ctx):
    """Single-term scalars, so equal monomials (and cancellations) are common."""
    atom = draw(st.sampled_from(["1", "lambda1", "sqrt2", "sqrt2*lambda1", "lambda1*mu2"]))
    return ctx.scalar(draw(_CONSTANTS.filter(bool))) * ctx.parse(atom)


class TestFastPaths:
    @given(a=scalars(_CTX), k=_CONSTANTS)
    def test_constant_operands_match_naive_expansion(self, a, k):
        c = _CTX.scalar(k)
        for x, y in ((a, c), (c, a)):
            assert (x * y).terms == naive_mul(_CTX, x, y)
            assert (x + y).terms == naive_add(_CTX, x, y)
            assert (x - y).terms == naive_add(_CTX, x, y, -1)
        # plain numbers take the coercing path and must agree with it
        assert (a * k).terms == (k * a).terms == naive_mul(_CTX, a, c)
        assert (a + k).terms == (k + a).terms == naive_add(_CTX, a, c)
        assert (a - k).terms == naive_add(_CTX, a, c, -1)
        assert (k - a).terms == naive_add(_CTX, c, a, -1)

    @given(a=monomials(_CTX), b=monomials(_CTX))
    def test_single_terms_match_naive_expansion(self, a, b):
        assert (a * b).terms == naive_mul(_CTX, a, b)
        assert (a + b).terms == naive_add(_CTX, a, b)
        assert (a - b).terms == naive_add(_CTX, a, b, -1)

    @given(a=scalars(_CTX), b=scalars(_CTX))
    def test_general_operands_match_naive_expansion(self, a, b):
        assert (a * b).terms == naive_mul(_CTX, a, b)
        assert (a + b).terms == naive_add(_CTX, a, b)
        assert (a - b).terms == naive_add(_CTX, a, b, -1)

    def test_equal_declarations_give_one_context(self):
        first = ScalarContext(params=["lambda1"], roots={"sqrt2": 2})
        second = ScalarContext(params=["lambda1", "lambda1"], roots={"sqrt2": "2"})
        assert first is second
        assert ScalarContext(params=["lambda1"]).union(ScalarContext(roots={"sqrt2": 2})) is first
        a, two, one = first.parse("lambda1 + sqrt2"), second.scalar(2), second.one
        assert a * two == two * a == first.parse("2*lambda1 + 2*sqrt2")
        assert a * one == one * a == a
        assert a + two == two + a == first.parse("lambda1 + sqrt2 + 2")
        assert a - two == first.parse("lambda1 + sqrt2 - 2")
        assert two - a == first.parse("2 - lambda1 - sqrt2")
        assert first.param("lambda1") - second.param("lambda1") == first.zero

    def test_mismatched_contexts_raise(self, ctx):
        other = ScalarContext(params=["lambda1"])
        lam = ctx.param("lambda1")
        for op in (operator.add, operator.sub, operator.mul):
            # constants and matching monomials must not slip past the check
            for rhs in (other.param("lambda1"), other.one, other.scalar(3)):
                with pytest.raises(ContextMismatchError):
                    op(lam, rhs)
                with pytest.raises(ContextMismatchError):
                    op(rhs, lam)


# -- coefficient form: int when integral, Fraction otherwise ---------------------


def _in_coefficient_form(value: Scalar) -> bool:
    """Every coefficient is an ``int`` (not a ``bool``) when integral and a
    ``Fraction`` with denominator > 1 otherwise."""
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction and c.denominator > 1
        for _, c in value.terms
    )


def _as_fractions(value: Scalar) -> Scalar:
    """``value`` with every coefficient a ``Fraction``: a non-canonical
    twin whose printed form must equal the canonical one's."""
    return Scalar(value.context, tuple((m, Fraction(c)) for m, c in value.terms))


@st.composite
def mixed_scalars(draw, ctx):
    """Scalars with integral and non-integral coefficients side by side."""
    value = draw(st.one_of(scalars(ctx), monomials(ctx)))
    for _ in range(draw(st.integers(0, 2))):
        value = value + draw(monomials(ctx))
    return value * ctx.scalar(draw(_CONSTANTS.filter(bool)))


_WIDER = ScalarContext(params=["lambda1", "mu2", "nu3"], roots={"sqrt2": 2})


class TestCoefficientForm:
    @given(a=mixed_scalars(_CTX), b=mixed_scalars(_CTX), k=_CONSTANTS, n=st.integers(0, 3))
    def test_arithmetic_keeps_coefficient_form(self, a, b, k, n):
        c = _CTX.scalar(k)
        assert _in_coefficient_form(a) and _in_coefficient_form(c)
        for x, y in ((a, b), (a, c), (c, a)):
            product, total, difference = x * y, x + y, x - y
            assert product.terms == naive_mul(_CTX, x, y)
            assert total.terms == naive_add(_CTX, x, y)
            assert difference.terms == naive_add(_CTX, x, y, -1)
            for value in (product, total, difference, -x):
                assert _in_coefficient_form(value)
                assert str(value) == str(_as_fractions(value))
        for value in (a * k, k * a, a + k, k + a, a - k, k - a):
            assert _in_coefficient_form(value)
        power, expected = a**n, _CTX.one.terms
        for _ in range(n):
            expected = naive_mul(_CTX, Scalar(_CTX, expected), a)
        assert power.terms == expected
        assert _in_coefficient_form(power)

    @given(a=mixed_scalars(_CTX), k=_CONSTANTS, la=_small, mu=_small)
    def test_substitute_rebase_and_parse_keep_coefficient_form(self, a, k, la, mu):
        spot = a.substitute({"lambda1": k})
        assert _in_coefficient_form(spot)
        assign = {"lambda1": la, "mu2": mu}
        root = {"sqrt2": sqrt_mod(2, _PRIME)}
        k_mod = Fraction(k).numerator * pow(Fraction(k).denominator, -1, _PRIME) % _PRIME
        assert eval_mod(spot, _PRIME, assign, root) == eval_mod(
            a, _PRIME, {**assign, "lambda1": k_mod}, root
        )
        wide = a.rebase(_WIDER)
        assert _in_coefficient_form(wide) and wide.terms == a.terms
        parsed = _CTX.parse(str(a))
        assert parsed.terms == a.terms and _in_coefficient_form(parsed)

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("4/2", (((), 2),)),
            ("-6/3*lambda1", (((("lambda1", 1),), -2),)),
            ("1/2 + 1/2", (((), 1),)),
            ("3/2*sqrt2 + 1/2*sqrt2", (((("sqrt2", 1),), 2),)),
            ("1/2*sqrt(2)*sqrt(2)", (((), 1),)),
            ("2/3", (((), Fraction(2, 3)),)),
            ("7", (((), 7),)),
        ],
    )
    def test_parsed_coefficients(self, text, terms):
        value = _CTX.parse(text)
        assert value.terms == terms and _in_coefficient_form(value)

    def test_constructors_and_radicands(self):
        for value in (_CTX.one, _CTX.param("mu2"), _CTX.root("sqrt2"), _CTX.scalar(Fraction(6, 3)),
                      _CTX.scalar("10/5"), _CTX.scalar(True), _CTX.scalar(Fraction(1, 3))):
            assert _in_coefficient_form(value)
        half = ScalarContext(roots={"sqrthalf": "1/2", "sqrt3": Fraction(3)})
        assert half.roots == {"sqrt3": 3, "sqrthalf": Fraction(1, 2)}
        assert type(half.roots["sqrt3"]) is int
        root = half.root("sqrthalf")
        assert (root * half.scalar(2) * root).terms == (((), 1),)


# -- radicand independence against the exhaustive subset walk ---------------------


def square_subset_reference(roots):
    """First subset of radicands, as a bit mask, whose product is a rational
    square, or None; tries the 2^k - 1 subsets one by one in Gray-code
    order, so each step multiplies or divides by one radicand."""
    value, subset = Fraction(1), 0
    for step in range(1, 1 << len(roots)):
        bit = (step & -step).bit_length() - 1
        subset ^= 1 << bit
        q = roots[bit][1]
        value = value * q if subset >> bit & 1 else value / q
        p, d = value.numerator, value.denominator
        if math.isqrt(p) ** 2 == p and math.isqrt(d) ** 2 == d:
            return subset
    return None


_radicands = st.lists(
    st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12),
    max_size=8,
    unique=True,
)


@given(_radicands)
def test_rank_check_refuses_what_the_subset_walk_refuses(radicands):
    roots = [(f"r{i}", q) for i, q in enumerate(radicands)]
    expected = square_subset_reference(roots)
    try:
        _check_independent(roots)
    except ScalarError as exc:
        assert expected is not None
        named = re.search(r"roots (.*) is ", str(exc)).group(1).split(", ")
        value = math.prod((q for name, q in roots if name in named), start=Fraction(1))
        assert named and all(math.isqrt(x) ** 2 == x for x in (value.numerator, value.denominator))
    else:
        assert expected is None
