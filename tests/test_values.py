import copy
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pdesctl import EPS, ONE, ZERO, EpsProb, format_prob, format_rat, parse_prob, parse_rat
from pdesctl.values import _RAT_RE

F = Fraction


def ep(n, d=1, deg=0):
    return EpsProb(F(n, d), deg)


probs = st.builds(
    EpsProb,
    st.fractions(min_value=0, max_value=4, max_denominator=50),
    st.integers(min_value=0, max_value=3),
)


class TestRationals:
    def test_parse_forms(self):
        assert parse_rat("3/8") == F(3, 8)
        assert parse_rat("0.375") == F(3, 8)
        assert parse_rat("2") == F(2)

    def test_parse_rejects_garbage(self):
        for bad in ["", "x", "1/0x", "1//2", "0.3.5"]:
            with pytest.raises(ValueError):
                parse_rat(bad)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rat("1/0")
        with pytest.raises(ValueError):
            parse_prob("0+^1·3/0")

    def test_format_decimal_when_finite(self):
        assert format_rat(F(4, 5)) == "0.8"
        assert format_rat(F(1, 8)) == "0.125"
        assert format_rat(F(1, 3)) == "1/3"
        assert format_rat(F(7)) == "7"
        assert format_rat(7) == "7"
        assert format_rat(F(5, 4), "fraction") == "5/4"

    @given(st.fractions(min_value=0, max_value=10, max_denominator=1000))
    def test_roundtrip(self, q):
        assert parse_rat(format_rat(q)) == q
        assert parse_rat(format_rat(q, "fraction")) == q


# digit runs as `_RAT_RE` accepts them: leading zeros, long runs, values
# above 2^64 and Unicode decimal digits (which both ``\d`` and `int` read)
DIGITS = st.one_of(
    st.text("0123456789", min_size=1, max_size=60),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 4), st.integers(0, 10**6)),
    st.integers(2**64, 2**200).map(str),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=8),
)
RAT_TOKENS = st.builds(
    lambda pad, sign, whole, tail: pad + sign + whole + tail + pad,
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    DIGITS,
    st.one_of(st.just(""), DIGITS.map("/".__add__), DIGITS.map(".".__add__)),
)


def exact(value, expected):
    """Equal, and built as the same normalized Fraction."""
    return type(value) is Fraction and (value.numerator, value.denominator) == (
        expected.numerator, expected.denominator)


class TestRationalTokens:
    """`parse_rat` agrees with `Fraction(text)` on the tokens `_RAT_RE`
    accepts, and rejects every other token."""

    @given(RAT_TOKENS)
    @example("-0.000")
    @example("+007/0010")
    @example("1/0")
    @example("-0/00")
    @example("\u0661\u0662.\u0665")
    @example(f"{2**64 + 1}/{2**65}")
    @example("-" + "7" * 3000 + "." + "0" * 2999 + "1")
    def test_accepted_tokens_read_as_fraction(self, text):
        assert _RAT_RE.match(text.strip())
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="^zero denominator: "):
                parse_rat(text)
            return
        assert exact(parse_rat(text), expected)

    @given(st.text("0123456789+-./e_ x\u0663", max_size=12))
    @example("1e5")
    @example("1.")
    @example(".5")
    @example("1_000")
    @example("1/2/3")
    @example("- 1")
    @example("")
    def test_other_tokens_raise_value_error(self, text):
        assume(not _RAT_RE.match(text.strip()))
        with pytest.raises(ValueError, match="^malformed rational: "):
            parse_rat(text)

    @given(RAT_TOKENS)
    def test_ordinary_probabilities(self, text):
        try:
            expected = Fraction(text)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="^zero denominator: "):
                parse_prob(text)
            return
        if expected < 0:
            with pytest.raises(ValueError, match="^probability cannot be negative: "):
                parse_prob(text)
            return
        p = parse_prob(text)
        assert p == EpsProb(expected) and p.eps_degree == 0 and exact(p.magnitude, expected)
        assert hash(p) == hash(EpsProb(expected))

    @given(
        st.integers(1, 2**70),
        st.integers(-(2**70), 2**70),
        st.integers(1, 2**70),
        st.sampled_from("·*"),
    )
    @example(1, 1, 1, "·")
    @example(3, 0, 5, "*")
    def test_infinitesimal_forms(self, degree, num, den, sep):
        assert parse_prob("0+") == EPS
        assert parse_prob(f"0+^{degree}") == EpsProb(F(1), degree)
        text = f"0+^{degree}{sep}{num}/{den}"
        if num <= 0:
            with pytest.raises(ValueError, match="^infinitesimal magnitude must be positive: "):
                parse_prob(text)
        else:
            p = parse_prob(text)
            assert p == EpsProb(F(num, den), degree) and exact(p.magnitude, F(num, den))
        with pytest.raises(ValueError, match="^infinitesimal degree must be a positive integer"):
            parse_prob(f"0+^0{degree}{sep}1/2")


class TestEpsProb:
    def test_mul_examples(self):
        assert ep(1, 2) * ep(2, 5) == ep(1, 5)
        assert ep(1, 1, 1) * ep(1, 2) == ep(1, 2, 1)
        assert ep(0) * ep(1, 1, 1) == ZERO
        with pytest.raises(TypeError):
            ep(1, 2) * "1/2"

    def test_cmp_examples(self):
        assert ep(1, 1, 1)._cmp(ep(1, 100)) < 0
        assert ep(1, 4)._cmp(ep(1, 2)) < 0
        assert ZERO._cmp(ep(1, 1, 2)) < 0
        assert ep(1, 1, 1) < ep(1, 100)
        assert ep(1, 4) < ep(1, 2)
        assert ZERO < ep(1, 1, 2)

    def test_sum_examples(self):
        assert ep(1, 2) + ep(1, 4) == ep(3, 4)
        assert ep(1, 2) + ep(1, 1, 1) == ep(1, 2)
        assert ep(1, 1, 1) + ep(1, 1, 1) == ep(2, 1, 1)
        with pytest.raises(TypeError):
            ep(1, 2) + F(1, 2)

    def test_canonical_zero(self):
        assert EpsProb(F(0), 5) == ZERO
        assert not ZERO
        assert ONE

    def test_division(self):
        assert ep(1, 1, 1) / ep(1, 2) == ep(2, 1, 1)
        assert ep(3, 4, 2) / ep(1, 2, 1) == ep(3, 2, 1)
        assert ep(1, 4, 1) / F(1, 2) == ep(1, 2, 1)
        assert ep(1, 2) / 2 == ep(1, 4)
        with pytest.raises(TypeError):
            ep(1, 2) / "2"
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ValueError):
            ONE / EPS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EpsProb(F(-1, 2))
        with pytest.raises(ValueError):
            EpsProb(F(1, 2), -1)

    @given(probs, probs, probs)
    def test_order_total_antisymmetric_transitive(self, a, b, c):
        assert (a < b) + (a == b) + (b < a) == 1
        if a <= b and b <= a:
            assert a == b
        if a <= b and b <= c:
            assert a <= c

    @given(probs, probs, probs)
    def test_mul_commutative_associative_identity(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * ONE == a

    @given(st.fractions(min_value=F(1, 100), max_value=10, max_denominator=100),
           st.integers(min_value=1, max_value=5))
    def test_eps_below_every_positive_rational(self, q, d):
        assert EpsProb(F(1), d) < EpsProb(q)

    @given(probs, probs)
    def test_dominant_sum_bounds(self, a, b):
        s = a + b
        assert s >= a or s >= b


class TestEpsProbValue:
    """EpsProb behaves as an immutable value of (magnitude, eps_degree)."""

    @given(probs, probs)
    def test_eq_and_hash_follow_the_fields(self, a, b):
        assert (a == b) == ((a.magnitude, a.eps_degree) == (b.magnitude, b.eps_degree))
        assert hash(a) == hash((a.magnitude, a.eps_degree))
        if a == b:
            assert hash(a) == hash(b)

    def test_not_equal_to_other_types(self):
        assert ONE != 1
        assert ONE != (F(1), 0)
        assert len({ep(1, 2), EpsProb(F(2, 4)), ep(1, 2, 1)}) == 2

    def test_attributes_cannot_be_set(self):
        p = ep(1, 2)
        with pytest.raises(FrozenInstanceError):
            p.magnitude = F(1)
        with pytest.raises(FrozenInstanceError):
            p.eps_degree = 3
        with pytest.raises(FrozenInstanceError):
            del p.magnitude
        with pytest.raises(AttributeError):
            p.other = 1
        assert p == ep(1, 2)

    @pytest.mark.parametrize("value", [ZERO, ONE, EPS, ep(3, 7, 2)])
    def test_copy_and_pickle_round_trip(self, value):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value
            assert type(clone) is EpsProb
            assert hash(clone) == hash(value)

    def test_constructor_coerces_and_validates(self):
        p = EpsProb(1)
        assert type(p.magnitude) is Fraction
        assert p == ONE
        with pytest.raises(ValueError):
            EpsProb(-1)
        with pytest.raises(ValueError):
            EpsProb(F(0), -1)
        assert EpsProb(0, 5) == ZERO
        assert EpsProb(0, 5).eps_degree == 0

    @given(probs, probs)
    @example(ZERO, EPS)
    @example(EPS, ZERO)
    @example(ZERO, ep(1, 3))
    @example(ep(1, 3, 2), ep(1, 3, 2))
    def test_arithmetic_results_are_canonical(self, a, b):
        results = [a * b, a + b, a * b.magnitude]
        if b and a.eps_degree >= b.eps_degree:
            results.append(a / b)
        for r in results:
            assert type(r) is EpsProb
            assert type(r.magnitude) is Fraction
            assert r.magnitude >= 0 and r.eps_degree >= 0
            assert r.magnitude or r.eps_degree == 0
            assert r == EpsProb(r.magnitude, r.eps_degree)


class TestProbText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", ZERO),
            ("1/2", ep(1, 2)),
            ("0.375", ep(3, 8)),
            ("0+", EPS),
            ("0+^3", ep(1, 1, 3)),
            ("0+^2·3/4", ep(3, 4, 2)),
            ("0+^2*3/4", ep(3, 4, 2)),
            ("0+·1/2", ep(1, 2, 1)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_prob(text) == value

    def test_parse_rejects(self):
        for bad in ["-1/2", "0+^2·0", "0+x", "0+^0", "0+^0·1/2", "0+^01"]:
            with pytest.raises(ValueError):
                parse_prob(bad)

    @pytest.mark.parametrize("text", ["0+^0", "0+^0·1/2", "0+^01", "0+^", "0+^-1"])
    def test_bad_degree_is_named(self, text):
        with pytest.raises(ValueError, match="^infinitesimal degree must be a positive integer"):
            parse_prob(text)

    def test_other_bad_infinitesimal_is_a_malformed_rational(self):
        with pytest.raises(ValueError, match="^malformed rational: '0\\+x'"):
            parse_prob("0+x")

    @given(probs)
    def test_roundtrip(self, p):
        assert parse_prob(format_prob(p)) == p
