from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdesctl import EPS, ONE, ZERO, EpsProb, eps_cmp, eps_mul, eps_sum_lower, format_prob, format_rat, parse_prob, parse_rat

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
        assert format_rat(F(5, 4), "fraction") == "5/4"

    @given(st.fractions(min_value=0, max_value=10, max_denominator=1000))
    def test_roundtrip(self, q):
        assert parse_rat(format_rat(q)) == q
        assert parse_rat(format_rat(q, "fraction")) == q


class TestEpsProb:
    def test_mul_examples(self):
        assert eps_mul(ep(1, 2), ep(2, 5)) == ep(1, 5)
        assert eps_mul(ep(1, 1, 1), ep(1, 2)) == ep(1, 2, 1)
        assert eps_mul(ep(0), ep(1, 1, 1)) == ZERO

    def test_cmp_examples(self):
        assert eps_cmp(ep(1, 1, 1), ep(1, 100)) < 0
        assert eps_cmp(ep(1, 4), ep(1, 2)) < 0
        assert eps_cmp(ZERO, ep(1, 1, 2)) < 0

    def test_sum_examples(self):
        assert eps_sum_lower(ep(1, 2), ep(1, 4)) == ep(3, 4)
        assert eps_sum_lower(ep(1, 2), ep(1, 1, 1)) == ep(1, 2)
        assert eps_sum_lower(ep(1, 1, 1), ep(1, 1, 1)) == ep(2, 1, 1)

    def test_canonical_zero(self):
        assert EpsProb(F(0), 5) == ZERO
        assert not ZERO
        assert ONE

    def test_division(self):
        assert ep(1, 1, 1) / ep(1, 2) == ep(2, 1, 1)
        assert ep(3, 4, 2) / ep(1, 2, 1) == ep(3, 2, 1)
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
        s = eps_sum_lower(a, b)
        assert s >= a or s >= b


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
        for bad in ["-1/2", "0+^2·0", "0+x"]:
            with pytest.raises(ValueError):
                parse_prob(bad)

    @given(probs)
    def test_roundtrip(self, p):
        assert parse_prob(format_prob(p)) == p
