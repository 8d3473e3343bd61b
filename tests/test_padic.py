import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treebolic.padic import PadicRational


def pr(num, l=0, p=2):
    return PadicRational(p, num, l)


def to_fraction(u):
    """The exact rational value of u, the oracle for the ring operations."""
    return Fraction(u.num, u.p**u.denom_exp)


rationals = st.builds(
    PadicRational,
    st.just(2),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=12),
)


class TestNormalization:
    def test_zero_collapses_denominator(self):
        assert pr(0, 7) == pr(0)

    def test_denominator_reduced(self):
        assert pr(4, 3) == pr(1, 1)  # 4/8 = 1/2

    def test_negative_denom_exp_moves_up(self):
        assert PadicRational(2, 3, -2) == pr(12)

    def test_base_one_only_zero(self):
        assert PadicRational(1, 0).is_zero
        with pytest.raises(ValueError):
            PadicRational(1, 5)

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pr(1, p=2) + pr(1, p=3)


class TestValuation:
    def test_value_p_itself(self):
        # u = p has valuation 1 and norm 1/p
        assert pr(2).valuation() == 1
        assert pr(2).norm() == 0.5

    def test_zero_is_infinite(self):
        assert pr(0).valuation() == math.inf
        assert pr(0).norm() == 0.0

    def test_three_quarters(self):
        assert pr(3, 2).valuation() == -2

    def test_composite_base(self):
        assert PadicRational(6, 12).valuation() == 1  # 6 | 12, 36 does not


class TestArithmetic:
    def test_carry(self):
        assert pr(1) + pr(1) == pr(2)

    def test_halves_sum_to_one(self):
        s = pr(1, 1) + pr(1, 1)
        assert s == pr(1) and s.denom_exp == 0

    def test_rational_product(self):
        # 2/3 * 3 = 2 in the base-3 ring
        u = PadicRational(3, 2, 1)
        assert u * 3 == PadicRational(3, 2)

    @given(rationals, rationals)
    def test_add_matches_fractions(self, u, v):
        assert to_fraction(u + v) == to_fraction(u) + to_fraction(v)

    @given(rationals, rationals)
    def test_mul_matches_fractions(self, u, v):
        assert to_fraction(u * v) == to_fraction(u) * to_fraction(v)

    @given(rationals)
    def test_neg_and_sub(self, u):
        assert (u - u).is_zero
        assert to_fraction(-u) == -to_fraction(u)

    @given(rationals, st.integers(min_value=-8, max_value=8))
    def test_shift_is_power_multiplication(self, u, k):
        assert to_fraction(u.shift(k)) == to_fraction(u) * Fraction(2) ** k


class TestUltrametric:
    @given(rationals, rationals)
    def test_additive_bound(self, u, v):
        assert (u + v).valuation() >= min(u.valuation(), v.valuation())

    @given(rationals, rationals)
    def test_multiplicative_for_prime_base(self, u, v):
        if not u.is_zero and not v.is_zero:
            assert (u * v).valuation() == u.valuation() + v.valuation()

    @given(rationals, st.integers(min_value=-6, max_value=6))
    def test_scaling(self, u, m):
        if not u.is_zero:
            assert u.shift(m).valuation() == u.valuation() + m


class TestDigits:
    def test_one(self):
        assert pr(1).digits(0, 3) == (1, 0, 0)

    def test_minus_one_is_all_ones(self):
        assert pr(-1).digits(0, 4) == (1, 1, 1, 1)

    def test_five_base_three(self):
        assert PadicRational(3, 5).digits(0, 2) == (2, 1)

    def test_fractional_digits(self):
        assert pr(3, 2).digits(-2, 1) == (1, 1, 0)  # 3/4 = 1/4 + 1/2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            pr(1).digits(3, 1)

    @given(rationals, st.integers(min_value=0, max_value=8))
    def test_partial_sums_reconstruct(self, u, hi):
        # the digits below hi sum to u modulo p**hi
        lo = -u.denom_exp
        total = PadicRational.zero(2)
        for k in range(lo, hi):
            total = total + PadicRational(2, u.digit(k)).shift(k)
        assert (u - total).valuation() >= hi


class TestBallCenter:
    def test_unit_ball_center_of_one(self):
        assert pr(1).ball_center(0) == pr(0)

    def test_three_mod_two(self):
        assert pr(3).ball_center(1) == pr(1)

    @given(rationals, st.integers(min_value=-10, max_value=10))
    def test_idempotent(self, u, m):
        c = u.ball_center(m)
        assert c.ball_center(m) == c

    @given(rationals, st.integers(min_value=-10, max_value=10))
    def test_within_radius_and_canonical(self, u, m):
        c = u.ball_center(m)
        assert (u - c).valuation() >= m
        assert all(c.digit(k) == 0 for k in range(m, m + 12))


def test_integral_values_hash_as_ints():
    # equal to its int, so a set or dict finds one by the other
    assert pr(3) == 3 and hash(pr(3)) == hash(3)
    assert 3 in {pr(3)} and pr(3) in {3}
    assert {pr(-4, p=3): "x"}[-4] == "x" and {-4: "x"}[pr(-4, p=3)] == "x"
    assert pr(3, 1) not in {3, 1}


@given(rationals)
def test_equal_values_hash_alike(u):
    twin = PadicRational(u.p, u.num * u.p**3, u.denom_exp + 3)  # the same value
    assert twin == u and hash(twin) == hash(u)
    if u.denom_exp == 0:
        assert u == u.num and hash(u) == hash(u.num) and u.num in {u}


def test_integral_values_equal_across_bases():
    # equality must be transitive, so a set cannot depend on insertion order
    assert len({pr(3, p=2), pr(3, p=3), 3}) == len({3, pr(3, p=2), pr(3, p=3)}) == 1
    assert pr(1, 1, p=2) != pr(2, 1, p=4)  # non-integral values of two bases stay unequal


# few values, so that equal pairs across bases are common
mixed = st.one_of(
    st.integers(min_value=-1, max_value=1),
    st.builds(
        PadicRational,
        st.sampled_from([2, 3, 4]),
        st.integers(min_value=-1, max_value=1),
        st.integers(min_value=0, max_value=1),
    ),
)


@settings(max_examples=500, derandomize=True)
@given(mixed, mixed, mixed)
def test_equality_is_transitive_across_bases(x, y, z):
    for a, b, c in itertools.permutations((x, y, z)):
        if a == b and b == c:
            assert a == c and hash(a) == hash(c)


def test_repr_forms():
    assert repr(pr(3, 2)) == "3/2^2"
    assert repr(pr(-5)) == "-5"
