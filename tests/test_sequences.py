from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cayleycubic import (
    BudgetExceededError,
    NonIntegralFamilyError,
    cheb_t,
    cheb_u,
    family_multiplier,
    family_triple,
    lucas_u,
    lucas_v,
    pell_family_one_members,
    pell_family_two,
    scaled_cheb_t,
    scaled_cheb_u,
)
from cayleycubic import sequences as sq


def test_lucas_u_fibonacci():
    # U_n(1, -1) is the Fibonacci sequence.
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [lucas_u(1, -1, n) for n in range(len(fib))] == fib


def test_lucas_v_lucas_numbers():
    luc = [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]
    assert [lucas_v(1, -1, n) for n in range(len(luc))] == luc


def test_lucas_u_pell_numbers():
    pell = [0, 1, 2, 5, 12, 29, 70, 169, 408]
    assert [lucas_u(2, -1, n) for n in range(len(pell))] == pell


def test_cheb_t_small_arguments():
    # T_n evaluated at integer points: T_0=1, T_1=x, T_2=2x^2-1, T_3=4x^3-3x.
    assert [cheb_t(n, 2) for n in range(6)] == [1, 2, 7, 26, 97, 362]
    assert [cheb_t(n, 3) for n in range(6)] == [1, 3, 17, 99, 577, 3363]
    assert cheb_t(0, 1) == 1 and cheb_t(5, 1) == 1


def test_cheb_u_small_arguments():
    assert [cheb_u(n, 2) for n in range(6)] == [1, 4, 15, 56, 209, 780]
    assert [cheb_u(n, 3) for n in range(5)] == [1, 6, 35, 204, 1189]
    assert [cheb_u(n, 1) for n in range(5)] == [1, 2, 3, 4, 5]


def test_cheb_argument_validation():
    with pytest.raises(ValueError):
        cheb_t(3, 0)
    with pytest.raises(ValueError):
        cheb_t(-1, 2)
    with pytest.raises(ValueError):
        cheb_u(2, 0)


def test_product_to_sum_identity():
    # 2 T_n T_m = T_{n+m} + T_{|n-m|}
    for x in (1, 2, 3, 5, 11):
        for n in range(0, 9):
            for m in range(0, 9):
                lhs = 2 * cheb_t(n, x) * cheb_t(m, x)
                rhs = cheb_t(n + m, x) + cheb_t(abs(n - m), x)
                assert lhs == rhs


def test_difference_square_identity():
    # 4 (T_n^2 - 1)(T_m^2 - 1) = (T_{n+m} - T_{|n-m|})^2
    for x in (2, 3, 4, 7):
        for n in range(0, 8):
            for m in range(0, 8):
                lhs = 4 * (cheb_t(n, x) ** 2 - 1) * (cheb_t(m, x) ** 2 - 1)
                rhs = (cheb_t(n + m, x) - cheb_t(abs(n - m), x)) ** 2
                assert lhs == rhs


def test_nesting_identity():
    # T_{ab}(x) = T_a(T_b(x))
    for x in (1, 2, 3):
        for a in range(0, 6):
            for b in range(0, 6):
                assert cheb_t(a * b, x) == cheb_t(a, cheb_t(b, x))


def test_pell_shape_identity():
    # T_n^2 - (x^2 - 1) U_{n-1}^2 = 1
    for x in (2, 3, 4, 9):
        for n in range(1, 12):
            assert cheb_t(n, x) ** 2 - (x * x - 1) * cheb_u(n - 1, x) ** 2 == 1


def test_lucas_v_doubles_cheb_t():
    # V_n(2x, 1) = 2 T_n(x)
    for x in (1, 2, 3, 6):
        for n in range(0, 10):
            assert lucas_v(2 * x, 1, n) == 2 * cheb_t(n, x)


def test_lucas_v_squared_minus_discriminant():
    # V_n^2 - (p^2 - 4q) U_n^2 = 4 q^n
    for p in range(1, 6):
        for q in (-1, 1, 2):
            for n in range(0, 9):
                d = p * p - 4 * q
                assert lucas_v(p, q, n) ** 2 - d * lucas_u(p, q, n) ** 2 == 4 * q**n


def test_family_multiplier():
    assert family_multiplier(1, 5) == 10
    assert family_multiplier(2, 3) == 3
    assert family_multiplier(3, 6) == 4
    assert family_multiplier(12, 18) == 3
    with pytest.raises(NonIntegralFamilyError):
        family_multiplier(4, 3)
    with pytest.raises(NonIntegralFamilyError):
        family_multiplier(12, 20)


def test_scaled_chain_small_values():
    # s=3, b=6: multiplier 4, so 3, 6, 21, 78, 291, 1086, 4053, ...
    want = [3, 6, 21, 78, 291, 1086, 4053, 15126, 56451, 210678, 786261]
    assert [scaled_cheb_t(3, 6, n) for n in range(len(want))] == want
    # the companion chain starts 1, 4 with the same multiplier
    assert [scaled_cheb_u(3, 6, n) for n in range(5)] == [1, 4, 15, 56, 209]


def test_scaled_chain_is_scaled_cheb_t():
    # When s divides b exactly the chain is s * T_n(b // s).
    for s in (1, 2, 3, 5):
        for k in (1, 2, 3):
            b = s * k
            for n in range(0, 9):
                assert scaled_cheb_t(s, b, n) == s * cheb_t(n, k)


def test_scaled_chain_specialization_s2():
    # s=2 turns the chain into classical Lucas sequences with q=1.
    for p in range(1, 8):
        for n in range(0, 10):
            assert scaled_cheb_t(2, p, n) == lucas_v(p, 1, n)
        for n in range(1, 10):
            assert scaled_cheb_u(2, p, n - 1) == lucas_u(p, 1, n)


def test_scaled_chain_rejects_non_integral():
    with pytest.raises(NonIntegralFamilyError):
        scaled_cheb_t(4, 5, 3)
    with pytest.raises(NonIntegralFamilyError):
        scaled_cheb_u(9, 2, 1)


def _loop(mult, x0, x1, count):
    """The first `count` terms of x[k+1] = mult*x[k] - x[k-1], written out here
    as an oracle independent of the library's recurrence kernel."""
    xs = [x0, x1]
    while len(xs) < count:
        xs.append(mult * xs[-1] - xs[-2])
    return xs[:count]


# every base (s, b) with s in 1-8 and integral multiplier 2b/s in 3-12
ORACLE_BASES = [(s, mult * s // 2, mult) for s in range(1, 9) for mult in range(3, 13) if mult * s % 2 == 0]
ORACLE_INDICES = range(13)


def test_scaled_chains_match_a_loop():
    for s, b, mult in ORACLE_BASES:
        assert [scaled_cheb_t(s, b, n) for n in ORACLE_INDICES] == _loop(mult, s, b, 13)
        assert [scaled_cheb_u(s, b, n) for n in ORACLE_INDICES] == _loop(mult, 1, mult, 13)


def test_family_triples_and_chain_values_match_a_loop():
    for s, b, mult in ORACLE_BASES:
        xs = _loop(mult, s, b, 25)
        for n in ORACLE_INDICES:
            for m in ORACLE_INDICES:
                if n or m:
                    assert family_triple(s, b, n, m).components == (xs[n], xs[n + m], xs[m])
            assert sq._chain_values(s, b, xs[n]) == xs[: n + 1]
            assert sq._chain_values(s, b, xs[n + 1] - 1) == xs[: n + 1]


def test_pell_families_match_a_loop():
    for s, y, mult in ORACLE_BASES:
        xs = _loop(mult, s, y, 25)
        us = _loop(mult, 1, mult, 13)
        members = list(zip(xs[1:], us))
        for count in range(14):
            assert pell_family_one_members(s, y, count) == members[:count]
        for n in range(1, 13):
            for m in range(1, 13):
                # s*(X_{n+m} - X_{|n-m|}) is even on every base here
                assert pell_family_two(s, y, n, m) == (xs[m], s * (xs[n + m] - xs[abs(n - m)]) // 2)


# the ladder's edge cases: 2^k - 1 climbs only 1 bits, 2^k doubles only after its top bit
LADDER_INDICES = [0, 1, 2] + [i for k in range(2, 14) for i in (2**k - 1, 2**k, 2**k + 1)]


def test_terms_match_a_loop_at_every_bit_pattern_edge():
    for s, b, mult in ORACLE_BASES:
        xs = _loop(mult, s, b, 2**13 + 2)
        assert sq._terms(mult, 1, s, b, *LADDER_INDICES) == tuple(xs[i] for i in LADDER_INDICES)


def test_terms_of_no_indices_is_empty():
    assert sq._terms(4, 1, 3, 6) == ()


def test_family_triple_far_out_matches_a_loop():
    xs = _loop(4, 3, 6, 8002)
    assert family_triple(3, 6, 8000, 1).components == (xs[8000], xs[8001], xs[1])


def test_negative_indices_are_refused():
    for call in (
        lambda: sq._terms(4, 1, 3, 6, 2, -1),
        lambda: lucas_u(1, -1, -1),
        lambda: lucas_v(1, -1, -1),
        lambda: cheb_u(-1, 2),
        lambda: scaled_cheb_t(3, 6, -1),
        lambda: scaled_cheb_u(3, 6, -1),
        lambda: family_triple(3, 6, 2, -1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            call()


def _walk(t, q, x0, x1, n):
    """X_n by n steps of the library's one-pass recurrence: the slow reference."""
    return next(islice(sq._recurrence(t, q, x0, x1), n, None))


@given(
    t=st.integers(min_value=-6, max_value=6),
    q=st.integers(min_value=-3, max_value=3),
    n=st.integers(min_value=0, max_value=300),
)
@example(t=-5, q=0, n=300)
@example(t=0, q=-3, n=257)
@settings(max_examples=200, deadline=None)
def test_lucas_ladder_matches_the_walk(t, q, n):
    assert lucas_u(t, q, n) == _walk(t, q, 0, 1, n)
    assert lucas_v(t, q, n) == _walk(t, q, 2, t, n)


@given(x=st.integers(min_value=1, max_value=60), n=st.integers(min_value=0, max_value=300))
@settings(max_examples=100, deadline=None)
def test_cheb_ladder_matches_a_loop(x, n):
    assert cheb_t(n, x) == _loop(2 * x, 1, x, n + 1)[n]
    assert cheb_u(n, x) == _loop(2 * x, 1, 2 * x, n + 1)[n]


def test_family_plan_bounds_the_digits():
    # refused at one digit below the largest value, and allowed a quarter above it
    for s, b, mult in ORACLE_BASES:
        xs = _loop(mult, s, b, 201)
        for k in range(1, 201):
            digits = len(str(xs[k]))
            with pytest.raises(BudgetExceededError):
                family_triple(s, b, k, 0, budget=digits - 1)
            assert family_triple(s, b, k, 0, budget=digits * 5 // 4 + 1).a == xs[k]


@given(
    p=st.integers(min_value=-6, max_value=6),
    q=st.integers(min_value=-6, max_value=6),
    n=st.integers(min_value=2, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_lucas_recurrences_hold(p, q, n):
    assert lucas_u(p, q, n) == p * lucas_u(p, q, n - 1) - q * lucas_u(p, q, n - 2)
    assert lucas_v(p, q, n) == p * lucas_v(p, q, n - 1) - q * lucas_v(p, q, n - 2)


@given(
    x=st.integers(min_value=1, max_value=50),
    n=st.integers(min_value=2, max_value=60),
)
@settings(max_examples=60, deadline=None)
def test_cheb_recurrences_hold(x, n):
    assert cheb_t(n, x) == 2 * x * cheb_t(n - 1, x) - cheb_t(n - 2, x)
    assert cheb_u(n, x) == 2 * x * cheb_u(n - 1, x) - cheb_u(n - 2, x)
