import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cayleycubic import (
    FORM_A,
    FORM_Z,
    BudgetExceededError,
    DegeneratePellError,
    InvariantError,
    NonIntegralFamilyError,
    PellInstance,
    PellSolution,
    family_one_instance,
    family_two_instance,
    pell_family_one,
    pell_family_two,
    pell_oracle,
    scaled_cheb_t,
    scaled_cheb_u,
    verify_pell,
)
from cayleycubic import pell as pl

FAMILY_ONE_S1_Y2 = [(2, 1), (7, 4), (26, 15), (97, 56), (362, 209), (1351, 780)]


def test_instance_validation():
    with pytest.raises(DegeneratePellError):
        PellInstance(1, 1, FORM_Z)
    with pytest.raises(DegeneratePellError):
        PellInstance(4, 1, FORM_Z)
    with pytest.raises(DegeneratePellError):
        PellInstance(-3, 1, FORM_Z)
    with pytest.raises(ValueError):
        PellInstance(3, 1, "z2+da2")
    inst = PellInstance(3, 1, FORM_Z)
    assert inst.holds(2, 1)
    assert not inst.holds(2, 2)


def test_verify_pell_accepts_pairs():
    inst = PellInstance(3, 1, FORM_Z)
    assert verify_pell(inst, PellSolution(7, 4))
    assert verify_pell(inst, (7, 4))
    assert not verify_pell(inst, (7, 5))


def test_family_one_instance():
    inst = family_one_instance(1, 2)
    assert (inst.d, inst.rhs, inst.form) == (3, 1, FORM_Z)
    inst = family_one_instance(3, 6)
    assert (inst.d, inst.rhs, inst.form) == (27, 9, FORM_Z)
    with pytest.raises(DegeneratePellError):
        family_one_instance(3, 3)
    with pytest.raises(DegeneratePellError):
        family_one_instance(3, 2)


def test_family_one_table():
    got = [tuple(pell_family_one(1, 2, n)) for n in range(1, 7)]
    assert got == FAMILY_ONE_S1_Y2
    inst = family_one_instance(1, 2)
    for sol in got:
        assert verify_pell(inst, sol)
    with pytest.raises(ValueError):
        pell_family_one(1, 2, 0)


def test_family_one_scaled():
    # s=3, y=6: z^2 - 27 a^2 = 9
    got = [tuple(pell_family_one(3, 6, n)) for n in range(1, 4)]
    assert got == [(6, 1), (21, 4), (78, 15)]


def test_oracle_small_bounds():
    inst = PellInstance(3, 1, FORM_Z)
    assert pell_oracle(inst, 30) == [
        PellSolution(2, 1),
        PellSolution(7, 4),
        PellSolution(26, 15),
    ]
    assert [tuple(s) for s in pell_oracle(inst, 1400)] == FAMILY_ONE_S1_Y2


def test_oracle_zero_handling():
    inst = PellInstance(3, 1, FORM_Z)
    assert pell_oracle(inst, 5, include_zero=True) == [
        PellSolution(1, 0),
        PellSolution(2, 1),
    ]
    assert pell_oracle(inst, 5) == [PellSolution(2, 1)]
    # rhs = 0 forces z = a = 0 when d is not a square
    assert pell_oracle(PellInstance(3, 0, FORM_Z), 50, include_zero=True) == []
    assert pell_oracle(PellInstance(12, 0, FORM_A), 50, include_zero=True) == []


def test_oracle_scaled_instance():
    inst = PellInstance(27, 9, FORM_Z)
    assert [tuple(s) for s in pell_oracle(inst, 100)] == [(6, 1), (21, 4), (78, 15)]


def test_family_one_members_match_pointwise():
    for s in range(1, 7):
        for y in [v for v in range(s + 1, 40) if (2 * v) % s == 0]:
            want = [pell_family_one(s, y, n) for n in range(1, 31)]
            for count in (-1, 0, 1, 2, 3, 30):
                assert pl.pell_family_one_members(s, y, count) == want[: max(count, 0)]


@pytest.mark.parametrize("count", [-1, 0, 1, 5])
def test_family_one_members_check_the_base_for_any_count(count):
    with pytest.raises(NonIntegralFamilyError):
        pl.pell_family_one_members(3, 4, count)


def test_family_one_members_check_every_member(monkeypatch):
    # the chain walk's X_3 = 26 off by one (its seeds are s, y = 1, 2; the companion's are 1, 4):
    # the third member is the first wrong one
    walk = pl._recurrence

    def shifted(t, q, x0, x1):
        return (x + (k == 3 and (x0, x1) == (1, 2)) for k, x in enumerate(walk(t, q, x0, x1)))

    monkeypatch.setattr(pl, "_recurrence", shifted)
    assert len(pl.pell_family_one_members(1, 2, 2)) == 2
    with pytest.raises(InvariantError, match=r"chain solution PellSolution\(z=27, a=15\) fails"):
        pl.pell_family_one_members(1, 2, 3)


def test_family_two_instance():
    inst = family_two_instance(1, 4, 2)
    # chain 1, 4, 31, ... so the anchor is 31 and d = 31^2 - 1
    assert (inst.d, inst.rhs, inst.form) == (960, -960, FORM_A)


def test_family_two_values():
    got = [tuple(pell_family_two(1, 4, 2, m)) for m in (1, 2, 3)]
    assert got == [(4, 120), (31, 960), (244, 7560)]
    for z, a in got:
        assert a * a - 960 * z * z == -960


def test_family_two_difference_is_even():
    # 2*X_n*X_m / s = X_{n+m} + X_{|n-m|} gives s*(X_{n+m} - X_{|n-m|}) =
    # 2*X_n*X_m - 2s*X_{|n-m|}: pell_family_two halves it without a parity check
    for s in range(1, 7):
        for p in range(1, 4 * s + 1):
            if 2 * p % s:
                continue
            for n in range(1, 13):
                for m in range(1, 13):
                    diff = s * (scaled_cheb_t(s, p, n + m) - scaled_cheb_t(s, p, abs(n - m)))
                    assert diff % 2 == 0
                    if p > s:
                        assert pell_family_two(s, p, n, m) == (scaled_cheb_t(s, p, m), diff // 2)


def test_family_one_rejects_a_wrong_companion(monkeypatch):
    monkeypatch.setattr(pl, "scaled_cheb_u", lambda s, y, n: scaled_cheb_u(s, y, n) + 1)
    with pytest.raises(InvariantError):
        pell_family_one(1, 2, 3)


def test_family_two_rejects_a_wrong_chain_value(monkeypatch):
    # the chain value at index m = 3 alone is off by 2: the instance (n = 1)
    # and the difference term (indices 4 and 2) keep their true values
    terms = pl._terms
    monkeypatch.setattr(
        pl, "_terms", lambda *args: tuple(x + (2 if k == 3 else 0) for k, x in zip(args[4:], terms(*args)))
    )
    with pytest.raises(InvariantError):
        pell_family_two(1, 4, 1, 3)


def test_family_two_checks_its_member_against_the_instance(monkeypatch):
    # the instance of n = 3 beside the member of n = 2: X_n, the first index _terms reads, is read
    # at n + 1 and the member's indices are left alone; the member check must catch it
    terms = pl._terms
    monkeypatch.setattr(pl, "_terms", lambda t, q, x0, x1, n, *rest: terms(t, q, x0, x1, n + 1, *rest))
    with pytest.raises(InvariantError, match="fails"):
        pell_family_two(1, 4, 2, 1)


@pytest.mark.parametrize(
    "args, error, message",
    [
        # each call fails every later check too: m, then n, then s | 2p, then the chain value
        ((4, 3, 0, 0), ValueError, "m must be >= 1, got 0"),
        ((4, 3, 0, 1), ValueError, "n must be >= 1, got 0"),
        ((4, 3, 1, 1), NonIntegralFamilyError, "s=4 does not divide 2b=6"),
        ((4, 2, 1, 1), DegeneratePellError, "chain value 2 does not exceed s=4"),
    ],
)
def test_family_two_checks_in_order(args, error, message):
    with pytest.raises(error, match=message):
        pell_family_two(*args)


def test_family_two_matches_oracle():
    inst = family_two_instance(1, 4, 2)
    got = pell_oracle(inst, 250)
    assert [tuple(s) for s in got] == [(4, 120), (31, 960), (244, 7560)]


def test_families_randomized_containment():
    rng = random.Random(11)
    for _ in range(20):
        s = rng.randint(1, 6)
        y = rng.choice([v for v in range(s + 1, 30) if (2 * v) % s == 0])
        n = rng.randint(1, 8)
        sol = pell_family_one(s, y, n)
        assert verify_pell(family_one_instance(s, y), sol)
    for _ in range(20):
        s = rng.randint(1, 4)
        p = rng.choice([v for v in range(s + 1, 12) if (2 * v) % s == 0])
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        inst = family_two_instance(s, p, n)
        sol = pell_family_two(s, p, n, m)
        assert verify_pell(inst, sol)


def test_family_one_complete_for_unit_rhs():
    # For s=1 the chain solutions exhaust z^2 - (y^2-1) a^2 = 1 entirely.
    for y in (2, 3, 4):
        inst = family_one_instance(1, y)
        want = []
        n = 1
        while True:
            sol = pell_family_one(1, y, n)
            if sol.z > 10**5:
                break
            want.append(sol)
            n += 1
        assert pell_oracle(inst, 10**5) == want


def test_coupled_chain_identities():
    # R_n^2 - d R*_{n-1}^2 = s^2  and  R_n R_{n-1} - d R*_{n-1} R*_{n-2} = s*y
    for s in range(1, 9):
        for y in range(1, 41):
            if (2 * y) % s:
                continue
            d = y * y - s * s
            for n in range(1, 11):
                rn = scaled_cheb_t(s, y, n)
                un1 = scaled_cheb_u(s, y, n - 1)
                assert rn * rn - d * un1 * un1 == s * s
                if n >= 2:
                    rn1 = scaled_cheb_t(s, y, n - 1)
                    un2 = scaled_cheb_u(s, y, n - 2)
                    assert rn * rn1 - d * un1 * un2 == s * y


def test_unit_fraction_approximates_sqrt3():
    # z/a for (1351, 780) is the classical sqrt(3) convergent; the defect is
    # exactly 1/780^2, which pins the error below 5e-7 without any floats.
    x = Fraction(1351, 780)
    assert x * x - 3 == Fraction(1, 780 * 780)
    # x > sqrt(3) > 173/100, so x - sqrt(3) = (x^2-3)/(x+sqrt(3)) is below
    # (x^2-3)/(x + 173/100)
    err_bound = (x * x - 3) / (x + Fraction(173, 100))
    assert err_bound < Fraction(5, 10**7)


# ---- the oracle against the direct scan --------------------------------------


def _direct(inst, bound, include_zero=False):
    """Reference: every z in 1..bound, with the one candidate a >= 0 read off the equation and checked exactly."""
    out = []
    for z in range(1, bound + 1):
        a2 = (z * z - inst.rhs) // inst.d if inst.form == FORM_Z else inst.rhs + inst.d * z * z
        a = isqrt(max(a2, 0))
        if inst.holds(z, a) and (a or include_zero):
            out.append(PellSolution(z, a))
    return out


@st.composite
def _instances(draw):
    if draw(st.booleans()):
        d = draw(st.integers(2, 60)) * draw(st.integers(1, 15)) ** 2
    else:
        d = draw(st.integers(2, 5000))
    assume(isqrt(d) ** 2 != d)
    k = draw(st.integers(1, 40))
    rhs = draw(st.sampled_from([0, k * k, -k * k, -k * k * d, draw(st.integers(-5000, 5000))]))
    return PellInstance(d, rhs, draw(st.sampled_from([FORM_Z, FORM_A])))


@settings(max_examples=400, deadline=None)
@given(_instances(), st.integers(1, 3000), st.booleans())
def test_oracle_matches_direct_scan(inst, bound, include_zero):
    assert pell_oracle(inst, bound, include_zero=include_zero) == _direct(inst, bound, include_zero)


@pytest.mark.parametrize(
    "d, rhs, form",
    [
        (3, 1, FORM_A),  # the only seed is (X, W) = (1, 0): the scan must start at W = 0
        (12, -12, FORM_Z),  # d = 3 * 2^2; the only seed is (0, 2): X = 0
        (3, 1, FORM_Z),  # seed (1, 0) at X = 1, the last integer below x1 * sqrt(1) = 2
        (3, -299, FORM_A),  # seed (28, 19) at W = 19, the last integer below 2 * sqrt(299 / 3)
    ],
)
def test_oracle_seeds_on_the_domain_edges(d, rhs, form):
    inst = PellInstance(d, rhs, form)
    for include_zero in (False, True):
        got = pell_oracle(inst, 10**4, include_zero=include_zero)
        assert got == _direct(inst, 10**4, include_zero)
        assert len(got) >= 3


WORKLOAD_BASES = [(s, mult * s // 2) for s in range(1, 7) for mult in (4, 6)]


@pytest.mark.parametrize("s, y", WORKLOAD_BASES)
def test_oracle_matches_direct_scan_on_chain_instances(s, y):
    # the shapes of the chain instances the benchmark asks about: family one at
    # (s, y), family two anchored at chain indices 2 and 3
    for inst in (family_one_instance(s, y), family_two_instance(s, y, 2), family_two_instance(s, y, 3)):
        got = pell_oracle(inst, 10**5)
        assert got == _direct(inst, 10**5)
        assert len(got) >= 5


def _record_scans(monkeypatch):
    spans = []
    scan = pl._oracle_range

    def recording(d, rhs, form, lo, hi):
        spans.append((d, lo, hi))
        return scan(d, rhs, form, lo, hi)

    monkeypatch.setattr(pl, "_oracle_range", recording)
    return spans


def test_oracle_scans_a_fundamental_domain_only(monkeypatch):
    # d = 245000 = 2 * 350^2 and rhs = -5^2 * d: family two at base (5, 15),
    # anchor index 3; the domain of the unit 3 + 2*sqrt(2) has W < 5250
    spans = _record_scans(monkeypatch)
    inst = PellInstance(245000, -6125000, FORM_A)
    assert inst == family_two_instance(5, 15, 3)
    got = pell_oracle(inst, 10**6)
    assert sum(hi - lo + 1 for _, lo, hi in spans) < 10**4
    assert [d for d, _, _ in spans] == [2]
    members = [pell_family_two(5, 15, 3, m) for m in range(1, 8)]
    assert set(m for m in members if m.z <= 10**6) <= set(got)
    assert all(inst.holds(*sol) and 1 <= sol.z <= 10**6 for sol in got)


def test_fundamental_unit():
    # the least solution: of norm 1, and no smaller y works (searched up to 1000)
    for f in range(2, 200):
        if isqrt(f) ** 2 == f:
            continue
        x, y = pl._fundamental_unit(f, 10**40)
        assert x * x - f * y * y == 1
        smaller = [v for v in range(1, min(y, 1000)) if isqrt(f * v * v + 1) ** 2 == f * v * v + 1]
        assert smaller == []
    assert pl._fundamental_unit(61, 1766319049) == (1766319049, 226153980)
    assert pl._fundamental_unit(61, 1766319048) is None


def test_oracle_falls_back_to_the_direct_scan(monkeypatch):
    # 61 is prime and its unit 1766319049 + 226153980*sqrt(61) passes the cap
    # (bound + 1)*(isqrt(61) + 1) = 808 at bound 100
    spans = _record_scans(monkeypatch)
    inst = PellInstance(61, 36, FORM_Z)
    got = pell_oracle(inst, 100, include_zero=True)
    assert spans == [(61, 1, 100)]
    assert got == _direct(inst, 100, True) == [PellSolution(6, 0), PellSolution(55, 7)]
    assert pell_oracle(inst, 2000) == _direct(inst, 2000)


def test_oracle_stops_the_expansion_at_the_cap():
    # the unit of x^2 - d*y^2 = 1 for this d has more than 300 digits; the
    # expansion must stop once a numerator passes 11*(10^15 + 1), after a few
    # convergents, and z <= 10 is scanned.  Without the cap this call hangs.
    d = 10**30 + 7
    out = subprocess.run(
        [sys.executable, "-c", f"from cayleycubic import *; print(pell_oracle(PellInstance({d}, 1), 10))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout == "[]\n"


@pytest.mark.parametrize(
    "inst, bound, planned",
    [
        (PellInstance(3, 1, FORM_Z), 10**6, 2),  # seeds X = 0, 1 below the unit 2 + sqrt(3)
        (PellInstance(3, -299, FORM_A), 10**4, 20),  # seeds W = 0..19
        (PellInstance(61, 36, FORM_Z), 2000, 2000),  # unit past the cap: the direct scan of z = 1..2000
    ],
)
def test_oracle_budget_refuses_before_any_scan(monkeypatch, inst, bound, planned):
    want = _direct(inst, bound)
    spans = _record_scans(monkeypatch)
    # plan == budget runs, and the plan is the number of values scanned
    assert pell_oracle(inst, bound, budget=planned) == want
    assert sum(hi - lo + 1 for _, lo, hi in spans) == planned

    def no_scan(*args):
        raise AssertionError("a refused oracle must not scan")

    monkeypatch.setattr(pl, "_oracle_range", no_scan)
    with pytest.raises(BudgetExceededError, match=f"needs {planned} scanned values, budget is {planned - 1}$"):
        pell_oracle(inst, bound, budget=planned - 1)


@pytest.mark.parametrize(
    "d, bound, trials",
    [
        (10**6 + 3, 10**6, 999),  # isqrt(min(d, bound)) - 1 = 999
        (10**6 + 3, 10**4, 99),  # the bound caps the factoring too
        (3, 10**6, 0),  # 2^2 > 3: no trial division
    ],
)
def test_oracle_budget_refuses_before_factoring(monkeypatch, d, bound, trials):
    def no_unit(*args):
        raise AssertionError("a refused oracle must not search for the unit")

    monkeypatch.setattr(pl, "_fundamental_unit", no_unit)
    monkeypatch.setattr(pl, "_oracle_range", no_unit)
    if trials:
        with pytest.raises(BudgetExceededError, match=f"needs up to {trials} trial divisions, budget is {trials - 1}$"):
            pell_oracle(PellInstance(d, 1), bound, budget=trials - 1)
    # trial divisions within the budget: the factoring runs and the oracle goes on to the unit
    with pytest.raises(AssertionError, match="must not search"):
        pell_oracle(PellInstance(d, 1), bound, budget=trials)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: family_two_instance(1, 4, 0), ValueError, "n must be >= 1, got 0"),
        (lambda: family_two_instance(2, 2, 1), DegeneratePellError, "chain value 2 does not exceed s=2"),
        (lambda: pell_family_two(1, 4, 2, 0), ValueError, "m must be >= 1, got 0"),
        (lambda: pell_family_two(1, 4, 0, 1), ValueError, "n must be >= 1, got 0"),
        (lambda: pell_oracle(PellInstance(3, 1), 0), ValueError, "bound must be >= 1, got 0"),
        # a float is refused, not carried into a float result
        (lambda: pell_oracle(PellInstance(2, 1), 10.5), ValueError, "^bound must be >= 1, got 10.5$"),
        (lambda: pell_family_one(1, 3, 2.0), ValueError, "^sequence index must be non-negative, got 2.0$"),
        (lambda: pl.pell_family_one_members(1, 3, 2.0), ValueError, "^count must be an integer, got 2.0$"),
        (lambda: pl.pell_family_one_members(1, 3, 10**20), ValueError, f"^count must be at most {sys.maxsize}, got {10**20}$"),
        (lambda: pl.pell_family_one_members(1, 1, 10**20), DegeneratePellError, "^need y > s"),
    ],
)
def test_pell_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()
