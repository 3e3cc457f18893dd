import random
from fractions import Fraction

import pytest

from cayleycubic import (
    FORM_A,
    FORM_Z,
    DegeneratePellError,
    InvariantError,
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


def test_oracle_scaled_instance():
    inst = PellInstance(27, 9, FORM_Z)
    assert [tuple(s) for s in pell_oracle(inst, 100)] == [(6, 1), (21, 4), (78, 15)]


def test_oracle_worker_agreement():
    inst = PellInstance(3, 1, FORM_Z)
    assert pell_oracle(inst, 1400, workers=3) == pell_oracle(inst, 1400, workers=1)
    inst2 = family_two_instance(1, 4, 2)
    assert pell_oracle(inst2, 250, workers=2) == pell_oracle(inst2, 250)


def test_family_two_instance():
    inst = family_two_instance(1, 4, 2)
    # chain 1, 4, 31, ... so the anchor is 31 and d = 31^2 - 1
    assert (inst.d, inst.rhs, inst.form) == (960, -960, FORM_A)


def test_family_two_values():
    got = [tuple(pell_family_two(1, 4, 2, m)) for m in (1, 2, 3)]
    assert got == [(4, 120), (31, 960), (244, 7560)]
    for z, a in got:
        assert a * a - 960 * z * z == -960


def test_family_one_rejects_a_wrong_companion(monkeypatch):
    monkeypatch.setattr(pl, "scaled_cheb_u", lambda s, y, n: scaled_cheb_u(s, y, n) + 1)
    with pytest.raises(InvariantError):
        pell_family_one(1, 2, 3)


def test_family_two_rejects_a_wrong_chain_value(monkeypatch):
    # off by 2 at index m = 3 only: the instance (n = 1) and the difference
    # term (indices 4 and 2) keep their true values
    monkeypatch.setattr(
        pl, "scaled_cheb_t", lambda s, p, k: scaled_cheb_t(s, p, k) + (2 if k == 3 else 0)
    )
    with pytest.raises(InvariantError):
        pell_family_two(1, 4, 1, 3)


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
