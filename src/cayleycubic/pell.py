"""Pell equations solved along the scaled Chebyshev chains.

Two families: chain values against their second-kind companions solve
z^2 - d*a^2 = s^2 with d = y^2 - s^2, and chain differences solve
a^2 - d*z^2 = -s^2*d.  An exhaustive scan oracle provides independent
verification; there is no fundamental-solution machinery here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from ._spans import map_spans
from .errors import DegeneratePellError, InvariantError
from .sequences import scaled_cheb_t, scaled_cheb_u

__all__ = [
    "FORM_Z",
    "FORM_A",
    "PellInstance",
    "PellSolution",
    "verify_pell",
    "family_one_instance",
    "pell_family_one",
    "family_two_instance",
    "pell_family_two",
    "pell_oracle",
]

FORM_Z = "z2-da2"
FORM_A = "a2-dz2"


def _is_square(v: int) -> bool:
    if v < 0:
        return False
    r = isqrt(v)
    return r * r == v


@dataclass(frozen=True)
class PellInstance:
    """One equation: z^2 - d*a^2 = rhs (form z2-da2) or a^2 - d*z^2 = rhs (form a2-dz2)."""

    d: int
    rhs: int
    form: str = FORM_Z

    def __post_init__(self) -> None:
        if self.d < 2 or _is_square(self.d):
            raise DegeneratePellError(f"d must be >= 2 and non-square, got {self.d}")
        if self.form not in (FORM_Z, FORM_A):
            raise ValueError(f"form must be {FORM_Z!r} or {FORM_A!r}, got {self.form!r}")

    def holds(self, z: int, a: int) -> bool:
        if self.form == FORM_Z:
            return z * z - self.d * a * a == self.rhs
        return a * a - self.d * z * z == self.rhs


class PellSolution(NamedTuple):
    z: int
    a: int


def verify_pell(inst: PellInstance, sol: tuple[int, int]) -> bool:
    """Exact check of the instance equation at (z, a)."""
    z, a = sol
    return inst.holds(z, a)


def family_one_instance(s: int, y: int) -> PellInstance:
    """The equation z^2 - (y^2 - s^2)*a^2 = s^2 attached to the chain at (s, y)."""
    if y <= s:
        raise DegeneratePellError(f"need y > s for a positive coefficient, got y={y} s={s}")
    return PellInstance(y * y - s * s, s * s, FORM_Z)


def pell_family_one(s: int, y: int, n: int) -> PellSolution:
    """(z, a) = (chain value at n, companion value at n - 1).

    The companion index is n - 1; taking it at n fails the equation for
    every n >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    inst = family_one_instance(s, y)
    sol = PellSolution(scaled_cheb_t(s, y, n), scaled_cheb_u(s, y, n - 1))
    if not inst.holds(*sol):
        raise InvariantError(f"chain solution {sol} fails {inst}")
    return sol


def family_two_instance(s: int, p: int, n: int) -> PellInstance:
    """The equation a^2 - d*z^2 = -s^2*d with d = chain(n)^2 - s^2 at base (s, p)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    y = scaled_cheb_t(s, p, n)
    if y <= s:
        raise DegeneratePellError(f"chain value {y} does not exceed s={s}")
    d = y * y - s * s
    return PellInstance(d, -(s * s) * d, FORM_A)


def pell_family_two(s: int, p: int, n: int, m: int) -> PellSolution:
    """(z, a) = (chain(m), s*(chain(n+m) - chain(|n-m|)) / 2).

    The difference term carries the factor s/2; without it the defining
    identity fails for every s != 2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    inst = family_two_instance(s, p, n)
    diff = s * (scaled_cheb_t(s, p, n + m) - scaled_cheb_t(s, p, abs(n - m)))
    if diff % 2:
        raise ValueError(f"difference term {diff} is odd; no integer solution member")
    sol = PellSolution(scaled_cheb_t(s, p, m), diff // 2)
    if not inst.holds(*sol):
        raise InvariantError(f"chain difference solution {sol} fails {inst}")
    return sol


def _oracle_range(d: int, rhs: int, form: str, include_zero: bool, lo: int, hi: int):
    out = []
    for z in range(lo, hi + 1):
        if form == FORM_Z:
            t = z * z - rhs
            if t < 0:
                continue
            a2, rem = divmod(t, d)
            if rem:
                continue
        else:
            a2 = rhs + d * z * z
            if a2 < 0:
                continue
        a = isqrt(a2)
        if a * a != a2:
            continue
        if a == 0 and not include_zero:
            continue
        out.append((z, a))
    return out


def pell_oracle(
    inst: PellInstance,
    bound: int,
    *,
    include_zero: bool = False,
    workers: int = 1,
) -> list[PellSolution]:
    """All solutions with 1 <= z <= bound, by exhaustive scan with exact square tests.

    Output ascends in z.  Solutions with a = 0 are dropped unless include_zero
    is set.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    rows = map_spans(_oracle_range, (inst.d, inst.rhs, inst.form, include_zero), bound, workers)
    return [PellSolution(*r) for r in sorted(rows)]
