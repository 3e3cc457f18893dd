"""Pell equations solved along the scaled Chebyshev chains.

Two families: chain values against their second-kind companions solve
z^2 - d*a^2 = s^2 with d = y^2 - s^2, and chain differences solve
a^2 - d*z^2 = -s^2*d.  pell_oracle verifies both without the chains: it
multiplies the solutions in one fundamental domain by the fundamental unit.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import islice
from math import isqrt

from .errors import BudgetExceededError, DegeneratePellError, InvariantError
from .sequences import _recurrence, _terms, family_multiplier, scaled_cheb_t, scaled_cheb_u
from .triples import _Record

__all__ = [
    "FORM_Z",
    "FORM_A",
    "PellInstance",
    "PellSolution",
    "verify_pell",
    "family_one_instance",
    "pell_family_one",
    "pell_family_one_members",
    "family_two_instance",
    "pell_family_two",
    "pell_oracle",
]

FORM_Z = "z2-da2"
FORM_A = "a2-dz2"


class PellInstance(_Record):
    """One equation: z^2 - d*a^2 = rhs (form z2-da2) or a^2 - d*z^2 = rhs (form a2-dz2)."""

    __slots__ = ("d", "rhs", "form")

    def __init__(self, d: int, rhs: int, form: str = FORM_Z) -> None:
        self._fill(d, rhs, form)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise DegeneratePellError(f"d must be >= 2 and non-square, got {self.d}")
        if self.form not in (FORM_Z, FORM_A):
            raise ValueError(f"form must be {FORM_Z!r} or {FORM_A!r}, got {self.form!r}")

    def holds(self, z: int, a: int) -> bool:
        if self.form == FORM_Z:
            return z * z - self.d * a * a == self.rhs
        return a * a - self.d * z * z == self.rhs


PellSolution = namedtuple("PellSolution", "z a")


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


def pell_family_one_members(s: int, y: int, count: int) -> list[PellSolution]:
    """pell_family_one(s, y, n) for n = 1..count, in one pass (see `_family_one`)."""
    return _family_one(s, y, count)[1]


def _family_one(s: int, y: int, count: int) -> tuple[PellInstance, list[PellSolution]]:
    """family_one_instance(s, y) and its members for n = 1..count, in one pass: the chain from
    index 1 beside its companion from index 0, both X[k+1] = (2y/s)*X[k] - X[k-1];
    the base and every member are checked."""
    if not isinstance(count, int):
        raise ValueError(f"count must be an integer, got {count}")
    inst, mult = family_one_instance(s, y), family_multiplier(s, y)
    if count > sys.maxsize:
        raise ValueError(f"count must be at most {sys.maxsize}, got {count}")
    members = map(PellSolution, islice(_recurrence(mult, 1, s, y), 1, None), _recurrence(mult, 1, 1, mult))
    sols = list(islice(members, max(count, 0)))
    for sol in sols:
        if not inst.holds(*sol):
            raise InvariantError(f"chain solution {sol} fails {inst}")
    return inst, sols


def family_two_instance(s: int, p: int, n: int) -> PellInstance:
    """The equation a^2 - d*z^2 = -s^2*d with d = chain(n)^2 - s^2 at base (s, p)."""
    return _family_two(s, p, n, ())[0]


def _family_two(s: int, p: int, n: int, ms) -> tuple[PellInstance, list[PellSolution]]:
    """family_two_instance(s, p, n) and the checked member of each m in `ms`: one _terms call
    reads X_n for the instance, then X_m, X_{n+m} and X_{|n-m|} of every member."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    y, *xs = _terms(family_multiplier(s, p), 1, s, p, n, *(i for m in ms for i in (m, n + m, abs(n - m))))
    if y <= s:
        raise DegeneratePellError(f"chain value {y} does not exceed s={s}")
    d = y * y - s * s
    inst = PellInstance(d, -(s * s) * d, FORM_A)
    # s*(X_{n+m} - X_{|n-m|}) = 2*X_n*X_m - 2s*X_{|n-m|} by the product rule, so it is even
    sols = [PellSolution(xm, s * (top - low) // 2) for xm, top, low in zip(xs[::3], xs[1::3], xs[2::3])]
    if bad := [sol for sol in sols if not inst.holds(*sol)]:
        raise InvariantError(f"chain difference solution {bad[0]} fails {inst}")
    return inst, sols


def pell_family_two(s: int, p: int, n: int, m: int) -> PellSolution:
    """(z, a) = (chain(m), s*(chain(n+m) - chain(|n-m|)) / 2).

    The difference term carries the factor s/2; without it the defining
    identity fails for every s != 2.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return _family_two(s, p, n, (m,))[1][0]


def _oracle_range(d: int, rhs: int, form: str, lo: int, hi: int):
    out = []
    for z in range(lo, hi + 1):
        if form == FORM_Z:
            a2, rem = divmod(z * z - rhs, d)  # d >= 2: negative when z^2 < rhs
            if rem:
                continue
        else:
            a2 = rhs + d * z * z
        if a2 < 0:
            continue
        a = isqrt(a2)
        if a * a == a2:
            out.append((z, a))
    return out


def _fundamental_unit(f: int, cap: int) -> tuple[int, int] | None:
    """The least (x, y) with x^2 - f*y^2 = 1 for non-square f, from the
    convergents of sqrt(f); None once a convergent numerator passes cap."""
    a0 = isqrt(f)
    m, q, a, x0, x, y0, y = 0, 1, a0, 1, a0, 0, 1
    while x <= cap:
        if x * x - f * y * y == 1:
            return x, y
        m = q * a - m
        q = (f - m * m) // q
        a = (a0 + m) // q
        x0, x, y0, y = x, a * x + x0, y, a * y + y0
    return None


def pell_oracle(
    inst: PellInstance,
    bound: int,
    *,
    include_zero: bool = False,
    budget: int | None = None,
) -> list[PellSolution]:
    """All solutions with 1 <= z <= bound, ascending in z; a = 0 only with include_zero.

    Exhaustive.  Write d = f*g^2 and N = rhs (N = 0 has no solution with z >= 1,
    as d is not a square).  A solution is a point X + W*sqrt(f) of norm N with
    X, W >= 0 and g | W: (X, W) = (z, g*a) for z2-da2, (a, g*z) for a2-dz2.  Each
    such point is at least sqrt|N|, so it is gamma*eps^k with k >= 0, eps =
    x1 + y1*sqrt(f) the least unit of norm 1, and gamma such a point in
    [sqrt|N|, sqrt|N|*eps).  Both coordinates grow with gamma there, so one scan
    of the bounded coordinate (X <= top = bound, or W <= top = g*bound) below its
    value at sqrt|N|*eps finds every gamma, and multiplying by eps while it stays
    <= top gives the rest.  The direct scan of z = 1..bound runs instead, in
    this process, when that scan would reach bound, or when
    x1 > (top+1)*(isqrt(f)+1), where the expansion of sqrt(f) stops.  The plan
    is the number of values scanned: c + 1 seeds, or bound on the direct scan;
    BudgetExceededError, before either scan, when that exceeds `budget`, and
    before any work when the isqrt(min(d, bound)) - 1 trial divisions for g do.
    """
    if not isinstance(bound, int) or bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    d, n, form = inst.d, inst.rhs, inst.form
    if n == 0:
        return []
    if budget is not None and (trials := isqrt(min(d, bound)) - 1) > budget:
        raise BudgetExceededError(f"pell-oracle needs up to {trials} trial divisions, budget is {budget}")
    f, g, p = d, 1, 2
    while p * p <= min(f, bound):  # at most sqrt(bound) steps, far fewer than the direct scan
        while f % (p * p) == 0:
            f, g = f // (p * p), g * p
        p += 1
    top = bound if form == FORM_Z else g * bound
    unit = _fundamental_unit(f, (top + 1) * (isqrt(f) + 1))
    c = bound
    if unit is not None:
        x1, y1 = unit
        # c: the last integer below the bounded coordinate at sqrt|N|*eps
        if form == FORM_Z:
            c = isqrt(x1 * x1 * n - 1) if n > 0 else isqrt(-n * f * y1 * y1 - 1)
        else:
            c = isqrt(y1 * y1 * n - 1) if n > 0 else isqrt((-n * x1 * x1 - 1) // f)
    planned = bound if c >= bound else c + 1
    if budget is not None and planned > budget:
        raise BudgetExceededError(f"pell-oracle needs {planned} scanned values, budget is {budget}")
    if c >= bound:
        rows = _oracle_range(d, n, form, 1, bound)
    else:
        rows = []
        for u, v in _oracle_range(f, n, form, 0, c):
            x, w = (u, v) if form == FORM_Z else (v, u)
            while (x if form == FORM_Z else w) <= top:
                if w % g == 0:
                    rows.append((x, w // g) if form == FORM_Z else (w // g, x))
                x, w = x1 * x + f * y1 * w, y1 * x + x1 * w
    return [PellSolution(z, a) for z, a in sorted(rows) if z >= 1 and (a or include_zero)]
