"""Exact evaluation of the linear recurrence families used throughout.

Every sequence here, and every chain, Pell family and continuant power
sequence in the package, solves X[k+1] = t*X[k] - q*X[k-1] over Python
integers.  A single term is reached by index doubling in O(log n)
multiplications; a caller that reads every term up to some index walks the
recurrence once.  Nothing is memoised.  There is no floating point and no
polynomial-coefficient algebra anywhere in this module.
"""

from __future__ import annotations

from itertools import takewhile

from .errors import InvariantError, NonIntegralFamilyError

__all__ = [
    "lucas_u",
    "lucas_v",
    "cheb_t",
    "cheb_u",
    "family_multiplier",
    "scaled_cheb_t",
    "scaled_cheb_u",
]


def _check_positive(name: str, value: int) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _recurrence(t: int, q: int, x0: int, x1: int):
    """X_0 = x0, X_1 = x1, X_2, ... of X[k+1] = t*X[k] - q*X[k-1], without end:
    for callers that read every term."""
    while True:
        yield x0
        x0, x1 = x1, t * x1 - q * x0


def _terms(t: int, q: int, x0: int, x1: int, *indices: int) -> tuple[int, ...]:
    """X_n of X_0 = x0, X_1 = x1, X[k+1] = t*X[k] - q*X[k-1] at each of `indices`, in order.

    X_n = x0*U_{n+1} + (x1 - t*x0)*U_n, where U is the Lucas sequence of
    (t, q): U_0 = 0, U_1 = 1.  The pair (U_n, U_{n+1}) is climbed from (0, 1)
    by the bits of n, high to low: (U_k, U_{k+1}) doubles to (U_{2k}, U_{2k+1})
    by U_{2k} = U_k*(2*U_{k+1} - t*U_k) and U_{2k+1} = U_{k+1}^2 - q*U_k^2, and
    a 1 bit steps once more (D. H. Lehmer, Ann. of Math. 31, 1930).  O(log n)
    exact multiplications per index, and no division.
    """
    if not (isinstance(t, int) and isinstance(q, int)):
        raise ValueError(f"recurrence coefficients must be integers, got ({t}, {q})")
    if bad := [n for n in indices if not isinstance(n, int) or n < 0]:
        raise ValueError(f"sequence index must be non-negative, got {min(bad)}")
    out = []
    for n in indices:
        u0, u1 = 0, 1
        for bit in bin(n)[2:]:
            u0, u1 = u0 * (2 * u1 - t * u0), u1 * u1 - q * (u0 * u0)
            if bit == "1":
                u0, u1 = u1, t * u1 - q * u0
        out.append(x0 * u1 + (x1 - t * x0) * u0)
    return tuple(out)


def lucas_u(p: int, q: int, n: int) -> int:
    """Lucas sequence of the first kind: U0 = 0, U1 = 1, U[k+1] = p*U[k] - q*U[k-1]."""
    return _terms(p, q, 0, 1, n)[0]


def lucas_v(p: int, q: int, n: int) -> int:
    """Lucas sequence of the second kind: V0 = 2, V1 = p, same recurrence as lucas_u."""
    return _terms(p, q, 2, p, n)[0]


def cheb_t(n: int, x: int) -> int:
    """First-kind Chebyshev value T_n(x): T0 = 1, T1 = x, T[k+1] = 2x*T[k] - T[k-1]."""
    _check_positive("x", x)
    return _terms(2 * x, 1, 1, x, n)[0]


def cheb_u(n: int, x: int) -> int:
    """Second-kind Chebyshev value: seeds 1 and 2x, same recurrence as cheb_t."""
    _check_positive("x", x)
    return _terms(2 * x, 1, 1, 2 * x, n)[0]


def family_multiplier(s: int, b: int) -> int:
    """The integer 2b/s driving the scaled chain at base (s, b); requires s | 2b."""
    _check_positive("s", s)
    _check_positive("b", b)
    if (2 * b) % s:
        raise NonIntegralFamilyError(
            f"s={s} does not divide 2b={2 * b}; the scaled chain is not integer-valued"
        )
    return (2 * b) // s


def scaled_cheb_t(s: int, b: int, n: int) -> int:
    """Scaled first-kind value s*T_n(b/s) of the integer recurrence with seeds s, b."""
    return _terms(family_multiplier(s, b), 1, s, b, n)[0]


def scaled_cheb_u(s: int, b: int, n: int) -> int:
    """Companion second-kind value: seeds 1 and 2b/s, same multiplier as scaled_cheb_t."""
    m = family_multiplier(s, b)
    return _terms(m, 1, 1, m, n)[0]


def _chain_values(s: int, p: int, bound: int) -> list[int]:
    """X_0 = s, X_1 = p, ..., X_N of the chain at base (s, p), with X_N <= bound < X_{N+1}.

    The chain strictly increases exactly when p > s and s | 2p (the
    multiplier 2p/s is then >= 3); any other base raises InvariantError.
    """
    if p <= s or 2 * p % s:
        raise InvariantError(f"base ({s}, {p}) has no increasing integral chain")
    return list(takewhile(lambda x: x <= bound, _recurrence(2 * p // s, 1, s, p)))
