"""Exact modular-arithmetic kernels and the offset logarithmic integral.

Everything here works on desk-scale naturals: nonnegative integers up to
NATURAL_MAX (2^63 - 1 by default). Values past the ceiling raise DomainError
instead of silently degrading, so the bound is honest.
"""

import math

NATURAL_MAX = 2**63 - 1

LOG_INTEGRAL_TOL = 1e-9


class DomainError(ValueError):
    """A precondition on an input was violated."""


def check_natural(value, name="value", maximum=NATURAL_MAX):
    """Validate that ``value`` is a natural number within the ceiling."""
    if not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    if value > maximum:
        raise DomainError(f"{name} = {value} exceeds the ceiling {maximum}")
    return value


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Return base**exponent mod modulus without intermediate overflow."""
    check_natural(base, "base")
    check_natural(exponent, "exponent")
    check_natural(modulus, "modulus")
    if modulus == 0:
        raise DomainError("modulus must be >= 1")
    return pow(base, exponent, modulus)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(0, 0) = 0 by convention."""
    check_natural(a, "a")
    check_natural(b, "b")
    return math.gcd(a, b)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; Legendre symbol when n is prime.

    Returns one of -1, 0, +1. Negative a is allowed.
    """
    if not isinstance(a, int) or not isinstance(n, int):
        raise DomainError("jacobi arguments must be integers")
    check_natural(n, "n")
    if n == 0 or n % 2 == 0:
        raise DomainError(f"jacobi is defined only for odd n >= 1, got n = {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_perfect_square(n: int) -> bool:
    """True iff n = m*m for some integer m (exact integer square root)."""
    check_natural(n, "n")
    r = math.isqrt(n)
    return r * r == n


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + \
        _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def log_integral(x: float) -> float:
    """Offset logarithmic integral: integral of dt/ln(t) from 2 to x.

    The lower limit 2 sidesteps the singularity at t = 1; the offset only
    shifts values by the constant li(2) ~ 1.045, which cancels in every
    difference the interval analysis uses. Adaptive Simpson quadrature,
    absolute error <= 1e-9 (LOG_INTEGRAL_TOL).
    """
    x = float(x)
    if math.isnan(x) or x < 2.0:
        raise DomainError(f"log_integral requires x >= 2, got {x}")
    if x == 2.0:
        return 0.0

    def f(t):
        return 1.0 / math.log(t)

    fa = f(2.0)
    fb = f(x)
    fm = f(0.5 * (2.0 + x))
    whole = _simpson(2.0, x, fa, fm, fb)
    return _adaptive_simpson(f, 2.0, x, fa, fm, fb, whole, LOG_INTEGRAL_TOL, 60)
