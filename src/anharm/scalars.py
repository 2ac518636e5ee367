"""The scalar groups: (ℝ₋*, ·) and the product-group isomorphisms.

The negative reals form a commutative group under x·y = −xy with identity
−1 and inverse 1/x; ψ(x) = −x identifies it with the multiplicative
positive reals.  On the product group ℝ₊* × ℝ₋* (componentwise laws,
ordinary multiplication on the first factor), Ψ(x, y) = (ln x, ln|y|) is an
isomorphism onto (ℝ², +) with inverse (a, b) ↦ (eᵃ, −eᵇ), and
Φ(x, y) = ln x + i·ln|y| the corresponding isomorphism onto (ℂ, +).
"""

import math
from dataclasses import dataclass

__all__ = [
    "NegReal", "neg_mul", "neg_identity", "neg_inv", "iso_psi", "iso_Psi",
    "iso_Psi_inv", "iso_Phi", "pair_mul",
]


@dataclass(frozen=True)
class NegReal:
    value: float

    def __post_init__(self):
        if not self.value < 0:
            raise ValueError(f"value must be negative, got {self.value}")


def neg_identity():
    return NegReal(-1.0)


def neg_mul(x, y):
    """x·y = −xy on the negative reals."""
    return NegReal(-x.value * y.value)


def neg_inv(x):
    """The ·-inverse: x·(1/x) = −x/x = −1."""
    return NegReal(1.0 / x.value)


def iso_psi(x):
    """ψ(x) = −x: isomorphism onto the multiplicative positive reals."""
    return -x.value


def pair_mul(p, q):
    """Componentwise law on ℝ₊* × ℝ₋* (ordinary · on the first factor, the
    law −yt of neg_mul on the second, whose NegReal refuses an underflow)."""
    x, y = _check_pair(*p)
    s, t = _check_pair(*q)
    return (x * s, NegReal(-y * t).value)


def _check_pair(x, y):
    if not x > 0:
        raise ValueError(f"first component must be positive, got {x}")
    y = y.value if isinstance(y, NegReal) else float(y)
    if not y < 0:
        raise ValueError(f"second component must be negative, got {y}")
    return float(x), y


def iso_Psi(x, y):
    """Ψ(x, y) = (ln x, ln|y|) onto (ℝ², +)."""
    x, y = _check_pair(x, y)
    return (math.log(x), math.log(-y))


def iso_Psi_inv(a, b):
    """Ψ⁻¹(a, b) = (eᵃ, −eᵇ)."""
    return (math.exp(a), -math.exp(b))


def iso_Phi(x, y):
    """Φ(x, y) = ln x + i·ln|y| onto (ℂ, +)."""
    a, b = iso_Psi(x, y)
    return complex(a, b)
