"""Uniform time/frequency grid conventions.

A :class:`GridSpec` describes a centered uniform time grid of ``n`` samples
spanning ``span`` seconds: t_j = -span/2 + j*dt with dt = span/n.  Its
conjugate frequency grid is the fftshifted DFT grid, ascending:
omega_j = (j - n/2) * (2*pi/span), covering [-pi/dt, pi/dt).  Every transform
in the package requires this pairing (:func:`is_centered`).  Frequencies
are computed as (j + omega0/domega) * domega: with n a power of two
omega0/domega is exactly -n/2, so omega_{n-j} == -omega_j bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


def as_float(value) -> float:
    """float(value); an integer past the float range becomes the infinity of
    its sign, for the caller's finiteness check to refuse."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def is_centered(n: int, origin: float, step: float) -> bool:
    """n even and origin == -(n/2)*step exactly: the one grid every transform
    takes, in time (t0, dt) and in frequency (omega0, domega)."""
    return n % 2 == 0 and origin == -(n // 2) * step


def in_class(w, class_tag: str, omega: float, epsilon: float = 0.0):
    """Whether the frequency w (a float, or an array elementwise) lies in the
    closed class set: |w| <= omega - epsilon for LOW, |w| >= omega + epsilon
    for HIGH.  The one membership rule for signals, deviation domains, the
    low-pass split and config intake."""
    if class_tag == "LOW":
        return abs(w) <= omega - epsilon
    return abs(w) >= omega + epsilon


def uniform_omegas(omega0: float, domega: float, n: int) -> np.ndarray:
    """omega_j = (j + omega0/domega) * domega, j = 0..n-1 (see the module doc)."""
    return (np.arange(n) + omega0 / domega) * domega


@dataclass(frozen=True)
class GridSpec:
    """Centered uniform grid: n samples, total span in seconds.  An n that is
    not an integer power of two, or a span that is not a finite positive
    real, raises GridMismatch."""

    n: int
    span: float

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and is_power_of_two(self.n)):
            raise GridMismatch(f"grid length must be a power of two, got {self.n}")
        real = isinstance(self.span, numbers.Real) and not isinstance(self.span, bool)
        if not (real and self.span > 0 and math.isfinite(as_float(self.span))):
            raise GridMismatch(f"grid span must be positive and finite, got {self.span}")

    @property
    def dt(self) -> float:
        return self.span / self.n

    @property
    def t0(self) -> float:
        return -self.span / 2.0

    @property
    def domega(self) -> float:
        return 2.0 * np.pi / self.span

    @property
    def omega0(self) -> float:
        return -(self.n // 2) * self.domega

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def omegas(self) -> np.ndarray:
        return uniform_omegas(self.omega0, self.domega, self.n)
