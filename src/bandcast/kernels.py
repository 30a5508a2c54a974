"""Rational anticausal convolution kernels.

A kernel here is a real-valued function k with k(t) = 0 for t > 0 whose
frequency response K(i*omega) = d(i*omega) / delta(i*omega) is a proper
rational function.  Conventions, fixed once for the whole package:

* Fourier transform (forward): X(i*omega) = integral e^{-i*omega*t} x(t) dt;
  inverse carries the 1/(2*pi) prefactor and e^{+i*omega*t}.
* A pole triple (a, b, mult) encodes the denominator factor
  (p - a + b*i)**mult, i.e. the actual pole sits at p = a - b*i.  Mind the
  sign of b: the stored b is the NEGATED imaginary part of the pole.
* Admissible poles satisfy a > 0 and |b| < omega (the band constant), so all
  poles lie in the open right half-plane within the band strip.
* The numerator d is stored by ascending-degree real coefficients
  [c0, c1, ...], deg d < deg delta.

Under these conventions K(p) = sum coeff/(p - pole)**order implies
k(t) = -sum coeff * t**(order-1)/(order-1)! * e^{pole*t} for t <= 0, which is
what :func:`scalar_time_kernel` evaluates.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegreeViolation,
    DomainError,
    NonConjugateSymmetric,
    NumericalDegeneracy,
    PoleOutOfRegion,
)

_COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class RationalAnticausalKernel:
    """Validated member of the rational anticausal class.

    Use :func:`build_kernel` to construct; the constructor itself does not
    validate.  Immutable and hashable, safe to share across threads.
    """

    poles: tuple[tuple[float, float, int], ...]
    numerator_coeffs: tuple[float, ...]
    omega: float

    @property
    def pole_values(self) -> tuple[complex, ...]:
        """Actual pole locations a - b*i, one entry per pole group."""
        return tuple(complex(a, -b) for (a, b, _m) in self.poles)

    @property
    def denominator_degree(self) -> int:
        return sum(m for (_a, _b, m) in self.poles)

    @property
    def numerator_degree(self) -> int:
        deg = 0
        for j, c in enumerate(self.numerator_coeffs):
            if c != 0.0:
                deg = j
        return deg

    @property
    def min_pole_rate(self) -> float:
        """Smallest real part among poles; sets the time-decay scale of k."""
        return min(a for (a, _b, _m) in self.poles)


def build_kernel(
    poles: Sequence[tuple[float, float, int]],
    numerator_coeffs: Sequence[float],
    omega: float,
) -> RationalAnticausalKernel:
    """Validate and construct a kernel.

    Raises PoleOutOfRegion, DegreeViolation, NonConjugateSymmetric or
    NumericalDegeneracy when the inputs violate the class constraints; a pole
    entry that is not a triple of real a, b and integer mult (bools refused)
    raises PoleOutOfRegion.
    """
    if not (np.isfinite(omega) and omega > 0):
        raise PoleOutOfRegion(f"band constant omega must be positive, got {omega}")
    if len(poles) == 0:
        raise DegreeViolation("kernel needs at least one pole")

    norm_poles = []
    for entry in poles:
        try:
            a, b, mult = entry
        except (TypeError, ValueError):
            raise PoleOutOfRegion(f"pole entry {entry!r} is not a triple (a, b, mult)") from None
        numeric = all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in (a, b, mult))
        if not (numeric and isinstance(mult, numbers.Integral)):
            raise PoleOutOfRegion(f"pole entry {entry!r} needs real a, b and an integer mult")
        a, b, mult = float(a), float(b), int(mult)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise PoleOutOfRegion(f"non-finite pole entry {entry!r}")
        if mult < 1:
            raise PoleOutOfRegion(f"pole multiplicity must be >= 1, got {mult}")
        if a <= 0:
            raise PoleOutOfRegion(f"pole real part a must be > 0, got a={a}")
        if abs(b) >= omega:
            raise PoleOutOfRegion(f"|b| = {abs(b)} must be < omega = {omega}")
        norm_poles.append((a, b, mult))

    # Coincident entries are an error; repetition is expressed via mult.
    for i in range(len(norm_poles)):
        for j in range(i + 1, len(norm_poles)):
            ai, bi, _ = norm_poles[i]
            aj, bj, _ = norm_poles[j]
            if abs(complex(ai - aj, bj - bi)) <= _COINCIDENCE_TOL:
                raise NumericalDegeneracy(
                    f"pole entries {i} and {j} coincide within {_COINCIDENCE_TOL}; "
                    "merge them into one entry with a multiplicity"
                )

    # Real k(t) requires the pole set be closed under conjugation.  The mate
    # of (a, b) is exactly (a, -b) (exact float negation), same multiplicity.
    for a, b, mult in norm_poles:
        if b != 0.0 and (a, -b, mult) not in norm_poles:
            raise NonConjugateSymmetric(
                f"pole (a={a}, b={b}, mult={mult}) has no conjugate mate (a, {-b}, {mult})"
            )

    num = tuple(float(c) for c in numerator_coeffs)
    if len(num) == 0 or all(c == 0.0 for c in num):
        raise DegreeViolation("numerator polynomial must be nonzero")
    if any(not np.isfinite(c) for c in num):
        raise DegreeViolation("numerator coefficients must be finite")

    kernel = RationalAnticausalKernel(
        poles=tuple(norm_poles), numerator_coeffs=num, omega=float(omega)
    )
    if kernel.numerator_degree >= kernel.denominator_degree:
        raise DegreeViolation(
            f"deg d = {kernel.numerator_degree} must be < deg delta = "
            f"{kernel.denominator_degree}"
        )
    return kernel


def _numerator_at(kernel: RationalAnticausalKernel, p):
    """Horner evaluation of d(p); p scalar or ndarray (complex)."""
    acc = np.zeros_like(np.asarray(p, dtype=complex))
    for c in reversed(kernel.numerator_coeffs):
        acc = acc * p + c
    return acc


def _denominator_at(kernel: RationalAnticausalKernel, p):
    """delta(p) evaluated from pole factors (no coefficient expansion)."""
    p = np.asarray(p, dtype=complex)
    acc = np.ones_like(p)
    for pole, (_a, _b, mult) in zip(kernel.pole_values, kernel.poles):
        acc = acc * (p - pole) ** mult
    return acc


def transfer_on_grid(kernel: RationalAnticausalKernel, omega_values) -> np.ndarray:
    """K(i*omega) on an array of real frequencies."""
    p = 1j * np.asarray(omega_values, dtype=float)
    return _numerator_at(kernel, p) / _denominator_at(kernel, p)


def eval_transfer(kernel: RationalAnticausalKernel, omega_val: float) -> complex:
    """Frequency response d(i*omega)/delta(i*omega) at one real frequency; a
    non-finite omega raises DomainError."""
    w = float(omega_val)
    if not math.isfinite(w):
        raise DomainError(f"omega must be finite, got {w}")
    return complex(transfer_on_grid(kernel, np.array([w]))[0])


@dataclass(frozen=True)
class ResidueExpansion:
    """Partial-fraction form K(p) = sum coeff / (p - pole)**order."""

    terms: tuple[tuple[complex, int, complex], ...]

    def evaluate(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=complex)
        acc = np.zeros_like(p)
        for pole, order, coeff in self.terms:
            acc = acc + coeff / (p - pole) ** order
        return acc


def _shift_poly(coeffs: Sequence[complex], p0: complex) -> list[complex]:
    """Coefficients of q(u) = poly(p0 + u), ascending in u."""
    n = len(coeffs)
    out = [0j] * n
    for j, c in enumerate(coeffs):
        for k in range(j + 1):
            out[k] += c * math.comb(j, k) * p0 ** (j - k)
    return out


def _series_product(a: list[complex], b: list[complex], order: int) -> list[complex]:
    out = [0j] * order
    for i, ai in enumerate(a[:order]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: order - i]):
            out[i + j] += ai * bj
    return out


def _series_quotient(num: list[complex], den: list[complex], order: int) -> list[complex]:
    q = [0j] * order
    for k in range(order):
        s = num[k] if k < len(num) else 0j
        for i in range(1, k + 1):
            s -= den[i] * q[k - i] if i < len(den) else 0j
        q[k] = s / den[0]
    return q


def _residue_terms_at(
    kernel: RationalAnticausalKernel, index: int
) -> list[tuple[complex, int, complex]]:
    """Laurent coefficients of K at the pole of group `index`.

    Taylor-expands d(p) / prod_{j != index} (p - pole_j)**mult_j around the
    pole via exact series division; the coefficient of u**l provides the
    term of order mult - l.
    """
    a, b, mult = kernel.poles[index]
    p0 = complex(a, -b)
    num_series = _shift_poly([complex(c) for c in kernel.numerator_coeffs], p0)
    den_series: list[complex] = [1.0 + 0j]
    for j, (pole_j, (_aj, _bj, mult_j)) in enumerate(
        zip(kernel.pole_values, kernel.poles)
    ):
        if j == index:
            continue
        base = p0 - pole_j  # (u + base)**mult_j, ascending in u
        factor = [
            math.comb(mult_j, k) * base ** (mult_j - k) for k in range(mult_j + 1)
        ]
        den_series = _series_product(den_series, factor, mult)
    q = _series_quotient(num_series, den_series, mult)
    return [(p0, mult - l, q[l]) for l in range(mult)]


def _reconstruction_points(kernel: RationalAnticausalKernel) -> np.ndarray:
    """64 fixed pseudo-random probe points kept away from the poles: the first
    scaled (re, im) draws farther than 0.25 * scale from every pole."""
    rng = np.random.default_rng(0x5EED)
    poles = np.array(kernel.pole_values)
    # Python's abs and np.hypot: numpy's complex abs can differ by an ulp.
    scale = max(1.0, kernel.omega, max(abs(p) for p in kernel.pole_values))
    pts = np.empty(0, dtype=complex)
    while len(pts) < 64:
        z = (rng.uniform(-3, 3, size=(128, 2)) * scale).view(complex)[:, 0]
        dist = np.hypot(z.real[:, None] - poles.real, z.imag[:, None] - poles.imag)
        pts = np.concatenate([pts, z[dist.min(axis=1) > 0.25 * scale]])
    return pts[:64]


@lru_cache(maxsize=256)
def _cached_expansion(kernel: RationalAnticausalKernel) -> ResidueExpansion:
    """:func:`partial_fraction_expand`, computed once per kernel."""
    for i in range(len(kernel.poles)):
        for j in range(i + 1, len(kernel.poles)):
            if abs(kernel.pole_values[i] - kernel.pole_values[j]) <= _COINCIDENCE_TOL:
                raise NumericalDegeneracy(
                    "coincident poles; merge multiplicities before expanding"
                )

    # Compute residues once per b >= 0 group and mirror the b > 0 ones, so the
    # term set is conjugate-closed by construction.
    terms: list[tuple[complex, int, complex]] = []
    for idx, (a, b, mult) in enumerate(kernel.poles):
        if b < 0.0:
            continue
        group = _residue_terms_at(kernel, idx)
        if b == 0.0:
            for pole, order, coeff in group:
                if abs(coeff.imag) > 1e-10 * (abs(coeff) + 1e-300):
                    raise NumericalDegeneracy(
                        f"residue at real pole {pole} has imaginary part {coeff.imag}"
                    )
                terms.append((complex(pole.real, 0.0), order, complex(coeff.real, 0.0)))
        else:
            for pole, order, coeff in group:
                terms.append((pole, order, coeff))
                terms.append((pole.conjugate(), order, coeff.conjugate()))

    # Exactly-zero coefficients carry no information; drop them so e.g. a
    # double pole with constant numerator expands to a single term.
    expansion = ResidueExpansion(terms=tuple(t for t in terms if t[2] != 0.0))

    pts = _reconstruction_points(kernel)
    direct = _numerator_at(kernel, pts) / _denominator_at(kernel, pts)
    recon = expansion.evaluate(pts)
    rel = np.abs(recon - direct) / np.maximum(np.abs(direct), 1e-300)
    if rel.max() > 1e-10:
        raise NumericalDegeneracy(
            f"partial-fraction reconstruction error {rel.max():.3e} exceeds 1e-10"
        )
    return expansion


def partial_fraction_expand(kernel: RationalAnticausalKernel) -> ResidueExpansion:
    """Expand K into simple fractions, verified against the rational form."""
    return _cached_expansion(kernel)


def scalar_time_kernel(kernel: RationalAnticausalKernel) -> Callable[[float], float]:
    """k as a function of one float, with `math`/`cmath` work and no arrays.

    For t <= 0, k(t) = -sum Re(c * t**power * e^{pole*t}) over the residue
    terms, c = coeff/power!.  Each conjugate pair keeps its Im(pole) < 0 member
    with c doubled, so k is real.  Exactly 0.0 for t > 0 (and for NaN).
    """
    real, pairs = [], []
    for pole, order, coeff in partial_fraction_expand(kernel).terms:
        c = coeff / math.factorial(order - 1)
        if pole.imag == 0.0:
            real.append((pole.real, order - 1, c.real))
        elif pole.imag < 0.0:
            pairs.append((pole, order - 1, 2.0 * c))
    exp, cexp = math.exp, cmath.exp

    def k(t: float) -> float:
        if not t <= 0.0:
            return 0.0
        acc = 0.0
        for rate, power, c in real:
            acc -= c * t**power * exp(rate * t)
        for pole, power, c in pairs:
            acc -= (c * t**power * cexp(pole * t)).real
        return acc

    return k


def eval_time_kernel(kernel: RationalAnticausalKernel, t: float) -> float:
    """Time-domain kernel value at a single instant (0.0 for t > 0)."""
    t = float(t)
    return scalar_time_kernel(kernel)(t) if t <= 0.0 else 0.0


def kernel_to_json(kernel: RationalAnticausalKernel) -> str:
    """Serialize a kernel.

    Conjugate pairs are listed once via their b >= 0 member flagged
    ``"paired": true``; the mate is implicit.
    """
    poles = []
    for a, b, mult in kernel.poles:
        if b < 0.0:
            continue
        entry = {"a": a, "b": b, "mult": mult}
        if b > 0.0:
            entry["paired"] = True
        poles.append(entry)
    doc = {
        "omega": kernel.omega,
        "poles": poles,
        "numerator": list(kernel.numerator_coeffs),
    }
    return json.dumps(doc)
