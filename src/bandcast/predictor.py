"""Causal predictor transfer functions.

Given a rational anticausal kernel with frequency response K, a causal
approximant is built as K_hat = V * K where the compensator

    V(p) = prod_m (1 - exp(gamma * (p - a_m + b_m i)/(p + alpha_m - b_m i)))**mult_m,
    alpha_m = (omega**2 - b_m**2) / a_m,

cancels the right-half-plane poles of K (each factor vanishes at the pole it
compensates) while V -> 1 on the target band as |gamma| grows.  gamma > 0
targets band-limited inputs (|w| <= omega), gamma < 0 targets high-frequency
inputs (|w| >= omega).  On the imaginary axis the exponent's real part is

    Re[...] = gamma * (w**2 - omega**2) / ((w - b_m)**2 + alpha_m**2),

nonpositive on the matching domain, so each factor satisfies |V_m - 1| <= 1
there, and the product obeys |V| <= 2**deg(delta).  |V| <= 1 does not hold
on the matching domain: at the band edge the exponent is purely imaginary and
|V_m| = 2|sin(Im z / 2)|, which reaches 2.  Off the matching domain the
exponent's real part is positive and the factor grows like
exp(gamma * Re(.)); where the summed growth passes exp(700) the compensator
is saturated.  Only :func:`_exponents` decides that, and every evaluator then
raises the error type its caller passes instead of returning an infinity:
ClassMismatch in the gamma ladders, SaturatedSpectrum everywhere else.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    NonFiniteResult,
    SaturatedSpectrum,
    SpectrumNotDecayed,
    TruncationNotJustified,
)
from .grids import GridSpec, in_class
from .kernels import RationalAnticausalKernel, eval_transfer, transfer_on_grid
from .signals import SampledSignal
from .transforms import signal_from_spectrum

SATURATION_EXPONENT = 700.0


def alpha_coefficient(a: float, b: float, omega: float) -> float:
    """(omega**2 - b**2) / a, the compensating-pole offset; positive on the class."""
    if not (a > 0):
        raise DomainError(f"a must be > 0, got {a}")
    if not (abs(b) < omega):
        raise DomainError(f"|b| = {abs(b)} must be < omega = {omega}")
    return (omega * omega - b * b) / a


def mobius_real_part(a: float, b: float, omega: float, omega_val: float) -> float:
    """Real part of (i*w - a + b*i)/(i*w + alpha - b*i) on the imaginary axis.

    Equals (w**2 - omega**2)/((w - b)**2 + alpha**2): negative inside the
    band, zero at the band edges, positive outside.
    """
    alpha = alpha_coefficient(a, b, omega)
    w = float(omega_val)
    return (w * w - omega * omega) / ((w - b) ** 2 + alpha * alpha)


@dataclass(frozen=True)
class PredictorTransfer:
    """A kernel plus the tuning gain gamma; immutable, thread-safe."""

    kernel: RationalAnticausalKernel
    gamma: float
    alphas: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.gamma) or self.gamma == 0.0:
            raise DomainError(
                f"gamma must be finite and nonzero, got {self.gamma} "
                "(gamma = 0 gives the useless zero predictor)"
            )
        alphas = tuple(
            alpha_coefficient(a, b, self.kernel.omega) for (a, b, _m) in self.kernel.poles
        )
        object.__setattr__(self, "alphas", alphas)

    @property
    def target_class(self) -> str:
        """Declared input class: LOW for gamma > 0, HIGH for gamma < 0."""
        return "LOW" if self.gamma > 0 else "HIGH"


def _exponents(predictor: PredictorTransfer, p, error: type) -> list[tuple[np.ndarray, int]]:
    """The one compensator pass: the exponents z_m(p) = gamma * Mobius(p) per
    pole group with their multiplicities.  Where the saturation rule
    sum_m mult_m * max(Re z_m, 0) > SATURATION_EXPONENT holds (the product can
    overflow where no single factor does; a saturating factor always saturates
    the sum), `error` is raised naming the first such omega = Im p and gamma.
    """
    p = np.asarray(p, dtype=complex)
    exps = []
    growth = np.zeros(p.shape)
    for (a, b, mult), alpha in zip(predictor.kernel.poles, predictor.alphas):
        z = predictor.gamma * (p - a + 1j * b) / (p + alpha - 1j * b)
        exps.append((z, mult))
        growth += mult * np.maximum(z.real, 0.0)
    saturated = growth > SATURATION_EXPONENT
    if np.any(saturated):
        raise error(
            f"omega = {p[saturated][0].imag:.6g} saturates the predictor for "
            f"gamma = {predictor.gamma:g} (exponent sum > {SATURATION_EXPONENT:g})"
        )
    return exps


def compensator_minus_one_on_points(predictor: PredictorTransfer, p, error: type) -> np.ndarray:
    """V(p) - 1 without cancellation: accumulate (1+acc)(1+u) - 1 = acc + u + acc*u
    over the factors u_m = -exp(z_m), mult_m times each.  A multiplicity past 3
    takes square-and-multiply, with (1+u)^2 - 1 = 2u + u*u, until at most 3
    factors are left; those, and every multiplicity up to 3, are accumulated
    one by one.  A saturating point raises `error`."""
    acc = np.zeros(np.shape(p), dtype=complex)
    for z, mult in _exponents(predictor, p, error):
        u = -np.exp(z)
        while mult > 3:
            if mult % 2:
                acc = acc + u + acc * u
            u = 2.0 * u + u * u
            mult //= 2
        for _ in range(mult):
            acc = acc + u + acc * u
    return acc


def compensator_on_points(predictor: PredictorTransfer, p, error: type) -> np.ndarray:
    """V values on arbitrary complex points; a saturating point raises `error`."""
    vals = np.ones(np.shape(p), dtype=complex)
    for z, mult in _exponents(predictor, p, error):
        vals = vals * (1.0 - np.exp(z)) ** mult
    return vals


def predictor_transfer_on_grid(
    predictor: PredictorTransfer, omega_values, error: type
) -> np.ndarray:
    """K_hat(i w) values on real frequencies; a saturating one raises `error`."""
    w = np.asarray(omega_values, dtype=float)
    return compensator_on_points(predictor, 1j * w, error) * transfer_on_grid(predictor.kernel, w)


def eval_predictor_transfer(predictor: PredictorTransfer, omega_val: float) -> complex:
    """K_hat(i w) = V(i w) K(i w) at one real frequency; raises DomainError
    for a non-finite w (eval_transfer) and SaturatedSpectrum where the
    compensator saturates."""
    k = eval_transfer(predictor.kernel, omega_val)
    v = compensator_on_points(predictor, np.array([1j * float(omega_val)]), SaturatedSpectrum)
    return complex(v[0]) * k


# ---------------------------------------------------------------------------
# Deviation norms over the predictor's own eps-gapped domain


def _default_omega_max(kernel: RationalAnticausalKernel) -> float:
    """Smallest point of the search w0 * 1.2**k with |K(i w)| <= 1e-10; raises
    TruncationNotJustified when w overflows first (a NaN |K| never qualifies)."""
    gap = kernel.denominator_degree - kernel.numerator_degree
    lead = abs(kernel.numerator_coeffs[kernel.numerator_degree])
    w = max((lead * 1e10) ** (1.0 / gap), 10.0 * kernel.omega)
    while math.isfinite(w):
        if abs(transfer_on_grid(kernel, np.array([w]))[0]) <= 1e-10:
            return w
        w *= 1.2
    raise TruncationNotJustified("w overflowed before |K(i w)| fell to 1e-10")


def _deviation_values(predictor: PredictorTransfer, w: np.ndarray) -> np.ndarray:
    """|K_hat - K| = |V - 1| * |K| pointwise (cancellation-free); a value that
    is not finite raises NonFiniteResult naming its frequency."""
    vm1 = compensator_minus_one_on_points(predictor, 1j * w, SaturatedSpectrum)
    vals = np.abs(vm1) * np.abs(transfer_on_grid(predictor.kernel, w))
    if not np.all(np.isfinite(vals)):
        raise NonFiniteResult(f"|K_hat - K| not finite at omega = {w[~np.isfinite(vals)][0]:.6g}")
    return vals


_CHUNK = 1 << 19


def _uniform_chunks(lo: float, hi: float, h: float):
    n = max(int(math.ceil((hi - lo) / h)) + 1, 2)
    for start in range(0, n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n))
        yield lo + (hi - lo) * idx / (n - 1)


def _high_domain_chunks(lo: float, wmax: float, h: float, omega: float):
    """Dense uniform nodes near the band edge, geometric far field.

    The deviation varies on the kernel's pole scale near the edge and like a
    power of 1/w beyond; 1% geometric spacing resolves the far field to well
    below the bound slacks while keeping any wmax feasible.
    """
    knee = min(max(10.0 * omega, lo + 500.0 * h), wmax)
    yield from _uniform_chunks(lo, knee, h)
    if knee < wmax:
        count = int(math.ceil(math.log(wmax / knee) / math.log(1.01)))
        tail = knee * 1.01 ** np.arange(1, count + 1)
        tail[-1] = wmax
        for start in range(0, len(tail), _CHUNK):
            yield tail[start : start + _CHUNK]


def deviation_norm(
    predictor: PredictorTransfer, epsilon: float, extra_points: Sequence[float] = ()
) -> float:
    """sup |K_hat(i w) - K(i w)| over the predictor's own eps-gapped domain:
    |w| <= omega - eps for gamma > 0, |w| >= omega + eps (truncated where |K|
    falls to 1e-10) for gamma < 0.  The points of `extra_points` whose |w|
    lies in the domain join the sup; a non-finite one, or extra points that
    are not a 1-D sequence, raise DomainError before anything is evaluated.
    A finite number, or DomainError, TruncationNotJustified or
    NonFiniteResult, without a numpy warning."""
    kernel, om = predictor.kernel, predictor.kernel.omega
    if not (0.0 <= epsilon < om):
        raise DomainError(f"epsilon = {epsilon} must lie in [0, omega = {om})")
    extras = np.asarray(extra_points, dtype=float)
    if not np.all(np.isfinite(extras)):
        raise DomainError(f"extra point {float(extras[~np.isfinite(extras)][0])} is not finite")
    if extras.ndim != 1:
        raise DomainError(f"extra points must be a 1-D sequence, got shape {extras.shape}")
    extras = np.abs(extras)
    inside = extras[in_class(extras, predictor.target_class, om, epsilon)]
    h = kernel.min_pole_rate / 50.0
    with np.errstate(all="ignore"):
        if predictor.target_class == "LOW":
            chunks = _uniform_chunks(-(om - epsilon), om - epsilon, h)
        else:
            chunks = _high_domain_chunks(om + epsilon, _default_omega_max(kernel), h, om)
        nodes = itertools.chain(chunks, [inside] if len(inside) else [])
        return max(float(np.max(_deviation_values(predictor, w))) for w in nodes)


# ---------------------------------------------------------------------------
# Time-domain synthesis of the predictor kernel


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Sampled causal kernel plus its causality-leakage diagnostic."""

    khat: SampledSignal
    leakage: float  # (energy at t < 0) / (total energy)
    spectrum_end_magnitude: float


_SYNTH_BLOCK = 1 << 15


def synthesize_time_predictor(
    predictor: PredictorTransfer,
    grid: GridSpec,
    decay_tol: float = 1e-8,
) -> SynthesisResult:
    """Inverse-transform K_hat on the grid's conjugate frequency axis.

    K_hat is Hermitian (real kernel, conjugate-closed poles), so it is
    evaluated on the n/2 + 1 frequencies omega >= 0 only and inverted with
    irfft; the sampled kernel is real.  The evaluation runs in blocks of
    2**15 frequencies, each written into one half-length array, so the
    temporaries of V and K never span the whole half grid; the values are
    the bits of one evaluation over all of it.  Raises SaturatedSpectrum,
    naming the first saturating frequency, if any of them saturates the
    compensator, and SpectrumNotDecayed if |K_hat| at the two highest of
    them exceeds decay_tol (pass a larger decay_tol to accept grid-limited
    truncation; leakage is reported either way).  A decay_tol that is not
    finite and > 0 raises DomainError.
    """
    if not (0.0 < decay_tol < math.inf):
        raise DomainError(f"decay_tol must be finite and > 0, got {decay_tol}")
    m = grid.n // 2 + 1
    khat_w = np.empty(m, dtype=complex)
    for start in range(0, m, _SYNTH_BLOCK):
        w = grid.domega * np.arange(start, min(start + _SYNTH_BLOCK, m))
        khat_w[start : start + len(w)] = predictor_transfer_on_grid(predictor, w, SaturatedSpectrum)
    end_mag = float(max(abs(khat_w[-1]), abs(khat_w[-2])))
    if end_mag > decay_tol:
        raise SpectrumNotDecayed(
            f"|K_hat| = {end_mag:.3e} at the grid ends exceeds decay_tol = {decay_tol:g}"
        )
    vals, t0, dt = signal_from_spectrum(khat_w, 0.0, grid.domega)
    power = vals**2
    total = float(np.sum(power))
    # On the centered grid t_j < 0 exactly for j < n/2: t_{n/2} is 0.0.
    leak = float(np.sum(power[: grid.n // 2])) / total if total > 0 else 0.0
    return SynthesisResult(SampledSignal(t0, dt, vals), leak, end_mag)
