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
exp(gamma * Re(.)); magnitudes past exp(700) are reported as structured
Saturated values rather than infinities, because that blow-up is an object of
study, not an accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    NonFiniteResult,
    Saturated,
    SaturatedSpectrum,
    SpectrumNotDecayed,
    TruncationNotJustified,
)
from .grids import GridSpec
from .kernels import RationalAnticausalKernel, _numerator_at, eval_transfer, transfer_on_grid
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


def _exponents(predictor: PredictorTransfer, p) -> tuple[list[tuple[np.ndarray, int]], np.ndarray]:
    """The one compensator pass: the exponents z_m(p) = gamma * Mobius(p) per
    pole group with their multiplicities, and the saturation mask.

    The saturation rule is sum_m mult_m * max(Re z_m, 0) > SATURATION_EXPONENT:
    the product can overflow where no single factor does; a saturating factor
    always saturates the sum.
    """
    p = np.asarray(p, dtype=complex)
    exps = []
    growth = np.zeros(p.shape)
    for (a, b, mult), alpha in zip(predictor.kernel.poles, predictor.alphas):
        z = predictor.gamma * (p - a + 1j * b) / (p + alpha - 1j * b)
        exps.append((z, mult))
        growth += mult * np.maximum(z.real, 0.0)
    return exps, growth > SATURATION_EXPONENT


def compensator_minus_one_on_points(predictor: PredictorTransfer, p) -> np.ndarray:
    """V(p) - 1 without cancellation: accumulate (1+acc)(1+u) - 1 = acc + u + acc*u
    over the factors u_m = -exp(z_m).  Inputs must not saturate."""
    exps, sat = _exponents(predictor, p)
    acc = np.zeros(sat.shape, dtype=complex)
    for z, mult in exps:
        u = -np.exp(z)
        for _ in range(mult):
            acc = acc + u + acc * u
    return acc


def compensator_on_points(predictor: PredictorTransfer, p) -> tuple[np.ndarray, np.ndarray]:
    """(V values, saturation mask) on arbitrary complex points.

    Where the mask is set the returned value is meaningless; callers decide
    whether saturation is an error (scalar eval), a guard (pipelines) or a
    reported fact (boundary checks).
    """
    exps, sat = _exponents(predictor, p)
    vals = np.ones(sat.shape, dtype=complex)
    for z, mult in exps:
        zsafe = np.where(sat, 0.0, z)
        vals = vals * (1.0 - np.exp(zsafe)) ** mult
    return vals, sat


def eval_compensator(predictor: PredictorTransfer, p: complex) -> complex:
    """V(p) at one point, Re p >= 0.  Raises Saturated past exp(700), carrying
    log|V| and arg V summed factor by factor in log space."""
    pt = np.array([complex(p)])
    vals, sat = compensator_on_points(predictor, pt)
    if not sat[0]:
        return complex(vals[0])
    log_mag = 0.0
    phase = 0.0
    for z, mult in _exponents(predictor, pt)[0]:
        zc = complex(z[0])
        if zc.real > SATURATION_EXPONENT:
            # 1 - e^z = -e^z (1 - e^{-z}); the correction is O(e^{-Re z}).
            log_mag += mult * zc.real
            phase += mult * (math.pi + zc.imag)
        else:
            factor = 1.0 - np.exp(zc)
            log_mag += mult * math.log(max(abs(factor), 1e-300))
            phase += mult * np.angle(factor)
    raise Saturated(log_mag, math.remainder(phase, 2.0 * math.pi))


def predictor_transfer_on_grid(
    predictor: PredictorTransfer, omega_values
) -> tuple[np.ndarray, np.ndarray]:
    """(K_hat(i w) values, saturation mask) on real frequencies."""
    w = np.asarray(omega_values, dtype=float)
    v, sat = compensator_on_points(predictor, 1j * w)
    k = transfer_on_grid(predictor.kernel, w)
    return v * k, sat


def eval_predictor_transfer(predictor: PredictorTransfer, omega_val: float) -> complex:
    """K_hat(i w) = V(i w) K(i w) at one real frequency."""
    return eval_compensator(predictor, 1j * float(omega_val)) * eval_transfer(
        predictor.kernel, float(omega_val)
    )


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
    vm1 = compensator_minus_one_on_points(predictor, 1j * w)
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


def _norm_over_chunks(predictor: PredictorTransfer, chunks, mu: float) -> tuple[float, float]:
    """(integral |dev|**mu, sup |dev|) over consecutive ascending node chunks."""
    total = 0.0
    sup = 0.0
    prev_w = None
    prev_v = None
    for w in chunks:
        vals = _deviation_values(predictor, w)
        sup = max(sup, float(np.max(vals)))
        if np.isfinite(mu):
            powered = vals**mu
            if prev_w is not None:
                seg_w = np.concatenate(([prev_w], w))
                seg_v = np.concatenate(([prev_v], powered))
            else:
                seg_w, seg_v = w, powered
            total += float(np.trapezoid(seg_v, seg_w))
            prev_w, prev_v = float(w[-1]), float(powered[-1])
    return total, sup


def deviation_norm(
    predictor: PredictorTransfer, epsilon: float, mu: float, extra_points: Sequence[float] = ()
) -> float:
    """L_mu norm (sup for mu = inf) of |K_hat(i w) - K(i w)| over the
    predictor's own eps-gapped domain: |w| <= omega - eps for gamma > 0, |w| >=
    omega + eps (truncated where |K| falls to 1e-10) for gamma < 0; the points
    of `extra_points` whose |w| lies in it join the sup.  A finite number, or
    DomainError, TruncationNotJustified or NonFiniteResult, without a numpy
    warning."""
    if not (mu >= 1.0):
        raise DomainError(f"mu must be in [1, inf], got {mu}")
    kernel, om = predictor.kernel, predictor.kernel.omega
    if not (0.0 <= epsilon < om):
        raise DomainError(f"epsilon = {epsilon} must lie in [0, omega = {om})")
    h = kernel.min_pole_rate / 50.0
    extras = np.abs(np.asarray(extra_points, dtype=float))
    with np.errstate(all="ignore"):
        if predictor.target_class == "LOW":
            edge = om - epsilon
            integral, sup = _norm_over_chunks(predictor, _uniform_chunks(-edge, edge, h), mu)
            inside = extras[extras <= edge]
        else:
            edge = om + epsilon
            chunks = _high_domain_chunks(edge, _default_omega_max(kernel), h, om)
            integral, sup = _norm_over_chunks(predictor, chunks, mu)
            integral *= 2.0  # |deviation| is even in w for real kernels
            inside = extras[extras >= edge]
        if len(inside):
            sup = max(sup, float(np.max(_deviation_values(predictor, inside))))
        norm = sup if np.isinf(mu) else integral ** (1.0 / mu)
    if not math.isfinite(norm):
        raise NonFiniteResult(f"deviation L_{mu:g} norm overflowed (gamma = {predictor.gamma:g})")
    return norm


# ---------------------------------------------------------------------------
# Time-domain synthesis of the predictor kernel


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Sampled causal kernel plus its causality-leakage diagnostic."""

    khat: SampledSignal
    leakage: float  # (energy at t < 0) / (total energy)
    spectrum_end_magnitude: float


def synthesize_time_predictor(
    predictor: PredictorTransfer,
    grid: GridSpec,
    decay_tol: float = 1e-8,
) -> SynthesisResult:
    """Inverse-transform K_hat on the grid's conjugate frequency axis.

    K_hat is Hermitian (real kernel, conjugate-closed poles), so it is
    evaluated on the n/2 + 1 frequencies omega >= 0 only and inverted with
    irfft; the sampled kernel is real.  Raises SaturatedSpectrum if any of
    them saturates the compensator and SpectrumNotDecayed if |K_hat| at the
    two highest of them exceeds decay_tol (pass a larger decay_tol to accept
    grid-limited truncation; leakage is reported either way).
    """
    w = grid.domega * np.arange(grid.n // 2 + 1)
    khat_w, sat = predictor_transfer_on_grid(predictor, w)
    if bool(np.any(sat)):
        wbad = w[np.argmax(sat)]
        raise SaturatedSpectrum(
            f"compensator exponent exceeds {SATURATION_EXPONENT:g} at omega = {wbad:.6g}; "
            f"gamma = {predictor.gamma:g} is too large for this grid"
        )
    end_mag = float(max(abs(khat_w[-1]), abs(khat_w[-2])))
    if end_mag > decay_tol:
        raise SpectrumNotDecayed(
            f"|K_hat| = {end_mag:.3e} at the grid ends exceeds decay_tol = {decay_tol:g}"
        )
    vals, t0, dt = signal_from_spectrum(khat_w, 0.0, grid.domega)
    khat = SampledSignal(t0, dt, vals)
    t = khat.times()
    power = vals**2
    total = float(np.sum(power))
    leak = float(np.sum(power[t < 0])) / total if total > 0 else 0.0
    return SynthesisResult(khat=khat, leakage=leak, spectrum_end_magnitude=end_mag)


# ---------------------------------------------------------------------------
# Hardy-space boundary diagnostics


@dataclass(frozen=True)
class HardyLine:
    s: float
    sup_v: float
    l2_v: float
    sup_khat: float
    l2_khat: float
    saturated: bool


@dataclass(frozen=True)
class HardyBoundaryReport:
    lines: tuple[HardyLine, ...]
    all_finite: bool
    sup_nonincreasing: bool  # checked for s beyond max pole rate


def _khat_on_points(predictor: PredictorTransfer, p: np.ndarray) -> np.ndarray:
    """K_hat = d(p) * prod_m (-expm1(z_m) / (p - pole_m))**mult_m on arbitrary points.

    Each compensator factor cancels its pole inside the quotient, so K_hat is
    accurate near the poles without dividing V by delta.  At a pole the factor
    takes its limit -gamma / ((a + alpha) - 2bi).
    """
    p = np.asarray(p, dtype=complex)
    kernel = predictor.kernel
    out = _numerator_at(kernel, p)
    factors = zip(_exponents(predictor, p)[0], kernel.poles, predictor.alphas, kernel.pole_values)
    for (z, mult), (a, b, _m), alpha, pole in factors:
        at_pole = p == pole
        gap = np.where(at_pole, 1.0, p - pole)
        factor = np.where(at_pole, -predictor.gamma / complex(a + alpha, -2 * b), -np.expm1(z) / gap)
        out = out * factor**mult
    return out


def hardy_boundary_check(
    predictor: PredictorTransfer,
    s_levels: Sequence[float],
    omega_max: float | None = None,
    h: float | None = None,
) -> HardyBoundaryReport:
    """Sample |V| and |K_hat| along vertical lines Re p = s.

    Records the sup and the grid-truncated L2 norm per line; asserts nothing
    fatal, but reports whether all values are finite and whether sup|V| is
    nonincreasing in s past the largest pole rate (a maximum-principle
    sanity check on half-plane boundedness, not a proof).
    """
    kernel = predictor.kernel
    max_rate = max(a for (a, _b, _m) in kernel.poles)
    scale = max(max_rate, max(predictor.alphas), kernel.omega)
    wmax = omega_max if omega_max is not None else 50.0 * scale
    step = h if h is not None else kernel.min_pole_rate / 50.0
    n = min(max(int(math.ceil(2 * wmax / step)) + 1, 64), 200001)
    w = np.linspace(-wmax, wmax, n)

    lines = []
    for s in s_levels:
        if not (s > 0):
            raise DomainError(f"s levels must be > 0, got {s}")
        p = s + 1j * w
        v, sat = compensator_on_points(predictor, p)
        saturated = bool(np.any(sat))
        if saturated:
            sup_v = l2_v = sup_k = l2_k = float("inf")
        else:
            khat = _khat_on_points(predictor, p)
            av, ak = np.abs(v), np.abs(khat)
            sup_v = float(np.max(av))
            l2_v = float(math.sqrt(np.trapezoid(av**2, w)))
            sup_k = float(np.max(ak))
            l2_k = float(math.sqrt(np.trapezoid(ak**2, w)))
        lines.append(HardyLine(float(s), sup_v, l2_v, sup_k, l2_k, saturated))

    finite = all(
        np.isfinite([ln.sup_v, ln.l2_v, ln.sup_khat, ln.l2_khat]).all() for ln in lines
    )
    beyond = sorted((ln for ln in lines if ln.s > max_rate), key=lambda ln: ln.s)
    nonincreasing = all(
        b.sup_v <= a.sup_v * (1 + 1e-6) for a, b in zip(beyond, beyond[1:])
    )
    return HardyBoundaryReport(tuple(lines), finite, nonincreasing)
