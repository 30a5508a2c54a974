"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from bandcast import PredictorTransfer, build_kernel, eval_transfer, fourier_inverse
from bandcast import predictor as predictor_module
from bandcast.errors import (
    BandcastError,
    ClassMismatch,
    DomainError,
    QuadratureNotConverged,
    SaturatedSpectrum,
)
from bandcast.harness import build_mixed_signal, config_from_dict
from bandcast.kernels import _numerator_at, scalar_time_kernel, transfer_on_grid
from bandcast.predictor import (
    SATURATION_EXPONENT,
    _deviation_values,
    _high_domain_chunks,
    _uniform_chunks,
    compensator_on_points,
    predictor_transfer_on_grid,
)
from bandcast.signals import GaussianBump, RaisedCosineBump, SampledSpectrum, make_mixed_signal
from bandcast.transforms import mirror_half


def kernel_from_json(doc: dict):
    """The kernel a config reads from the kernel document `doc`."""
    return config_from_dict({"kernel": doc, "gamma_ladder": [1.0]}).kernel


def mixed_from_json(doc: dict):
    """The mixed spectrum built from a config entry holding `doc`, a document
    of signals.mixed_to_json_dict."""
    cfg = config_from_dict({
        "kernel": {"omega": doc["omega"], "poles": [[1.0, 0.0, 1]], "numerator": [1.0]},
        "gamma_ladder": [1.0], "signals": [{"id": "m", "kind": "mixed", **doc}],
    })
    return build_mixed_signal(cfg.signals[0], cfg.kernel.omega)


def integrate_unweighted(density, t_values) -> np.ndarray:
    """integral density(w) e^{i w t} dw per t: the density's quadrature
    against one weight column of ones."""
    return density.integrate_against(lambda w: np.ones((len(w), 1)), t_values)[:, 0]


def evaluate_mixed(ms, t_values) -> np.ndarray:
    """x(t) = (1/2pi) (sum c_k e^{i w_k t} + integral e^{i w t} X_c dw) of the
    mixed spectrum `ms`."""
    t = np.asarray(t_values, dtype=float)
    acc = np.zeros(len(t), dtype=complex)
    for wk, ck in ms.atoms:
        acc += ck * np.exp(1j * wk * t)
    for comp in ms.density:
        acc += integrate_unweighted(comp, t)
    return acc / (2.0 * np.pi)


def random_kernel(rng, omega=None, max_groups=2):
    """Random admissible kernel: real poles and conjugate pairs, tame scales."""
    om = float(rng.uniform(0.5, 2.0)) if omega is None else float(omega)
    poles = []
    for _ in range(int(rng.integers(1, max_groups + 1))):
        a = float(rng.uniform(0.3, 2.5))
        if rng.random() < 0.5:
            poles.append((a, 0.0, 1))
        else:
            b = float(rng.uniform(0.1, 0.85) * om)
            poles.append((a, b, 1))
            poles.append((a, -b, 1))
    deg = sum(m for (_a, _b, m) in poles)
    num_deg = int(rng.integers(0, deg))
    coeffs = [float(rng.uniform(-2, 2)) for _ in range(num_deg + 1)]
    if coeffs[-1] == 0.0:
        coeffs[-1] = 1.0
    return build_kernel(poles, coeffs, om)


def random_oracle_kernel(rng):
    """Random kernel drawn as the oracle-tones benchmark pool draws them: 1-2
    pole groups, a in [0.3, 2.5], multiplicity 1-3, |b| < omega."""
    omega = float(rng.uniform(0.5, 2.0))
    poles = []
    for _ in range(int(rng.integers(1, 3))):
        a = float(rng.uniform(0.3, 2.5))
        mult = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            poles.append((a, 0.0, mult))
        else:
            b = float(rng.uniform(0.1, 0.85) * omega)
            poles += [(a, b, mult), (a, -b, mult)]
    degree = sum(m for (_a, _b, m) in poles)
    coeffs = [float(rng.uniform(-2, 2)) for _ in range(int(rng.integers(0, degree)) + 1)]
    return build_kernel(poles, coeffs, omega)


def reference_reconstruction_points(kernel):
    """Reference for `kernels._reconstruction_points`: one scalar draw per
    coordinate, each point formed and tested on its own."""
    rng = np.random.default_rng(0x5EED)
    pts = []
    poles = kernel.pole_values
    scale = max(1.0, kernel.omega, max(abs(p) for p in poles))
    while len(pts) < 64:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * scale
        if min(abs(z - p) for p in poles) > 0.25 * scale:
            pts.append(z)
    return np.array(pts)


def reference_mixed_predict_ladder(ms, kernel, gammas, t):
    """Reference (y, [y_hat per rung]) of `engine.mixed_predict_ladder`: K
    and each K_hat evaluated one atom and one rung at a time, the density
    integrated against the columns [K, K_hat per rung]."""
    predictors = [PredictorTransfer(kernel, gamma) for gamma in gammas]
    y_vals = np.zeros(len(t), dtype=complex)
    yhat_vals = [np.zeros(len(t), dtype=complex) for _ in predictors]
    for wk, ck in ms.atoms:
        tone = ck * np.exp(1j * wk * t)
        kw = complex(transfer_on_grid(kernel, np.array([wk]))[0])
        y_vals += kw * tone
        for predictor, acc in zip(predictors, yhat_vals):
            khat_w = predictor_transfer_on_grid(predictor, np.array([wk]), ClassMismatch)
            acc += complex(khat_w[0]) * tone

    def weights(wv):
        columns = [transfer_on_grid(kernel, wv)]
        for predictor in predictors:
            columns.append(predictor_transfer_on_grid(predictor, wv, ClassMismatch))
        return np.stack(columns, axis=1)

    for comp in ms.density:
        integrals = comp.integrate_against(weights, t)
        y_vals += integrals[:, 0]
        for c, acc in enumerate(yhat_vals, start=1):
            acc += integrals[:, c]
    return y_vals / (2 * np.pi), [acc / (2 * np.pi) for acc in yhat_vals]


def reference_deviation_norm(predictor, kind, epsilon, extra_points=()):
    """Reference for `predictor.deviation_norm`: the domain kind ("LOW" or
    "HIGH") passed on its own, the HIGH truncation point searched without a
    guard, and the max taken once over the values of every node chunk and of
    the extra points in the domain."""
    kernel = predictor.kernel
    om = kernel.omega
    h = kernel.min_pole_rate / 50.0
    extras = np.abs(np.asarray(extra_points, dtype=float))
    if kind == "LOW":
        chunks = list(_uniform_chunks(-(om - epsilon), om - epsilon, h, predictor_module._CHUNK))
        inside = extras[extras <= om - epsilon]
    else:
        gap = kernel.denominator_degree - kernel.numerator_degree
        lead = abs(kernel.numerator_coeffs[kernel.numerator_degree])
        wmax = max((lead * 1e10) ** (1.0 / gap), 10.0 * om)
        while abs(transfer_on_grid(kernel, np.array([wmax]))[0]) > 1e-10:
            wmax *= 1.2
        chunks = list(_high_domain_chunks(om + epsilon, wmax, h, om, predictor_module._CHUNK))
        inside = extras[extras >= om + epsilon]
    values = [_deviation_values(kernel, [predictor.gamma], w)[0] for w in chunks + [inside]]
    return float(np.max(np.concatenate(values)))


def random_mixed_signal(rng, class_tag, omega, epsilon, n_atoms=4, with_density=True,
                        single_atom=False):
    """Random mixed spectrum of the requested class."""
    if class_tag == "LOW":
        lo_w, hi_w = -(omega - epsilon), omega - epsilon
    else:
        lo_w, hi_w = omega + epsilon, 3.0 * omega
    atoms = []
    count = 1 if single_atom else n_atoms
    for _ in range(count):
        w = float(rng.uniform(lo_w, hi_w))
        if class_tag == "HIGH" and rng.random() < 0.5:
            w = -w
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        atoms.append((w, c))
    density = []
    if with_density and not single_atom:
        width = float(rng.uniform(0.1, 0.3)) * omega
        start = float(rng.uniform(lo_w, hi_w - width)) if class_tag == "LOW" else float(
            rng.uniform(omega + epsilon, 3.0 * omega - width)
        )
        density.append(RaisedCosineBump(start, start + width, float(rng.uniform(0.5, 2.0))))
    return make_mixed_signal(atoms, density, class_tag, epsilon, omega)


def hermitian_random_band_spectrum(rng, grid, support, base_height=1.0):
    """Random smooth Hermitian spectrum supported strictly inside `support`."""
    from bandcast.signals import SampledSpectrum

    og = grid.omegas()
    lo, hi = support
    vals = np.zeros(grid.n, dtype=complex)
    inside = (og > lo) & (og < hi)
    u = (og[inside] - (lo + hi) / 2) / ((hi - lo) / 2)
    base = base_height * np.cos(np.pi * u / 2) ** 2
    wiggle = np.zeros_like(base)
    for k in range(1, 4):
        wiggle = wiggle + float(rng.uniform(-0.5, 0.5)) * np.cos(k * np.pi * u)
    vals[inside] = base * (1.0 + 0.4 * wiggle)
    # Hermitian part: average with the mirrored conjugate (support symmetric).
    n = grid.n
    mirrored = np.zeros_like(vals)
    idx = np.arange(1, n)
    mirrored[idx] = np.conj(vals[n - idx])
    vals = 0.5 * (vals + mirrored)
    return SampledSpectrum(grid.omega0, grid.domega, vals)


def phased_spectrum(values, dt, t0):
    """Reference forward transform on any uniform time grid, in FFT order:
    dt * exp(-i*omega_k*t0) * fft(values), phases evaluated with exp."""
    omegas_fft = 2.0 * np.pi * np.fft.fftfreq(len(values), d=dt)
    return dt * np.exp(-1j * omegas_fft * t0) * np.fft.fft(values)


def phased_signal(values, omega0, domega, t0):
    """Reference inverse transform of a spectrum on any uniform frequency
    grid onto the time grid starting at t0, phases evaluated with exp."""
    n = len(values)
    dt = 2.0 * np.pi / (n * domega)
    t = t0 + dt * np.arange(n)
    inner = values * np.exp(1j * np.arange(n) * domega * t0)
    return (domega * n / (2.0 * np.pi)) * np.exp(1j * omega0 * t) * np.fft.ifft(inner)


def phase_matrices(t):
    """Reference phase matrix: x -> exp(1j * np.outer(t, x)), entry for entry.

    cos and sin are taken on the distinct |t|, and a row with t < 0 reuses its
    mirror with sin negated, so the matrix is built in full, n_t x nodes."""
    t = np.asarray(t, dtype=float)
    abs_t, rows = np.unique(np.abs(t), return_inverse=True)
    sign = np.copysign(1.0, t)[:, None]

    def phase(x):
        theta = np.outer(abs_t, x)
        out = np.empty((len(t), len(x)), dtype=complex)
        out.real = np.cos(theta)[rows]
        np.multiply(np.sin(theta)[rows], sign, out=out.imag)
        return out

    return phase


def reference_phase_products(t):
    """Drop-in for `signals._phase_products` that builds the full phase matrix
    of `phase_matrices` and multiplies it into each column on its own."""
    phase_matrix = phase_matrices(t)

    def products(x, columns):
        phase = phase_matrix(x)
        return np.stack([phase @ col for col in columns], axis=1)

    return products


def oracle_reference(kernel, x, t, tol):
    """Reference anticausal oracle values at the points t: one
    quad(..., complex_func=True) pass per t-point, k(-u) evaluated at every
    node visit, x once per distinct (t, u)."""
    upper = (-math.log(tol) + 1.0) / kernel.min_pole_rate
    k = scalar_time_kernel(kernel)
    out = np.empty(len(t), dtype=complex)
    for i, ti in enumerate(np.asarray(t, dtype=float).tolist()):
        memo = {}

        def integrand(u, ti=ti, memo=memo):
            if u not in memo:
                memo[u] = k(-u) * complex(x(ti + u))
            return memo[u]

        out[i] = quad(integrand, 0.0, upper, limit=400, epsabs=1e-12, epsrel=tol,
                      complex_func=True)[0]
    return out


def kernel_l2_norm(kernel) -> float:
    """L2 norm of k over the real line.

    Computed as sqrt((1/pi) * integral_0^inf |K(i w)|^2 dw) by adaptive
    quadrature (|K| is even in w), relative tolerance 1e-8.
    """

    def integrand(w: float) -> float:
        return abs(eval_transfer(kernel, w)) ** 2

    features = sorted({abs(b) for (_a, b, _m) in kernel.poles} | {kernel.omega})
    breakpoint_ = 10.0 * max(
        max(a for (a, _b, _m) in kernel.poles), features[-1], 1.0
    )
    try:
        head, head_err = quad(
            integrand, 0.0, breakpoint_, points=features, limit=400,
            epsabs=0.0, epsrel=1e-9,
        )
        tail, tail_err = quad(
            integrand, breakpoint_, np.inf, limit=400, epsabs=0.0, epsrel=1e-9
        )
    except Exception as exc:  # pragma: no cover - quadpack internal failure
        raise QuadratureNotConverged(str(exc)) from exc
    total = head + tail
    if total <= 0 or (head_err + tail_err) > 1e-8 * total:
        raise QuadratureNotConverged(
            f"estimated error {head_err + tail_err:.3e} vs value {total:.6e}"
        )
    return math.sqrt(total / math.pi)


class Saturated(BandcastError):
    """A compensator factor overflowed; value carried in log form.

    Attributes
    ----------
    log_magnitude : float
        Natural log of the magnitude of the (unrepresentable) value.
    phase : float
        Phase of the value, radians.
    """

    def __init__(self, log_magnitude: float, phase: float):
        self.log_magnitude = float(log_magnitude)
        self.phase = float(phase)
        super().__init__(
            f"saturated: log-magnitude {self.log_magnitude:.6g}, "
            f"phase {self.phase:.6g} rad"
        )


def reference_exponents(predictor, p) -> list[tuple[np.ndarray, int]]:
    """Reference z_m(p) = gamma * (p - a_m + b_m i)/(p + alpha_m - b_m i) per
    pole group with its multiplicity, at any point, saturating or not."""
    p = np.asarray(p, dtype=complex)
    poles = zip(predictor.kernel.poles, predictor.alphas)
    return [(predictor.gamma * (p - a + 1j * b) / (p + alpha - 1j * b), mult)
            for (a, b, mult), alpha in poles]


def eval_compensator(predictor, p: complex) -> complex:
    """V(p) at one point, Re p >= 0.  Raises Saturated past exp(700), carrying
    log|V| and arg V summed factor by factor in log space."""
    pt = np.array([complex(p)])
    try:
        return complex(compensator_on_points(predictor, pt, SaturatedSpectrum)[0])
    except SaturatedSpectrum:
        pass
    log_mag = 0.0
    phase = 0.0
    for z, mult in reference_exponents(predictor, pt):
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


def _khat_on_points(predictor, p: np.ndarray) -> np.ndarray:
    """K_hat = d(p) * prod_m (-expm1(z_m) / (p - pole_m))**mult_m on arbitrary points.

    Each compensator factor cancels its pole inside the quotient, so K_hat is
    accurate near the poles without dividing V by delta.  At a pole the factor
    takes its limit -gamma / ((a + alpha) - 2bi).
    """
    p = np.asarray(p, dtype=complex)
    kernel = predictor.kernel
    out = _numerator_at(kernel, p)
    factors = zip(reference_exponents(predictor, p), kernel.poles, predictor.alphas,
                  kernel.pole_values)
    for (z, mult), (a, b, _m), alpha, pole in factors:
        at_pole = p == pole
        gap = np.where(at_pole, 1.0, p - pole)
        factor = np.where(at_pole, -predictor.gamma / complex(a + alpha, -2 * b), -np.expm1(z) / gap)
        out = out * factor**mult
    return out


def hardy_boundary_check(
    predictor,
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
        try:
            v = compensator_on_points(predictor, p, SaturatedSpectrum)
        except SaturatedSpectrum:
            lines.append(HardyLine(float(s), *[float("inf")] * 4, True))
            continue
        khat = _khat_on_points(predictor, p)
        av, ak = np.abs(v), np.abs(khat)
        sup_v = float(np.max(av))
        l2_v = float(math.sqrt(np.trapezoid(av**2, w)))
        sup_k = float(np.max(ak))
        l2_k = float(math.sqrt(np.trapezoid(ak**2, w)))
        lines.append(HardyLine(float(s), sup_v, l2_v, sup_k, l2_k, False))

    finite = all(
        np.isfinite([ln.sup_v, ln.l2_v, ln.sup_khat, ln.l2_khat]).all() for ln in lines
    )
    beyond = sorted((ln for ln in lines if ln.s > max_rate), key=lambda ln: ln.s)
    nonincreasing = all(
        b.sup_v <= a.sup_v * (1 + 1e-6) for a, b in zip(beyond, beyond[1:])
    )
    return HardyBoundaryReport(tuple(lines), finite, nonincreasing)


def record_inverse_transforms(monkeypatch) -> list[tuple[str, int]]:
    """Patch np.fft.ifft and np.fft.irfft to record (name, output size) per
    call, from any thread.  An n-point inverse is n samples of output, whether
    one transform makes them or r interleaved n/r-point ones."""
    calls = []
    for name in ("ifft", "irfft"):
        fn = getattr(np.fft, name)

        def recorded(*args, fn=fn, name=name, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, out.size))
            return out

        monkeypatch.setattr(np.fft, name, recorded)
    return calls


def inverses_made(calls, n: int) -> float:
    """The n-point inverses that `calls` (record_inverse_transforms) add up
    to; any ifft fails."""
    assert all(name == "irfft" for name, _ in calls)
    return sum(size for _, size in calls) / n


def full_grid(spec, grid):
    """`spec` on the full centered grid of `grid`: an omega >= 0 half
    (omega0 == 0) mirrored by `transforms.mirror_half`, else `spec` itself."""
    if spec.omega0 != 0.0:
        return spec
    return SampledSpectrum(grid.omega0, grid.domega, mirror_half(spec.values, grid.n))


def reference_grid_spectrum(envelope, support, grid, two_sided, height=1.0, sigma=None):
    """Reference for the grid generators: the envelope sampled on the full
    centered grid, at |omega| when two-sided, as they built every spectrum
    before two-sided ones were born as halves."""
    lo, hi = support
    w = np.abs(grid.omegas()) if two_sided else grid.omegas()
    if envelope == "indicator":
        vals = np.where((w >= lo) & (w <= hi), height, 0.0).astype(complex)
    elif envelope == "raised_cosine":
        vals = RaisedCosineBump(lo, hi, height)(w)
    else:
        vals = GaussianBump(lo, hi, height, sigma)(w)
    return SampledSpectrum(grid.omega0, grid.domega, vals)


def reference_outofband_noise(spectrum, eta, noise_support, seed):
    """Reference for `signals.add_outofband_noise` on a full centered grid:
    a full-length complex noise array holding each draw and its conjugate
    mate, scaled by energies summed over full-length |.|^2 arrays."""
    lo, hi = noise_support
    og = spectrum.omegas()
    pos = np.where((og >= lo) & (og <= hi))[0]
    rng = np.random.default_rng(seed)
    noise = np.zeros(len(og), dtype=complex)
    draws = rng.standard_normal(len(pos)) + 1j * rng.standard_normal(len(pos))
    noise[pos] = draws
    noise[-pos] = np.conj(draws)
    sig_energy = float(np.sum(np.abs(spectrum.values) ** 2) * spectrum.domega / (2.0 * np.pi))
    noise_energy = float(np.sum(np.abs(noise) ** 2) * spectrum.domega / (2 * np.pi))
    noise *= math.sqrt(eta * sig_energy / noise_energy)
    return SampledSpectrum(spectrum.omega0, spectrum.domega, spectrum.values + noise)


def on_grid(points) -> SampledSpectrum:
    """The spectrum that `points` (engine.SpectrumPoints) stand for: its
    values at its indices and zero elsewhere on its grid."""
    full = np.zeros(points.size, dtype=complex)
    full[points.indices] = points.values
    return SampledSpectrum(points.omega0, points.domega, full)


def reference_prediction(X, kernel, gamma):
    """(y, y_hat) of the FFT route's rung at gamma, rebuilt here: the
    fourier_inverse of Y = K X and of Y_hat = V K X, with K and V evaluated
    only where X != 0, as the route evaluates them."""
    active = np.flatnonzero(X.values)
    w = X.omegas()[active]
    Y = np.zeros(len(X.values), dtype=complex)
    Y[active] = transfer_on_grid(kernel, w) * X.values[active]
    Yhat = np.zeros_like(Y)
    predictor = PredictorTransfer(kernel, gamma)
    Yhat[active] = compensator_on_points(predictor, 1j * w, ClassMismatch) * Y[active]
    return tuple(fourier_inverse(SampledSpectrum(X.omega0, X.domega, v)) for v in (Y, Yhat))
