"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from bandcast import PredictorTransfer, build_kernel
from bandcast.errors import ClassMismatch
from bandcast.kernels import scalar_time_kernel, transfer_on_grid
from bandcast.predictor import predictor_transfer_on_grid
from bandcast.signals import RaisedCosineBump, make_mixed_signal


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
            khat_w, sat = predictor_transfer_on_grid(predictor, np.array([wk]))
            if bool(sat[0]):
                raise ClassMismatch(f"atom at omega = {wk:g} saturates the predictor")
            acc += complex(khat_w[0]) * tone

    def weights(wv):
        columns = [transfer_on_grid(kernel, wv)]
        for predictor in predictors:
            vals, sat = predictor_transfer_on_grid(predictor, wv)
            if bool(np.any(sat)):
                raise ClassMismatch("density support saturates the predictor")
            columns.append(vals)
        return np.stack(columns, axis=1)

    for comp in ms.density:
        integrals = comp.integrate_against(weights, t)
        y_vals += integrals[:, 0]
        for c, acc in enumerate(yhat_vals, start=1):
            acc += integrals[:, c]
    return y_vals / (2 * np.pi), [acc / (2 * np.pi) for acc in yhat_vals]


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
