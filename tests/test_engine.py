"""Transforms, convolution routes, spectral pipeline, error norms."""

import math

import numpy as np
import pytest

from bandcast import (
    PredictionResult,
    PredictorTransfer,
    SampledSignal,
    SampledSpectrum,
    anticausal_convolve_oracle,
    causal_convolve,
    error_norms,
    eval_predictor_transfer,
    eval_transfer,
    fourier_forward,
    fourier_inverse,
    make_bandlimited_signal,
    make_highfreq_signal,
    make_mixed_signal,
    mixed_predict,
    mixed_predict_ladder,
    spectral_predict,
    spectral_predict_ladder,
    synthesize_time_predictor,
)
from bandcast import engine, transforms
from bandcast.errors import (
    ClassMismatch,
    GridMismatch,
    InsufficientHistory,
    NonFiniteResult,
    QuadratureNotConverged,
)
from bandcast.grids import GridSpec
from bandcast.kernels import transfer_on_grid
from helpers import hermitian_random_band_spectrum, random_mixed_signal

LADDERS = {"LOW": [2, 5, 10, 20, 50], "HIGH": [-2, -5, -10, -20, -50]}


def test_gaussian_transform_pair():
    g = GridSpec(2**12, 80.0)
    t = g.times()
    spec = fourier_forward(SampledSignal(g.t0, g.dt, np.exp(-(t**2) / 2)))
    w = spec.omegas()
    expected = math.sqrt(2 * math.pi) * np.exp(-(w**2) / 2)
    assert np.max(np.abs(spec.values - expected)) < 1e-8


def test_round_trip_identity():
    g = GridSpec(2048, 400.0)
    sig, _ = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0, hermitian=True)
    back = fourier_inverse(fourier_forward(sig))
    assert back.t0 == pytest.approx(sig.t0)
    assert np.max(np.abs(back.values - sig.values)) <= 1e-10 * np.max(np.abs(sig.values))


def test_round_trip_no_worse_than_phase_path():
    # The general phase path is the transform pair every grid used before
    # centered grids got exact signs; its rounding grows with n.
    for g in (GridSpec(2048, 400.0), GridSpec(2**16, 12800.0)):
        sig, _ = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0, hermitian=True)
        back = fourier_inverse(fourier_forward(sig))
        spec = np.fft.fftshift(transforms._phased_spectrum(sig.values, sig.dt, sig.t0))
        phased = transforms._phased_signal(spec, g.omega0, g.domega, sig.t0)
        assert back.t0 == sig.t0
        err = np.max(np.abs(back.values - sig.values))
        assert err <= np.max(np.abs(phased - sig.values))
        assert err <= 1e-14 * np.max(np.abs(sig.values))


@pytest.mark.parametrize("n", [2, 2**11, 2**16])
def test_sign_path_matches_phase_path(n):
    # n = 2 is the only power of two with (-1)^(n/2) = -1.
    g = GridSpec(n, 400.0 * n / 2048)
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sig, t0, dt = transforms.signal_from_spectrum(v, g.omega0, g.domega)
    ref = transforms._phased_signal(v, g.omega0, g.domega, t0)
    assert np.max(np.abs(sig - ref)) <= 1e-9 * np.max(np.abs(ref))
    spec, omega0, domega = transforms.spectrum_from_signal(v, g.dt, g.t0)
    ref = np.fft.fftshift(transforms._phased_spectrum(v, g.dt, g.t0))
    assert (omega0, domega) == (g.omega0, g.domega)
    assert np.max(np.abs(spec - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_off_center_grids_take_phase_path(monkeypatch):
    calls = []
    for name in ("_phased_signal", "_phased_spectrum"):
        original = getattr(transforms, name)

        def spy(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(transforms, name, spy)
    g = GridSpec(2048, 400.0)
    sig, _ = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0, hermitian=True)
    calls.clear()
    shifted = SampledSignal(g.t0 + 37.5, g.dt, sig.values)
    back = fourier_inverse(fourier_forward(shifted), t0=shifted.t0)
    assert calls == ["_phased_spectrum", "_phased_signal"]
    assert back.t0 == shifted.t0
    assert np.max(np.abs(back.values - sig.values)) <= 1e-10 * np.max(np.abs(sig.values))
    # An omega0 off -(n//2)*domega is a frequency shift: x(t) e^{i*shift*t}.
    calls.clear()
    X = fourier_forward(sig)
    shift = 5 * g.domega
    moved = fourier_inverse(SampledSpectrum(X.omega0 + shift, X.domega, X.values))
    assert calls == ["_phased_signal"]
    expected = sig.values * np.exp(1j * shift * sig.times())
    assert np.max(np.abs(moved.values - expected)) <= 1e-10 * np.max(np.abs(sig.values))


def test_transform_requires_power_of_two():
    sig = SampledSignal(0.0, 0.1, np.zeros(100, dtype=complex))
    with pytest.raises(GridMismatch):
        fourier_forward(sig)


def test_shift_theorem():
    g = GridSpec(2048, 400.0)
    sig, spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0, hermitian=True)
    m = 64
    delayed = SampledSignal(g.t0, g.dt, np.roll(sig.values, m))
    spec_d = fourier_forward(delayed)
    w = spec.omegas()
    idx = np.linspace(0, g.n - 1, 16, dtype=int)
    expected = spec.values[idx] * np.exp(-1j * w[idx] * m * g.dt)
    assert np.max(np.abs(spec_d.values[idx] - expected)) <= 1e-12 * np.max(np.abs(spec.values))


def test_oracle_constant_input(single_pole):
    t = np.linspace(-3, 3, 7)
    y = anticausal_convolve_oracle(single_pole, lambda s: 1.0, t, tol=1e-9)
    assert np.max(np.abs(y.values + 1.0)) < 1e-8


def test_oracle_pure_tone_eigenrelation(single_pole):
    w0 = 0.7
    t = np.linspace(-3, 3, 7)
    y = anticausal_convolve_oracle(single_pole, lambda s: np.exp(1j * w0 * s), t, tol=1e-9)
    ref = eval_transfer(single_pole, w0) * np.exp(1j * w0 * t)
    assert np.max(np.abs(y.values - ref)) < 1e-6


def test_oracle_zero_input(single_pole):
    t = np.linspace(-2, 2, 5)
    y = anticausal_convolve_oracle(single_pole, lambda s: 0.0, t)
    assert np.all(y.values == 0.0)


def test_oracle_against_fixed_order_gauss(single_pole):
    # Second, independent quadrature: composite fixed-order Gauss-Legendre.
    from bandcast.kernels import time_kernel_on_grid

    def x(s):
        return np.sinc(np.asarray(s) / math.pi)  # sin(s)/s

    t = np.linspace(-2, 2, 5)
    y = anticausal_convolve_oracle(single_pole, lambda s: float(x(s)), t, tol=1e-9)

    nodes, weights = np.polynomial.legendre.leggauss(10)
    upper = math.log(1e10)  # min pole rate is 1
    edges = np.linspace(0.0, upper, 65)
    mids, halfs = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    u = (mids[:, None] + halfs[:, None] * nodes[None, :]).ravel()
    wq = (halfs[:, None] * weights[None, :]).ravel()
    ku = time_kernel_on_grid(single_pole, -u)
    for ti, yi in zip(t, y.values):
        ref = np.sum(wq * ku * x(ti + u))
        assert yi == pytest.approx(ref, abs=1e-6)


def test_oracle_rejects_nonuniform_grid(single_pole):
    with pytest.raises(GridMismatch):
        anticausal_convolve_oracle(single_pole, lambda s: 1.0, np.array([0.0, 1.0, 3.0]))


def test_causal_identity_kernel():
    dt = 0.05
    x = SampledSignal(-10.0, dt, np.sin(np.linspace(0, 6, 512)) + 0j)
    delta = SampledSignal(0.0, dt, np.concatenate(([2 / dt], np.zeros(100))))
    out = causal_convolve(delta, x, 5.0)
    assert np.max(np.abs(out.values - x.values)) <= 1e-14 * np.max(np.abs(x.values))


def test_causal_horizon_tail_negligible(triple_pole):
    pred = PredictorTransfer(triple_pole, 1.0)
    grid = GridSpec(2**18, 256.0)
    synth = synthesize_time_predictor(pred, grid)
    w0 = 16 * grid.domega
    x = SampledSignal(grid.t0, grid.dt, np.exp(1j * w0 * grid.times()))
    a = causal_convolve(synth.khat, x, 40.0)
    b = causal_convolve(synth.khat, x, 80.0)
    t = synth.khat.times()
    tail = np.abs(synth.khat.values)[(t >= 40.0) & (t <= 80.0)].max()
    assert tail < 1e-11  # truncation-ringing floor of this grid
    scale = np.max(np.abs(b.values))
    assert np.max(np.abs(a.values - b.values)) <= 1e-10 * scale


def test_causal_requires_history_and_grid(triple_pole):
    dt = 0.05
    x = SampledSignal(-10.0, dt, np.zeros(512, dtype=complex))
    kh = SampledSignal(0.0, dt, np.zeros(128, dtype=complex))
    with pytest.raises(InsufficientHistory):
        causal_convolve(kh, x, 100.0)
    with pytest.raises(GridMismatch):
        causal_convolve(SampledSignal(0.0, 0.1, np.zeros(128, dtype=complex)), x, 1.0)


def test_spectral_predict_zero_signal(single_pole, pipeline_grid):
    X = SampledSpectrum(pipeline_grid.omega0, pipeline_grid.domega, np.zeros(pipeline_grid.n, dtype=complex))
    r = spectral_predict(X, single_pole, 5.0)
    assert r.err_l2 == 0.0 and r.err_linf == 0.0
    assert np.all(r.yhat.values == 0.0)


def test_spectral_predict_monotone_sweep(single_pole, pipeline_grid):
    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    errs = [spectral_predict(X, single_pole, g).err_l2 for g in (2, 5, 10, 20, 50)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_spectral_predict_scaling(single_pole, pipeline_grid):
    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    r1 = spectral_predict(X, single_pole, 5.0)
    X3 = SampledSpectrum(X.omega0, X.domega, 3.0 * X.values)
    r3 = spectral_predict(X3, single_pole, 5.0)
    assert r3.err_l2 == pytest.approx(3 * r1.err_l2, rel=1e-12)
    assert r3.err_linf == pytest.approx(3 * r1.err_linf, rel=1e-12)


def test_spectral_predict_zero_guard_allows_large_gamma(single_pole, pipeline_grid):
    # gamma = 800 saturates off-band, but the signal is zero there; the
    # zero-times-anything guard must keep the run clean.
    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    r = spectral_predict(X, single_pole, 800.0)
    assert np.isfinite(r.err_l2)
    assert r.err_l2 < 1e-10


def test_spectral_predict_class_mismatch(single_pole, pipeline_grid):
    _sig, X = make_bandlimited_signal("indicator", (5.0, 6.0), pipeline_grid, 8.0, hermitian=False)
    with pytest.raises(ClassMismatch):
        spectral_predict(X, single_pole, 800.0)


def test_spectral_predict_summed_growth_saturation(pair_flat, pipeline_grid):
    # Each factor's exponent stays under 700 (619 and 91) but their product
    # overflows; the run must raise instead of returning err_l2 = nan.
    vals = np.zeros(pipeline_grid.n, dtype=complex)
    vals[np.argmin(np.abs(pipeline_grid.omegas() - 1.1))] = 1.0
    X = SampledSpectrum(pipeline_grid.omega0, pipeline_grid.domega, vals)
    with pytest.raises(ClassMismatch, match="saturates"):
        spectral_predict(X, pair_flat, 1800.0)


def test_prediction_result_rejects_nonfinite_norms(pipeline_grid):
    y = SampledSignal(pipeline_grid.t0, pipeline_grid.dt, np.zeros(4, dtype=complex))
    yhat = SampledSignal(y.t0, y.dt, np.array([0, np.nan, 0, 0], dtype=complex))
    l2, linf = error_norms(y, yhat)
    with pytest.raises(NonFiniteResult):
        PredictionResult(y, yhat, l2, linf, 5.0)
    with pytest.raises(NonFiniteResult):
        PredictionResult(y, y, math.inf, 0.0, 5.0)


def _class_signal(class_tag, grid):
    if class_tag == "LOW":
        return make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0, hermitian=True)[1]
    return make_highfreq_signal("raised_cosine", (1.2, 1.5), grid, 1.0, hermitian=True)[1]


@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_spectral_predict_ladder_equals_single_rungs(single_pole, pipeline_grid, class_tag):
    X = _class_signal(class_tag, pipeline_grid)
    ladder = list(spectral_predict_ladder(X, single_pole, LADDERS[class_tag]))
    assert [r.gamma for r in ladder] == LADDERS[class_tag]
    for rung in ladder:
        single = spectral_predict(X, single_pole, rung.gamma)
        assert np.array_equal(rung.y.values, single.y.values)
        assert np.array_equal(rung.yhat.values, single.yhat.values)
        assert np.array_equal(rung.yhat_spectrum.values, single.yhat_spectrum.values)
        assert rung.err_l2 == single.err_l2
        assert rung.err_linf == single.err_linf
    assert ladder[-1].err_l2 < ladder[0].err_l2


def test_spectral_predict_ladder_inverts_y_once(single_pole, pipeline_grid, monkeypatch):
    # L rungs: one inverse transform for y plus one per y_hat, and K on the
    # full grid once.
    inverses, full_grid_k = [], []
    inverse, transfer = engine.fourier_inverse, engine.transfer_on_grid

    def counted_inverse(spectrum, *args):
        inverses.append(spectrum)
        return inverse(spectrum, *args)

    def counted_transfer(kernel, w):
        if np.size(w) == pipeline_grid.n:
            full_grid_k.append(w)
        return transfer(kernel, w)

    monkeypatch.setattr(engine, "fourier_inverse", counted_inverse)
    monkeypatch.setattr(engine, "transfer_on_grid", counted_transfer)
    X = _class_signal("LOW", pipeline_grid)
    results = list(spectral_predict_ladder(X, single_pole, LADDERS["LOW"]))
    assert len(results) == len(LADDERS["LOW"])
    assert len(inverses) == len(LADDERS["LOW"]) + 1
    assert len(full_grid_k) == 1
    assert all(r.y is results[0].y for r in results)


def test_mixed_predict_single_atom_exact(single_pole):
    ms = make_mixed_signal([(0.5, 2 * math.pi)], [], "LOW", 0.4, 1.0)
    t = np.linspace(-20, 20, 401)
    r = mixed_predict(ms, single_pole, 5.0, t)
    pred = PredictorTransfer(single_pole, 5.0)
    expected = abs(eval_predictor_transfer(pred, 0.5) - eval_transfer(single_pole, 0.5))
    assert r.err_linf == pytest.approx(expected, rel=1e-12)


def test_mixed_predict_single_atom_sweep_to_zero(single_pole):
    ms = make_mixed_signal([(0.5, 2 * math.pi)], [], "LOW", 0.4, 1.0)
    t = np.linspace(-20, 20, 101)
    errs = [mixed_predict(ms, single_pole, g, t).err_linf for g in (2, 5, 10, 20, 50)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8


def test_mixed_predict_class_sign_mismatch(single_pole):
    ms = make_mixed_signal([(0.5, 2 * math.pi)], [], "LOW", 0.4, 1.0)
    with pytest.raises(ClassMismatch):
        mixed_predict(ms, single_pole, -5.0, np.linspace(-5, 5, 11))


def test_mixed_predict_density_against_dense_trapezoid(single_pole):
    from bandcast.signals import RaisedCosineBump

    bump = RaisedCosineBump(-0.5, 0.1, 1.3)
    ms = make_mixed_signal([], [bump], "LOW", 0.4, 1.0)
    t = np.linspace(-3, 3, 7)
    r = mixed_predict(ms, single_pole, 5.0, t)
    w = np.linspace(-0.5, 0.1, 200001)
    integrand = bump(w) * transfer_on_grid(single_pole, w)
    for ti, yi in zip(t, r.y.values):
        ref = np.trapezoid(integrand * np.exp(1j * w * ti), w) / (2 * math.pi)
        assert yi == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_mixed_predict_ladder_bit_identical_to_single_rungs(conjugate_pair, class_tag):
    # Sharing one quadrature across the ladder must not move a single bit.
    rng = np.random.default_rng(0xC6)
    ms = random_mixed_signal(rng, class_tag, omega=1.0, epsilon=0.25)
    assert ms.atoms and ms.density
    t = GridSpec(2048, 400.0).times()
    ladder = mixed_predict_ladder(ms, conjugate_pair, LADDERS[class_tag], t)
    assert [r.gamma for r in ladder] == LADDERS[class_tag]
    for rung in ladder:
        single = mixed_predict(ms, conjugate_pair, rung.gamma, t)
        assert np.array_equal(rung.y.values, single.y.values)
        assert np.array_equal(rung.yhat.values, single.yhat.values)
        assert rung.err_l2 == single.err_l2
        assert rung.err_linf == single.err_linf


def test_mixed_predict_ladder_one_node_set_pair_per_density(conjugate_pair, monkeypatch):
    # Each density builds a coarse and a fine node set and calls its weight
    # once per set, however many rungs the ladder has.
    from bandcast import signals

    node_sets, weight_calls = [], []
    panels = signals._gauss_legendre_panels
    integrate = signals.RaisedCosineBump.integrate_against

    def counted_panels(lo, hi, npanels, *args):
        node_sets.append((lo, hi))
        return panels(lo, hi, npanels, *args)

    def counted_integrate(self, weight, t_values):
        def counted_weight(wv):
            weight_calls.append(self)
            return weight(wv)

        return integrate(self, counted_weight, t_values)

    monkeypatch.setattr(signals, "_gauss_legendre_panels", counted_panels)
    monkeypatch.setattr(signals.RaisedCosineBump, "integrate_against", counted_integrate)
    bumps = [signals.RaisedCosineBump(-0.6, -0.3, 1.5), signals.RaisedCosineBump(0.1, 0.5, 0.7)]
    ms = make_mixed_signal([(0.3, 3 + 1j)], bumps, "LOW", 0.25, 1.0)
    mixed_predict_ladder(ms, conjugate_pair, LADDERS["LOW"], GridSpec(2048, 400.0).times())
    for bump in bumps:
        assert node_sets.count(bump.support()) == 2
        assert weight_calls.count(bump) == 2
    assert len(node_sets) == len(weight_calls) == 2 * len(bumps)


def test_mixed_predict_unconverged_density_raises(conjugate_pair):
    from bandcast.signals import SampledDensity

    # Piecewise-linear kinks inside Gauss panels: on a 400 s grid the coarse
    # and fine passes disagree far beyond the 1e-9 certificate.
    kinked = SampledDensity([-0.6, -0.35, -0.1, 0.15, 0.4], [0.0, 1.3, 0.4, 1.1, 0.0])
    ms = make_mixed_signal([(0.3, 1.0)], [kinked], "LOW", 0.25, 1.0)
    with pytest.raises(QuadratureNotConverged, match="not converged on"):
        mixed_predict(ms, conjugate_pair, 5.0, GridSpec(2048, 400.0).times())


def test_error_norms_identity_and_offset():
    y = SampledSignal(0.0, 0.1, np.linspace(0, 1, 101) + 0j)
    assert error_norms(y, y) == (0.0, 0.0)
    offset = SampledSignal(0.0, 0.1, y.values + 0.5)
    l2, linf = error_norms(y, offset)
    assert linf == pytest.approx(0.5)
    assert l2 == pytest.approx(0.5 * math.sqrt(y.span), rel=1e-12)


def test_error_norms_triangle_inequality():
    rng = np.random.default_rng(31)
    for _ in range(8):
        vals = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
        a, b, c = (SampledSignal(0.0, 0.25, v) for v in vals)
        ab = error_norms(a, b)
        bc = error_norms(b, c)
        ac = error_norms(a, c)
        assert ac[0] <= ab[0] + bc[0] + 1e-12
        assert ac[1] <= ab[1] + bc[1] + 1e-12


def test_error_norms_grid_mismatch():
    y = SampledSignal(0.0, 0.1, np.zeros(64, dtype=complex))
    z = SampledSignal(0.5, 0.1, np.zeros(64, dtype=complex))
    with pytest.raises(GridMismatch):
        error_norms(y, z)


def test_parseval_bridging(single_pole, pipeline_grid):
    # Time-domain error norm equals the frequency-domain one up to 1/sqrt(2pi).
    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    r = spectral_predict(X, single_pole, 5.0)
    w = X.omegas()
    K = transfer_on_grid(single_pole, w)
    pred = PredictorTransfer(single_pole, 5.0)
    from bandcast.predictor import compensator_minus_one_on_points

    active = X.values != 0
    diff = np.zeros_like(X.values)
    diff[active] = (
        compensator_minus_one_on_points(pred, 1j * w[active]) * K[active] * X.values[active]
    )
    freq_l2 = math.sqrt(float(np.sum(np.abs(diff) ** 2) * X.domega))
    assert r.err_l2 == pytest.approx(freq_l2 / math.sqrt(2 * math.pi), rel=1e-8)


def test_pure_tone_chain_oracle_vs_atoms(single_pole):
    # The quadrature oracle and the atomic pipeline agree on tones.
    w0 = 0.5
    t = np.linspace(-3, 3, 7)
    y_oracle = anticausal_convolve_oracle(single_pole, lambda s: np.exp(1j * w0 * s), t, tol=1e-9)
    ms = make_mixed_signal([(w0, 2 * math.pi)], [], "LOW", 0.4, 1.0)
    y_atoms = mixed_predict(ms, single_pole, 5.0, t).y
    assert np.max(np.abs(y_oracle.values - y_atoms.values)) < 1e-6


def test_prediction_result_validates_norms(single_pole, pipeline_grid):
    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    r = spectral_predict(X, single_pole, 5.0)
    with pytest.raises(GridMismatch):
        PredictionResult(r.y, r.yhat, r.err_l2 * 2, r.err_linf, r.gamma)


def test_prediction_serialization(single_pole, pipeline_grid):
    import json

    from bandcast.engine import prediction_sidecar, prediction_to_csv

    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    r = spectral_predict(X, single_pole, 5.0)
    csv = prediction_to_csv(r)
    lines = csv.splitlines()
    assert lines[0] == "t,y_re,y_im,yhat_re,yhat_im"
    assert len(lines) == pipeline_grid.n + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(r.y.t0)
    doc = json.loads(prediction_sidecar(r, bounds={"uniform": 0.1}))
    assert doc["gamma"] == 5.0
    assert doc["err_l2"] == r.err_l2
    assert doc["grid"]["n"] == pipeline_grid.n
    assert doc["bounds"]["uniform"] == 0.1


def test_spectrum_csv_serialization(pipeline_grid):
    from bandcast.signals import spectrum_to_csv

    _sig, X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0, hermitian=True)
    text = spectrum_to_csv(X)
    assert text.startswith("omega,re,im\n")
    assert len(text.splitlines()) == pipeline_grid.n + 1


def test_holder_chain_single_signal(single_pole, pipeline_grid):
    # ||(Khat - K) X||_2 <= ||Khat - K||_mu ||X||_q with 1/mu + 1/q = 1/2,
    # all three norms on the same weighted grid.
    rng = np.random.default_rng(77)
    X = hermitian_random_band_spectrum(rng, pipeline_grid, (-0.9, 0.9))
    w = X.omegas()
    D = np.abs(w) <= 1.0
    wd = w[D]
    pred = PredictorTransfer(single_pole, 5.0)
    from bandcast.predictor import compensator_minus_one_on_points

    dev = np.abs(compensator_minus_one_on_points(pred, 1j * wd)) * np.abs(
        transfer_on_grid(single_pole, wd)
    )
    x_abs = np.abs(X.values[D])
    for q in (4.0, 8.0):
        mu = 1.0 / (0.5 - 1.0 / q)
        lhs = math.sqrt(np.trapezoid((dev * x_abs) ** 2, wd))
        rhs = np.trapezoid(dev**mu, wd) ** (1 / mu) * np.trapezoid(x_abs**q, wd) ** (1 / q)
        assert lhs <= rhs * (1 + 1e-9)
