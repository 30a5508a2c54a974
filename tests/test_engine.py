"""Transforms, convolution routes, spectral pipeline, error norms."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from bandcast import (
    PredictionResult,
    PredictorTransfer,
    RaisedCosineBump,
    SampledSignal,
    SampledSpectrum,
    anticausal_convolve_oracle,
    build_kernel,
    causal_convolve,
    error_norms,
    eval_predictor_transfer,
    eval_time_kernel,
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
from bandcast import engine, signals, transforms
from bandcast.engine import signal_norms
from bandcast.errors import (
    BandcastError,
    ClassMismatch,
    DomainError,
    GridMismatch,
    InsufficientHistory,
    NonFiniteResult,
    QuadratureNotConverged,
    SaturatedSpectrum,
)
from bandcast.grids import GridSpec
from bandcast.kernels import partial_fraction_expand, transfer_on_grid
from bandcast.signals import MixedSpectrum
from helpers import (
    full_grid,
    hermitian_random_band_spectrum,
    inverses_made,
    on_grid,
    oracle_reference,
    phased_signal,
    phased_spectrum,
    random_kernel,
    random_mixed_signal,
    record_inverse_transforms,
    reference_mixed_predict_ladder,
    reference_prediction,
)

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
    sig = fourier_inverse(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0))
    back = fourier_inverse(fourier_forward(sig))
    assert back.t0 == sig.t0
    assert np.max(np.abs(back.values - sig.values)) <= 1e-10 * np.max(np.abs(sig.values))


def test_round_trip_no_worse_than_phase_path():
    # The phase reference (tests/helpers.py) is the transform pair every grid
    # used before centered grids got exact signs; its rounding grows with n.
    for g in (GridSpec(2048, 400.0), GridSpec(2**16, 12800.0)):
        sig = fourier_inverse(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0))
        back = fourier_inverse(fourier_forward(sig))
        spec = np.fft.fftshift(phased_spectrum(sig.values, sig.dt, sig.t0))
        phased = phased_signal(spec, g.omega0, g.domega, sig.t0)
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
    ref = phased_signal(v, g.omega0, g.domega, t0)
    assert np.max(np.abs(sig - ref)) <= 1e-9 * np.max(np.abs(ref))
    spec, omega0, domega = transforms.spectrum_from_signal(v, g.dt, g.t0)
    ref = np.fft.fftshift(phased_spectrum(v, g.dt, g.t0))
    assert (omega0, domega) == (g.omega0, g.domega)
    assert np.max(np.abs(spec - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_off_center_grids_raise_grid_mismatch(single_pole, monkeypatch):
    # Every transform takes the centered grid only; off it nothing is computed.
    g = GridSpec(2048, 400.0)
    X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0)
    sig = fourier_inverse(X)
    for t0 in (g.t0 + 37.5, np.nextafter(sig.t0, 0.0)):
        with pytest.raises(GridMismatch):
            fourier_forward(SampledSignal(t0, sig.dt, sig.values))
    moved = SampledSpectrum(X.omega0 + 5 * g.domega, X.domega, X.values)
    with pytest.raises(GridMismatch):
        fourier_inverse(moved)
    with pytest.raises(GridMismatch):
        transforms.signal_from_spectrum(moved.values, moved.omega0, moved.domega)

    def no_transfer(kernel, w):
        raise AssertionError("K evaluated on an off-center grid")

    monkeypatch.setattr(engine, "transfer_on_grid", no_transfer)
    with pytest.raises(GridMismatch):
        spectral_predict_ladder(moved, single_pole, LADDERS["LOW"])


@pytest.mark.parametrize("origin", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_grid_origin_raises_grid_mismatch(origin):
    # Unchecked, t0 = nan would reach causal_convolve as a builtin ValueError
    # and omega0 = nan would put every bin of an ideal split in HIGH.
    with pytest.raises(GridMismatch, match="t0 must be finite"):
        SampledSignal(origin, 0.1, np.zeros(8))
    with pytest.raises(GridMismatch, match="omega0 must be finite"):
        SampledSpectrum(origin, 0.1, np.zeros(8))


@pytest.mark.parametrize("sample", [np.nan, np.inf], ids=["nan", "inf"])
def test_fourier_forward_rejects_non_finite_samples(sample):
    g = GridSpec(2048, 400.0)
    values = np.zeros(g.n)
    values[100] = sample
    with pytest.raises(NonFiniteResult, match="non-finite samples"):
        fourier_forward(SampledSignal(g.t0, g.dt, values))


@pytest.mark.parametrize(
    "n, span",
    [(2048.0, 400.0), (2048, "a"), (2048, None), (2048, True), ("2048", 400.0)],
    ids=["float-n", "str-span", "none-span", "bool-span", "str-n"],
)
def test_grid_spec_refuses_values_of_the_wrong_type(n, span):
    # A float n or a string span used to raise the builtin TypeError.
    with pytest.raises(GridMismatch):
        GridSpec(n, span)


@pytest.mark.parametrize("span", [10**400, -10**400], ids=["huge", "huge-negative"])
def test_grid_spec_refuses_integers_past_the_float_range(span):
    # They used to raise the builtin TypeError from np.isfinite.
    with pytest.raises(GridMismatch, match="span must be positive and finite"):
        GridSpec(2048, span)


def test_grid_spec_takes_numpy_scalars():
    g = GridSpec(np.int64(2048), np.float64(400.0))
    assert (g.n, g.span) == (2048, 400.0)
    assert np.array_equal(g.omegas(), GridSpec(2048, 400.0).omegas())


def test_transform_requires_power_of_two():
    sig = SampledSignal(0.0, 0.1, np.zeros(100, dtype=complex))
    with pytest.raises(GridMismatch):
        fourier_forward(sig)


def test_shift_theorem():
    g = GridSpec(2048, 400.0)
    spec = full_grid(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0), g)
    sig = fourier_inverse(spec)
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
    ku = np.array([eval_time_kernel(single_pole, -v) for v in u])
    for ti, yi in zip(t, y.values):
        ref = np.sum(wq * ku * x(ti + u))
        assert yi == pytest.approx(ref, abs=1e-6)


def test_oracle_rejects_nonuniform_grid(single_pole):
    with pytest.raises(GridMismatch):
        anticausal_convolve_oracle(single_pole, lambda s: 1.0, np.array([0.0, 1.0, 3.0]))


_BAD_T_GRIDS = {
    "nan": [0.0, np.nan, 2.0, 3.0],
    "inf": [0.0, 1.0, 2.0, np.inf],
    "descending": [3.0, 2.0, 1.0, 0.0],
    "constant": [1.0, 1.0, 1.0, 1.0],
    "single": [0.0],
}


@pytest.mark.parametrize("route", ["oracle", "mixed"])
@pytest.mark.parametrize("name", list(_BAD_T_GRIDS))
def test_t_grid_entry_points_reject_bad_grids_before_any_work(single_pole, monkeypatch, route, name):
    t = np.array(_BAD_T_GRIDS[name])
    calls = []
    if route == "oracle":
        with pytest.raises(GridMismatch):
            anticausal_convolve_oracle(single_pole, lambda s: calls.append(s) or 1.0, t)
    else:
        monkeypatch.setattr(engine, "transfer_on_grid", lambda *args: calls.append(args))
        ms = make_mixed_signal([(0.5, 1.0)], [RaisedCosineBump(-0.5, 0.5)], "LOW", 0.25, 1.0)
        with pytest.raises(GridMismatch):
            mixed_predict_ladder(ms, single_pole, [2.0, 5.0], t)
    assert calls == []


# Oracle outputs at t = -2, -1, 0, 1, 2 and tol 1e-9, recorded before the
# oracle moved to one complex QUADPACK pass over the scalar kernel.
_ORACLE_PINS = {
    ("single_pole", "tone"): [
        (-0.5770348684672449, 0.5815253224093132), (-0.8159695092105852, 0.07303903113338271),
        (-0.6711409398969038, -0.4697986577509206), (-0.2106642996832457, -0.7916826970884445),
        (0.34889105239192664, -0.7412259936018978),
    ],
    ("single_pole", "sinc"): [
        (-0.71957261746968, 0.0), (-0.8784114386137802, 0.0), (-0.7853981634030178, 0.0),
        (-0.48745462500552567, 0.0), (-0.1374321147139782, 0.0),
    ],
    ("triple_pole", "tone"): [
        (-0.4992672794711218, -0.23029176262578335), (-0.23350265136159548, -0.49777366753464447),
        (0.142081922262862, -0.531144838673855), (0.45084314775581946, -0.3147102928177118),
        (0.5475657962407076, 0.04973742123457419),
    ],
    ("triple_pole", "sinc"): [
        (-0.6723863909835763, 0.0), (-0.4989891246951222, 0.0), (-0.25000000148649676, 0.0),
        (-0.033359569060739336, 0.0), (0.07574777336383748, 0.0),
    ],
    ("double_pair", "tone"): [
        (0.5451756835176866, 0.3031398374301604), (0.22168531725711593, 0.5830659542871397),
        (-0.20606711763811006, 0.5887670421860265), (-0.5369029672206003, 0.31756179040601873),
        (-0.6152249619789615, -0.10299773344179128),
    ],
    ("double_pair", "sinc"): [
        (0.7120624644287681, 0.0), (0.5145481922533615, 0.0), (0.24788785111950784, 0.0),
        (0.026838894586846317, 0.0), (-0.07662668914057444, 0.0),
    ],
}


def _tone(s):
    return cmath.exp(0.7j * s)


def _sinc(s):
    return math.sin(s) / s if s != 0.0 else 1.0


@pytest.mark.parametrize("kernel_name, x_name", sorted(_ORACLE_PINS))
def test_oracle_pinned_outputs(kernel_name, x_name, single_pole, triple_pole):
    kernel = {
        "single_pole": single_pole,
        "triple_pole": triple_pole,
        "double_pair": build_kernel([(0.8, 0.6, 2), (0.8, -0.6, 2)], [1.0, -0.5, 0.25], 1.0),
    }[kernel_name]
    x = {"tone": _tone, "sinc": _sinc}[x_name]
    y = anticausal_convolve_oracle(kernel, x, np.linspace(-2.0, 2.0, 5), tol=1e-9)
    want = np.array([complex(re, im) for re, im in _ORACLE_PINS[kernel_name, x_name]])
    assert np.max(np.abs(y.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_oracle_evaluates_each_node_once(conjugate_pair):
    # t-points 100 apart: each one's nodes s = t + u, u in [0, upper], stay
    # inside its own window, so the recorded s tell the t-points apart.
    t = np.array([0.0, 100.0, 200.0])
    upper = (-math.log(1e-9) + 1.0) / conjugate_pair.min_pole_rate
    calls = []

    def x(s):
        calls.append(s)
        return _tone(s)

    anticausal_convolve_oracle(conjugate_pair, x, t, tol=1e-9)
    for ti in t:
        window = [s for s in calls if ti <= s <= ti + upper]
        assert len(window) > 21
        assert len(set(window)) == len(window)
    assert sum(ti <= s <= ti + upper for ti in t for s in calls) == len(calls)


@pytest.mark.parametrize("tol", [0.0, -1e-9, 2.0, math.nan])
def test_oracle_rejects_tol_outside_unit_interval(single_pole, tol):
    # tol = 2 would cut the integral at (1 - ln 2)/rate and return -0.2642
    # for a constant input where K(0) = -1; nan would return zeros.
    with pytest.raises(DomainError):
        anticausal_convolve_oracle(single_pole, lambda s: 1.0, np.linspace(-1, 1, 3), tol=tol)


@pytest.mark.parametrize(
    "x",
    [
        lambda s: complex(math.cos(40.0 * s * s), 1e9),  # chirp in the real part only
        lambda s: complex(1e9, math.cos(40.0 * s * s)),  # chirp in the imaginary part only
    ],
    ids=["real-chirp", "imag-chirp"],
)
def test_oracle_convergence_checked_per_part(single_pole, x):
    # The smooth part is 1e9, so an error check on |value| would let the
    # chirp's ~1e-5 error through; each part is held to its own scale.
    t = np.array([0.0, 1.0])
    calm = anticausal_convolve_oracle(single_pole, lambda s: complex(1e9, 1e9), t, tol=1e-12)
    assert np.max(np.abs(calm.values + complex(1e9, 1e9))) < 1e-3
    with pytest.warns(IntegrationWarning), pytest.raises(QuadratureNotConverged, match="t = 0$"):
        anticausal_convolve_oracle(single_pole, x, t, tol=1e-12)


def _real_input(s):
    return math.cos(1.3 * s) * math.exp(-0.1 * s * s)


@pytest.mark.parametrize("x_name", ["tone", "sinc", "real"])
@pytest.mark.parametrize("kernel_name", ["single_pole", "triple_pole", "double_pair"])
def test_oracle_bits_match_complex_func_reference(kernel_name, x_name, single_pole, triple_pole):
    kernel = {
        "single_pole": single_pole,
        "triple_pole": triple_pole,
        "double_pair": build_kernel([(0.8, 0.6, 2), (0.8, -0.6, 2)], [1.0, -0.5, 0.25], 1.0),
    }[kernel_name]
    x = {"tone": _tone, "sinc": _sinc, "real": _real_input}[x_name]
    t = np.linspace(-2.0, 2.0, 5)
    y = anticausal_convolve_oracle(kernel, x, t, tol=1e-9)
    assert np.array_equal(y.values, oracle_reference(kernel, x, t, 1e-9))


def test_oracle_bits_match_reference_on_random_kernels():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def kernels(draw):
        """1-2 pole groups, rate 0.3-2.5, multiplicity 1-3, real or paired."""
        omega = draw(st.floats(0.5, 2.0))
        poles = []
        for _ in range(draw(st.integers(1, 2))):
            a, mult = draw(st.floats(0.3, 2.5)), draw(st.integers(1, 3))
            if draw(st.booleans()):
                poles.append((a, 0.0, mult))
            else:
                b = draw(st.floats(0.1, 0.85)) * omega
                poles += [(a, b, mult), (a, -b, mult)]
        degree = sum(m for (_a, _b, m) in poles)
        coeffs = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=degree))
        try:  # the library refuses some draws, as NumericalDegeneracy
            kernel = build_kernel(poles, coeffs, omega)
            partial_fraction_expand(kernel)
        except BandcastError:
            hypothesis.assume(False)
        return kernel

    @hypothesis.settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @hypothesis.given(kernel=kernels(), w0=st.floats(-3.0, 3.0))
    def check(kernel, w0):
        def x(s):
            return cmath.exp(1j * w0 * s)

        t = np.linspace(-3.0, 3.0, 4)
        y = anticausal_convolve_oracle(kernel, x, t, tol=1e-9)
        assert np.all(np.isfinite(y.values))
        assert np.array_equal(y.values, oracle_reference(kernel, x, t, 1e-9))

    check()


def test_oracle_evaluates_kernel_once_per_distinct_node(conjugate_pair, monkeypatch):
    k_args, x_args = [], []
    scalar_time_kernel = engine.scalar_time_kernel

    def counting_kernel(kernel):
        k = scalar_time_kernel(kernel)

        def counted(t):
            k_args.append(t)
            return k(t)

        return counted

    def x(s):
        x_args.append(s)
        return _tone(s)

    monkeypatch.setattr(engine, "scalar_time_kernel", counting_kernel)
    t = np.linspace(-3.0, 3.0, 7)
    y = anticausal_convolve_oracle(conjugate_pair, x, t, tol=1e-9)
    assert np.array_equal(y.values, oracle_reference(conjugate_pair, _tone, t, 1e-9))
    assert len(set(k_args)) == len(k_args)
    assert 0 < len(k_args) < len(x_args)


@pytest.mark.parametrize(
    "x",
    [lambda s: math.nan, lambda s: math.inf, lambda s: complex(1.0, math.nan)],
    ids=["nan", "inf", "complex-nan"],
)
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_oracle_rejects_non_finite_integral(single_pole, x):
    # A NaN value and error pass the convergence check err > tol*max(|val|, 1).
    with pytest.raises(NonFiniteResult, match="t = -1$"):
        anticausal_convolve_oracle(single_pole, x, np.linspace(-1.0, 1.0, 4))


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


@pytest.mark.parametrize(
    "complex_x, complex_taps",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["real", "complex", "complex-taps-real-x", "complex-taps-complex-x"],
)
@pytest.mark.parametrize(
    "n, lags, full_blocks, remainder",
    [(3 * 2**15 + 777, 50, 3, 927), (2 * 23768 + 5001, 9000, 2, 5001), (1500, 1499, 0, 1500),
     (3 * (2**15 - 50), 50, 3, 0), (2 * (2**15 - 50) + 1, 50, 2, 1)],
    ids=["short-taps", "long-taps", "horizon-span", "exact-blocks", "one-sample-remainder"],
)
def test_causal_convolve_matches_direct_sum(complex_x, complex_taps, n, lags, full_blocks,
                                            remainder):
    # Blocks of L - taps + 1 samples, L = 2**15 here (the smallest power of
    # two >= max(3 * taps, 2**15)): several blocks plus a remainder with
    # short and with long taps, one partial block when the horizon is the
    # whole span, whole blocks only, and a last block of one sample, which
    # still reads the taps - 1 samples of x before it.
    block = 2**15 - lags
    assert (n // block, n % block) == (full_blocks, remainder)
    rng = np.random.default_rng(n)
    dt = 0.05
    x = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_x else 0.0)
    k = rng.standard_normal(lags + 10) + (1j * rng.standard_normal(lags + 10) if complex_taps else 0.0)
    khat = SampledSignal(-3 * dt, dt, k)  # lag 0 at index 3
    out = causal_convolve(khat, SampledSignal(0.0, dt, x), lags * dt)
    taps = khat.values[3 : 4 + lags] * dt
    taps[[0, -1]] *= 0.5
    direct = np.convolve(x, taps)[:n]
    assert out.values.dtype == direct.dtype
    assert np.max(np.abs(out.values - direct)) <= 1e-12 * np.max(np.abs(out.values))


def test_causal_convolve_memory_beyond_output_does_not_grow_with_n(monkeypatch):
    # At 1001 taps the memory the call allocates besides its output stays
    # flat from n = 2**16 to 2**18; one fftconvolve over all of x grows 4x.
    # At 40 961 taps, the synth benchmark's horizon, it is the taps'
    # transform plus one piece buffer of L = 2**17 points for each of at
    # most two groups at once, each transformed in place: 6.8 MB, against
    # 9.7 MB when each block transformed the taps again. Neither grows with
    # the workers: the machine's own pool, then pools of 4 and 8.
    dt = 0.05

    def transient(lags, n):
        khat = SampledSignal(0.0, dt, np.ones(lags + 1))
        x = SampledSignal(0.0, dt, np.ones(n, dtype=complex))
        tracemalloc.start()
        try:
            out = causal_convolve(khat, x, lags * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.values.nbytes

    def bounded():
        assert transient(1000, 2**18) <= 1.1 * transient(1000, 2**16)
        assert transient(40960, 2**18) <= 7e6

    bounded()
    for workers in (4, 8):
        monkeypatch.setattr(transforms, "_row_workers", workers)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(transforms, "_row_pool", pool)
            bounded()


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
    assert np.all(r.e.values == 0.0) and len(r.error_points.indices) == 0


def test_spectral_predict_monotone_sweep(single_pole, pipeline_grid):
    X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0)
    errs = [spectral_predict(X, single_pole, g).err_l2 for g in (2, 5, 10, 20, 50)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_spectral_predict_scaling(single_pole, pipeline_grid):
    X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0)
    r1 = spectral_predict(X, single_pole, 5.0)
    X3 = SampledSpectrum(X.omega0, X.domega, 3.0 * X.values)
    r3 = spectral_predict(X3, single_pole, 5.0)
    assert r3.err_l2 == pytest.approx(3 * r1.err_l2, rel=1e-12, abs=0.0)
    assert r3.err_linf == pytest.approx(3 * r1.err_linf, rel=1e-12, abs=0.0)


def test_spectral_predict_zero_guard_allows_large_gamma(single_pole, pipeline_grid):
    # gamma = 800 saturates off-band, but the signal is zero there; the
    # zero-times-anything guard must keep the run clean.
    X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0)
    r = spectral_predict(X, single_pole, 800.0)
    assert np.isfinite(r.err_l2)
    assert r.err_l2 < 1e-10


def test_spectral_predict_class_mismatch(single_pole, pipeline_grid):
    X = make_bandlimited_signal("indicator", (5.0, 6.0), pipeline_grid, 8.0)
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
    with pytest.raises(NonFiniteResult):
        PredictionResult(y, yhat, 5.0)
    with pytest.raises(NonFiniteResult):
        PredictionResult(y, SampledSignal(y.t0, y.dt, np.array([0, math.inf, 0, 0])), 5.0)


def _class_signal(class_tag, grid):
    if class_tag == "LOW":
        return make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    return make_highfreq_signal("raised_cosine", (1.2, 1.5), grid, 1.0, hermitian=True)


@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_spectral_predict_ladder_equals_single_rungs(single_pole, pipeline_grid, class_tag):
    X = _class_signal(class_tag, pipeline_grid)
    ladder = list(spectral_predict_ladder(X, single_pole, LADDERS[class_tag]))
    assert [r.gamma for r in ladder] == LADDERS[class_tag]
    for rung in ladder:
        single = spectral_predict(X, single_pole, rung.gamma)
        assert np.array_equal(rung.e.values, single.e.values)
        assert np.array_equal(rung.error_points.indices, single.error_points.indices)
        assert np.array_equal(rung.error_points.values, single.error_points.values)
        assert rung.err_l2 == single.err_l2
        assert rung.err_linf == single.err_linf
    assert ladder[-1].err_l2 < ladder[0].err_l2


def test_spectral_predict_ladder_inverts_each_error_once(single_pole, pipeline_grid,
                                                         monkeypatch):
    # L rungs: one inverse transform per error signal, and none for y; K once
    # on the nonzero points of the half grid omega >= 0 of the Hermitian X.
    X = full_grid(_class_signal("LOW", pipeline_grid), pipeline_grid)
    support = np.count_nonzero(transforms.hermitian_half(X.values, X.omega0, X.domega))
    assert 0 < support < pipeline_grid.n // 2 + 1
    half_grid_k = []
    transfer = engine.transfer_on_grid
    calls = record_inverse_transforms(monkeypatch)

    def counted_transfer(kernel, w):
        assert np.size(w) == support
        half_grid_k.append(w)
        return transfer(kernel, w)

    monkeypatch.setattr(engine, "transfer_on_grid", counted_transfer)
    results = list(spectral_predict_ladder(X, single_pole, LADDERS["LOW"]))
    assert len(results) == len(LADDERS["LOW"])
    assert inverses_made(calls, pipeline_grid.n) == len(LADDERS["LOW"])
    assert len(half_grid_k) == 1


@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_ladder_reuses_one_spectrum_buffer(single_pole, pipeline_grid, monkeypatch, class_tag):
    # Every rung writes its E into one zero-filled buffer and inverts it: a
    # ladder allocates one buffer of at least n/2 values, however many rungs
    # it has.  On a band-limited half it is the band-limited inverse's r rows
    # of M/2 + 1 values, r*M = n, r > 1.  No result aliases it.
    X = _class_signal(class_tag, pipeline_grid)
    buffers = []
    zeros = np.zeros

    def counted(shape, *args, **kwargs):
        out = zeros(shape, *args, **kwargs)
        if np.size(out) >= pipeline_grid.n // 2:
            buffers.append(out)
        return out

    monkeypatch.setattr(np, "zeros", counted)
    results = list(spectral_predict_ladder(X, single_pole, LADDERS[class_tag]))
    monkeypatch.undo()
    assert len(buffers) == 1
    (buffer,) = buffers
    rows, width = buffer.shape
    assert rows > 1 and rows * 2 * (width - 1) == pipeline_grid.n
    for r in results:
        for values in (r.e.values, r.error_points.values):
            assert not np.shares_memory(values, buffer)


@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_ladder_on_a_half_equals_the_ladder_on_its_mirror(single_pole, pipeline_grid, class_tag):
    half = _class_signal(class_tag, pipeline_grid)
    assert half.omega0 == 0.0
    on_half = list(spectral_predict_ladder(half, single_pole, LADDERS[class_tag]))
    on_full = spectral_predict_ladder(full_grid(half, pipeline_grid), single_pole,
                                      LADDERS[class_tag])
    for a, b in zip(on_half, on_full, strict=True):
        assert a.e.values.dtype == np.float64 and np.array_equal(a.e.values, b.e.values)
        assert (a.err_l2, a.err_linf) == (b.err_l2, b.err_linf)
        assert a.error_points.omega0 == b.error_points.omega0 == 0.0
        assert np.array_equal(a.error_points.indices, b.error_points.indices)
        assert np.array_equal(a.error_points.values, b.error_points.values)


def _composite(grid, hermitian_high):
    """A LOW raised cosine on [-0.9, 0.9] plus a HIGH one on [1.2, 1.5], the
    latter one-sided unless `hermitian_high`: an omega >= 0 half, or the full
    grid."""
    low = _class_signal("LOW", grid)
    high = make_highfreq_signal("raised_cosine", (1.2, 1.5), grid, 1.0, hermitian=hermitian_high)
    if hermitian_high:
        return SampledSpectrum(0.0, low.domega, low.values + high.values)
    return SampledSpectrum(grid.omega0, grid.domega,
                           full_grid(low, grid).values + high.values)


@pytest.mark.parametrize("hermitian_high", [True, False], ids=["half", "full"])
def test_split_ladder_predicts_each_part_with_its_own_class(single_pole, pipeline_grid,
                                                            monkeypatch, hermitian_high):
    # One ladder over X: the LOW points at +|gamma| and the others at
    # -|gamma| give E the bits of each part's own ladder, on X's one
    # representation, and each rung inverts the recombined error once.
    X = _composite(pipeline_grid, hermitian_high)
    low, high = signals.ideal_lowpass_split(X, 1.0)
    calls = record_inverse_transforms(monkeypatch)
    split = list(spectral_predict_ladder(X, single_pole, LADDERS["HIGH"], split_at=1.0))
    assert sum(size for _name, size in calls) == len(LADDERS["HIGH"]) * pipeline_grid.n
    monkeypatch.undo()
    # Each part in a ladder of its own, on X's representation: a
    # Hermitian part of a full X is not halved.
    parts = [[r.error_points for r in _complex_path_ladder(monkeypatch, part, single_pole,
                                                              gammas)]
             for part, gammas in ((low, LADDERS["LOW"]), (high, LADDERS["HIGH"]))]
    assert [r.gamma for r in split] == LADDERS["LOW"]
    for r, E_low, E_high in zip(split, *parts, strict=True):
        assert r.error_points.omega0 == X.omega0
        assert np.array_equal(r.error_points.indices, np.flatnonzero(X.values))
        for got, want in zip(r.error_parts, (E_low, E_high), strict=True):
            assert np.array_equal(got.indices, want.indices)
            assert got.values.tobytes() == want.values.tobytes()
        e_parts = [fourier_inverse(on_grid(E)).values for E in (E_low, E_high)]
        e_sum = e_parts[0] + e_parts[1]
        assert np.max(np.abs(r.e.values - e_sum)) <= 1e-14 * np.max(np.abs(e_sum))
        assert r.err_l2 == pytest.approx(engine.spectral_err_l2(r.error_parts), rel=1e-14,
                                         abs=0.0)


@pytest.mark.parametrize("hermitian_high", [True, False], ids=["half", "full"])
def test_centre_samples_are_the_inverse_at_the_grid_centre(single_pole, pipeline_grid,
                                                           hermitian_high):
    # One sample per row of the band-limited inverse (8 rows here), or one
    # on the full grid, at t_{n/2 + s}, summed from E alone; each within
    # 1e-14 of their scale of the full n-point inverse, which they bound.
    X = _composite(pipeline_grid, hermitian_high)
    (r,) = spectral_predict_ladder(X, single_pole, [5.0], split_at=1.0)
    E = r.error_points
    samples, scale = engine.centre_samples(E)
    rows = transforms.interleaved_rows(E.indices, pipeline_grid.n) if hermitian_high else 1
    assert len(samples) == rows == (8 if hermitian_high else 1)
    mid = pipeline_grid.n // 2
    assert pipeline_grid.times()[mid] == 0.0
    full = fourier_inverse(on_grid(E)).values[mid : mid + rows]
    assert np.max(np.abs(samples - full)) <= 1e-14 * scale
    assert np.all(np.abs(samples) <= scale)


def _hermitian_inputs(n):
    """LOW, HIGH and composite Hermitian spectra on a centered n-point grid."""
    g = GridSpec(n, 400.0 * n / 2048)
    low = full_grid(_class_signal("LOW", g), g)
    high = full_grid(_class_signal("HIGH", g), g)
    composite = SampledSpectrum(g.omega0, g.domega, low.values + high.values)
    return [(low, LADDERS["LOW"]), (high, LADDERS["HIGH"]), (composite, LADDERS["LOW"])]


def _complex_path_ladder(monkeypatch, X, kernel, gammas):
    """The ladder with the Hermitian check disabled: every grid point, ifft.

    Both checks go: K is evaluated on exactly antisymmetric frequencies, so
    K*X is exactly Hermitian and the inverse would take irfft on its own."""
    with monkeypatch.context() as m:
        m.setattr(engine, "hermitian_half", lambda *args: None)
        m.setattr(transforms, "hermitian_half", lambda *args: None)
        return list(spectral_predict_ladder(X, kernel, gammas))


def _l2(values, dt):
    return math.sqrt(np.trapezoid(np.abs(values) ** 2, dx=dt))


@pytest.mark.parametrize("n", [2**11, 2**16])
@pytest.mark.parametrize("kernel_name", ["single_pole", "conjugate_pair"])
def test_real_path_matches_complex_path(monkeypatch, request, n, kernel_name):
    # Both paths invert E itself, so the errors agree to 1e-12 of their own
    # size, and their norms to 1e-12 of ||y|| + ||y_hat|| (y and y_hat
    # rebuilt by helpers.reference_prediction) and to the benchmark's 1e-9 of
    # themselves, though err_l2 falls to 2.5e-7 at gamma = 50.
    kernel = request.getfixturevalue(kernel_name)
    for X, gammas in _hermitian_inputs(n):
        real = list(spectral_predict_ladder(X, kernel, gammas))
        cplx = _complex_path_ladder(monkeypatch, X, kernel, gammas)
        for r, c in zip(real, cplx):
            y, yhat = reference_prediction(X, kernel, r.gamma)
            assert r.e.values.dtype == np.float64 and c.e.values.dtype == np.complex128
            e_linf = np.max(np.abs(c.e.values))
            assert np.max(np.abs(r.e.values - c.e.values)) <= 1e-12 * e_linf
            l2_scale = _l2(y.values, y.dt) + _l2(yhat.values, y.dt)
            assert abs(r.err_l2 - c.err_l2) <= 1e-12 * l2_scale
            y_linf = np.max(np.abs(y.values)) + np.max(np.abs(yhat.values))
            assert abs(r.err_linf - c.err_linf) <= 1e-12 * y_linf
            assert r.err_l2 == pytest.approx(c.err_l2, rel=1e-9, abs=0.0)
            assert r.err_linf == pytest.approx(c.err_linf, rel=1e-9, abs=0.0)
            # The real path carries the omega >= 0 half it inverted; the
            # complex path's Nyquist bin is stored first, at -(n/2)*domega.
            half = on_grid(r.error_points)
            assert half.omega0 == 0.0 and len(half.values) == n // 2 + 1
            full = on_grid(c.error_points).values
            c_half = np.append(full[n // 2 :], np.conj(full[0]))
            assert np.max(np.abs(half.values - c_half)) <= 1e-12 * np.max(np.abs(full))


@pytest.mark.parametrize("n, span", [(2, 20.0), (2**11, 400.0)])
def test_results_carry_the_spectrum_they_inverted(single_pole, n, span):
    # LOW Hermitian X takes the real path and carries the omega >= 0 half;
    # a one-sided complex X takes the complex path and carries the full grid.
    # At n = 2 a half and a full grid have the same length and differ by
    # omega0; any real pair is Hermitian there, so the one-sided X is i times
    # a real one-sided spectrum.  Its frequencies are -domega and 0, so the
    # generators refuse these supports as cut; the envelopes are sampled on
    # the grid as the generators sample them (at |omega| when two-sided).
    g = GridSpec(n, span)
    w = g.omegas()
    low = SampledSpectrum(g.omega0, g.domega, RaisedCosineBump(-0.9, 0.9)(np.abs(w)))
    one_sided = SampledSpectrum(g.omega0, g.domega, 1j * RaisedCosineBump(-0.9, 0.2)(w))
    for X, real in ((low, True), (one_sided, False)):
        assert np.any(X.values != 0.0)
        for r in spectral_predict_ladder(X, single_pole, LADDERS["LOW"]):
            spec = on_grid(r.error_points)
            assert (spec.omega0 == 0.0) == real
            assert len(spec.values) == (n // 2 + 1 if real else n)
            back = fourier_inverse(spec)
            assert back.values.dtype == r.e.values.dtype
            assert (back.t0, back.dt) == (r.e.t0, r.e.dt)
            assert np.max(np.abs(back.values - r.e.values)) <= 1e-14 * np.max(np.abs(back.values))
            assert spec.energy() == pytest.approx(r.e.energy(), rel=1e-12)


def test_one_ulp_off_hermitian_takes_complex_path(single_pole, pipeline_grid):
    X = full_grid(_class_signal("LOW", pipeline_grid), pipeline_grid)
    h = pipeline_grid.n // 2
    assert transforms.hermitian_half(X.values, X.omega0, X.domega) is not None
    vals = X.values.copy()
    vals[h + 3] = complex(np.nextafter(vals[h + 3].real, np.inf), vals[h + 3].imag)
    off = SampledSpectrum(X.omega0, X.domega, vals)
    assert transforms.hermitian_half(off.values, off.omega0, off.domega) is None
    real = list(spectral_predict_ladder(X, single_pole, LADDERS["LOW"]))
    cplx = list(spectral_predict_ladder(off, single_pole, LADDERS["LOW"]))
    for r, c in zip(real, cplx):
        assert c.e.values.dtype == np.complex128
        assert np.max(np.abs(r.e.values - c.e.values)) <= 1e-12 * np.max(np.abs(r.e.values))
    # A non-real DC bin is off Hermitian too.
    vals = X.values.copy()
    vals[h] += 1e-300j
    assert transforms.hermitian_half(vals, X.omega0, X.domega) is None


def test_half_spectrum_needs_its_length_and_the_centered_grid(single_pole, pipeline_grid):
    g = pipeline_grid
    half = np.zeros(g.n // 2 + 1, dtype=complex)
    half[0] = 1.0
    # A half lives on its own grid, omega_k = k*domega: omega0 == 0 says it is one.
    sig, t0, dt = transforms.signal_from_spectrum(half, 0.0, g.domega)
    assert sig.dtype == np.float64 and (t0, dt) == pytest.approx((g.t0, g.dt))
    assert np.allclose(sig, g.domega / (2 * np.pi))  # X = delta at DC
    with pytest.raises(GridMismatch):
        transforms.signal_from_spectrum(half, g.omega0 + g.domega, g.domega)
    # n/2 values, n/2 - 1 not a power of two: the error names the half, not
    # a transform length of 2*(n/2 - 1).
    short = SampledSpectrum(0.0, g.domega, half[:-1])
    for call in (lambda: transforms.signal_from_spectrum(short.values, 0.0, g.domega),
                 lambda: list(spectral_predict_ladder(short, single_pole, [2.0]))):
        with pytest.raises(GridMismatch, match=f"omega >= 0 half .* got {g.n // 2} values"):
            call()


def test_real_inverse_restores_the_half_it_borrows(pipeline_grid):
    # The odd entries are negated for the irfft and negated back, not copied.
    g = pipeline_grid
    half = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), g, 1.0).values * (1.0 - 0.5j)
    half[[0, -1]] = half[[0, -1]].real
    before = half.copy()
    sig, _t0, _dt = transforms.signal_from_spectrum(half, 0.0, g.domega)
    assert half.tobytes() == before.tobytes()
    before.flags.writeable = False
    assert np.array_equal(transforms.signal_from_spectrum(before, 0.0, g.domega)[0], sig)


@pytest.mark.parametrize("n", [2**11, 2**16])
def test_real_round_trip_is_float_and_no_worse_than_complex(n):
    g = GridSpec(n, 400.0 * n / 2048)
    sig = fourier_inverse(_class_signal("LOW", g))
    assert sig.values.dtype == np.float64
    X = fourier_forward(sig)
    assert transforms.hermitian_half(X.values, X.omega0, X.domega) is not None
    back = fourier_inverse(X)
    assert back.values.dtype == np.float64
    as_complex = SampledSignal(sig.t0, sig.dt, sig.values.astype(complex))
    back_c = fourier_inverse(fourier_forward(as_complex))
    assert back_c.values.dtype == np.complex128
    # Compared in L2: single samples of either path trade places within an ulp.
    err = _l2(back.values - sig.values, sig.dt)
    assert err <= _l2(back_c.values - sig.values, sig.dt)
    assert np.max(np.abs(back.values - sig.values)) <= 1e-14 * np.max(np.abs(sig.values))


_SUPPORTS = {  # n = 2**10: half bins 0..512
    "contiguous": (np.arange(0, 58), 128),
    "gapped": (np.r_[np.arange(1, 58), np.arange(67, 71)], 256),
    "single-bin": (np.array([5]), 16),
    "dc-only": (np.array([0]), 16),  # r = n/M is capped at 64 rows
    "kmax-is-M/2-1": (np.arange(20, 64), 128),
    "kmax-is-M/2": (np.arange(20, 65), 256),
    "reaches-nyquist": (np.r_[np.arange(0, 40), np.arange(500, 513)], 1024),
    "kmax-is-n/2-1": (np.arange(3, 512), 1024),
    "empty": (np.array([], dtype=int), 16),
}


@pytest.mark.parametrize("support, m", _SUPPORTS.values(), ids=_SUPPORTS.keys())
def test_band_limited_inverse_matches_the_full_inverse(monkeypatch, support, m):
    # r = n/M interleaved M-point inverses give the n-point inverse to
    # roundoff; M is the smallest power of two >= 2*(k_max + 1) but at
    # least n/64, and with r = 1 the samples are the full inverse's bit for
    # bit.  The one buffer is reused: a second half inverts as correctly as
    # the first, and no samples share memory with it.
    n, domega = 2**10, 2.0 * np.pi / 300.0
    rng = np.random.default_rng(len(support) + m)
    buffers = []
    zeros = np.zeros

    def recorded(shape, *args, **kwargs):
        out = zeros(shape, *args, **kwargs)
        buffers.append(out)
        return out

    monkeypatch.setattr(np, "zeros", recorded)
    invert = transforms.band_limited_inverse(support, n, domega)
    monkeypatch.undo()
    (buffer,) = buffers
    assert buffer.shape == (n // m, m // 2 + 1)
    outputs = []
    for _ in range(2):
        values = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
        half = np.zeros(n // 2 + 1, dtype=complex)
        half[support] = values
        want, t0, dt = transforms.signal_from_spectrum(half, 0.0, domega)
        got, got_t0, got_dt = invert(values)
        assert got.dtype == np.float64 and (got_t0, got_dt) == (t0, dt)
        if m == n:
            assert got.tobytes() == want.tobytes()
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(np.abs(want), initial=0.0)
        assert not np.shares_memory(got, buffer)
        outputs.append(got)
    assert not np.shares_memory(*outputs)


@pytest.mark.parametrize("support", [[0], [0, 1, 2]], ids=["dc-only", "three-bins"])
def test_band_limited_inverse_near_dc_takes_at_most_64_rows(monkeypatch, support):
    # Without the cap a DC-only half at n = 2**20 took 2**19 two-point
    # irffts (about 4 s); 64 rows of 2**14 points give the same samples.
    n, domega = 2**20, 2.0 * np.pi / 300.0
    values = np.array([1.5, -0.25 + 0.5j, 0.75j])[: len(support)]
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[support] = values
    want = transforms.signal_from_spectrum(half, 0.0, domega)[0]
    calls = []
    irfft = np.fft.irfft

    def counted(*args, **kwargs):
        calls.append(1)
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counted)
    got = transforms.band_limited_inverse(support, n, domega)(values)[0]
    assert 0 < len(calls) <= 64
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_causal_horizon_shorter_than_one_step():
    # One tap would be halved twice (khat(0)*dt/4 per sample) at 0 < M < dt.
    dt = 0.1
    x = SampledSignal(0.0, dt, np.ones(64))
    khat = SampledSignal(0.0, dt, np.ones(64))
    with pytest.raises(InsufficientHistory):
        causal_convolve(khat, x, 0.05)
    out = causal_convolve(khat, x, dt)
    assert np.allclose(out.values[1:], dt)  # trapezoid over [0, dt]: (1/2 + 1/2)*dt


def test_causal_rejects_nan_horizon_and_non_finite_input():
    dt = 0.1
    x = SampledSignal(0.0, dt, np.ones(64))
    khat = SampledSignal(0.0, dt, np.ones(64))
    with pytest.raises(InsufficientHistory):
        causal_convolve(khat, x, math.nan)
    for bad in (math.nan, math.inf, complex(0.0, math.nan)):
        values = np.ones(64, dtype=complex)
        values[40] = bad
        with pytest.raises(NonFiniteResult, match="x has"):
            causal_convolve(khat, SampledSignal(0.0, dt, values), 1.0)
        values = np.ones(64, dtype=complex)
        values[3] = bad  # a lag inside [0, M]
        with pytest.raises(NonFiniteResult, match="khat has"):
            causal_convolve(SampledSignal(0.0, dt, values), x, 1.0)
    values = np.ones(64)
    values[40] = math.nan  # a lag beyond M is never used
    assert np.all(np.isfinite(causal_convolve(SampledSignal(0.0, dt, values), x, 1.0).values))


def test_causal_overflow_raises_without_warning():
    # Finite inputs whose convolution overflows used to come back all NaN.
    dt = 0.1
    x = SampledSignal(0.0, dt, np.full(64, 1e308))
    khat = SampledSignal(0.0, dt, np.full(64, 1e10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match="overflowed"):
            causal_convolve(khat, x, 1.0)


@pytest.mark.parametrize("height", [math.nan, math.inf], ids=["nan", "inf"])
def test_mixed_predict_ladder_rejects_non_finite_density(conjugate_pair, height):
    ms = make_mixed_signal([(0.3, 1.0)], [RaisedCosineBump(0.1, 0.5, height)], "LOW", 0.25, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteResult, match=r"not finite on \[0\.1, 0\.5\]"):
            mixed_predict_ladder(ms, conjugate_pair, LADDERS["LOW"], GridSpec(256, 60.0).times())


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


@pytest.mark.parametrize("with_density", [True, False], ids=["density", "atoms-only"])
@pytest.mark.parametrize("class_tag", ["LOW", "HIGH"])
def test_mixed_predict_ladder_atoms_bit_equal_to_per_atom_loop(conjugate_pair, class_tag,
                                                               with_density):
    # K and every K_hat come from one weight call at all atoms; y and each
    # y_hat must equal one evaluation per atom and rung, bit for bit.
    rng = np.random.default_rng(0xA7)
    t = GridSpec(2048, 400.0).times()
    for kernel in (conjugate_pair, random_kernel(rng, omega=1.0)):
        ms = random_mixed_signal(rng, class_tag, 1.0, 0.25, n_atoms=6, with_density=with_density)
        assert len(ms.atoms) == 6 and bool(ms.density) == with_density
        ladder = mixed_predict_ladder(ms, kernel, LADDERS[class_tag], t)
        y, yhats = reference_mixed_predict_ladder(ms, kernel, LADDERS[class_tag], t)
        for rung, yhat in zip(ladder, yhats, strict=True):
            assert np.array_equal(rung.y.values, y)
            assert np.array_equal(rung.yhat.values, yhat)


def test_mixed_predict_ladder_takes_k_once_per_node_set(conjugate_pair, monkeypatch):
    # One weights call: K once, then one compensator pass for the whole ladder
    # at the same nodes (it used to evaluate K 1 + L times, then V per rung).
    calls = []
    transfer, compensator = engine.transfer_on_grid, engine._compensator
    monkeypatch.setattr(engine, "transfer_on_grid",
                        lambda kernel, w: calls.append(("K", w)) or transfer(kernel, w))
    monkeypatch.setattr(engine, "_compensator", lambda kernel, gammas, p, error: calls.append(
        ("V", p, list(gammas))) or compensator(kernel, gammas, p, error))
    ms = random_mixed_signal(np.random.default_rng(5), "LOW", 1.0, 0.25, n_atoms=3)
    assert ms.density
    mixed_predict_ladder(ms, conjugate_pair, LADDERS["LOW"], GridSpec(256, 60.0).times())
    assert len(calls) % 2 == 0 and len(calls) > 2
    for (kind_k, w), (kind_v, p, gammas) in zip(calls[::2], calls[1::2]):
        assert (kind_k, kind_v) == ("K", "V")
        assert np.array_equal(p, 1j * w) and gammas == list(LADDERS["LOW"])


def test_mixed_predict_ladder_saturating_atom_names_its_omega(conjugate_pair):
    # An atom off the declared class (MixedSpectrum built without the
    # constructor's checks) saturates the large-gamma predictor.
    ms = MixedSpectrum(((0.3, 1 + 0j), (2.5, 1j)), (), "LOW", 0.25, 1.0)
    t = np.linspace(-5.0, 5.0, 11)
    assert len(mixed_predict_ladder(ms, conjugate_pair, [2, 5], t)) == 2
    with pytest.raises(ClassMismatch, match=r"omega = 2\.5 saturates the predictor"):
        mixed_predict_ladder(ms, conjugate_pair, [2, 800], t)


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
    from bandcast.signals import GaussianBump

    # A gaussian far narrower than a Gauss panel: on a 400 s grid the coarse
    # and fine passes disagree far beyond the 1e-9 certificate.
    narrow = GaussianBump(-0.6, 0.4, 1.0, sigma=1e-3)
    ms = make_mixed_signal([(0.3, 1.0)], [narrow], "LOW", 0.25, 1.0)
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


_NORM_BITS = {float: (8.115256819395363, 3.65924332577673),
              complex: (11.423239863223824, 4.524512498467494)}


@pytest.mark.parametrize("dtype", [float, complex])
def test_error_norms_bits_match_reference(dtype):
    # The bits are pinned; they are the trapezoid rule to within 1e-15 of an
    # exactly rounded sum, and the sup is max |y - yhat| exactly.
    want = _NORM_BITS[dtype]
    parts = np.random.default_rng(41).standard_normal((2, 2, 257))
    vals = parts[:, 0] + 1j * parts[:, 1] if dtype is complex else parts[:, 0]
    y, yhat = (SampledSignal(-1.0, 0.125, v.copy()) for v in vals)
    assert error_norms(y, yhat) == want
    sq = np.abs(vals[0] - vals[1]) ** 2
    trapezoid = math.sqrt(0.125 * (math.fsum(sq) - (sq[0] + sq[-1]) / 2))
    assert want[0] == pytest.approx(trapezoid, rel=1e-15)
    assert want[1] == float(np.max(np.abs(vals[0] - vals[1])))
    assert np.array_equal(y.values, vals[0]) and np.array_equal(yhat.values, vals[1])


def test_error_norms_grid_mismatch():
    y = SampledSignal(0.0, 0.1, np.zeros(64, dtype=complex))
    z = SampledSignal(0.5, 0.1, np.zeros(64, dtype=complex))
    with pytest.raises(GridMismatch):
        error_norms(y, z)


def test_parseval_bridging(single_pole, pipeline_grid):
    # Time-domain error norm equals the frequency-domain one up to 1/sqrt(2pi).
    X = full_grid(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0),
                  pipeline_grid)
    r = spectral_predict(X, single_pole, 5.0)
    w = X.omegas()
    K = transfer_on_grid(single_pole, w)
    pred = PredictorTransfer(single_pole, 5.0)
    from bandcast.predictor import compensator_minus_one_on_points

    active = X.values != 0
    diff = np.zeros_like(X.values)
    diff[active] = (
        compensator_minus_one_on_points(pred, 1j * w[active], SaturatedSpectrum)
        * K[active] * X.values[active]
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
    # The norms are derived from the samples, so they cannot disagree with them.
    X = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0)
    r = spectral_predict(X, single_pole, 5.0)
    assert (r.err_l2, r.err_linf) == signal_norms(r.e)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.err_l2 = 0.0
    y, yhat = reference_prediction(X, single_pole, r.gamma)
    with pytest.raises(TypeError):
        PredictionResult(y, yhat, r.gamma, err_l2=r.err_l2)
    shifted = SampledSignal(y.t0 + y.dt, y.dt, yhat.values)
    with pytest.raises(GridMismatch):
        PredictionResult(y, shifted, r.gamma)


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

    dev = np.abs(compensator_minus_one_on_points(pred, 1j * wd, SaturatedSpectrum)) * np.abs(
        transfer_on_grid(single_pole, wd)
    )
    x_abs = np.abs(X.values[D])
    for q in (4.0, 8.0):
        mu = 1.0 / (0.5 - 1.0 / q)
        lhs = math.sqrt(np.trapezoid((dev * x_abs) ** 2, wd))
        rhs = np.trapezoid(dev**mu, wd) ** (1 / mu) * np.trapezoid(x_abs**q, wd) ** (1 / q)
        assert lhs <= rhs * (1 + 1e-9)
