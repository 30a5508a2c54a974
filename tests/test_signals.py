"""Signal generators, mixed spectra, ideal split, out-of-band noise."""

import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from bandcast import (
    GaussianBump,
    PredictorTransfer,
    RaisedCosineBump,
    SampledDensity,
    SampledSpectrum,
    add_outofband_noise,
    build_kernel,
    cstar_norm,
    deviation_norm,
    fourier_inverse,
    ideal_lowpass_split,
    make_bandlimited_signal,
    make_highfreq_signal,
    make_mixed_signal,
)
from bandcast import predictor, signals, transforms
from bandcast.config import config_from_dict
from bandcast.errors import (
    ClassConstraintViolation,
    DomainError,
    GridMismatch,
    NonFiniteResult,
    SupportViolation,
)
from bandcast.grids import GridSpec
from bandcast.signals import (
    _gauss_legendre_panels,
    _phase_products,
    mixed_to_json_dict,
    signal_to_csv,
)
from bandcast.transforms import hermitian_half
from helpers import (
    evaluate_mixed,
    full_grid,
    integrate_unweighted,
    mixed_from_json,
    phase_matrices,
    reference_grid_spectrum,
    reference_outofband_noise,
    reference_phase_products,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(2048, 400.0)


def test_indicator_bandlimited_is_sinc(grid):
    sig = fourier_inverse(make_bandlimited_signal("indicator", (-1.0, 1.0), grid, 1.0))
    t = sig.times()
    i0 = int(np.argmin(np.abs(t)))
    assert t[i0] == 0.0
    # Frequency periodization gives O(1/span) aliasing on a 1/t-decay signal.
    assert sig.values[i0].real == pytest.approx(1 / math.pi, rel=5e-3)
    win = np.abs(t) < 20
    tw = t[win]
    ref = np.where(tw == 0, 1 / math.pi, np.sin(tw) / (math.pi * np.where(tw == 0, 1.0, tw)))
    assert np.max(np.abs(sig.values[win].real - ref)) < 2e-3


def test_raised_cosine_support_exact_zero(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    og = spec.omegas()
    assert np.all(spec.values[np.abs(og) >= 0.9] == 0.0)
    assert np.any(spec.values != 0.0)


def test_bandlimited_support_validation(grid):
    with pytest.raises(SupportViolation):
        make_bandlimited_signal("indicator", (-1.2, 0.5), grid, 1.0)
    # An asymmetric support builds a one-sided, non-Hermitian spectrum.
    spec = make_bandlimited_signal("indicator", (-0.5, 0.9), grid, 1.0)
    assert np.any(spec.values != 0.0)
    assert hermitian_half(spec.values, spec.omega0, spec.domega) is None


@pytest.mark.parametrize("maker, support", [(make_bandlimited_signal, (-0.9, 0.9)),
                                            (make_highfreq_signal, (1.2, 1.5))])
def test_generators_take_an_envelope_name_and_typed_keywords(grid, maker, support):
    # The (name, params) tuple used to ignore a misspelt key, read "2" and
    # True as numbers and drop a sigma given to a non-gaussian envelope.
    for envelope, keywords in [(("raised_cosine", {"hieght": 5.0}), {}),
                               ("raised_cosine", {"sigma": 0.1}),
                               ("indicator", {"sigma": 0.1}),
                               ("raised_cosine", {"height": "2"}),
                               ("raised_cosine", {"height": True}),
                               ("gaussian", {"sigma": math.inf})]:
        with pytest.raises(SupportViolation):
            maker(envelope, support, grid, 1.0, **keywords)
    with pytest.raises(TypeError):
        maker("raised_cosine", support, grid, 1.0, hieght=5.0)
    scaled = maker("gaussian", support, grid, 1.0, height=2.0, sigma=0.1)
    unit = maker("gaussian", support, grid, 1.0, sigma=0.1)
    assert np.array_equal(scaled.values, 2.0 * unit.values)
    numpy_scalars = maker("gaussian", support, grid, 1.0, height=np.float32(2.0), sigma=0.1)
    assert np.array_equal(numpy_scalars.values, scaled.values)
    assert not np.array_equal(unit.values, maker("gaussian", support, grid, 1.0).values)


def test_bandlimited_support_past_the_grid_is_refused():
    # GridSpec(16, 400) reaches omega = 0.11: a raised cosine on [-0.9, 0.9]
    # used to build 16 nonzero bins of a cut envelope, while highfreq raised.
    small = GridSpec(16, 400.0)
    for maker, support in ((make_bandlimited_signal, (-0.9, 0.9)),
                           (make_bandlimited_signal, (-0.9, -0.2)),
                           (make_highfreq_signal, (1.2, 1.5))):
        with pytest.raises(SupportViolation, match=r"beyond the grid's \[-0.125664, 0.109956\]"):
            maker("raised_cosine", support, small, 1.0)
    inside = make_bandlimited_signal("raised_cosine", (-0.1, 0.1), small, 1.0)
    assert np.any(inside.values != 0.0)


def test_outofband_noise_rejects_a_negative_seed(grid):
    # It used to end in numpy's ValueError.
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    with pytest.raises(DomainError, match="seed"):
        add_outofband_noise(spec, 1e-3, (1.05, 1.1), -1, 1.0)


@pytest.mark.parametrize("seed", [1.5, True, "7"], ids=["fraction", "bool", "str"])
def test_outofband_noise_rejects_a_seed_that_is_not_an_integer(grid, seed):
    # 1.5 used to end in numpy's TypeError, and True was taken as 1.
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    with pytest.raises(DomainError, match="seed"):
        add_outofband_noise(spec, 1e-3, (1.05, 1.1), seed, 1.0)
    same = add_outofband_noise(spec, 1e-3, (1.05, 1.1), np.int64(7), 1.0)
    assert np.array_equal(same.values, add_outofband_noise(spec, 1e-3, (1.05, 1.1), 7, 1.0).values)


def test_outofband_noise_refuses_an_energy_that_is_not_finite(grid):
    # A finite spectrum scaled to 1e200 used to come back all NaN after two
    # RuntimeWarnings: its energy overflows.
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    for big in (spec, full_grid(spec, grid)):
        big = SampledSpectrum(big.omega0, big.domega, big.values * 1e200)
        with pytest.raises(NonFiniteResult, match="signal energy inf"):
            _no_warnings(lambda: add_outofband_noise(big, 1e-3, (1.05, 1.1), 7, 1.0))


def test_parseval_consistency(grid):
    for maker, support in (
        (make_bandlimited_signal, (-0.9, 0.9)),
        (make_highfreq_signal, (1.1, 2.0)),
    ):
        spec = maker("raised_cosine", support, grid, 1.0)
        assert fourier_inverse(spec).energy() == pytest.approx(spec.energy(), rel=1e-12)


def test_highfreq_difference_of_indicators(grid):
    spec = make_highfreq_signal("indicator", (1.0, 2.0), grid, 1.0, hermitian=True)
    og = spec.omegas()
    assert np.all(spec.values[np.abs(og) < 1.0] == 0.0)
    sig = fourier_inverse(spec)
    t = sig.times()
    win = (np.abs(t) < 20) & (t != 0)
    tw = t[win]
    ref = (np.sin(2 * tw) - np.sin(tw)) / (math.pi * tw)
    assert np.max(np.abs(sig.values[win].real - ref)) < 4e-3


def test_highfreq_one_sided_complex(grid):
    spec = make_highfreq_signal("indicator", (1.05, 1.1), grid, 1.0, hermitian=False)
    og = spec.omegas()
    assert np.all(spec.values[og < 1.0] == 0.0)
    assert np.max(np.abs(fourier_inverse(spec).values.imag)) > 1e-3  # genuinely complex


@pytest.mark.parametrize("hermitian", [True, False])
def test_highfreq_support_lies_above_the_band(grid, hermitian):
    # Both ends of (-1.5, -1.2) are in the HIGH set, but the support is given
    # on omega > 0; across the gap it is in no class.
    for support in ((-1.5, -1.2), (-1.5, 1.5)):
        with pytest.raises(SupportViolation):
            make_highfreq_signal("raised_cosine", support, grid, 1.0, hermitian)


def test_mixed_single_tone():
    ms = make_mixed_signal([(0.5, 2 * math.pi)], [], "LOW", 0.4, 1.0)
    t = np.linspace(-5, 5, 11)
    assert np.max(np.abs(evaluate_mixed(ms, t) - np.exp(0.5j * t))) < 1e-15


def test_mixed_tone_pair_is_cosine():
    ms = make_mixed_signal([(0.3, math.pi), (-0.3, math.pi)], [], "LOW", 0.4, 1.0)
    t = np.linspace(-5, 5, 11)
    assert np.max(np.abs(evaluate_mixed(ms, t) - np.cos(0.3 * t))) < 1e-15


def test_mixed_class_constraints():
    with pytest.raises(ClassConstraintViolation):
        make_mixed_signal([(0.7, 1.0)], [], "LOW", 0.4, 1.0)
    with pytest.raises(ClassConstraintViolation):
        make_mixed_signal([(1.2, 1.0)], [], "HIGH", 0.4, 1.0)
    with pytest.raises(ClassConstraintViolation):
        make_mixed_signal([], [RaisedCosineBump(0.5, 0.8)], "LOW", 0.4, 1.0)
    with pytest.raises(ClassConstraintViolation):
        make_mixed_signal([(0.5, 1.0)], [], "LOW", 1.5, 1.0)


def _accepts(build, error):
    """w -> False if build(w) raises `error`, else True."""
    def accepts(w):
        try:
            build(w)
        except error:
            return False
        return True
    return accepts


def _extra_point_joins(gamma):
    """w -> whether deviation_norm evaluates the extra point w: the extra
    points in the domain are the last nodes it evaluates."""
    kernel = build_kernel([(1.0, 0.0, 1)], [1.0], _OMEGA)

    def joins(w):
        seen, real = [], predictor._deviation_values
        with mock.patch.object(predictor, "_deviation_values",
                               lambda k, g, x: seen.append(x) or real(k, g, x)):
            deviation_norm(PredictorTransfer(kernel, gamma), _EPS, [w])
        return len(seen[-1]) == 1 and seen[-1][0] == abs(w)
    return joins


def _split_keeps_low(band):
    """The split at `band` sends the grid points +-1.0 to LOW."""
    low, high = ideal_lowpass_split(SampledSpectrum(-2.0, 1.0, np.ones(4, dtype=complex)), band)
    assert np.array_equal(low.values + high.values, np.ones(4))
    return bool(low.values[1] == low.values[3] == 1.0)


def _part_kind(w):
    doc = {"kernel": {"omega": _OMEGA, "poles": [[1.0, 0.0, 1]], "numerator": [1.0]},
           "gamma_ladder": [1.0],
           "signals": [{"id": "c", "kind": "composite", "parts": [{"support": [-0.5, w]}]}]}
    return config_from_dict(doc).signals[0].parts[0].kind


_OMEGA, _EPS = 1.0, 0.1
_LOW_EDGE, _HIGH_EDGE = _OMEGA - _EPS, _OMEGA + _EPS
_GRID = GridSpec(2048, 400.0)
_MIXED = _accepts(lambda args: make_mixed_signal(*args, _EPS, _OMEGA), ClassConstraintViolation)
_SUPPORT = _accepts(lambda args: args[0]("raised_cosine", args[1], _GRID, _OMEGA),
                    SupportViolation)
# Every place that decides class membership: (accepts, values on the closed
# edge that it accepts, values one ulp outside, or across the gap, refused).
_CLASS_EDGES = {
    "atom-low": (lambda w: _MIXED(([(w, 1.0)], [], "LOW")),
                 [_LOW_EDGE, -_LOW_EDGE], [math.nextafter(_LOW_EDGE, 2.0)]),
    "atom-high": (lambda w: _MIXED(([(w, 1.0)], [], "HIGH")),
                  [_HIGH_EDGE, -_HIGH_EDGE], [math.nextafter(-_HIGH_EDGE, 0.0)]),
    "density-low": (lambda w: _MIXED(([], [RaisedCosineBump(-w, w)], "LOW")),
                    [_LOW_EDGE], [math.nextafter(_LOW_EDGE, 2.0)]),
    "density-high": (lambda hi: _MIXED(([], [RaisedCosineBump(-2.0, hi)], "HIGH")),
                     [-_HIGH_EDGE], [math.nextafter(-_HIGH_EDGE, 0.0), _HIGH_EDGE]),
    "bandlimited-support": (lambda w: _SUPPORT((make_bandlimited_signal, (-w, w))),
                            [_OMEGA], [math.nextafter(_OMEGA, 2.0)]),
    "highfreq-support": (lambda lo: _SUPPORT((make_highfreq_signal, (lo, 1.5))),
                         [_OMEGA], [math.nextafter(_OMEGA, 0.0)]),
    "lowpass-split": (_split_keeps_low, [1.0], [math.nextafter(1.0, 0.0)]),
    "deviation-low": (_extra_point_joins(5.0), [_LOW_EDGE, -_LOW_EDGE],
                      [math.nextafter(_LOW_EDGE, 2.0)]),
    "deviation-high": (_extra_point_joins(-5.0), [_HIGH_EDGE, -_HIGH_EDGE],
                       [math.nextafter(_HIGH_EDGE, 0.0)]),
    "config-part-kind": (lambda w: _part_kind(w) == "bandlimited",
                         [_OMEGA], [math.nextafter(_OMEGA, 2.0)]),
}


@pytest.mark.parametrize("site", list(_CLASS_EDGES))
def test_class_sets_are_closed_at_every_site(site):
    # LOW is |w| <= omega - eps and HIGH is |w| >= omega + eps, both closed;
    # a HIGH density also stays on one side of the gap.
    accepts, edge, outside = _CLASS_EDGES[site]
    assert [accepts(w) for w in edge] == [True] * len(edge)
    assert [accepts(w) for w in outside] == [False] * len(outside)


def test_cstar_norm_atoms():
    assert cstar_norm(make_mixed_signal([(0.0, 2 * math.pi)], [], "LOW", 0.4, 1.0)) == pytest.approx(
        2 * math.pi
    )
    assert cstar_norm(
        make_mixed_signal([(0.3, math.pi), (-0.3, math.pi)], [], "LOW", 0.4, 1.0)
    ) == pytest.approx(2 * math.pi)


def test_cstar_norm_with_unit_mass_density():
    # Raised-cosine mass is height * width / 2; height 5 on width 0.4 -> 1.
    bump = RaisedCosineBump(0.1, 0.5, 5.0)
    ms = make_mixed_signal([(0.0, 2 * math.pi)], [bump], "LOW", 0.4, 1.0)
    assert cstar_norm(ms) == pytest.approx(2 * math.pi + 1.0, rel=1e-12)
    # Independent quadrature of the declared mass.
    w = np.linspace(0.1, 0.5, 200001)
    assert np.trapezoid(np.abs(bump(w)), w) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_bump_mass_and_roundtrip():
    from bandcast import GaussianBump

    bump = GaussianBump(0.1, 0.5, 2.0)
    # Oracle integrates the unmasked profile: the support mask zeroes the
    # boundary samples themselves, which misstates a trapezoid endpoint.
    w = np.linspace(0.1, 0.5, 200001)
    profile = 2.0 * np.exp(-((w - 0.3) ** 2) / (2 * 0.1**2))
    assert bump.mass() == pytest.approx(np.trapezoid(profile, w), rel=1e-9)
    ms = make_mixed_signal([], [bump], "LOW", 0.4, 1.0)
    back = mixed_from_json(mixed_to_json_dict(ms))
    assert back.density[0].mass() == pytest.approx(bump.mass(), rel=1e-12)


def test_sampled_density_mass_and_interp():
    grid_w = np.linspace(1.3, 1.8, 21)
    vals = np.abs(np.sin(4 * grid_w)) + 0.2
    dens = SampledDensity(grid_w, vals)
    ms = make_mixed_signal([], [dens], "HIGH", 0.25, 1.0)
    w = np.linspace(1.3, 1.8, 100001)
    assert cstar_norm(ms) == pytest.approx(np.trapezoid(np.abs(dens(w)), w), rel=1e-6)


@pytest.mark.parametrize("sample", [math.nan, math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "nan-imag"])
def test_sampled_density_refuses_non_finite_samples_when_built(sample):
    # A NaN sample used to give a NaN mass, and through it a NaN norm.
    with pytest.raises(SupportViolation, match="sampled density height or samples not finite"):
        SampledDensity([0.0, 0.5], [sample, 1.0])


@pytest.mark.parametrize(
    "atoms, density",
    [
        ([(0.2, 1.0)], [RaisedCosineBump(0.1, 0.5, math.nan)]),
        ([], [GaussianBump(0.1, 0.5, math.nan)]),
        ([(0.1, 1e308), (0.2, 1e308)], []),
    ],
    ids=["raised-cosine-nan-height", "gaussian-nan-height", "overflow"],
)
def test_cstar_norm_refuses_a_total_that_is_not_finite(atoms, density):
    # Each used to return nan or inf, and with it a uniform bound to match.
    ms = make_mixed_signal(atoms, density, "LOW", 0.4, 1.0)
    with pytest.raises(NonFiniteResult, match="total-variation norm is not finite"):
        _no_warnings(lambda: cstar_norm(ms))


def test_sampled_density_mass_matches_mpmath():
    # |X_c| has a kink where the interpolant changes sign and a sharp turn
    # where its phase flips; ends within 1e-15 of each other put the point
    # nearest zero far off the segment.  The 40-digit reference splits each
    # segment at that point.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    for draw in range(100):
        n = int(rng.integers(2, 7))
        w = np.cumsum(rng.uniform(0.01, 0.5, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kind = draw % 4
        if kind == 0:  # real, with sign changes
            z = z.real + 0j
        elif kind == 1:  # phase flips with a tiny imaginary offset
            z = z[0] * (-1.0) ** np.arange(n) + 1e-12j * rng.standard_normal(n)
        elif kind == 2:  # ends within 1e-15 of each other
            z = z[0] + 1e-15 * z
        dens = SampledDensity(w, z)
        with mpmath.workdps(40):
            expected = mpmath.mpf(0)
            for i in range(n - 1):
                a, b = mpmath.mpc(z[i]), mpmath.mpc(z[i + 1])
                d = b - a
                cut = -mpmath.re(a * mpmath.conj(d)) / abs(d) ** 2 if d else 0
                ends = [0, cut, 1] if 0 < cut < 1 else [0, 1]
                h = mpmath.mpf(w[i + 1]) - mpmath.mpf(w[i])
                expected += h * mpmath.quad(lambda s: abs(a + s * d), ends)
        assert dens.mass() == pytest.approx(float(expected), rel=1e-12, abs=0.0)


def _piecewise_linear_fourier(omegas, values, t):
    """integral of the linear interpolant of (omegas, values) times e^{iwt},
    in closed form segment by segment (t == 0 by the trapezoid rule)."""
    out = np.zeros(len(t), dtype=complex)
    zero = t == 0.0
    for a, b, fa, fb in zip(omegas[:-1], omegas[1:], values[:-1], values[1:]):
        out[zero] += 0.5 * (fa + fb) * (b - a)
        it = 1j * t[~zero]
        ea, eb = np.exp(it * a), np.exp(it * b)
        out[~zero] += (fb * eb - fa * ea) / it - (fb - fa) / (b - a) * (eb - ea) / it**2
    return out


def test_sampled_density_integral_converges_across_its_kinks():
    # Panel edges fall on the samples, so no kink of the interpolant lies
    # inside a Gauss panel; with kinks inside panels the coarse and fine
    # passes on the 400 s grid lie 1.6e-6 apart, far past the certificate.
    omegas = np.array([-0.6, -0.35, -0.1, 0.15, 0.4])
    values = np.array([0.0, 1.3, 0.4, 1.1, 0.0])
    t = GridSpec(2048, 400.0).times()
    got = integrate_unweighted(SampledDensity(omegas, values), t)
    expected = _piecewise_linear_fourier(omegas, values, t)
    assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


@pytest.mark.parametrize("tmax", [5.0, 200.0], ids=["16-panels", "67-panels"])
@pytest.mark.parametrize("density", [RaisedCosineBump(-0.6, 0.4, 1.2), GaussianBump(0.3, 1.1, 0.8)],
                         ids=["raised_cosine", "gaussian"])
def test_one_piece_density_nodes_are_uniform_gauss_panels(density, tmax):
    # A one-piece density keeps the panel rule max(16, ceil(width (tmax + 1) / 3))
    # on [lo, hi] and its node sets, bit for bit.
    lo, hi = density.support()
    t = np.linspace(-tmax, tmax, 64)
    node_sets = []

    def weight(w):
        node_sets.append(w)
        return np.ones((len(w), 1))

    density.integrate_against(weight, t)
    panels = max(16, math.ceil((hi - lo) * (tmax + 1.0) / 3.0))
    assert [len(x) for x in node_sets] == [8 * panels, 16 * panels]
    for x, n in zip(node_sets, (panels, 2 * panels)):
        assert x.tobytes() == _gauss_legendre_panels(lo, hi, n)[0].tobytes()


def test_gauss_legendre_rule_is_solved_once(monkeypatch):
    # The panels reuse one read-only rule: its nodes and weights are
    # leggauss(8)'s bit for bit, and building panels does not solve it again.
    nodes, weights = np.polynomial.legendre.leggauss(8)
    expected = _gauss_legendre_panels(-0.6, 0.9, 80)
    rule = signals._gauss_legendre(8)
    assert np.array_equal(rule[0], nodes) and np.array_equal(rule[1], weights)
    assert not (rule[0].flags.writeable or rule[1].flags.writeable)

    def unsolved(_deg):
        raise AssertionError("leggauss(8) solved again")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", unsolved)
    x, w = _gauss_legendre_panels(-0.6, 0.9, 80)
    assert x.tobytes() == expected[0].tobytes() and w.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize(
    "omegas, values, expected",
    [
        (np.linspace(1.3, 1.8, 21), np.linspace(0.5, 1.5, 21) + 0.2j, "0x1.0589a480eb2cfp-1"),
        (np.linspace(1.3, 1.8, 21), np.linspace(-1.0, 1.0, 21) + 0.05j, "0x1.02ae5b700105bp-2"),
        (np.linspace(1.3, 1.8, 21), np.cos(9 * np.linspace(1.3, 1.8, 21))
         + 1j * np.sin(5 * np.linspace(1.3, 1.8, 21)), "0x1.185899b47a2f3p-1"),
        ([0.0, 0.5, 1.0, 1.5], [2.0, 2.0, -1.0 + 1e-3j, 3.0], "0x1.05555fc2a029ep+1"),
    ],
    ids=["all-gauss", "through-zero", "oscillating", "flat-segment"],
)
def test_sampled_density_mass_bits_on_the_cached_rule(omegas, values, expected, monkeypatch):
    # The segment means read the cached 16-point rule: the masses are the
    # ones a freshly solved leggauss(16) gave, bit for bit, over segments of
    # both branches (closed form near a zero, Gauss elsewhere, and a flat
    # segment), and a second call solves no rule.
    density = SampledDensity(omegas, values)
    assert density.mass().hex() == expected

    def unsolved(_deg):
        raise AssertionError("a Gauss-Legendre rule solved again")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", unsolved)
    assert density.mass().hex() == expected


def _assert_phase_products_exact(t, x, columns=3):
    # Each column's product equals the one with the full complex-exp matrix,
    # bit for bit: bytes, not array_equal, so -0.0 and 0.0 differ.
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    rng = np.random.default_rng(len(t) * 1000 + len(x))
    cols = rng.standard_normal((columns, len(x))) + 1j * rng.standard_normal((columns, len(x)))
    exp_matrix = np.exp(1j * np.outer(t, x))
    assert np.array_equal(phase_matrices(t)(x), exp_matrix)
    got = _phase_products(t)(x, cols)
    assert got.shape == (len(t), columns)
    for j, col in enumerate(cols):
        assert got[:, j].tobytes() == (exp_matrix @ col).tobytes()


@pytest.mark.parametrize(
    "t",
    [
        GridSpec(2048, 400.0).times(),
        np.linspace(-3.0, 5.0, 97),
        np.array([-2.5, -1.0, 0.0, 0.5, 2.5]),
        np.linspace(-3.0, 3.0, 8),
        np.array([-2.5, 2.5]),
        np.array([-2.5]),
        np.array([-0.0, 0.0, 1.5, -1.5, 3.0]),
    ],
    ids=[
        "centered", "off-center", "with-zero", "even-linspace", "two-point", "one-point",
        "minus-zero",
    ],
)
@pytest.mark.parametrize("band", [(-1.1, -0.3), (0.3, 1.1), (-0.6, 0.9)], ids=["neg", "pos", "mixed"])
def test_phase_matrix_equals_complex_exp(t, band):
    x, _ = _gauss_legendre_panels(*band, 7)
    _assert_phase_products_exact(t, x)


@pytest.mark.parametrize(
    "t, band, panels",
    [
        (GridSpec(2048, 400.0).times(), (0.2, 0.5), 80),
        (GridSpec(256, 60.0).times(), (-0.6, 0.9), 32),
        (np.array([1.5, -1.5, 1.5, -1.5]), (0.3, 1.1), 5000),
    ],
    ids=["many-blocks", "one-row-remainder", "single-abs-t"],
)
def test_phase_products_exact_across_row_blocks(t, band, panels):
    # 1025 distinct |t| x 640 nodes split into 21 row blocks; 129 x 256 would
    # leave a one-row last block, which joins the one before it; one distinct
    # |t| against 40 000 nodes still takes two rows.
    x, _ = _gauss_legendre_panels(*band, panels)
    rows = len(np.unique(np.abs(t)))
    assert rows * len(x) > signals._BLOCK_ELEMENTS or len(x) > signals._BLOCK_ELEMENTS
    _assert_phase_products_exact(t, x)


def test_density_integral_memory_is_bounded_by_row_blocks(monkeypatch):
    # The fine pass has 8193 distinct |t| x about 1300 nodes: a full Q would
    # take about 170 MB; live Q is one row block per worker.  Beside its
    # result a pass holds the caller's pos and neg (columns x distinct |t|
    # each), the conjugate columns, and per running block one Q and two
    # theta-sized float arrays (theta and its cosine).  The machine's own
    # pool, then inline, then pools of 4 and 8.
    t = GridSpec(2**14, 1600.0).times()
    rows = len(np.unique(np.abs(t)))
    nodes, passes = [], []

    def weight(w):
        nodes.append(len(w))
        return np.stack([np.cos(k * w) for k in range(6)], axis=1)

    phase_products = signals._phase_products

    def measured(times):
        products = phase_products(times)

        def run(x, columns, **kwargs):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = products(x, columns, **kwargs)
            passes.append((tracemalloc.get_traced_memory()[1] - before - out.nbytes, x, columns))
            return out

        return run

    monkeypatch.setattr(signals, "_phase_products", measured)
    bump = RaisedCosineBump(0.2, 0.5, 1.3)

    def bounded():
        nodes.clear()
        passes.clear()
        tracemalloc.start()
        try:
            out = bump.integrate_against(weight, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (len(t), 6)
        full_q = 16 * rows * max(nodes)
        assert full_q > 150e6
        assert peak < full_q / 8
        assert len(passes) == 2
        for transient, x, columns in passes:
            per_block = (16 + 2 * 8) * max(2, signals._BLOCK_ELEMENTS // len(x)) * len(x)
            pos_neg = 2 * 16 * len(columns) * rows
            assert transient <= pos_neg + columns.nbytes + transforms._row_workers * per_block

    bounded()
    monkeypatch.setattr(transforms, "_row_pool", None)
    monkeypatch.setattr(transforms, "_row_workers", 1)
    bounded()
    for workers in (4, 8):
        monkeypatch.setattr(transforms, "_row_workers", workers)
        with ThreadPoolExecutor(workers) as pool:
            monkeypatch.setattr(transforms, "_row_pool", pool)
            bounded()


@pytest.mark.parametrize(
    "grid",
    [GridSpec(2048, 400.0), GridSpec(2048, 123.4), GridSpec(2**14, 1600.0)],
    ids=["2048-dyadic", "2048-non-dyadic", "2^14"],
)
def test_anchored_phase_products_match_exact_trig(grid):
    # The certificate pass builds Q by angle addition from anchor rows.  Each
    # column stays within 1e-13 sum|c| of the exact-trig product, on random
    # node sets (Gauss panels and scattered points) with complex columns.
    t = grid.times()
    products = _phase_products(t)
    rng = np.random.default_rng(grid.n)
    for draw in range(4):
        lo = float(rng.uniform(-3.0, 2.5))
        hi = lo + float(rng.uniform(0.05, 0.5))
        if draw % 2:
            x = np.sort(rng.uniform(lo, hi, int(rng.integers(50, 900))))
        else:
            x, _ = _gauss_legendre_panels(lo, hi, int(rng.integers(16, 110)))
        cols = rng.standard_normal((3, len(x))) + 1j * rng.standard_normal((3, len(x)))
        got = products(x, cols, anchored=True)
        exact = products(x, cols)
        assert got.shape == exact.shape == (len(t), 3)
        gaps = np.max(np.abs(got - exact), axis=0)
        assert np.all(gaps <= 1e-13 * np.sum(np.abs(cols), axis=1)), gaps


def test_certificate_pass_takes_trig_on_anchor_rows_only(monkeypatch):
    # 8193 distinct |t|.  The returned (fine) pass takes cos/sin on every
    # one; the certificate (coarse) pass on one anchor row in 16, one more
    # per row block (the anchor of a group that a block boundary splits) and
    # the distinct offsets from the anchors, 16 on this dyadic grid.
    t = GridSpec(2**14, 1600.0).times()
    abs_t = np.unique(np.abs(t))
    rows = len(abs_t)
    offsets = len(np.unique(abs_t - abs_t[np.arange(rows) // 16 * 16]))
    assert (rows, offsets) == (8193, 16)
    trig_rows, nodes, current = [], {}, []
    phase_products, unit_phases = signals._phase_products, signals._unit_phases

    def counted_trig(r, x):
        trig_rows.append((current[-1], len(r)))  # workers run one pass at a time
        return unit_phases(r, x)

    def measured(times):
        products = phase_products(times)

        def run(x, columns, *, anchored=False):
            current.append(anchored)
            nodes[anchored] = len(x)
            return products(x, columns, anchored=anchored)

        return run

    monkeypatch.setattr(signals, "_unit_phases", counted_trig)
    monkeypatch.setattr(signals, "_phase_products", measured)
    integrate_unweighted(RaisedCosineBump(0.2, 0.5, 1.3), t)
    assert current == [True, False]
    blocks = math.ceil(rows / max(2, signals._BLOCK_ELEMENTS // nodes[True]))
    coarse, fine = (sum(n for pass_, n in trig_rows if pass_ is side) for side in (True, False))
    assert fine == rows
    assert coarse <= math.ceil(rows / 16) + blocks + offsets


def test_phase_matrix_mirrors_an_exactly_symmetric_grid():
    # GridSpec(2048, 400) has t_{n-j} == -t_j, so cos/sin run on n/2 + 1 rows.
    t = GridSpec(2048, 400.0).times()
    assert np.array_equal(t[1:], -t[:0:-1])
    assert len(np.unique(np.abs(t))) == 2048 // 2 + 1


def test_phase_matrix_property_random_grids_and_nodes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = dict(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(
        t0=st.floats(-500.0, 500.0, **finite),
        dt=st.floats(1e-3, 10.0, **finite),
        n=st.integers(1, 64),
        x=st.lists(st.floats(-50.0, 50.0, **finite), min_size=1, max_size=32),
    )
    def check(t0, dt, n, x):
        _assert_phase_products_exact(t0 + dt * np.arange(n), x)
        _assert_phase_products_exact(np.linspace(-t0, t0, n), x)

    check()


@pytest.mark.parametrize(
    "density",
    [
        RaisedCosineBump(-0.6, 0.9, 1.7),
        GaussianBump(0.3, 1.1, -0.8, 0.25),
        SampledDensity(np.linspace(1.3, 1.8, 21), np.linspace(0.5, 1.5, 21) + 0.2j),
    ],
    ids=["raised_cosine", "gaussian", "sampled"],
)
def test_density_integral_bit_equal_to_full_phase_matrix(density, monkeypatch):
    # Six weight columns on a centered grid, against the same quadrature run
    # with the full n_t x nodes complex-exp matrix.
    t = GridSpec(256, 60.0).times()

    def weight(w):
        return np.stack([np.cos(k * w) + 1j * np.sin((k + 1) * w) for k in range(6)], axis=1)

    got = density.integrate_against(weight, t)
    got_single = integrate_unweighted(density, t)
    monkeypatch.setattr(signals, "_phase_products", reference_phase_products)
    assert got.shape == (len(t), 6)
    assert np.array_equal(got, density.integrate_against(weight, t))
    assert np.array_equal(got_single, integrate_unweighted(density, t))


def _no_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


@pytest.mark.parametrize("height", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_density_integral_rejects_non_finite_height(height):
    t = np.linspace(-10.0, 10.0, 33)
    bump = RaisedCosineBump(0.1, 0.5, height)
    with pytest.raises(NonFiniteResult, match=r"not finite on \[0\.1, 0\.5\]"):
        _no_warnings(lambda: integrate_unweighted(bump, t))
    with pytest.raises(NonFiniteResult, match=r"not finite on \[0\.1, 0\.5\]"):
        _no_warnings(lambda: bump.integrate_against(lambda w: np.ones((len(w), 3)), t))
    ms = make_mixed_signal([(0.2, 1.0)], [bump], "LOW", 0.4, 1.0)
    with pytest.raises(NonFiniteResult, match=r"not finite on \[0\.1, 0\.5\]"):
        _no_warnings(lambda: evaluate_mixed(ms, t))


@pytest.mark.parametrize(
    "t",
    [[0.0, np.nan, 1.0], [0.0, np.inf, 1.0], [], [[0.0, 1.0], [2.0, 3.0]]],
    ids=["nan", "inf", "empty", "2-D"],
)
@pytest.mark.parametrize(
    "density",
    [
        RaisedCosineBump(0.1, 0.5, 2.0),
        GaussianBump(0.1, 0.5, 2.0),
        SampledDensity(np.linspace(1.3, 1.8, 21), np.ones(21)),
    ],
    ids=["raised_cosine", "gaussian", "sampled"],
)
def test_density_integral_rejects_bad_times_before_any_work(density, t):
    def weight(w):
        pytest.fail("the quadrature ran on a bad time grid")

    with pytest.raises(GridMismatch):
        density.integrate_against(weight, np.array(t))


@pytest.mark.parametrize("density", [RaisedCosineBump(0.5, 0.5), GaussianBump(0.5, 0.3)],
                         ids=["point", "reversed"])
def test_density_integral_rejects_an_empty_support(density):
    with pytest.raises(SupportViolation, match="is empty"):
        integrate_unweighted(density, np.linspace(-10.0, 10.0, 33))


def test_mixed_evaluation_bounded_by_cstar():
    rng = np.random.default_rng(23)
    ms = make_mixed_signal(
        [(0.2, 1 + 1j), (-0.4, 0.5j)], [RaisedCosineBump(-0.5, 0.1, 1.3)], "LOW", 0.4, 1.0
    )
    bound = cstar_norm(ms) / (2 * math.pi)
    t = rng.uniform(-50, 50, size=64)
    assert np.max(np.abs(evaluate_mixed(ms, t))) <= bound + 1e-12


def test_split_trivial_cases(grid):
    low_spec = make_bandlimited_signal("raised_cosine", (-0.5, 0.5), grid, 1.0)
    low, high = ideal_lowpass_split(low_spec, 1.0)
    assert np.array_equal(low.values, low_spec.values)
    assert np.all(high.values == 0.0)

    hi_spec = make_highfreq_signal("raised_cosine", (2.0, 3.0), grid, 1.0, hermitian=True)
    low2, high2 = ideal_lowpass_split(hi_spec, 1.0)
    assert np.all(low2.values == 0.0)
    assert np.array_equal(high2.values, hi_spec.values)


def test_split_recombines_bit_exact(grid):
    rng = np.random.default_rng(4)
    values = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    spec = SampledSpectrum(grid.omega0, grid.domega, values)
    low, high = ideal_lowpass_split(spec, 1.0)
    assert np.array_equal(low.values + high.values, spec.values)


def test_split_linearity(grid):
    rng = np.random.default_rng(6)
    x = SampledSpectrum(grid.omega0, grid.domega, rng.standard_normal(grid.n) + 0j)
    z = SampledSpectrum(grid.omega0, grid.domega, rng.standard_normal(grid.n) + 0j)
    a, b = 2.0, -0.5
    combo = SampledSpectrum(grid.omega0, grid.domega, a * x.values + b * z.values)
    lc, hc = ideal_lowpass_split(combo, 1.0)
    lx, hx = ideal_lowpass_split(x, 1.0)
    lz, hz = ideal_lowpass_split(z, 1.0)
    assert np.array_equal(lc.values, a * lx.values + b * lz.values)
    assert np.array_equal(hc.values, a * hx.values + b * hz.values)


@pytest.mark.parametrize("omega", [math.nan, -1.0, 0.0, math.inf])
def test_split_refuses_a_band_constant_off_the_positive_reals(grid, omega):
    # NaN and -1 used to put all the energy in HIGH.
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    with pytest.raises(DomainError, match="band constant"):
        ideal_lowpass_split(spec, omega)


def test_split_band_edge_goes_low():
    # Grid chosen so +-1.0 are exact binary grid points.
    spec = SampledSpectrum(-8.0, 1.0 / 64.0, np.ones(1024, dtype=complex))
    og = spec.omegas()
    j_neg, j_pos = 448, 576
    assert og[j_neg] == -1.0 and og[j_pos] == 1.0
    low, high = ideal_lowpass_split(spec, 1.0)
    assert low.values[j_neg] == 1.0 and low.values[j_pos] == 1.0
    assert high.values[j_neg] == 0.0 and high.values[j_pos] == 0.0


def test_noise_zero_eta_is_identity(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    spec2 = add_outofband_noise(spec, 0.0, (1.05, 1.1), 1, 1.0)
    assert np.array_equal(spec2.values, spec.values)


def test_noise_energy_ratio_exact(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    spec2 = add_outofband_noise(spec, 1e-3, (1.05, 1.1), 42, 1.0)
    noise = SampledSpectrum(spec.omega0, spec.domega, spec2.values - spec.values)
    assert noise.energy() / spec.energy() == pytest.approx(1e-3, abs=1e-9)


def test_noise_preserves_in_band_exactly(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    spec2 = add_outofband_noise(spec, 1e-3, (1.05, 1.1), 42, 1.0)
    og = spec.omegas()
    inband = np.abs(og) <= 1.0
    assert np.array_equal(spec2.values[inband], spec.values[inband])


def test_noise_keeps_signal_real(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    sig2 = fourier_inverse(add_outofband_noise(spec, 1e-2, (1.05, 1.2), 3, 1.0))
    assert np.max(np.abs(sig2.values.imag)) < 1e-12 * np.max(np.abs(sig2.values.real))


def test_noise_deterministic(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    a = add_outofband_noise(spec, 1e-3, (1.05, 1.1), 42, 1.0)
    b = add_outofband_noise(spec, 1e-3, (1.05, 1.1), 42, 1.0)
    assert np.array_equal(a.values, b.values)
    c = add_outofband_noise(spec, 1e-3, (1.05, 1.1), 43, 1.0)
    assert not np.array_equal(a.values, c.values)


def test_noise_support_validation(grid):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    with pytest.raises(SupportViolation):
        add_outofband_noise(spec, 1e-3, (0.9, 1.1), 1, 1.0)
    with pytest.raises(SupportViolation):
        add_outofband_noise(spec, -1.0, (1.05, 1.1), 1, 1.0)


@pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
def test_noise_rejects_non_finite_eta(grid, eta):
    spec = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    with pytest.raises(SupportViolation, match="finite"):
        _no_warnings(lambda: add_outofband_noise(spec, eta, (1.05, 1.1), 1, 1.0))


def test_noise_rejects_off_center_grid(grid):
    # Index -j is the mate of j only on a centered grid.  With omega0 moved
    # by 0.9 domega the mates of (1.001, 1.1) used to land in band, at
    # |w| = 0.991 and 0.975; on the odd grid -1, -0.5, 0, 0.5, 1 the mate
    # of w = 1 was w = -0.5.
    spec = full_grid(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0), grid)
    shifted = SampledSpectrum(spec.omega0 + 0.9 * spec.domega, spec.domega, spec.values)
    with pytest.raises(GridMismatch):
        add_outofband_noise(shifted, 1e-3, (1.001, 1.1), 1, 1.0)
    odd = SampledSpectrum(-1.0, 0.5, np.ones(5, dtype=complex))
    with pytest.raises(GridMismatch):
        add_outofband_noise(odd, 1e-3, (0.9, 1.1), 1, 0.6)


@pytest.mark.parametrize("span", [400.0, 200.0 * math.pi], ids=["span400", "span200pi"])
@pytest.mark.parametrize("n", [2, 2**11, 2**20])
def test_centered_grid_frequencies_are_exactly_antisymmetric(n, span):
    g = GridSpec(n, span)
    spec = SampledSpectrum(g.omega0, g.domega, np.zeros(n))
    for w in (g.omegas(), spec.omegas()):
        assert w[n // 2] == 0.0 and w[0] == -(n // 2) * g.domega
        assert np.array_equal(w[1:], -w[:0:-1])
        assert np.all(np.diff(w) > 0)
        assert np.max(np.abs(w - (g.omega0 + g.domega * np.arange(n)))) <= 4 * np.spacing(abs(g.omega0))


@pytest.mark.parametrize("span", [400.0, 200.0 * math.pi], ids=["span400", "span200pi"])
@pytest.mark.parametrize("envelope, sigma", [("indicator", None), ("raised_cosine", None),
                                             ("gaussian", None), ("gaussian", 0.05)])
def test_two_sided_entries_are_born_as_the_half_of_the_full_construction(span, envelope, sigma):
    # Sampled at k*domega, k = 0..n/2, the half holds the bits of the
    # envelope at |omega| on the full grid; a one-sided entry is that grid.
    g = GridSpec(2048, span)
    kw = {"height": 1.5, "sigma": sigma}
    for maker, support, two_sided, extra in (
        (make_bandlimited_signal, (-1.0, 1.0), True, ()),
        (make_bandlimited_signal, (-0.9, 0.9), True, ()),
        (make_bandlimited_signal, (-0.9, 0.5), False, ()),
        (make_highfreq_signal, (1.0, 1.5), True, (True,)),
        (make_highfreq_signal, (1.2, 1.5), False, (False,)),
    ):
        built = maker(envelope, support, g, 1.0, *extra, **kw)
        ref = reference_grid_spectrum(envelope, support, g, two_sided, **kw)
        assert built.domega == ref.domega
        if two_sided:
            assert built.omega0 == 0.0 and len(built.values) == g.n // 2 + 1
            assert np.array_equal(built.values, hermitian_half(ref.values, ref.omega0, ref.domega))
        else:
            assert built.omega0 == g.omega0 and np.array_equal(built.values, ref.values)


@pytest.mark.parametrize("support", [(1.05, 1.1), (12.0, 1e3)], ids=["in-grid", "past-nyquist"])
def test_noise_on_a_half_is_the_half_of_the_noise_on_the_full_grid(grid, support):
    # c09's robustness numbers depend on these bits.  The full grid's
    # positive frequencies end at (n/2 - 1)*domega, so a support past them
    # leaves the half's Nyquist bin without noise.
    half = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0)
    noisy = add_outofband_noise(half, 1e-3, support, 42, 1.0)
    assert noisy.omega0 == 0.0 and len(noisy.values) == grid.n // 2 + 1
    on_full = add_outofband_noise(full_grid(half, grid), 1e-3, support, 42, 1.0)
    ref = reference_outofband_noise(
        reference_grid_spectrum("raised_cosine", (-0.9, 0.9), grid, True), 1e-3, support, 42)
    assert np.array_equal(on_full.values, ref.values)
    assert np.array_equal(noisy.values, hermitian_half(ref.values, ref.omega0, ref.domega))
    assert noisy.values[-1] == half.values[-1]


@pytest.mark.parametrize("envelope", ["indicator", "raised_cosine", "gaussian"])
def test_two_sided_entry_build_peak_memory(envelope):
    # Traced peak at n = 2**16, in (n/2 + 1)-point complex half spectra: the
    # half and its frequencies take 1.69.  Building the full spectrum and
    # halving it took 3.4-4.0.
    n = 2**16
    g = GridSpec(n, 400.0 * n / 2048)
    make_bandlimited_signal(envelope, (-0.9, 0.9), g, 1.0)
    tracemalloc.start()
    try:
        spec = make_bandlimited_signal(envelope, (-0.9, 0.9), g, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.omega0 == 0.0 and len(spec.values) == n // 2 + 1
    assert peak <= 2.0 * 16 * (n // 2 + 1)


def _assert_exactly_hermitian(spec):
    v, h = spec.values, len(spec.values) // 2
    assert spec.omega0 == -h * spec.domega
    assert v[0].imag == 0.0 and v[h].imag == 0.0
    assert np.array_equal(v[h + 1 :], np.conj(v[h - 1 : 0 : -1]))
    assert hermitian_half(v, spec.omega0, spec.domega) is not None


@pytest.mark.parametrize("span", [400.0, 200.0 * math.pi], ids=["span400", "span200pi"])
@pytest.mark.parametrize("envelope", ["indicator", "raised_cosine", "gaussian"])
def test_producers_are_exactly_hermitian(span, envelope):
    grid_ = GridSpec(2048, span)
    if span != 400.0:  # the band edge omega = 1 is grid point +-100
        assert 100 * grid_.domega == 1.0
    low = full_grid(make_bandlimited_signal(envelope, (-1.0, 1.0), grid_, 1.0), grid_)
    inner = full_grid(make_bandlimited_signal(envelope, (-0.9, 0.9), grid_, 1.0), grid_)
    high = full_grid(make_highfreq_signal(envelope, (1.0, 1.5), grid_, 1.0, hermitian=True),
                     grid_)
    composite = SampledSpectrum(grid_.omega0, grid_.domega, low.values + high.values)
    noisy = add_outofband_noise(composite, 1e-3, (1.05, 1.1), 7, 1.0)
    produced = [low, inner, high, composite, noisy, *ideal_lowpass_split(noisy, 1.0)]
    for spec in produced:
        _assert_exactly_hermitian(spec)
        assert np.any(spec.values != 0.0)
        assert fourier_inverse(spec).values.dtype == np.float64


def test_csv_and_json_serialization(grid):
    sig = fourier_inverse(make_bandlimited_signal("raised_cosine", (-0.9, 0.9), grid, 1.0))
    text = signal_to_csv(sig)
    assert text.startswith("t,re,im\n")
    assert len(text.splitlines()) == grid.n + 1
    t0, re, im = (float(v) for v in text.splitlines()[1].split(","))
    assert t0 == pytest.approx(sig.t0)

    ms = make_mixed_signal(
        [(0.2, 1 + 1j)], [RaisedCosineBump(-0.5, 0.1, 1.3)], "LOW", 0.4, 1.0
    )
    back = mixed_from_json(mixed_to_json_dict(ms))
    assert back.atoms == ms.atoms
    assert back.class_tag == ms.class_tag
    assert back.density[0].support() == ms.density[0].support()
