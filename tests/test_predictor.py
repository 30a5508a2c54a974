"""Compensator evaluation, deviation norms, synthesis, boundary checks."""

import inspect
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from bandcast import (
    PredictorTransfer,
    alpha_coefficient,
    build_kernel,
    deviation_norm,
    eval_predictor_transfer,
    eval_transfer,
    mobius_real_part,
    synthesize_time_predictor,
)
from bandcast.engine import mixed_predict_ladder, spectral_predict_ladder
from bandcast.errors import (
    ClassMismatch,
    DomainError,
    NonFiniteResult,
    SaturatedSpectrum,
    SpectrumNotDecayed,
    TruncationNotJustified,
)
from bandcast import predictor, transforms
from bandcast.grids import GridSpec
from bandcast.kernels import transfer_on_grid
from bandcast.signals import MixedSpectrum, SampledSpectrum
from bandcast.predictor import predictor_transfer_on_grid
from bandcast.predictor import (
    _deviation_values,
    compensator_minus_one_on_points,
    compensator_on_points,
    predictor_transfer_on_grid,
)
from helpers import (
    Saturated,
    _khat_on_points,
    eval_compensator,
    hardy_boundary_check,
    random_kernel,
    reference_deviation_norm,
    reference_exponents,
)


def test_alpha_coefficient_values():
    assert alpha_coefficient(1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert alpha_coefficient(0.5, 0.8, 1.0) == pytest.approx(0.72)
    assert alpha_coefficient(2.0, 0.0, 1.0) == pytest.approx(0.5)


def test_alpha_coefficient_rejects_bad_inputs():
    with pytest.raises(DomainError):
        alpha_coefficient(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        alpha_coefficient(1.0, 1.0, 1.0)


def test_mobius_real_part_values():
    assert mobius_real_part(1.0, 0.0, 1.0, 0.0) == pytest.approx(-1.0)
    assert mobius_real_part(1.0, 0.0, 1.0, 1.0) == 0.0
    assert mobius_real_part(0.5, 0.8, 1.0, 2.0) == pytest.approx(3 / 1.9584, rel=1e-12)


def test_mobius_real_part_identity():
    rng = np.random.default_rng(101)
    for _ in range(200):
        om = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(-0.7, 0.7) * om
        w = rng.uniform(-2.0, 2.0) * om
        alpha = alpha_coefficient(a, b, om)
        direct = ((1j * w - a + 1j * b) / (1j * w + alpha - 1j * b)).real
        assert abs(mobius_real_part(a, b, om, w) - direct) <= 1e-12


def test_gamma_zero_rejected(single_pole):
    with pytest.raises(DomainError):
        PredictorTransfer(single_pole, 0.0)


def test_target_class(single_pole):
    assert PredictorTransfer(single_pole, 3.0).target_class == "LOW"
    assert PredictorTransfer(single_pole, -3.0).target_class == "HIGH"


def test_compensator_small_gamma_limit(single_pole):
    pred = PredictorTransfer(single_pole, 1e-12)
    assert abs(eval_compensator(pred, 0.0)) <= 1e-10


def test_compensator_at_origin(single_pole):
    pred = PredictorTransfer(single_pole, 5.0)
    assert eval_compensator(pred, 0.0) == pytest.approx(1 - math.exp(-5), rel=1e-12)


def test_compensator_band_edge_magnitude(single_pole):
    # At the band edge the exponent is purely imaginary, so the factor sits
    # on the circle |1 - e^{i theta}| = 2|sin(theta/2)|; here theta = 5.
    pred = PredictorTransfer(single_pole, 5.0)
    v = eval_compensator(pred, 1j * 1.0)
    assert abs(v) == pytest.approx(2 * abs(math.sin(2.5)), rel=1e-12)
    assert abs(v) <= 2.0


def test_predictor_transfer_at_origin(single_pole):
    pred = PredictorTransfer(single_pole, 5.0)
    assert eval_predictor_transfer(pred, 0.0) == pytest.approx(-(1 - math.exp(-5)), rel=1e-12)


def test_predictor_transfer_large_gamma_in_band(single_pole):
    pred = PredictorTransfer(single_pole, 300.0)
    for w in (0.0, 0.3, 0.5):
        dev = abs(eval_predictor_transfer(pred, w) - eval_transfer(single_pole, w))
        assert dev <= 1e-12


def test_predictor_transfer_bits_and_saturation():
    # Off saturation: the bits of V from the scalar log-form evaluator times
    # K(i w).  On it: SaturatedSpectrum naming omega and gamma.
    rng = np.random.default_rng(1717)
    saturated = 0
    for _ in range(600):
        kernel = random_kernel(rng)
        gamma = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-1.0, 3.5))
        w = float(rng.uniform(-5.0, 5.0) * kernel.omega)
        pred = PredictorTransfer(kernel, gamma)
        try:
            expected = eval_compensator(pred, 1j * w) * eval_transfer(kernel, w)
        except Saturated:
            saturated += 1
            message = f"omega = {w:.6g} saturates the predictor for gamma = {gamma:g}"
            with pytest.raises(SaturatedSpectrum, match=re.escape(message)):
                eval_predictor_transfer(pred, w)
            continue
        got = eval_predictor_transfer(pred, w)
        assert (got.real, got.imag) == (expected.real, expected.imag)
    assert 0 < saturated < 600


def test_predictor_transfer_high_frequency_deviation(single_pole):
    # |K_hat - K| = e^{gamma * 0.6} / sqrt(5) at w = 2 for gamma = -5.
    pred = PredictorTransfer(single_pole, -5.0)
    dev = abs(eval_predictor_transfer(pred, 2.0) - eval_transfer(single_pole, 2.0))
    assert dev == pytest.approx(math.exp(-3) / math.sqrt(5), abs=1e-6)


def test_compensator_conjugate_symmetry(conjugate_pair):
    pred = PredictorTransfer(conjugate_pair, 7.0)
    rng = np.random.default_rng(13)
    w = rng.uniform(-3, 3, size=64)
    v_pos = compensator_on_points(pred, 1j * w, SaturatedSpectrum)
    v_neg = compensator_on_points(pred, -1j * w, SaturatedSpectrum)
    assert np.max(np.abs(v_neg - np.conj(v_pos))) <= 1e-12 * np.max(np.abs(v_pos))


def test_factor_distance_bound_on_matching_domain():
    # Each factor satisfies |V_m - 1| = e^{gamma Re phi} <= 1 there; products
    # are bounded by 2**n - 1.
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = random_kernel(rng)
        n_factors = k.denominator_degree
        for gamma in (0.5, 5.0, 50.0):
            pred = PredictorTransfer(k, gamma)
            w = np.linspace(-k.omega, k.omega, 2001)
            vm1 = np.abs(compensator_minus_one_on_points(pred, 1j * w, SaturatedSpectrum))
            assert vm1.max() <= 2.0**n_factors - 1.0 + 1e-9
            pred_neg = PredictorTransfer(k, -gamma)
            w_off = np.linspace(k.omega, 10 * k.omega, 2001)
            vm1_off = np.abs(
                compensator_minus_one_on_points(pred_neg, 1j * w_off, SaturatedSpectrum)
            )
            assert vm1_off.max() <= 2.0**n_factors - 1.0 + 1e-9


def test_single_factor_distance_bound(single_pole):
    for gamma in (0.5, 5.0, 50.0):
        pred = PredictorTransfer(single_pole, gamma)
        w = np.linspace(-1.0, 1.0, 4001)
        vm1 = np.abs(compensator_minus_one_on_points(pred, 1j * w, SaturatedSpectrum))
        expected = np.exp(gamma * (w**2 - 1) / (w**2 + 1))
        assert np.max(np.abs(vm1 - expected)) <= 1e-12
        assert vm1.max() <= 1.0 + 1e-15


def test_deviation_is_distance_times_transfer(conjugate_pair):
    pred = PredictorTransfer(conjugate_pair, 9.0)
    w = np.linspace(-0.95, 0.95, 501)
    vm1 = compensator_minus_one_on_points(pred, 1j * w, SaturatedSpectrum)
    k = transfer_on_grid(conjugate_pair, w)
    khat = predictor_transfer_on_grid(pred, w, SaturatedSpectrum)
    lhs = np.abs(khat - k)
    rhs = np.abs(vm1) * np.abs(k)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(rhs.max(), 1e-300)


def _one_factor_at_a_time(predictor, p):
    acc = np.zeros(np.shape(p), dtype=complex)
    for z, mult in reference_exponents(predictor, p):
        u = -np.exp(z)
        for _ in range(mult):
            acc = acc + u + acc * u
    return acc


@pytest.mark.parametrize("mult", [1, 2, 3, 4, 5, 7, 12, 33])
def test_compensator_minus_one_squares_past_three_factors(mult):
    # Up to three factors a pole group accumulates one at a time, bit for bit
    # as before; past three it squares, to roundoff of the same value.
    kernel = build_kernel([(1.0, 0.0, mult), (0.5, 0.3, 2), (0.5, -0.3, 2)], [1.0], 1.0)
    pred = PredictorTransfer(kernel, 0.7)
    p = 1j * np.linspace(-0.95, 0.95, 777)
    got = compensator_minus_one_on_points(pred, p, SaturatedSpectrum)
    want = _one_factor_at_a_time(pred, p)
    if mult <= 3:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_compensator_minus_one_takes_log_steps_in_the_multiplicity():
    # One step per factor never ended for 2**62.  Where |1 + u| < 1 the
    # product underflows: V - 1 is -1 to roundoff.
    pred = PredictorTransfer(build_kernel([(1.0, 0.0, 2**62)], [1.0], 1.0), 1e-18)
    p = 1j * np.linspace(-0.9, 0.9, 101)
    with np.errstate(all="ignore"):
        got = compensator_minus_one_on_points(pred, p, SaturatedSpectrum)
    ((z, _mult),) = reference_exponents(pred, p)
    inside = np.abs(1.0 - np.exp(z)) < 0.99
    assert inside.any()
    assert np.max(np.abs(got[inside] + 1.0)) <= 1e-15


def _ladder_kernel(rng, omega):
    """1-3 pole groups, each a real pole or a conjugate pair, multiplicity 1-5."""
    poles = []
    for _ in range(int(rng.integers(1, 4))):
        a, mult = float(rng.uniform(0.3, 2.5)), int(rng.integers(1, 6))
        if rng.random() < 0.5:
            poles.append((a, 0.0, mult))
        else:
            b = float(rng.uniform(0.1, 0.85) * omega)
            poles += [(a, b, mult), (a, -b, mult)]
    return build_kernel(poles, [1.0], omega)


# 16 384 complex values are numpy's 256 KiB threshold for reusing a
# temporary operand; a three-rung ladder crosses it from 5 462 points and a
# one-rung call from 16 384.
@pytest.mark.parametrize("size", [1, 2, 7, 100, 3000, 6000, 12000, 16384, 60000])
def test_ladder_rows_equal_the_one_rung_evaluators(size):
    # Each row of a three-rung ladder has the bits of its rung's own V and
    # V - 1, for either sign of gamma, on points of its class.
    rng = np.random.default_rng(size)
    for sign in (1.0, -1.0):
        omega = float(rng.uniform(0.5, 2.0))
        kernel = _ladder_kernel(rng, omega)
        gammas = [sign * g for g in sorted(rng.uniform(0.1, 30.0, 3))]
        if sign > 0:
            w = rng.uniform(-omega, omega, size)
        else:
            w = rng.uniform(omega, 5.0 * omega, size) * rng.choice([-1.0, 1.0], size)
        p = 1j * w
        v = predictor._compensator(kernel, gammas, p, SaturatedSpectrum)
        vm1 = predictor._compensator_minus_one(kernel, gammas, p, SaturatedSpectrum)
        assert v.shape == vm1.shape == (3, size)
        for row, row_m1, gamma in zip(v, vm1, gammas):
            pred = PredictorTransfer(kernel, gamma)
            assert row.tobytes() == compensator_on_points(pred, p, SaturatedSpectrum).tobytes()
            assert row_m1.tobytes() == compensator_minus_one_on_points(
                pred, p, SaturatedSpectrum).tobytes()


def test_compensator_value_does_not_depend_on_the_points_beside_it(conjugate_pair):
    # `vals * factor` let numpy reuse the factor from 16 384 points on and
    # multiply in the other order, so a point's V changed in the last bit
    # with the number of points evaluated with it.  K_hat is V * K with V a
    # row view, where `V * K` would reuse the temporary K in the same way.
    pred = PredictorTransfer(conjugate_pair, 5.0)
    w = np.linspace(-0.9, 0.9, 20000)
    for evaluate in (lambda w: compensator_on_points(pred, 1j * w, SaturatedSpectrum),
                     lambda w: predictor_transfer_on_grid(pred, w, SaturatedSpectrum)):
        alone = np.concatenate([evaluate(w[j : j + 100]) for j in range(0, len(w), 100)])
        assert evaluate(w).tobytes() == alone.tobytes()


def test_ladder_names_the_first_saturating_rung(conjugate_pair):
    # gamma = 800 and 1600 both saturate at omega = 2.5 and 3.0; the first of
    # them in ladder order, at its first saturating point, is named.
    p = 1j * np.array([0.3, 2.5, 3.0])
    for evaluate in (predictor._compensator, predictor._compensator_minus_one):
        assert evaluate(conjugate_pair, [2, 5], p, ClassMismatch).shape == (2, 3)
        with pytest.raises(ClassMismatch,
                           match=r"^omega = 2\.5 saturates the predictor for gamma = 800 "):
            evaluate(conjugate_pair, [2, 5, 800, 1600], p, ClassMismatch)


def test_deviation_norm_sup_at_band_interior_edge(single_pole):
    # For b = 0 the deviation is monotone in |w| in-band, so the sup over
    # [-0.9, 0.9] sits at the endpoints.
    pred = PredictorTransfer(single_pole, 20.0)
    sup = deviation_norm(pred, 0.1)
    vm1 = compensator_minus_one_on_points(pred, 1j * np.array([0.9]), SaturatedSpectrum)
    edge = abs(vm1[0]) * abs(eval_transfer(single_pole, 0.9))
    assert sup == pytest.approx(edge, rel=1e-12)


def test_deviation_norm_linearity(single_pole):
    doubled = build_kernel([(1.0, 0.0, 1)], [2.0], 1.0)
    d1 = deviation_norm(PredictorTransfer(single_pole, 5.0), 0.0)
    d2 = deviation_norm(PredictorTransfer(doubled, 5.0), 0.0)
    assert d2 == pytest.approx(2 * d1, rel=1e-13)


def test_deviation_norm_bounded_by_twice_sup_transfer(single_pole):
    pred = PredictorTransfer(single_pole, 5.0)
    sup_dev = deviation_norm(pred, 0.0)
    w = np.linspace(-1, 1, 4001)
    assert sup_dev <= 2 * np.max(np.abs(transfer_on_grid(single_pole, w)))


def test_deviation_norm_high_domain(single_pole):
    pred = PredictorTransfer(single_pole, -10.0)
    sup = deviation_norm(pred, 0.1)
    # Deviation decays away from the band edge; the sup sits near w = 1.1.
    vm1 = compensator_minus_one_on_points(pred, 1j * np.array([1.1]), SaturatedSpectrum)
    near_edge = abs(vm1[0]) * abs(eval_transfer(single_pole, 1.1))
    assert sup == pytest.approx(near_edge, rel=1e-6)


def test_deviation_norm_truncation_guard():
    # |K(i w)| ~ 1e300 / w: the truncation search overflows w before |K|
    # falls to 1e-10.  1e200 p**2 / (p - 1)**3 is inf / inf = NaN from the
    # first search point on.  Neither HIGH domain can be truncated.
    cases = (([(1.0, 0.0, 2)], [1.0, 1e300]), ([(1.0, 0.0, 3)], [0.0, 0.0, 1e200]))
    for poles, numerator in cases:
        kernel = build_kernel(poles, numerator, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TruncationNotJustified, match="overflowed"):
                deviation_norm(PredictorTransfer(kernel, -10.0), 0.0)


def test_deviation_norm_equals_reference_on_own_domain():
    # The domain is the predictor's own class; the numbers are those of the
    # kind-taking reference, bit for bit, on every draw.
    rng = np.random.default_rng(0xD15)
    combos = list(itertools.product((2.0, -2.0, 20.0, -20.0), (0.0, 0.1), (0, 5)))
    for i in range(200):
        kernel = random_kernel(rng)
        gamma, eps, n_extra = combos[i % len(combos)]
        extra = tuple(rng.uniform(-3.0, 3.0, n_extra) * kernel.omega)
        pred = PredictorTransfer(kernel, gamma)
        expected = reference_deviation_norm(pred, pred.target_class, eps, extra)
        assert deviation_norm(pred, eps, extra) == expected, (i, gamma, eps, n_extra)


def test_deviation_norm_extra_points_join_the_sup_inside_the_domain_only(conjugate_pair):
    # At gamma = +-2 the deviation peaks between two domain nodes, so that
    # peak as an extra point raises the sup.  A point of the other class,
    # where the deviation is over ten times larger, stays out.
    for gamma, (lo, hi), off in ((2.0, (-0.9, 0.9), 1.5), (-2.0, (1.1, 6.0), 0.5)):
        pred = PredictorTransfer(conjugate_pair, gamma)
        base = deviation_norm(pred, 0.1)
        w = np.linspace(lo, hi, 400001)
        vals = _deviation_values(conjugate_pair, [gamma], w)[0]
        assert vals.max() > base
        joined = deviation_norm(pred, 0.1, [float(w[np.argmax(vals)]), off, -off])
        assert joined == pytest.approx(vals.max(), rel=1e-12)


def test_deviation_norm_is_the_sup_and_takes_extra_points_third(conjugate_pair):
    # The sup is the only norm: the third positional argument is the extra
    # points, and a call in the old (predictor, epsilon, mu) form fails loudly
    # instead of reading mu as extra points.
    pred = PredictorTransfer(conjugate_pair, 2.0)
    w = np.linspace(-0.9, 0.9, 400001)
    peak = float(w[np.argmax(_deviation_values(conjugate_pair, [2.0], w)[0])])
    assert deviation_norm(pred, 0.1, [peak]) == deviation_norm(pred, 0.1, extra_points=[peak])
    assert deviation_norm(pred, 0.1, [peak]) > deviation_norm(pred, 0.1)
    with pytest.raises(DomainError, match="extra point inf is not finite"):
        deviation_norm(pred, 0.1, math.inf)
    with pytest.raises(DomainError, match="1-D sequence"):
        deviation_norm(pred, 0.1, 2.0)
    assert list(inspect.signature(deviation_norm).parameters) == [
        "predictor", "epsilon", "extra_points"]


@pytest.mark.parametrize("gamma", [20.0, -20.0], ids=["low", "high"])
@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_deviation_norm_rejects_non_finite_extra_point(single_pole, monkeypatch, gamma, point):
    # A NaN fails both domain tests, so unchecked it drops out of the sup
    # (0.0911 at gamma = 20, 0.1006 at -20, as with no extra points); inf
    # would raise NonFiniteResult on HIGH and drop out of the LOW sup.
    def not_evaluated(*args):
        raise AssertionError("evaluated before the extra points were checked")

    monkeypatch.setattr(predictor, "_deviation_values", not_evaluated)
    monkeypatch.setattr(predictor, "_default_omega_max", not_evaluated)
    with pytest.raises(DomainError, match=f"extra point {point} is not finite"):
        deviation_norm(PredictorTransfer(single_pole, gamma), 0.1, [0.5, point])


@pytest.mark.parametrize("eps", [math.nan, -0.1, 1.0], ids=["nan", "negative", "omega"])
def test_deviation_norm_epsilon_outside_domain(single_pole, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for gamma in (5.0, -5.0):
            with pytest.raises(DomainError, match="epsilon"):
                deviation_norm(PredictorTransfer(single_pole, gamma), eps)


def test_deviation_norm_non_finite_values_raise():
    # |K(i w)| = 1e307 / |i w - 1e-3| overflows near w = 0.
    kernel = build_kernel([(1e-3, 0.0, 1)], [1e307], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteResult, match="not finite at omega"):
            deviation_norm(PredictorTransfer(kernel, 5.0), 0.0)
        # Finite values whose squares would overflow: the sup is finite.
        large = PredictorTransfer(build_kernel([(1.0, 0.0, 1)], [1e200], 1.0), 5.0)
        assert math.isfinite(deviation_norm(large, 0.0))


def test_pointwise_convergence_single_factor(single_pole):
    # |V - 1| = e^{gamma Re phi} falls strictly at every interior point along
    # a doubling ladder, for both target classes.
    ladder = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    w_in = np.linspace(-0.99, 0.99, 199)
    w_off = np.linspace(1.01, 3.0, 199)
    prev_in = prev_off = None
    for g in ladder:
        pred_in, pred_off = PredictorTransfer(single_pole, g), PredictorTransfer(single_pole, -g)
        cur_in = np.abs(compensator_minus_one_on_points(pred_in, 1j * w_in, SaturatedSpectrum))
        cur_off = np.abs(compensator_minus_one_on_points(pred_off, 1j * w_off, SaturatedSpectrum))
        if prev_in is not None:
            assert np.all(cur_in < prev_in)
            assert np.all(cur_off < prev_off)
        prev_in, prev_off = cur_in, cur_off


def test_uniform_convergence_with_recorded_gamma(single_pole, conjugate_pair):
    # sup over the eps-gapped band falls below 1e-6 at some recorded gamma.
    for kernel in (single_pole, conjugate_pair):
        eps = 0.1 * kernel.omega
        w = np.linspace(-(kernel.omega - eps), kernel.omega - eps, 10001)
        certified = None
        gamma = 1.0
        while gamma <= 512.0:
            pred = PredictorTransfer(kernel, gamma)
            vm1 = np.abs(compensator_minus_one_on_points(pred, 1j * w, SaturatedSpectrum))
            if vm1.max() < 1e-6:
                certified = gamma
                break
            gamma *= 2.0
        assert certified is not None and certified <= 256.0


def test_pair_kernel_converges_without_monotonicity(conjugate_pair):
    # Products are not pointwise monotone in gamma, but they do converge.
    w = np.linspace(-0.9, 0.9, 501)
    first = np.abs(compensator_minus_one_on_points(
        PredictorTransfer(conjugate_pair, 1.0), 1j * w, SaturatedSpectrum))
    last = np.abs(compensator_minus_one_on_points(
        PredictorTransfer(conjugate_pair, 256.0), 1j * w, SaturatedSpectrum))
    assert last.max() < 1e-6 < first.max()
    assert last.max() < first.max()


def test_saturation_carries_log_form(single_pole, pair_flat):
    pred = PredictorTransfer(single_pole, 2000.0)
    with pytest.raises(Saturated) as info:
        eval_compensator(pred, 1j * 50.0)
    exc = info.value
    expected_log = 2000.0 * mobius_real_part(1.0, 0.0, 1.0, 50.0)
    assert exc.log_magnitude == pytest.approx(expected_log, rel=1e-9)
    assert -math.pi <= exc.phase <= math.pi
    # Summed growth: the factor exponents are 621.3 and 91.6, so no single
    # factor passes 700 but their sum does.
    with pytest.raises(Saturated) as info:
        eval_compensator(PredictorTransfer(pair_flat, 1800.0), 1.1j)
    expected_log = 1800.0 * sum(mobius_real_part(a, b, 1.0, 1.1) for a, b, _m in pair_flat.poles)
    assert expected_log > 700.0
    assert info.value.log_magnitude == pytest.approx(expected_log, rel=1e-9)


def test_synthesize_fast_decay_kernel(triple_pole):
    pred = PredictorTransfer(triple_pole, 1.0)
    result = synthesize_time_predictor(pred, GridSpec(2**18, 256.0))
    assert result.spectrum_end_magnitude < 1e-8
    assert result.leakage < 1e-12


def test_synthesize_reference_leakage(single_pole):
    # Slow-decay reference: spectrum ends at ~0.14, leakage still <= 1e-3
    # (golden threshold from the first synthesis run: 6.757e-4).
    pred = PredictorTransfer(single_pole, 5.0)
    with pytest.raises(SpectrumNotDecayed):
        synthesize_time_predictor(pred, GridSpec(2**16, 200.0))
    result = synthesize_time_predictor(pred, GridSpec(2**16, 200.0), decay_tol=1.0)
    assert result.leakage <= 1e-3


@pytest.mark.parametrize("n, span", [(2**11, 400.0 / 3.0), (2**12, 100.0), (2**14, 64.0),
                                     (2**16, 200.0), (2**18, 1000.0 / 7.0), (2**20, 1024.0)])
def test_synthesis_leakage_is_the_first_half_of_the_grid(single_pole, triple_pole, n, span):
    # The leakage sums the first n/2 samples, not those with t < 0: on the
    # centered grid t_{n/2} is exactly 0.0, so both give the same bits.
    grid = GridSpec(n, span)
    for kernel, gamma in ((single_pole, 5.0), (triple_pole, 1.0)):
        result = synthesize_time_predictor(PredictorTransfer(kernel, gamma), grid, decay_tol=10.0)
        t, power = result.khat.times(), result.khat.values**2
        assert t[n // 2] == 0.0
        mask_form = float(np.sum(power[t < 0])) / float(np.sum(power))
        assert result.leakage > 0.0
        assert result.leakage.hex() == mask_form.hex()


# gamma * (w^2 - 1)/(w^2 + 1) for the single pole at gamma = 780: 688 at
# w = 4, 720 at w = 5, so w = 5 is the first point past 700 on every route.
_CONTRACT_GRID = GridSpec(16, 2.0 * math.pi)  # domega = 1: omega_j = j - 8


def _one_tone(omega: float) -> SampledSpectrum:
    values = np.zeros(_CONTRACT_GRID.n, dtype=complex)
    values[np.flatnonzero(_CONTRACT_GRID.omegas() == omega)] = 1.0
    return SampledSpectrum(_CONTRACT_GRID.omega0, _CONTRACT_GRID.domega, values)


_SATURATING_CALLS = {
    "V": (lambda k: compensator_on_points(
        PredictorTransfer(k, 780.0), 1j * np.array([0.5, 4.0, 5.0, 6.0]), ClassMismatch),
        ClassMismatch),
    "V-1": (lambda k: compensator_minus_one_on_points(
        PredictorTransfer(k, 780.0), 1j * np.array([0.5, 4.0, 5.0, 6.0]), SaturatedSpectrum),
        SaturatedSpectrum),
    "K_hat-grid": (lambda k: predictor_transfer_on_grid(
        PredictorTransfer(k, 780.0), np.array([0.5, 4.0, 5.0, 6.0]), SaturatedSpectrum),
        SaturatedSpectrum),
    "eval_predictor_transfer": (lambda k: eval_predictor_transfer(PredictorTransfer(k, 780.0), 5.0),
                                SaturatedSpectrum),
    "synthesis": (lambda k: synthesize_time_predictor(PredictorTransfer(k, 780.0), _CONTRACT_GRID),
                  SaturatedSpectrum),
    "spectral-ladder": (lambda k: list(spectral_predict_ladder(_one_tone(5.0), k, [1.0, 780.0])),
                        ClassMismatch),
    "mixed-ladder": (lambda k: mixed_predict_ladder(
        MixedSpectrum(((0.3, 1 + 0j), (5.0, 1j)), (), "LOW", 0.25, 1.0), k, [2.0, 780.0],
        np.linspace(-5.0, 5.0, 11)), ClassMismatch),
}


@pytest.mark.parametrize("call, error", _SATURATING_CALLS.values(), ids=_SATURATING_CALLS.keys())
def test_saturation_raises_the_callers_error_with_one_message(single_pole, call, error):
    # One compensator pass decides saturation for every evaluator and route;
    # V - 1 used to overflow silently there.
    message = "omega = 5 saturates the predictor for gamma = 780 (exponent sum > 700)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(single_pole)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_scalar_evaluators_refuse_non_finite_omega(single_pole, w):
    # Each used to return nan+nanj after three RuntimeWarnings.
    with pytest.raises(DomainError, match="omega must be finite"):
        eval_transfer(single_pole, w)
    with pytest.raises(DomainError, match="omega must be finite"):
        eval_predictor_transfer(PredictorTransfer(single_pole, 5.0), w)


def test_synthesize_saturates_for_huge_gamma(single_pole):
    with pytest.raises(SaturatedSpectrum):
        synthesize_time_predictor(PredictorTransfer(single_pole, 2000.0), GridSpec(2**14, 100.0))


def test_synthesis_peak_memory_is_about_three_half_spectra(triple_pole):
    # K_hat is built block by block into one half array, so the traced peak
    # is that array, the irfft's samples and their squares: 3.0 half spectra
    # of 16 * (n/2 + 1) bytes, against 6.56 when K_hat's temporaries spanned
    # the whole half grid.
    pred = PredictorTransfer(triple_pole, 1.0)
    grid = GridSpec(2**18, 256.0)
    synthesize_time_predictor(pred, grid)  # warm
    tracemalloc.start()
    try:
        synthesize_time_predictor(pred, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 16 * (grid.n // 2 + 1)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_synthesis_blocks_have_the_bits_of_one_evaluation(triple_pole, gamma):
    grid = GridSpec(2**18, 256.0)
    w = grid.domega * np.arange(grid.n // 2 + 1)
    assert len(w) > 4 * predictor._SYNTH_BLOCK
    pred = PredictorTransfer(triple_pole, gamma)
    khat_w = predictor_transfer_on_grid(pred, w, SaturatedSpectrum)
    ref = transforms.signal_from_spectrum(khat_w, 0.0, grid.domega)[0]
    assert np.array_equal(synthesize_time_predictor(pred, grid).khat.values, ref)


def test_synthesis_names_the_first_saturating_omega_past_the_first_block(single_pole):
    # gamma * (w^2 - 1)/(w^2 + 1) passes 700 at w = 1414, in the second block.
    grid = GridSpec(2**18, 256.0)
    pred = PredictorTransfer(single_pole, 700.0 * (1 + 1e-6))
    w = grid.domega * np.arange(grid.n // 2 + 1)
    first = int(np.argmax(pred.gamma * (w**2 - 1) / (w**2 + 1) > 700.0))
    assert predictor._SYNTH_BLOCK <= first < 2 * predictor._SYNTH_BLOCK
    message = f"omega = {w[first]:.6g} saturates the predictor for gamma = {pred.gamma:g}"
    with pytest.raises(SaturatedSpectrum, match=re.escape(message)):
        synthesize_time_predictor(pred, grid)


def test_synthesize_linearity(single_pole):
    doubled = build_kernel([(1.0, 0.0, 1)], [2.0], 1.0)
    r1 = synthesize_time_predictor(PredictorTransfer(single_pole, 5.0), GridSpec(2**14, 100.0), decay_tol=1.0)
    r2 = synthesize_time_predictor(PredictorTransfer(doubled, 5.0), GridSpec(2**14, 100.0), decay_tol=2.0)
    assert np.array_equal(r2.khat.values, 2 * r1.khat.values)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_synthesize_real_path_matches_full_grid_inverse(triple_pole, monkeypatch, gamma):
    # K_hat on omega >= 0 and irfft against K_hat on every grid point and a
    # complex inverse.
    pred = PredictorTransfer(triple_pole, gamma)
    grid = GridSpec(2**17, 128.0)
    result = synthesize_time_predictor(pred, grid)
    assert result.khat.values.dtype == np.float64
    full = predictor_transfer_on_grid(pred, grid.omegas(), SaturatedSpectrum)
    monkeypatch.setattr(transforms, "hermitian_half", lambda *args: None)
    ref, t0, dt = transforms.signal_from_spectrum(full, grid.omega0, grid.domega)
    assert ref.dtype == np.complex128
    assert (result.khat.t0, result.khat.dt) == (t0, dt)
    assert np.max(np.abs(result.khat.values - ref.real)) <= 1e-12 * np.max(np.abs(ref))
    # The complex inverse's imaginary part is the Nyquist bin's, (-1)^j *
    # Im K_hat(-pi/dt) * domega/2pi, which a real kernel's samples cannot carry.
    nyquist = abs(full[0].imag) * grid.domega / (2 * np.pi)
    assert np.max(np.abs(ref.imag)) <= nyquist + 1e-12 * np.max(np.abs(ref))
    end = max(abs(full[0]), abs(full[-1]))
    assert result.spectrum_end_magnitude == pytest.approx(end, rel=1e-12)


def test_hardy_boundary_lines(single_pole):
    pred = PredictorTransfer(single_pole, 5.0)
    report = hardy_boundary_check(pred, [0.5, 1.0, 2.0, 10.0, 100.0], omega_max=300.0, h=0.05)
    assert report.all_finite
    assert report.sup_nonincreasing
    # Far from the axis the factor approaches 1 - e^gamma.
    far = report.lines[-1]
    assert far.sup_v == pytest.approx(abs(1 - math.exp(5)), rel=0.2)
    # K_hat line norms stay finite and shrink with s (H2-style behavior).
    l2s = [ln.l2_khat for ln in report.lines]
    assert all(b < a for a, b in zip(l2s, l2s[1:]))


def test_hardy_boundary_negative_gamma(single_pole):
    report = hardy_boundary_check(
        PredictorTransfer(single_pole, -5.0), [1.0, 2.0], omega_max=300.0, h=0.05
    )
    assert report.all_finite


def test_hardy_khat_near_triple_pole_matches_mpmath(triple_pole):
    # K_hat = (1 - e^z)^3 / (p - 1)^3 with z = gamma (p - 1)/(p + alpha), off the
    # axis and close to the pole, where V and delta both vanish to third order.
    mpmath = pytest.importorskip("mpmath")
    for gamma in (5.0, 50.0):
        pred = PredictorTransfer(triple_pole, gamma)
        alpha = pred.alphas[0]
        for r in (1e-2, 1e-3, 1e-4, 1e-5):
            p = 1.0 + r * np.exp(1j * np.linspace(0.3, 6.0, 7))
            khat = _khat_on_points(pred, p)
            with mpmath.workdps(50):
                for pk, kk in zip(p.tolist(), khat.tolist()):
                    pm = mpmath.mpc(pk.real, pk.imag)
                    ref = complex(((1 - mpmath.exp(gamma * (pm - 1) / (pm + alpha))) / (pm - 1)) ** 3)
                    assert abs(kk - ref) <= 1e-13 * abs(ref)
        # At the pole itself: the limit (-gamma / (1 + alpha))^3.
        limit = (-gamma / (1.0 + alpha)) ** 3
        assert abs(complex(_khat_on_points(pred, np.array([1.0 + 0j]))[0]) - limit) <= 1e-15 * abs(limit)
