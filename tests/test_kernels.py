"""Kernel construction, frequency/time evaluation, residues, and norms."""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from bandcast import (
    build_kernel,
    eval_time_kernel,
    eval_transfer,
    kernel_to_json,
    partial_fraction_expand,
)
from bandcast.errors import (
    DegreeViolation,
    NonConjugateSymmetric,
    NumericalDegeneracy,
    PoleOutOfRegion,
)
from bandcast.kernels import (
    _reconstruction_points,
    scalar_time_kernel,
    transfer_on_grid,
)
from helpers import (
    kernel_from_json,
    kernel_l2_norm,
    random_kernel,
    random_oracle_kernel,
    reference_reconstruction_points,
)


def test_build_single_pole(single_pole):
    assert single_pole.denominator_degree == 1
    assert single_pole.numerator_degree == 0
    assert single_pole.pole_values == (1.0 + 0.0j,)


def test_build_rejects_pole_outside_band():
    with pytest.raises(PoleOutOfRegion):
        build_kernel([(1.0, 2.0, 1)], [1.0], 1.0)
    with pytest.raises(PoleOutOfRegion):
        build_kernel([(-0.5, 0.0, 1)], [1.0], 1.0)
    with pytest.raises(PoleOutOfRegion):
        build_kernel([(0.0, 0.0, 1)], [1.0], 1.0)


@pytest.mark.parametrize(
    "entry",
    [(1.0, 0.0, 1.5), (1.0, 0.0, True), (1.0, 0.0, "a"), ("a", 0.0, 1), (1.0, None, 1),
     (True, 0.0, 1), (1.0, 0.0), (1.0, 0.0, 1, 0), 1.0],
    ids=["fractional-mult", "bool-mult", "str-mult", "str-a", "none-b", "bool-a", "pair",
         "quadruple", "scalar"],
)
def test_build_refuses_malformed_pole_entries(entry):
    # int(1.5) used to build a multiplicity-1 kernel, and "a" raised the
    # builtin ValueError.
    with pytest.raises(PoleOutOfRegion):
        build_kernel([entry], [1.0], 1.0)


def test_build_takes_numpy_scalars():
    kernel = build_kernel([(np.float64(1.0), np.float32(0.0), np.int64(2))], [1.0], 1.0)
    assert kernel.poles == ((1.0, 0.0, 2),)
    assert [type(v) for v in kernel.poles[0]] == [float, float, int]


def test_build_rejects_degree_violation():
    with pytest.raises(DegreeViolation):
        build_kernel([(1.0, 0.0, 1)], [1.0, 1.0], 1.0)
    with pytest.raises(DegreeViolation):
        build_kernel([(1.0, 0.0, 1)], [0.0], 1.0)


def test_build_rejects_unpaired_complex_pole():
    with pytest.raises(NonConjugateSymmetric):
        build_kernel([(0.5, 0.8, 1)], [1.0], 1.0)


def test_build_rejects_coincident_entries():
    with pytest.raises(NumericalDegeneracy):
        build_kernel([(1.0, 0.0, 1), (1.0 + 1e-13, 0.0, 1)], [1.0], 1.0)


def test_build_conjugate_pair(conjugate_pair):
    # numerator [0, 1] is d(p) = p, degree 1 < 2
    assert conjugate_pair.numerator_degree == 1
    assert conjugate_pair.denominator_degree == 2


def test_transfer_single_pole_values(single_pole):
    assert eval_transfer(single_pole, 0.0) == pytest.approx(-1.0)
    assert eval_transfer(single_pole, 1.0) == pytest.approx((-1 - 1j) / 2)


def test_transfer_conjugate_symmetry(conjugate_pair):
    w0 = 0.3
    assert eval_transfer(conjugate_pair, -w0) == pytest.approx(
        np.conj(eval_transfer(conjugate_pair, w0)), abs=1e-15
    )
    rng = np.random.default_rng(11)
    for _ in range(6):
        k = random_kernel(rng)
        w = rng.uniform(-5, 5, size=32)
        vals = transfer_on_grid(k, w)
        mirror = transfer_on_grid(k, -w)
        assert np.max(np.abs(mirror - np.conj(vals))) <= 1e-14 * np.max(np.abs(vals))


def test_partial_fractions_single_pole(single_pole):
    terms = partial_fraction_expand(single_pole).terms
    assert terms == ((1.0 + 0.0j, 1, 1.0 + 0.0j),)


def test_partial_fractions_conjugate_pair(conjugate_pair):
    # Residue of p/((p-l)(p-lbar)) at l is l/(l - lbar); l = 0.5 - 0.8i.
    terms = dict(
        ((pole, order), coeff) for pole, order, coeff in partial_fraction_expand(conjugate_pair).terms
    )
    lam = 0.5 - 0.8j
    expected = lam / (lam - np.conj(lam))
    assert terms[(lam, 1)] == pytest.approx(expected, abs=1e-14)
    assert terms[(np.conj(lam), 1)] == pytest.approx(np.conj(expected), abs=1e-14)
    assert expected == pytest.approx(0.5 + 0.3125j)


def test_partial_fractions_double_pole(double_pole):
    terms = partial_fraction_expand(double_pole).terms
    assert terms == ((1.0 + 0.0j, 2, 1.0 + 0.0j),)


def test_partial_fraction_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = random_kernel(rng, max_groups=3)
        expansion = partial_fraction_expand(k)
        pts = rng.uniform(-4, 4, size=32) + 1j * rng.uniform(-4, 4, size=32)
        pts = pts[np.abs(pts[:, None] - np.array(k.pole_values)[None, :]).min(axis=1) > 0.3]
        direct = transfer_on_grid(k, np.zeros(0))  # placeholder for dtype
        direct = np.array([complex(sum(c / (p - q) ** o for q, o, c in expansion.terms)) for p in pts])
        from bandcast.kernels import _denominator_at, _numerator_at

        exact = _numerator_at(k, pts) / _denominator_at(k, pts)
        rel = np.abs(direct - exact) / np.maximum(np.abs(exact), 1e-300)
        assert rel.max() <= 1e-10


def test_time_kernel_single_pole(single_pole):
    assert eval_time_kernel(single_pole, -1.0) == pytest.approx(-math.exp(-1), rel=1e-12)
    assert eval_time_kernel(single_pole, 0.5) == 0.0
    assert eval_time_kernel(single_pole, 0.0) == pytest.approx(-1.0)


def test_time_kernel_anticausal_exactly_zero():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = random_kernel(rng)
        assert all(eval_time_kernel(k, t) == 0.0 for t in np.linspace(1e-9, 10, 50))
    # t > 0 needs no expansion, so a kernel whose expansion fails still gives 0.
    degenerate = build_kernel([(2.0, 0.0, 3), (2.01, 0.0, 3)], [1.0], 1.0)
    with pytest.raises(NumericalDegeneracy):
        eval_time_kernel(degenerate, -1.0)
    assert all(eval_time_kernel(degenerate, t) == 0.0 for t in np.linspace(1e-9, 10, 50))


def _random_repeated_pole_kernel(rng):
    """Admissible kernel with real poles and conjugate pairs, multiplicity 1-3."""
    omega = float(rng.uniform(0.5, 2.0))
    poles = []
    for _ in range(int(rng.integers(1, 3))):
        a, mult = float(rng.uniform(0.3, 2.5)), int(rng.integers(1, 4))
        if rng.random() < 0.5:
            poles.append((a, 0.0, mult))
        else:
            b = float(rng.uniform(0.1, 0.85) * omega)
            poles += [(a, b, mult), (a, -b, mult)]
    degree = sum(m for (_a, _b, m) in poles)
    coeffs = [float(rng.uniform(-2, 2)) for _ in range(int(rng.integers(0, degree)) + 1)]
    return build_kernel(poles, coeffs, omega)


def test_scalar_time_kernel_matches_unfolded_expansion():
    # Reference: the unfolded sum -Re sum coeff t**(order-1)/(order-1)! e^{pole t}
    # over every residue term, conjugate mates included.  Both sides sum the
    # same terms, so they agree to roundoff of the terms' magnitude sum:
    # max|k| unless the residues cancel (up to 8e4 x max|k| over these draws).
    rng = np.random.default_rng(0x5CA1)
    t = np.concatenate((np.linspace(-60.0, 0.0, 121), rng.uniform(-60.0, 0.0, 40)))
    checked = multiple = 0
    while checked < 100:
        k = _random_repeated_pole_kernel(rng)
        try:
            terms = partial_fraction_expand(k).terms
        except NumericalDegeneracy:
            continue
        checked += 1
        multiple += any(order > 1 for _p, order, _c in terms)
        parts = [
            coeff / math.factorial(order - 1) * t ** (order - 1) * np.exp(pole * t)
            for pole, order, coeff in terms
        ]
        reference = -np.sum(parts, axis=0).real
        scale = np.max(np.sum(np.abs(parts), axis=0))
        k_scalar = scalar_time_kernel(k)
        scalar = np.array([k_scalar(v) for v in t.tolist()])
        assert np.max(np.abs(scalar - reference)) <= 1e-13 * scale
        assert np.array_equal([eval_time_kernel(k, v) for v in t], scalar)
        for v in (5e-324, 1e-9, 0.5, 60.0):
            assert k_scalar(v) == 0.0 and eval_time_kernel(k, v) == 0.0
    assert multiple > 0


def test_time_kernel_matches_transform_oracle(conjugate_pair):
    # Independent route: numerically invert K on a wide fine grid after
    # subtracting 1/(p+1), which shares the 1/p tail but is causal (vanishes
    # at negative times) and is analytic on the axis.
    t_test = -2.0
    w = np.linspace(-2000.0, 2000.0, 2**21 + 1)
    p = 1j * w
    resid = p / ((p - 0.5) ** 2 + 0.64) - 1.0 / (p + 1.0)
    oracle = np.trapezoid(resid * np.exp(1j * w * t_test), w) / (2 * np.pi)
    assert abs(oracle.imag) < 1e-9
    assert eval_time_kernel(conjugate_pair, t_test) == pytest.approx(oracle.real, abs=1e-6)


def test_transform_consistency_quadrature():
    # Integrating e^{-i w t} k(t) over enough past reproduces the transfer.
    rng = np.random.default_rng(5)
    checks = 0
    while checks < 32:
        k = random_kernel(rng)
        upper = math.log(1e10) / k.min_pole_rate
        for w in rng.uniform(-2 * k.omega, 2 * k.omega, size=4):
            re, _ = quad(lambda t: eval_time_kernel(k, t) * math.cos(w * t), -upper, 0, limit=200)
            im, _ = quad(lambda t: -eval_time_kernel(k, t) * math.sin(w * t), -upper, 0, limit=200)
            assert complex(re, im) == pytest.approx(eval_transfer(k, w), abs=1e-6)
            checks += 1


def test_l2_norm_single_pole(single_pole):
    assert kernel_l2_norm(single_pole) == pytest.approx(math.sqrt(0.5), rel=1e-8)


def test_l2_norm_scaling(single_pole):
    doubled = build_kernel([(1.0, 0.0, 1)], [2.0], 1.0)
    assert kernel_l2_norm(doubled) == pytest.approx(2 * kernel_l2_norm(single_pole), rel=1e-12)


def test_l2_norm_time_domain_oracle(conjugate_pair):
    val, err = quad(lambda t: eval_time_kernel(conjugate_pair, t) ** 2, -80.0, 0.0, limit=400)
    assert err < 1e-8
    assert kernel_l2_norm(conjugate_pair) == pytest.approx(math.sqrt(val), rel=1e-6)


def test_json_roundtrip(conjugate_pair, single_pole):
    for k in (conjugate_pair, single_pole):
        assert kernel_from_json(json.loads(kernel_to_json(k))) == k
    doc = kernel_to_json(conjugate_pair)
    assert '"paired": true' in doc
    # Explicitly listed conjugate mates parse too.
    explicit = '{"omega": 1.0, "poles": [[0.5, 0.8, 1], [0.5, -0.8, 1]], "numerator": [0.0, 1.0]}'
    assert kernel_from_json(json.loads(explicit)) == conjugate_pair


def test_reconstruction_points_equal_scalar_draws():
    # The probe points are drawn in chunks; they must be the points of one
    # scalar draw per coordinate, bit for bit, or the partial-fraction check
    # (and with it which kernels a seeded pool keeps) could change.
    rng = np.random.default_rng(0xC7)
    for _ in range(3000):
        kernel = random_oracle_kernel(rng)
        got = _reconstruction_points(kernel)
        assert got.shape == (64,)
        assert np.array_equal(got, reference_reconstruction_points(kernel))
