"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Golden
values were frozen from the first oracle runs of the deterministic pipeline
(tolerance 1e-9 unless stated otherwise).

Criterion 2 checks the magnitude bound the compensator actually has on its
matching domain, |V(i w)| <= 2**deg(delta), and not |V| <= 1.  There the
exponent's real part is nonpositive, which pins |V_m - 1| <= 1 per factor, so
|V_m| lies anywhere in [0, 2]: at the band edge the exponent is purely
imaginary and |V_m| = 2|sin(Im z / 2)|, which exceeds 1 (2|sin 2.5| = 1.197
for K = 1/(p - 1) at gamma = 5).  The test keeps that counterexample to
|V| <= 1 as a measured fact.
"""

import math
import time

import numpy as np
import pytest

from bandcast import (
    DeviationGrid,
    FrequencyDomain,
    PredictorTransfer,
    SampledSignal,
    alpha_coefficient,
    anticausal_convolve_oracle,
    causal_convolve,
    deviation_norm,
    eval_predictor_transfer,
    eval_transfer,
    mobius_real_part,
    spectral_predict,
    synthesize_time_predictor,
)
from bandcast.grids import GridSpec
from bandcast.harness import (
    cli_main,
    config_from_dict,
    run_decomposition_demo,
    run_robustness_probe,
    run_uniform_bound_check,
)
from bandcast.kernels import transfer_on_grid
from bandcast.predictor import compensator_minus_one_on_points, compensator_on_points
from helpers import hermitian_random_band_spectrum, random_kernel, random_mixed_signal


def _report(criterion: int, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


# -- 1 -----------------------------------------------------------------------


def test_c01_real_part_identity():
    """The closed-form real part of the compensating quotient matches direct
    complex arithmetic to 1e-12 on 1000 random admissible tuples."""
    start = time.perf_counter()
    rng = np.random.default_rng(0xC1)
    worst = 0.0
    for _ in range(1000):
        om = rng.uniform(0.5, 2.0)
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(-0.7, 0.7) * om
        w = rng.uniform(-2.0, 2.0) * om
        alpha = alpha_coefficient(a, b, om)
        direct = ((1j * w - a + 1j * b) / (1j * w + alpha - 1j * b)).real
        worst = max(worst, abs(mobius_real_part(a, b, om, w) - direct))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    line = _report(1, ok, f"max |identity - direct| = {worst:.3e}, {elapsed:.2f}s")
    assert ok, line


# -- 2 -----------------------------------------------------------------------


def test_c02_compensator_magnitude_bound_on_target_band(single_pole):
    """On the matching domain each factor obeys |V_m - 1| <= 1, hence
    |V(i w)| <= 2**deg(delta) (relative tolerance 1e-12) with no point flagged
    as saturated, for 50 random kernels x gamma in {0.5, 5, 50} (in-band) and
    the negatives (off-band).  |V| <= 1 does not hold there: for the single
    pole at gamma = 5, |V(+-i)| = 2|sin 2.5| = 1.197 to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(0xC2)
    worst = 0.0
    where = ""
    saturated = []
    for i in range(50):
        kernel = random_kernel(rng)
        om = kernel.omega
        cap = 2.0**kernel.denominator_degree
        w_in = np.linspace(-om, om, 10000)
        w_off = np.concatenate(
            [np.linspace(-10 * om, -om, 5000), np.linspace(om, 10 * om, 5000)]
        )
        for g in (0.5, 5.0, 50.0):
            for gamma, w_arr in ((g, w_in), (-g, w_off)):
                vals, sat = compensator_on_points(PredictorTransfer(kernel, gamma), 1j * w_arr)
                if sat.any():
                    saturated.append(f"kernel #{i} gamma={gamma:g}")
                ratios = np.abs(vals) / cap
                j = int(np.argmax(ratios))
                if ratios[j] > worst:
                    worst = float(ratios[j])
                    where = (
                        f"kernel #{i} deg delta={kernel.denominator_degree} "
                        f"gamma={gamma:g} omega_val={w_arr[j]:.4f}"
                    )
    edge, edge_sat = compensator_on_points(
        PredictorTransfer(single_pole, 5.0), np.array([1j, -1j])
    )
    edge_gap = float(np.max(np.abs(np.abs(edge) - 2.0 * abs(math.sin(2.5)))))
    elapsed = time.perf_counter() - start
    ok = (
        not saturated
        and worst <= 1.0 + 1e-12
        and not edge_sat.any()
        and edge_gap <= 1e-12
        and elapsed < 30.0
    )
    line = _report(
        2,
        ok,
        f"max |V|/2^deg(delta) = {worst:.6f} at {where}; saturated: {saturated or 'none'}; "
        f"single pole gamma=5 |V(+-i)| = {abs(edge[0]):.6f} "
        f"(2|sin 2.5| to {edge_gap:.1e}), {elapsed:.1f}s",
    )
    assert ok, line


# -- 3 -----------------------------------------------------------------------


def test_c03_pointwise_and_uniform_compensator_convergence(single_pole, conjugate_pair):
    """|V - 1| falls strictly along the doubling ladder at every interior grid
    point (single-factor compensator, both signs), and the sup over the
    0.1-omega-gapped domain drops below 1e-6 at some recorded gamma."""
    start = time.perf_counter()
    ladder = [2.0**k for k in range(0, 9)]  # 1 .. 256

    w_in = np.linspace(-0.99, 0.99, 999)
    w_off = np.linspace(1.01, 5.0, 999)
    pointwise_ok = True
    prev_in = prev_off = None
    for g in ladder:
        cur_in = np.abs(
            compensator_minus_one_on_points(PredictorTransfer(single_pole, g), 1j * w_in)
        )
        cur_off = np.abs(
            compensator_minus_one_on_points(PredictorTransfer(single_pole, -g), 1j * w_off)
        )
        if prev_in is not None:
            pointwise_ok &= bool(np.all(cur_in < prev_in) and np.all(cur_off < prev_off))
        prev_in, prev_off = cur_in, cur_off

    recorded = {}
    for name, kernel in (("single", single_pole), ("pair", conjugate_pair)):
        eps = 0.1 * kernel.omega
        wd = np.linspace(-(kernel.omega - eps), kernel.omega - eps, 10000)
        for g in ladder + [512.0]:
            sup = float(
                np.max(
                    np.abs(
                        compensator_minus_one_on_points(PredictorTransfer(kernel, g), 1j * wd)
                    )
                )
            )
            if sup < 1e-6:
                recorded[name] = g
                break
    elapsed = time.perf_counter() - start
    uniform_ok = recorded.get("single") == 256.0 and recorded.get("pair") == 256.0
    ok = pointwise_ok and uniform_ok and elapsed < 30.0
    line = _report(
        3,
        ok,
        f"pointwise strict decrease: {pointwise_ok}; certifying gamma {recorded}, {elapsed:.1f}s",
    )
    assert ok, line


# -- 4 -----------------------------------------------------------------------

# First-run golden ratios err_l2(gamma_last) / err_l2(gamma_first).
GOLDEN_RATIO_LOW = 4.374683557833446e-06
GOLDEN_RATIO_HIGH = 3.2589180626126695e-05


def test_c04_l2_error_convergence(single_pole, pipeline_grid):
    """err_l2 falls strictly along {2,5,10,20,50} for the reference kernel on
    a raised-cosine band-limited signal, with the frozen final/initial ratio;
    mirrored for a high-frequency signal with negative gamma."""
    from bandcast import make_bandlimited_signal, make_highfreq_signal

    start = time.perf_counter()
    x_low = make_bandlimited_signal("raised_cosine", (-0.9, 0.9), pipeline_grid, 1.0)
    x_high = make_highfreq_signal(
        "raised_cosine", (1.1, 2.0), pipeline_grid, 1.0, hermitian=True
    )
    results = {}
    for name, X, sign, golden in (
        ("low", x_low, +1, GOLDEN_RATIO_LOW),
        ("high", x_high, -1, GOLDEN_RATIO_HIGH),
    ):
        errs = [spectral_predict(X, single_pole, sign * g).err_l2 for g in (2, 5, 10, 20, 50)]
        monotone = all(b < a for a, b in zip(errs, errs[1:]))
        ratio = errs[-1] / errs[0]
        results[name] = (monotone, ratio, ratio <= golden * (1 + 1e-9))
    elapsed = time.perf_counter() - start
    ok = all(m and r for m, _x, r in results.values()) and elapsed < 60.0
    line = _report(
        4,
        ok,
        "ratios low {:.3e} (golden {:.3e}), high {:.3e} (golden {:.3e}), {:.1f}s".format(
            results["low"][1], GOLDEN_RATIO_LOW, results["high"][1], GOLDEN_RATIO_HIGH, elapsed
        ),
    )
    assert ok, line


# -- 5 -----------------------------------------------------------------------


def test_c05_holder_error_chain(single_pole, pipeline_grid):
    """||(Khat - K) X||_2 <= ||Khat - K||_mu ||X||_q (1 + 1e-9) with
    1/mu + 1/q = 1/2, for q in {4, 8} on 10 random band-limited signals."""
    rng = np.random.default_rng(0xC5)
    w = pipeline_grid.omegas()
    D = np.abs(w) <= 1.0
    wd = w[D]
    checked = 0
    ok = True
    for q in (4.0, 8.0):
        mu = 1.0 / (0.5 - 1.0 / q)
        for _ in range(10):
            X = hermitian_random_band_spectrum(rng, pipeline_grid, (-0.9, 0.9))
            x_abs = np.abs(X.values[D])
            for gamma in (5.0, 20.0):
                pred = PredictorTransfer(single_pole, gamma)
                dev_vals = np.abs(
                    compensator_minus_one_on_points(pred, 1j * wd)
                ) * np.abs(transfer_on_grid(single_pole, wd))
                lhs = math.sqrt(float(np.trapezoid((dev_vals * x_abs) ** 2, wd)))
                dev_mu = deviation_norm(
                    pred, FrequencyDomain("LOW", 0.0), mu, DeviationGrid(nodes=tuple(wd))
                )
                xq = float(np.trapezoid(x_abs**q, wd)) ** (1.0 / q)
                ok &= lhs <= dev_mu * xq * (1 + 1e-9)
                checked += 1
    line = _report(5, ok, f"{checked} inequality checks (q in {{4, 8}})")
    assert ok, line


# -- 6 -----------------------------------------------------------------------


def test_c06_uniform_bound_mixed_spectra(conjugate_pair):
    """Sup-norm errors of 10 random LOW and 10 random HIGH mixed signals stay
    within the uniform bound at every ladder gamma; single-atom signals pin
    the measured error to the atom's own share of the deviation."""
    start = time.perf_counter()
    rng = np.random.default_rng(0xC6)
    rows_checked = 0
    for class_tag, ladder in (("LOW", [2, 5, 10, 20, 50]), ("HIGH", [-2, -5, -10, -20, -50])):
        signals = []
        for i in range(10):
            ms = random_mixed_signal(
                rng, class_tag, omega=1.0, epsilon=0.25, single_atom=(i < 2)
            )
            from bandcast.signals import mixed_to_json_dict

            doc = mixed_to_json_dict(ms)
            doc.update({"id": f"{class_tag.lower()}{i}", "kind": "mixed"})
            signals.append(doc)
        cfg = config_from_dict(
            {
                "kernel": {
                    "omega": 1.0,
                    "poles": [{"a": 0.5, "b": 0.8, "mult": 1, "paired": True}],
                    "numerator": [0.0, 1.0],
                },
                "gamma_ladder": ladder,
                "epsilon": 0.25,
                "domain": class_tag,
                "grid": {"n": 2048, "span": 400.0},
                "seed": 1,
                "signals": signals,
            }
        )
        report = run_uniform_bound_check(cfg)  # raises BoundViolation on failure
        assert all(r.bound_ok for r in report.rows)
        rows_checked += len(report.rows)
    elapsed = time.perf_counter() - start
    ok = rows_checked == 100
    line = _report(6, ok, f"{rows_checked} bound rows, tightness pinned on single atoms, {elapsed:.1f}s")
    assert ok, line


# -- 7 -----------------------------------------------------------------------


def test_c07_pure_tone_consistency(single_pole, triple_pole):
    """Anticausal oracle reproduces K(i w0) times the tone to 1e-6; causal
    convolution with the synthesized kernel reproduces Khat(i w0) times the
    tone to 1e-5."""
    start = time.perf_counter()
    t = np.linspace(-3, 3, 7)
    worst_oracle = 0.0
    for w0 in (0.0, 0.7):
        y = anticausal_convolve_oracle(
            single_pole, lambda s, w0=w0: np.exp(1j * w0 * s), t, tol=1e-9
        )
        ref = eval_transfer(single_pole, w0) * np.exp(1j * w0 * t)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(y.values - ref))))

    pred = PredictorTransfer(triple_pole, 1.0)
    grid = GridSpec(2**18, 256.0)
    synth = synthesize_time_predictor(pred, grid)
    w0 = 20 * grid.domega
    tg = grid.times()
    x = SampledSignal(grid.t0, grid.dt, np.exp(1j * w0 * tg))
    horizon = 40.0
    yhat = causal_convolve(synth.khat, x, horizon)
    ref = eval_predictor_transfer(pred, w0) * np.exp(1j * w0 * tg)
    settled = tg > grid.t0 + horizon + 5.0
    causal_err = float(
        np.max(np.abs(yhat.values[settled] - ref[settled]))
        / abs(eval_predictor_transfer(pred, w0))
    )
    elapsed = time.perf_counter() - start
    ok = worst_oracle <= 1e-6 and causal_err <= 1e-5
    line = _report(
        7, ok, f"oracle err {worst_oracle:.2e} (<=1e-6), causal err {causal_err:.2e} (<=1e-5), {elapsed:.1f}s"
    )
    assert ok, line


# -- 8 -----------------------------------------------------------------------


def test_c08_split_predict_recombine():
    """Split-predict-sum equals the combined pass to 1e-12, and the combined
    error falls along the paired ladder on a mixed-support signal."""
    cfg = config_from_dict(
        {
            "kernel": {"omega": 1.0, "poles": [{"a": 1.0, "b": 0.0, "mult": 1}], "numerator": [1.0]},
            "gamma_ladder": [2, 5, 10, 20, 50],
            "epsilon": 0.1,
            "domain": "LOW",
            "grid": {"n": 2048, "span": 400.0},
            "seed": 7,
            "signals": [
                {
                    "id": "mix",
                    "kind": "composite",
                    "parts": [
                        {"envelope": "raised_cosine", "support": [-0.9, 0.9], "hermitian": True},
                        {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": True},
                    ],
                }
            ],
        }
    )
    report = run_decomposition_demo(cfg)  # raises on any 1e-12 / triangle failure
    errs = [r.err_l2 for r in report.rows]
    ok = all(b < a for a, b in zip(errs, errs[1:])) and all(r.monotone_ok for r in report.rows)
    line = _report(8, ok, f"combined ladder {errs[0]:.2e} -> {errs[-1]:.2e}")
    assert ok, line


# -- 9 -----------------------------------------------------------------------

# Golden values frozen from the first robustness run (seed 7).
GOLDEN_GAMMA_STAR = 5.0
GOLDEN_MIN_ERR = 0.012884098032579746
GOLDEN_GROWTH_FACTOR = 72561988.86582671


def test_c09_out_of_band_noise_nonrobustness():
    """With out-of-band energy fraction 1e-3 the error curve is U-shaped: an
    interior minimum at the recorded gamma, then growth by the frozen factor."""
    cfg = config_from_dict(
        {
            "kernel": {"omega": 1.0, "poles": [{"a": 1.0, "b": 0.0, "mult": 1}], "numerator": [1.0]},
            "gamma_ladder": [2, 5, 10, 20, 50, 100, 200],
            "epsilon": 0.1,
            "domain": "LOW",
            "grid": {"n": 2048, "span": 400.0},
            "seed": 7,
            "signals": [
                {
                    "id": "rc",
                    "kind": "bandlimited",
                    "envelope": "raised_cosine",
                    "support": [-0.9, 0.9],
                    "hermitian": True,
                }
            ],
            "noise": {"eta": 1e-3, "support": [1.05, 1.1]},
        }
    )
    info = run_robustness_probe(cfg).summary["rc"]
    interior = info["gamma_star"] not in (2.0, 200.0)
    ok = (
        info["growth_detected"]
        and interior
        and info["gamma_star"] == GOLDEN_GAMMA_STAR
        and info["min_err_l2"] == pytest.approx(GOLDEN_MIN_ERR, rel=1e-9)
        and info["growth_factor"] == pytest.approx(GOLDEN_GROWTH_FACTOR, rel=1e-6)
    )
    line = _report(
        9,
        ok,
        f"gamma* = {info['gamma_star']:g}, growth x{info['growth_factor']:.3e} (U-shape)",
    )
    assert ok, line


# -- 10 ----------------------------------------------------------------------


def test_c10_deterministic_outputs(tmp_path, monkeypatch):
    """Identical config + seed reproduce the CSV byte for byte."""
    import pathlib

    monkeypatch.chdir(tmp_path)
    config_path = pathlib.Path(__file__).parent / "golden" / "sweep_config.json"
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    (tmp_path / "sweep.csv").unlink()
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    second = (tmp_path / "sweep.csv").read_bytes()
    ok = first == second
    line = _report(10, ok, f"{len(first)} CSV bytes reproduced bit-identically")
    assert ok, line
