"""Config validation, experiment operations, CLI behavior, golden output."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bandcast import harness, signals, transforms
from bandcast.errors import ClassMismatch, ConfigError, QuadratureNotConverged
from bandcast.harness import (
    cli_main,
    config_from_dict,
    run_convergence_sweep,
    run_decomposition_demo,
    run_robustness_probe,
    run_uniform_bound_check,
)

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


def base_config(**overrides):
    doc = {
        "kernel": {"omega": 1.0, "poles": [{"a": 1.0, "b": 0.0, "mult": 1}], "numerator": [1.0]},
        "gamma_ladder": [2, 5, 10, 20, 50],
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
    }
    doc.update(overrides)
    return doc


def test_config_rejects_bad_ladders():
    for ladder in ([], [0.0, 1.0], [2, -5], [5, 2], [2, 2]):
        with pytest.raises(ConfigError):
            config_from_dict(base_config(gamma_ladder=ladder))


def test_config_rejects_domain_sign_mismatch():
    with pytest.raises(ConfigError):
        config_from_dict(base_config(domain="HIGH"))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(gamma_ladder=[-2, -5], domain="LOW"))


def test_config_rejects_unknown_signal_kind():
    with pytest.raises(ConfigError):
        config_from_dict(base_config(signals=[{"id": "x", "kind": "chirp"}]))
    with pytest.raises(ConfigError):
        config_from_dict(base_config(signals=[{"kind": "bandlimited", "support": [-0.5, 0.5]}]))


def test_config_rejects_in_band_noise():
    with pytest.raises(ConfigError):
        config_from_dict(base_config(noise={"eta": 1e-3, "support": [0.9, 1.1]}))


def test_sweep_monotone_rows():
    report = run_convergence_sweep(config_from_dict(base_config()))
    errs = [r.err_l2 for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(r.monotone_ok for r in report.rows)
    assert [r.gamma for r in report.rows] == [2, 5, 10, 20, 50]


def test_sweep_zero_signal_trivially_passes():
    cfg = config_from_dict(
        base_config(
            signals=[
                {
                    "id": "zero",
                    "kind": "bandlimited",
                    "envelope": "indicator",
                    "support": [-0.9, 0.9],
                    "height": 0.0,
                    "hermitian": True,
                }
            ]
        )
    )
    report = run_convergence_sweep(cfg)
    assert all(r.err_l2 == 0.0 and r.monotone_ok for r in report.rows)


def test_sweep_class_mismatch():
    cfg = config_from_dict(
        base_config(
            signals=[
                {"id": "hf", "kind": "highfreq", "envelope": "raised_cosine", "support": [1.1, 2.0]}
            ]
        )
    )
    with pytest.raises(ClassMismatch):
        run_convergence_sweep(cfg)


def test_bound_check_single_atom_measured_value():
    cfg = config_from_dict(
        base_config(
            gamma_ladder=[10],
            signals=[
                {
                    "id": "atom0",
                    "kind": "mixed",
                    "atoms": [[0.0, 2 * math.pi, 0.0]],
                    "density": [],
                    "class": "LOW",
                    "epsilon": 0.4,
                }
            ],
        )
    )
    report = run_uniform_bound_check(cfg)
    (row,) = report.rows
    # |V(0) - 1| * |K(0)| = e^{-10} for the single-pole kernel at gamma 10.
    assert row.err_linf == pytest.approx(math.exp(-10), abs=1e-9)
    assert row.bound_ok and row.err_linf <= row.uniform_bound + 1e-6


def test_bound_check_empty_signal_trivially_passes():
    cfg = config_from_dict(
        base_config(
            gamma_ladder=[5],
            signals=[
                {"id": "empty", "kind": "mixed", "atoms": [], "density": [], "class": "LOW", "epsilon": 0.4}
            ],
        )
    )
    report = run_uniform_bound_check(cfg)
    (row,) = report.rows
    assert row.err_linf == 0.0 and row.uniform_bound == 0.0 and row.bound_ok


def test_bound_check_shared_deviation_value():
    rng = np.random.default_rng(5)
    signals = []
    for i in range(6):
        w = float(rng.uniform(-0.6, 0.6))
        c = [float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))]
        signals.append(
            {
                "id": f"s{i}",
                "kind": "mixed",
                "atoms": [[w, c[0], c[1]]],
                "density": [],
                "class": "LOW",
                "epsilon": 0.4,
            }
        )
    report = run_uniform_bound_check(config_from_dict(base_config(signals=signals)))
    for gamma in (2, 5, 10, 20, 50):
        devs = {r.deviation_sup for r in report.rows if r.gamma == gamma}
        assert len(devs) == 1  # one uniform deviation factor per gamma


def test_bound_check_unconverged_density_raises(tmp_path, capsys):
    # Piecewise-linear kinks inside Gauss panels fail the quadrature
    # certificate on the 400 s grid (the L1 mass, on a grid through the
    # samples, converges): the run raises and the CLI exits 1 with a record.
    kinked = {
        "kind": "sampled",
        "omegas": [-0.6, -0.35, -0.1, 0.15, 0.4],
        "re": [0.0, 1.3, 0.4, 1.1, 0.0],
        "im": [0.0] * 5,
    }
    doc = base_config(
        kernel={"omega": 1.0, "poles": [{"a": 0.5, "b": 0.8, "mult": 1, "paired": True}],
                "numerator": [0.0, 1.0]},
        epsilon=0.25,
        signals=[{"id": "kinked", "kind": "mixed", "atoms": [[0.3, 1.0, 0.0]],
                  "density": [kinked], "class": "LOW", "epsilon": 0.25}],
    )
    with pytest.raises(QuadratureNotConverged, match=r"not converged on \[-0.6, 0.4\]"):
        run_uniform_bound_check(config_from_dict(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["bound-check", "--config", str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "QuadratureNotConverged"
    assert "not converged on [-0.6, 0.4]" in record["message"]


def test_robustness_zero_eta_degenerates_to_sweep():
    cfg = config_from_dict(base_config(noise={"eta": 0.0, "support": [1.05, 1.1]}))
    report = run_robustness_probe(cfg)
    errs = [r.err_l2 for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    info = report.summary["rc"]
    assert not info["growth_detected"]
    assert "note" in info


def test_robustness_golden_u_shape():
    cfg = config_from_dict(
        base_config(
            gamma_ladder=[2, 5, 10, 20, 50, 100, 200],
            noise={"eta": 1e-3, "support": [1.05, 1.1]},
        )
    )
    report = run_robustness_probe(cfg)
    info = report.summary["rc"]
    # Golden values frozen from the first probe run.
    assert info["gamma_star"] == 5.0
    assert info["growth_detected"]
    assert info["min_err_l2"] == pytest.approx(0.012884098032579746, rel=1e-9)
    assert info["growth_factor"] == pytest.approx(72561988.86582671, rel=1e-6)


def test_robustness_full_strength_noise_grows_immediately():
    cfg = config_from_dict(
        base_config(
            gamma_ladder=[2, 5, 10, 20, 50, 100, 200],
            noise={"eta": 1.0, "support": [1.05, 1.1]},
        )
    )
    report = run_robustness_probe(cfg)
    errs = [r.err_l2 for r in report.rows]
    assert all(b > a for a, b in zip(errs, errs[1:]))
    assert report.summary["rc"]["gamma_star"] == 2.0


def test_decompose_in_band_only_reduces_to_low_sweep():
    # A part whose support reaches the band edge omega = 1 is band-limited
    # too, and builds the same spectrum as the equal bandlimited entry.
    for part in (
        {"envelope": "raised_cosine", "support": [-0.9, 0.9]},
        {"envelope": "indicator", "support": [-1.0, 1.0]},
    ):
        cfg = config_from_dict(
            base_config(signals=[{"id": "mix", "kind": "composite", "parts": [part]}])
        )
        report = run_decomposition_demo(cfg)
        info = report.summary["mix"]
        assert all(e == 0.0 for e in info["err_high"])
        assert info["err_total"] == pytest.approx(info["err_low"], rel=1e-12)
        entry = config_from_dict(base_config(signals=[{"id": "b", "kind": "bandlimited", **part}]))
        assert info["err_low"] == [r.err_l2 for r in run_convergence_sweep(entry).rows]


def test_decompose_off_band_only_mirror():
    cfg = config_from_dict(
        base_config(
            signals=[
                {
                    "id": "mix",
                    "kind": "composite",
                    "parts": [
                        {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": True}
                    ],
                }
            ]
        )
    )
    report = run_decomposition_demo(cfg)
    info = report.summary["mix"]
    assert all(e == 0.0 for e in info["err_low"])
    assert info["err_total"] == pytest.approx(info["err_high"], rel=1e-12)


def test_decompose_mixed_support_combined_ladder():
    cfg = config_from_dict(
        base_config(
            signals=[
                {
                    "id": "mix",
                    "kind": "composite",
                    "parts": [
                        {"envelope": "raised_cosine", "support": [-0.9, 0.9], "hermitian": True},
                        {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": True},
                    ],
                }
            ]
        )
    )
    report = run_decomposition_demo(cfg)
    errs = [r.err_l2 for r in report.rows]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(r.monotone_ok for r in report.rows)


def test_decompose_one_sided_high_part():
    # The symmetric LOW part is carried as its omega >= 0 half, the one-sided
    # HIGH part on the full grid; check (a) sums them on the full grid.  The
    # err_l2 values are pinned as the full-grid version of check (a) gave them.
    part = {"envelope": "raised_cosine", "support": [-0.9, 0.9], "hermitian": True}
    high = {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": False}
    cfg = config_from_dict(
        base_config(signals=[{"id": "mix", "kind": "composite", "parts": [part, high]}])
    )
    report = run_decomposition_demo(cfg)
    assert [r.err_l2 for r in report.rows] == [
        0.07269457377040017,
        0.020419292849063745,
        0.0048616941254093615,
        0.000343952754855864,
        3.6055731902022107e-07,
    ]


def test_cli_unknown_subcommand_exits_2(tmp_path):
    assert cli_main(["frobnicate", "--config", "x.json"]) == 2


def test_cli_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(base_config(gamma_ladder=[0.0, 1.0])))
    assert cli_main(["sweep", "--config", str(cfg)]) == 2
    missing = tmp_path / "nope.json"
    assert cli_main(["sweep", "--config", str(missing)]) == 2


def test_cli_class_mismatch_exits_1(tmp_path, capsys):
    doc = base_config(
        signals=[
            {"id": "hf", "kind": "highfreq", "envelope": "raised_cosine", "support": [1.1, 2.0]}
        ]
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ClassMismatch"


@pytest.mark.parametrize(
    "command, config, mutate",
    [
        ("sweep", "sweep", lambda doc: doc["kernel"].pop("poles")),
        ("sweep", "sweep", lambda doc: doc["kernel"].update(poles=[[1.0]])),
        ("sweep", "sweep", lambda doc: doc["signals"][0].pop("support")),
        ("bound-check", "bound_check", lambda doc: doc["signals"][0].pop("class")),
        ("robustness", "robustness", lambda doc: doc["noise"].update(eta="high")),
        ("robustness", "robustness", lambda doc: doc["noise"].update(support=[1.05])),
        ("sweep", "sweep", lambda doc: doc.update(grid=[2048, 400.0])),
    ],
    ids=["kernel-without-poles", "pole-entry-too-short", "grid-signal-without-support",
         "mixed-signal-without-class", "noise-eta-not-a-number", "noise-support-too-short",
         "grid-not-an-object"],
)
def test_cli_malformed_config_exits_2_with_record(tmp_path, monkeypatch, capsys, command, config,
                                                  mutate):
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    mutate(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main([command, "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"


def test_sweep_ladder_converged_to_zero_passes():
    # Past gamma = 200, V - 1 underflows on the support: y_hat equals y exactly.
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    doc["gamma_ladder"] = [20, 50, 100, 200, 400, 800]
    report = run_convergence_sweep(config_from_dict(doc))
    assert [r.err_l2 for r in report.rows][-2:] == [0.0, 0.0]
    assert all(r.monotone_ok for r in report.rows)


def test_cli_monotonicity_failure_names_its_signal(tmp_path, monkeypatch, capsys):
    # A band-limited indicator up to the band edge: under this kernel its
    # LOW error grows from gamma = 2 to 3 (0.224 -> 0.311).
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / "bound_check.json").read_text())
    doc["gamma_ladder"] = [2, 3]
    doc["grid"] = {"n": 2048, "span": 400.0}
    doc["signals"] = [
        {"id": "ind", "kind": "bandlimited", "envelope": "indicator", "support": [-1.0, 1.0]}
    ]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["sweep", "--config", str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "MonotonicityViolation"
    assert (record["signal_id"], record["gamma_prev"], record["gamma"]) == ("ind", 2.0, 3.0)
    assert record["err"] > record["err_prev"]


def _config_with_signal(name: str, signal: dict) -> dict:
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["signals"] = [signal]
    doc["outputs"] = {}
    return doc


_HIGHFREQ = {"id": "hf", "kind": "highfreq", "envelope": "raised_cosine", "support": [1.3, 1.6]}
_COMPOSITE = json.loads((ROOT / "configs" / "decompose.json").read_text())["signals"][0]
_MIXED = json.loads((ROOT / "configs" / "bound_check.json").read_text())["signals"][0]
_BANDLIMITED = json.loads((ROOT / "configs" / "sweep.json").read_text())["signals"][0]


@pytest.mark.parametrize(
    "name, op, signal, error, message",
    [
        ("robustness", run_robustness_probe, _HIGHFREQ, ClassMismatch, "highfreq part"),
        ("robustness", run_robustness_probe, _COMPOSITE, ClassMismatch, "highfreq part"),
        ("sweep", run_convergence_sweep, _COMPOSITE, ClassMismatch, "highfreq part"),
        ("robustness", run_robustness_probe, _MIXED, ConfigError, "takes grid signals"),
        ("decompose", run_decomposition_demo, _MIXED, ConfigError, "takes grid signals"),
        ("bound_check", run_uniform_bound_check, _BANDLIMITED, ConfigError,
         "takes mixed signals"),
    ],
    ids=["robustness-highfreq", "robustness-composite", "sweep-composite", "robustness-mixed",
         "decompose-mixed", "bound-check-grid"],
)
def test_intake_rejects_entry_before_building(monkeypatch, name, op, signal, error, message):
    # Each op takes the entries of its route and class only, and says so
    # before any spectrum is built or any ladder runs.
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a spectrum was built or a ladder ran")

    for fn_name in ("make_bandlimited_signal", "make_highfreq_signal", "mixed_from_json_dict",
                    "spectral_predict_ladder", "mixed_predict_ladder"):
        monkeypatch.setattr(harness, fn_name, forbidden)
    cfg = config_from_dict(_config_with_signal(name, signal))
    with pytest.raises(error, match=message):
        op(cfg)


@pytest.mark.parametrize(
    "command, name, signal, code, error",
    [
        ("robustness", "robustness", _HIGHFREQ, 1, "ClassMismatch"),
        ("decompose", "decompose", _MIXED, 2, "ConfigError"),
    ],
    ids=["robustness-highfreq", "decompose-mixed"],
)
def test_cli_intake_exit_codes(tmp_path, capsys, command, name, signal, code, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config_with_signal(name, signal)))
    assert cli_main([command, "--config", str(cfg)]) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == error


def test_validate_builds_entries_without_the_class_rule(tmp_path, capsys):
    # validate cannot know which op will run (decompose takes a highfreq
    # entry under a LOW ladder), so the class rule is checked by the op.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config_with_signal("robustness", _HIGHFREQ)))
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    assert cli_main(["robustness", "--config", str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ClassMismatch"


@pytest.mark.parametrize(
    "command, name, mutate",
    [
        ("sweep", "sweep", lambda doc: doc.update(epsilon=math.nan)),
        ("sweep", "sweep", lambda doc: doc.update(epsilon=math.inf)),
        ("robustness", "robustness", lambda doc: doc["noise"].update(eta=math.nan)),
        ("robustness", "robustness", lambda doc: doc["noise"].update(eta=math.inf)),
    ],
    ids=["epsilon-nan", "epsilon-inf", "eta-nan", "eta-inf"],
)
def test_cli_non_finite_config_values_exit_2(tmp_path, capsys, command, name, mutate):
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["outputs"] = {}
    mutate(doc)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for cmd in ("validate", command):
        assert cli_main([cmd, "--config", str(cfg)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "ConfigError"


_DENSITY_DEFECTS = {
    "gaussian-sigma-0": {"kind": "gaussian", "lo": -0.6, "hi": -0.2, "sigma": 0.0},
    "gaussian-sigma-negative": {"kind": "gaussian", "lo": -0.6, "hi": -0.2, "sigma": -1.0},
    "raised-cosine-nan-height": {"kind": "raised_cosine", "lo": -0.6, "hi": -0.2,
                                 "height": math.nan},
    "gaussian-nan-height": {"kind": "gaussian", "lo": -0.6, "hi": -0.2, "height": math.nan},
    "sampled-nan-omega": {"kind": "sampled", "omegas": [-0.6, math.nan, -0.2],
                          "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]},
    "sampled-nan-value": {"kind": "sampled", "omegas": [-0.6, -0.4, -0.2],
                          "re": [0.0, math.nan, 0.0], "im": [0.0, 0.0, 0.0]},
}


@pytest.mark.parametrize("density", _DENSITY_DEFECTS.values(), ids=_DENSITY_DEFECTS.keys())
def test_cli_defective_density_fails_when_built(tmp_path, monkeypatch, capsys, density):
    # The density is refused when it is built: validate catches it, and
    # bound-check fails before any quadrature.
    def no_quadrature(*args, **kwargs):
        raise AssertionError("density quadrature ran")

    monkeypatch.setattr(signals, "_oscillatory_integral", no_quadrature)
    doc = json.loads((ROOT / "configs" / "bound_check.json").read_text())
    doc["outputs"] = {}
    doc["signals"][1]["density"] = [density]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    for command in ("validate", "bound-check"):
        assert cli_main([command, "--config", str(cfg)]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "SupportViolation"


@pytest.mark.parametrize(
    "name, op, inverses",
    [
        ("sweep", run_convergence_sweep, 6),  # y, then one y_hat per rung
        ("robustness", run_robustness_probe, 8),  # y, then 7 rungs
        ("decompose", run_decomposition_demo, 17),  # 2 y, 2 per rung, 1 recombined
    ],
)
def test_inverse_transform_budget(monkeypatch, name, op, inverses):
    # Grid signals are spectra: no op inverts a signal it does not predict.
    # The configs' signals are Hermitian, so every inverse is a real one, and
    # results carry the halves they inverted: nothing is mirrored.
    cfg = config_from_dict(json.loads((ROOT / "configs" / f"{name}.json").read_text()))
    calls = []
    for module, fn_name in ((np.fft, "ifft"), (np.fft, "irfft"), (transforms, "mirror_half")):
        fn = getattr(module, fn_name)

        def counted(*args, fn=fn, fn_name=fn_name, **kwargs):
            calls.append(fn_name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, fn_name, counted)
        if module is transforms:
            monkeypatch.setattr(harness, fn_name, counted)
    op(cfg)
    assert calls.count("irfft") == inverses
    assert calls.count("ifft") == 0
    assert calls.count("mirror_half") == 0


def test_cli_validate_ok(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config()))
    assert cli_main(["validate", "--config", str(cfg)]) == 0


def test_cli_synth_writes_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = base_config(
        kernel={"omega": 1.0, "poles": [{"a": 1.0, "b": 0.0, "mult": 3}], "numerator": [1.0]},
        gamma_ladder=[1.0],
        grid={"n": 2**16, "span": 256.0},
        outputs={"csv": "khat.csv", "sidecar": "khat.json"},
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["synth", "--config", str(cfg)]) == 0
    sidecar = json.loads((tmp_path / "khat.json").read_text())
    assert sidecar["leakage"] < 1e-10
    lines = (tmp_path / "khat.csv").read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"0.0"}  # the kernel is real


def test_cli_golden_sweep_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = GOLDEN / "sweep_config.json"
    assert cli_main(["sweep", "--config", str(config_path), "--emit-svg"]) == 0
    produced = (tmp_path / "sweep.csv").read_text()
    golden = (GOLDEN / "sweep_golden.csv").read_text()

    plines, glines = produced.splitlines(), golden.splitlines()
    assert plines[0] == glines[0]
    assert len(plines) == len(glines)
    for p, g in zip(plines[1:], glines[1:]):
        pc, gc = p.split(","), g.split(",")
        assert pc[0] == gc[0] and pc[6:] == gc[6:]
        for a, b in zip(pc[1:6], gc[1:6]):
            if a == "" and b == "":
                continue
            fa, fb = float(a), float(b)
            assert abs(fa - fb) <= 1e-9 * max(abs(fb), 1.0)

    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<svg")

    # Bit-identical reproduction with the same config and seed.
    first = produced
    (tmp_path / "sweep.csv").unlink()
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first.encode()


def test_cli_golden_bound_check_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = ROOT / "configs" / "bound_check.json"
    assert cli_main(["bound-check", "--config", str(config_path)]) == 0
    produced = (tmp_path / "bound_check.csv").read_text()
    golden = (GOLDEN / "bound_check_golden.csv").read_text()

    plines, glines = produced.splitlines(), golden.splitlines()
    assert plines[0] == glines[0]
    assert len(plines) == len(glines)
    for p, g in zip(plines[1:], glines[1:]):
        pc, gc = p.split(","), g.split(",")
        assert pc[0] == gc[0] and pc[6:] == gc[6:]
        for a, b in zip(pc[1:6], gc[1:6]):
            fa, fb = float(a), float(b)
            assert abs(fa - fb) <= 1e-9 * max(abs(fb), 1.0)

    # Bit-identical reproduction with the same config.
    (tmp_path / "bound_check.csv").unlink()
    assert cli_main(["bound-check", "--config", str(config_path)]) == 0
    assert (tmp_path / "bound_check.csv").read_bytes() == produced.encode()


def test_cli_golden_decompose_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config_path = ROOT / "configs" / "decompose.json"
    assert cli_main(["decompose", "--config", str(config_path)]) == 0
    produced = (tmp_path / "decompose.csv").read_text()
    golden = (GOLDEN / "decompose_golden.csv").read_text()

    plines, glines = produced.splitlines(), golden.splitlines()
    assert plines[0] == glines[0]
    assert len(plines) == len(glines)
    for p, g in zip(plines[1:], glines[1:]):
        pc, gc = p.split(","), g.split(",")
        assert pc[0] == gc[0] and pc[6:] == gc[6:]
        for a, b in zip(pc[1:6], gc[1:6]):
            if a == "" and b == "":
                continue
            fa, fb = float(a), float(b)
            assert abs(fa - fb) <= 1e-9 * max(abs(fb), 1.0)

    # Bit-identical reproduction with the same config.
    (tmp_path / "decompose.csv").unlink()
    assert cli_main(["decompose", "--config", str(config_path)]) == 0
    assert (tmp_path / "decompose.csv").read_bytes() == produced.encode()


def _run_module(module, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["bandcast", "bandcast.harness"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    config_path = GOLDEN / "sweep_config.json"
    proc = _run_module(module, "sweep", "--config", str(config_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == (
        (GOLDEN / "sweep_golden.csv").read_text().splitlines()[0]
    )


def test_module_entry_point_without_subcommand_exits_2(tmp_path):
    assert _run_module("bandcast", cwd=tmp_path).returncode == 2


def test_cli_seed_override_changes_noise_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = base_config(
        gamma_ladder=[2, 5, 10, 20, 50, 100, 200],
        noise={"eta": 1e-3, "support": [1.05, 1.1]},
        outputs={"csv": "rob.csv"},
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["robustness", "--config", str(cfg)]) == 0
    first = (tmp_path / "rob.csv").read_text()
    assert cli_main(["robustness", "--config", str(cfg), "--seed", "8"]) == 0
    second = (tmp_path / "rob.csv").read_text()
    assert first != second
    assert cli_main(["robustness", "--config", str(cfg), "--seed", "7"]) == 0
    assert (tmp_path / "rob.csv").read_text() == first


def test_package_all_exports_only_classes_and_functions():
    # Submodules stay out of __all__, so `from bandcast import *` cannot
    # rebind names such as `signals` in the importing namespace.
    import bandcast

    assert "PredictionResult" in bandcast.__all__
    for name in bandcast.__all__:
        obj = getattr(bandcast, name)
        assert inspect.isclass(obj) or inspect.isfunction(obj), name


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names in place, as Tracer.install does:
    # a module attribute, or a method in its class's own __dict__.  A name
    # that no longer resolves crashes the traced benchmark run.
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _layer, module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(owner, cls_name).__dict__, f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"
