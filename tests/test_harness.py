"""Config validation, experiment operations, CLI behavior, golden output."""

import ast
import hashlib
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bandcast.errors
from bandcast import (
    GridSpec,
    PredictorTransfer,
    config,
    harness,
    signals,
    synthesize_time_predictor,
    transforms,
)
from bandcast.errors import ClassMismatch, ConfigError, DomainError, QuadratureNotConverged
from bandcast.harness import (
    cli_main,
    config_from_dict,
    run_convergence_sweep,
    run_decomposition_demo,
    run_robustness_probe,
    run_uniform_bound_check,
)
import helpers
from helpers import full_grid

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


@pytest.mark.parametrize(
    "mutate, key",
    [
        (lambda doc: doc.update(espilon=doc.pop("epsilon")), "espilon"),
        (lambda doc: doc["grid"].update(N=4096), "N"),
        (lambda doc: doc.update(noise={"eta": 1e-3, "suport": [1.05, 1.1]}), "suport"),
        (lambda doc: doc.update(outputs={"cvs": "sweep.csv"}), "cvs"),
    ],
    ids=["top-level", "grid", "noise", "outputs"],
)
def test_config_rejects_unknown_keys(mutate, key):
    # A misspelt key used to take its default silently: "espilon" gave eps = 0.
    doc = base_config()
    mutate(doc)
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        config_from_dict(doc)


def _set(path):
    """A mutation that sets the config value at `path` (keys and indices)."""
    def mutate(doc, value):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize(
    "name, path, value, where",
    [
        ("sweep", ("kernel", "numerater"), [2.0], "kernel.numerater: unknown key 'numerater'"),
        ("sweep", ("kernel", "poles", 0), [1.0, 0.0, 1, False, 99], "kernel.poles[0]: "),
        ("bound_check", ("signals", 0, "atoms", 0), [0.5, 6.28, 0.0, 7.0],
         "signals[0].atoms[0]: "),
        ("bound_check", ("kernel", "poles", 0, "pared"), True,
         "kernel.poles[0].pared: unknown key 'pared'"),
        ("sweep", ("signals", 0, "support"), [-0.9, 0.0, 0.9], "signals[0].support: "),
        ("sweep", ("signals", 0, "envelope"), "boxcar", "signals[0].envelope: "),
        ("bound_check", ("signals", 1, "density", 0),
         {"kind": "sampled", "omegas": [-0.6, -0.4, -0.2], "re": [0.0, 1.0], "im": [0.0, 0.0]},
         "signals[1].density[0].re: "),
    ],
    ids=["kernel-key", "pole-entries", "atom-entries", "pole-key", "support-entries",
         "envelope", "sampled-lengths"],
)
def test_cli_validate_refuses_malformed_entries_naming_their_path(tmp_path, capsys, name, path,
                                                                  value, where):
    # Each exited 0, or 1, or 2 with another entry's message; the sampled
    # density with two samples on three omegas failed bound-check with
    # numpy's ValueError.
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    _set(path)(doc, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["validate", "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["message"].startswith(where)


@pytest.mark.parametrize(
    "path, value, error, message",
    [
        (("grid", "n"), 3000, "GridMismatch", "grid: grid length must be a power of two, got 3000"),
        (("grid", "span"), -1.0, "GridMismatch",
         "grid: grid span must be positive and finite, got -1.0"),
        (("kernel", "poles", 0, "a"), -1.0, "PoleOutOfRegion",
         "kernel: pole real part a must be > 0, got a=-1.0"),
        (("kernel", "poles", 0, "mult"), 0, "PoleOutOfRegion",
         "kernel: pole multiplicity must be >= 1, got 0"),
        (("kernel", "numerator"), [0.0], "DegreeViolation",
         "kernel: numerator polynomial must be nonzero"),
    ],
    ids=["grid-n", "grid-span", "pole-a", "pole-mult", "numerator"],
)
def test_cli_validate_names_the_section_of_a_grid_or_kernel_rule(tmp_path, capsys, path, value,
                                                                 error, message):
    # GridSpec and build_kernel raised their own errors with no path.
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    _set(path)(doc, value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["validate", "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": error, "message": message}


# Every entry kind of the table, each with every key it takes.
_FULL_CONFIG = {
    "kernel": {"omega": 1.0, "poles": [{"a": 0.5, "b": 0.8, "mult": 1, "paired": True},
                                       [1.0, 0.0, 1]], "numerator": [0.0, 1.0]},
    "gamma_ladder": [2, 5], "epsilon": 0.1, "domain": "LOW", "grid": {"n": 2048, "span": 400.0},
    "seed": 7,
    "signals": [
        {"id": "g", "kind": "bandlimited", "envelope": "gaussian", "support": [-0.9, 0.9],
         "hermitian": True, "height": 2.0, "sigma": 0.2},
        {"id": "hf", "kind": "highfreq", "envelope": "indicator", "support": [1.1, 2.0]},
        {"id": "mix", "kind": "composite", "parts": [
            {"kind": "bandlimited", "envelope": "gaussian", "support": [-0.5, 0.5],
             "hermitian": True, "height": 1.0, "sigma": 0.1}]},
        {"id": "m", "kind": "mixed", "class": "LOW", "epsilon": 0.25, "omega": 1.0,
         "atoms": [[0.5, 1.0, 0.0]], "density": [
             {"kind": "raised_cosine", "lo": -0.6, "hi": -0.2, "height": 1.5},
             {"kind": "gaussian", "lo": 0.1, "hi": 0.5, "height": 1.0, "sigma": 0.1},
             {"kind": "sampled", "omegas": [-0.6, -0.4, -0.2], "re": [0.0, 1.0, 0.0],
              "im": [0.0, 0.5, 0.0]}]},
    ],
    "noise": {"eta": 1e-3, "support": [1.05, 1.1]},
    "outputs": {"csv": "a.csv", "sidecar": "a.json", "svg": "a.svg", "decay_tol": 1e-8},
}
_NUMERIC = (config.NUMBER, config.DENSITY_NUMBER, config.INTEGER)
# The density numbers a mixed entry checks when it is built: a non-finite
# one exits 1 with SupportViolation (test_cli_defective_density_fails_when_built).
_CHECKED_WHEN_BUILT = {"density height", "density sigma", "density omegas", "density re",
                       "density im"}


def _records(type_):
    """Every Record under `type_`, once."""
    if isinstance(type_, dict):
        for record in type_.values():
            yield from _records(record)
    elif isinstance(type_, config.ListOf):
        yield from _records(type_.item)
    elif isinstance(type_, config.Record):
        yield type_
        for field_type, *_rest in type_.fields.values():
            yield from _records(field_type)


def _leaves(field_type) -> list[tuple]:
    """Where the numbers of a key of `field_type` sit in its value: () for a
    number, (0,) for a list of numbers, one index per labelled entry of a
    list such as an atom."""
    if field_type in _NUMERIC:
        return [()]
    if not isinstance(field_type, config.ListOf):
        return []
    entries = range(len(field_type.labels)) if isinstance(field_type.labels, tuple) else [0]
    return [(i,) + leaf for i in entries for leaf in _leaves(field_type.item)]


def _numeric_slots(type_, value, path=()):
    """(record, key, leaf, path to that number) for each numeric key in `value`."""
    if isinstance(type_, dict):
        yield from _numeric_slots(type_[value["kind"]], value, path)
    elif isinstance(type_, config.ListOf):
        for i, item in enumerate(value):
            yield from _numeric_slots(type_.item, item, path + (i,))
    elif isinstance(type_, config.Record):
        steps = value if isinstance(value, dict) else range(len(value))
        for key, step in zip(value if isinstance(value, dict) else type_.fields, steps):
            field_type = type_.fields[key][0]
            for leaf in _leaves(field_type):
                yield type_, key, leaf, path + (step,) + leaf
            if not _leaves(field_type):
                yield from _numeric_slots(field_type, value[step], path + (step,))


def test_table_refuses_bools_strings_and_non_finite_numbers_at_every_numeric_key(tmp_path,
                                                                                capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_FULL_CONFIG))
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    slots = {}
    for record, key, leaf, path in _numeric_slots(config.SCHEMA, _FULL_CONFIG):
        slots.setdefault((record, key, leaf), path)
    table = {(record, key, leaf) for record in set(_records(config.SCHEMA))
             for key, (field_type, *_rest) in record.fields.items()
             for leaf in _leaves(field_type)}
    assert set(slots) == table  # the config above holds every numeric key of the table
    assert {record.prefix + key for record, key, _leaf in slots} >= _CHECKED_WHEN_BUILT
    for (record, key, _leaf), path in slots.items():
        built = record.prefix + key in _CHECKED_WHEN_BUILT
        for value, code in ((True, 2), ("1", 2), (math.nan, 1 if built else 2)):
            doc = json.loads(json.dumps(_FULL_CONFIG))
            _set(path)(doc, value)
            cfg.write_text(json.dumps(doc))
            assert cli_main(["validate", "--config", str(cfg)]) == code, (path, value)
            failure = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert failure["error"] == ("SupportViolation" if code == 1 else "ConfigError")


def test_readme_schema_lists_exactly_the_table_keys():
    block = (ROOT / "README.md").read_text().split("```jsonc")[1].split("```")[0]
    keys = {key for record in _records(config.SCHEMA) for key in record.fields}
    assert set(re.findall(r'"(\w+)"\s*:', block)) == keys


def _pole(**entry):
    return {"omega": 1.0, "poles": [{"a": 0.5, "b": 0.8, "mult": 1, **entry}],
            "numerator": [0.0, 1.0]}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: doc.update(seed=1.5), "seed must be a JSON integer"),
        (lambda doc: doc.update(seed="7"), "seed must be a JSON integer"),
        (lambda doc: doc.update(seed=-1), "seed must be >= 0"),
        (lambda doc: doc.update(seed=True), "takes no bool"),
        (lambda doc: doc.update(gamma_ladder=[True, 5]), "takes no bool"),
        (lambda doc: doc.update(epsilon=False), "takes no bool"),
        (lambda doc: doc["grid"].update(n=2048.9), "grid.n must be a JSON integer"),
        (lambda doc: doc["grid"].update(n=2048.0), "grid.n must be a JSON integer"),
        (lambda doc: doc["signals"][0].update(support=[-0.9, True]), "takes no bool"),
        (lambda doc: doc.update(kernel=_pole(mult=1.7)), "pole mult must be a JSON integer"),
        (lambda doc: doc.update(kernel=_pole(mult=True)), "pole mult must be a JSON integer"),
        (lambda doc: doc.update(kernel=_pole(a=True)), "pole a must be a JSON number"),
        (lambda doc: doc.update(kernel=_pole(paired="no")), "pole paired must be a JSON bool"),
        (lambda doc: doc.update(kernel=_pole(paired=1)), "pole paired must be a JSON bool"),
        (lambda doc: doc["grid"].update(span="400"), "grid.span must be a JSON number"),
        (lambda doc: doc.update(epsilon="0.1"), "epsilon must be a JSON number"),
        (lambda doc: doc.update(gamma_ladder=["2", "5"]),
         "gamma_ladder entry must be a JSON number"),
        (lambda doc: doc.update(noise={"eta": "1e-3", "support": [1.05, 1.1]}),
         "noise.eta must be a JSON number"),
        (lambda doc: doc.update(noise={"eta": 1e-3, "support": ["1.05", 1.1]}),
         "noise.support must be a JSON number"),
        (lambda doc: doc.update(outputs={"decay_tol": "1e-8"}),
         "outputs.decay_tol must be a JSON number"),
        (lambda doc: doc.update(outputs={"csv": 5}), "outputs.csv must be a JSON string"),
    ],
    ids=["seed-fraction", "seed-string", "seed-negative", "seed-bool", "ladder-bool",
         "epsilon-bool", "n-fraction", "n-float", "support-bool", "mult-fraction", "mult-bool",
         "a-bool", "paired-string", "paired-integer", "span-string", "epsilon-string",
         "ladder-strings", "eta-string", "noise-support-string", "decay-tol-string",
         "csv-path-number"],
)
def test_config_reads_numbers_and_flags_by_type(mutate, message):
    # Each used to be coerced: seed 1.5 ran as seed 1, [true, 5] as gammas
    # (1.0, 5.0), mult 1.7 as 1, "paired": "no" added the conjugate mate, and
    # "span": "400" ran as span 400.0.
    doc = base_config()
    mutate(doc)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "mutate, path",
    [(lambda doc: doc["grid"].update(span=10**400), "grid.span"),
     (lambda doc: doc["grid"].update(span=-10**400), "grid.span"),
     (lambda doc: doc["kernel"].update(numerator=[10**400]), "kernel.numerator[0]")],
    ids=["span", "negative-span", "numerator"],
)
def test_cli_integer_past_the_float_range_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                            mutate, path):
    # A 401-digit integer literal used to end the run with an OverflowError
    # traceback (exit 1) while its sign was being taken.
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    mutate(doc)
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert "0" * 400 in (tmp_path / "cfg.json").read_text()
    assert cli_main(["sweep", "--config", "cfg.json"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(path) and "finite" in record["message"]
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_multiplicity_past_int64_is_a_typed_record(tmp_path, monkeypatch, capsys):
    # A 401-digit multiplicity passed intake, and sweep ended with an
    # OverflowError traceback at the first evaluation.
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    doc["kernel"]["poles"][0]["mult"] = 10**400
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli_main(["sweep", "--config", "cfg.json"]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "PoleOutOfRegion"
    assert record["message"].startswith("kernel") and "multiplicity" in record["message"]
    assert not (tmp_path / "sweep.csv").exists()


def test_config_takes_paired_and_hermitian_bools():
    cfg = config_from_dict(base_config(kernel=_pole(paired=True)))
    assert cfg.kernel.poles == ((0.5, 0.8, 1), (0.5, -0.8, 1))
    assert cfg.signals[0].hermitian is True


@pytest.mark.parametrize("seed_args, doc_seed", [([], -1), (["--seed", "-1"], 7)],
                         ids=["config", "command-line"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, seed_args, doc_seed):
    # A negative seed used to end in numpy's ValueError traceback (exit 1).
    doc = json.loads((ROOT / "configs" / "robustness.json").read_text())
    doc.update(seed=doc_seed, outputs={})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["robustness", "--config", str(cfg), *seed_args]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and "seed must be >= 0" in record["message"]


def _entry(signal: dict):
    """The spec a config reads from one signal entry."""
    return config_from_dict(base_config(signals=[signal])).signals[0]


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
    # A gaussian of sigma 1e-3 on [-0.6, 0.4] is far narrower than a Gauss
    # panel and fails the quadrature certificate on the 400 s grid: the run
    # raises and the CLI exits 1 with a record.
    narrow = {"kind": "gaussian", "lo": -0.6, "hi": 0.4, "height": 1.0, "sigma": 1e-3}
    doc = base_config(
        kernel={"omega": 1.0, "poles": [{"a": 0.5, "b": 0.8, "mult": 1, "paired": True}],
                "numerator": [0.0, 1.0]},
        epsilon=0.25,
        signals=[{"id": "narrow", "kind": "mixed", "atoms": [[0.3, 1.0, 0.0]],
                  "density": [narrow], "class": "LOW", "epsilon": 0.25}],
    )
    with pytest.raises(QuadratureNotConverged, match=r"not converged on \[-0.6, 0.4\]"):
        run_uniform_bound_check(config_from_dict(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["bound-check", "--config", str(cfg)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "QuadratureNotConverged"
    assert "not converged on [-0.6, 0.4]" in record["message"]


def test_bound_check_runs_the_readme_sampled_density(tmp_path, monkeypatch):
    # The README schema's sampled density in configs/bound_check.json: its
    # kinks lie on panel edges, so the quadrature converges, and the run
    # exits 0 with every measured error within its bound.
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / "bound_check.json").read_text())
    doc["outputs"] = {"csv": "bound_check.csv"}
    doc["signals"][1]["density"] = [
        {"kind": "sampled", "omegas": [-0.6, -0.4, -0.2], "re": [0.0, 1.0, 0.0], "im": [0.0] * 3}
    ]
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli_main(["bound-check", "--config", "cfg.json"]) == 0
    rows = (tmp_path / "bound_check.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 * len(doc["gamma_ladder"])
    for row in rows:
        _sid, _gamma, _l2, linf, _dev, bound, ok, _mono = row.split(",")
        assert ok == "true" and float(linf) <= float(bound)


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


@pytest.mark.parametrize(
    "part",
    [
        {"kind": "highfreq", "support": [1.2, 1.5], "hermitian": "no"},
        {"kind": "highfreq", "support": [1.2, 1.5], "hermitian": 0},
        {"kind": "bandlimited", "support": [-0.9, 0.9], "hermitian": False},
        {"kind": "bandlimited", "support": [-0.9, 0.5], "hermitian": True},
    ],
    ids=["string", "integer", "symmetric-band-false", "asymmetric-band-true"],
)
@pytest.mark.parametrize("composite", [False, True], ids=["entry", "composite-part"])
def test_grid_entry_hermitian_must_be_a_bool_that_holds(part, composite):
    # "no" used to read as true, and a bandlimited entry's value was ignored:
    # its spectrum is Hermitian exactly when its support is symmetric.
    spec = {"id": "s", "kind": "composite", "parts": [part]} if composite else {"id": "s", **part}
    with pytest.raises(ConfigError, match="hermitian"):
        _entry(spec)


@pytest.mark.parametrize(
    "part, message",
    [
        ({"support": ["-0.9", 0.9]}, "support must be a JSON number"),
        ({"height": "2"}, "height must be a JSON number"),
        ({"envelope": "gaussian", "sigma": "0.2"}, "sigma must be a JSON number"),
    ],
    ids=["support-string", "height-string", "sigma-string"],
)
@pytest.mark.parametrize("composite", [False, True], ids=["entry", "composite-part"])
def test_grid_entry_reads_numbers_by_type(part, message, composite):
    # Each string used to be read as the number it spells.
    part = {"kind": "bandlimited", "support": [-0.9, 0.9], **part}
    spec = {"id": "s", "kind": "composite", "parts": [part]} if composite else {"id": "s", **part}
    with pytest.raises(ConfigError, match=message):
        _entry(spec)


_BUMP = {"kind": "raised_cosine", "lo": -0.6, "hi": -0.2, "height": 1.5}
_MIXED_NUMBER_DEFECTS = {
    "atom-omega": ({"atoms": [["0.3", 3.0, 1.0]]}, "atom omega"),
    "atom-re": ({"atoms": [[0.3, "3.0", 1.0]]}, "atom re"),
    "atom-im": ({"atoms": [[0.3, 3.0, "1.0"]]}, "atom im"),
    "lo": ({"density": [{**_BUMP, "lo": "-0.6"}]}, "lo"),
    "hi": ({"density": [{**_BUMP, "hi": "-0.2"}]}, "hi"),
    "height": ({"density": [{**_BUMP, "height": "1.5"}]}, "height"),
    "sigma": ({"density": [{**_BUMP, "kind": "gaussian", "sigma": "0.1"}]}, "sigma"),
    "sampled-omegas": ({"density": [{"kind": "sampled", "omegas": [-0.6, "-0.4", -0.2],
                                     "re": [0.0, 1.0, 0.0], "im": [0.0, 0.0, 0.0]}]}, "omegas"),
    "sampled-re": ({"density": [{"kind": "sampled", "omegas": [-0.6, -0.4, -0.2],
                                 "re": [0.0, "1", 0.0], "im": [0.0, 0.0, 0.0]}]}, "re"),
    "sampled-im": ({"density": [{"kind": "sampled", "omegas": [-0.6, -0.4, -0.2],
                                 "re": [0.0, 1.0, 0.0], "im": ["0", 0.0, 0.0]}]}, "im"),
    "epsilon": ({"epsilon": "0.25"}, "epsilon"),
}


@pytest.mark.parametrize("change, what", _MIXED_NUMBER_DEFECTS.values(),
                         ids=_MIXED_NUMBER_DEFECTS.keys())
def test_mixed_entry_reads_numbers_by_type(change, what):
    # Each string used to be read as the number it spells.
    spec = {"id": "m", "kind": "mixed", "atoms": [[0.3, 3.0, 1.0]], "density": [_BUMP],
            "class": "LOW", "epsilon": 0.25, **change}
    with pytest.raises(ConfigError, match=f"{what} must be a JSON number"):
        _entry(spec)


def test_grid_entry_hermitian_values_that_hold():
    grid = GridSpec(2048, 400.0)
    for part, one_sided in (
        ({"kind": "bandlimited", "support": [-0.9, 0.5]}, True),
        ({"kind": "bandlimited", "support": [-0.9, 0.5], "hermitian": False}, True),
        ({"kind": "bandlimited", "support": [-0.9, 0.9]}, False),
        ({"kind": "highfreq", "support": [1.2, 1.5], "hermitian": False}, True),
        ({"kind": "highfreq", "support": [1.2, 1.5]}, False),
    ):
        X = full_grid(harness.build_grid_spectrum(_entry({"id": "s", **part}), grid, 1.0), grid)
        half = transforms.hermitian_half(X.values, X.omega0, X.domega)
        assert (half is None) == one_sided, part


def test_composite_entry_sums_the_full_construction_of_its_parts():
    # All-Hermitian parts sum to a half, beside a one-sided part on the full
    # grid; either way the bits are those of the parts built full and summed.
    grid = GridSpec(2048, 400.0)
    low = {"envelope": "raised_cosine", "support": [-0.9, 0.9], "height": 2.0}
    high = {"envelope": "gaussian", "support": [1.2, 1.5], "sigma": 0.05}
    for high_part, two_sided in (({**high, "hermitian": True}, True),
                                 ({**high, "hermitian": False}, False)):
        entry = {"id": "mix", "kind": "composite", "parts": [low, high_part]}
        X = harness.build_grid_spectrum(_entry(entry), grid, 1.0)
        ref = (helpers.reference_grid_spectrum("raised_cosine", (-0.9, 0.9), grid, True, 2.0)
               .values
               + helpers.reference_grid_spectrum("gaussian", (1.2, 1.5), grid, two_sided,
                                                 sigma=0.05).values)
        if two_sided:
            assert X.omega0 == 0.0
            assert np.array_equal(X.values, transforms.hermitian_half(ref, grid.omega0,
                                                                      grid.domega))
        else:
            assert X.omega0 == grid.omega0 and np.array_equal(X.values, ref)


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
    # HIGH part on the full grid; check (a) sums their error spectra on the
    # full grid, the LOW part's points mirrored onto it.  The err_l2 values
    # are pinned as the inverted error spectra give them, the LOW part's
    # by the band-limited inverse.  Each is within 1e-10 of what the full
    # n-point inverse gave, and of what y - y_hat gave, with the full-grid
    # version of check (a) on the predictions.
    part = {"envelope": "raised_cosine", "support": [-0.9, 0.9], "hermitian": True}
    high = {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": False}
    cfg = config_from_dict(
        base_config(signals=[{"id": "mix", "kind": "composite", "parts": [part, high]}])
    )
    errs = [r.err_l2 for r in run_decomposition_demo(cfg).rows]
    assert errs == [
        0.07269457377040019,
        0.02041929284906375,
        0.00486169412540937,
        0.00034395275485586316,
        3.6055731902167987e-07,
    ]
    from_full_inverse = [
        0.07269457377040019,
        0.02041929284906375,
        0.00486169412540937,
        0.0003439527548558631,
        3.605573190216798e-07,
    ]
    from_y_minus_yhat = [
        0.07269457377040017,
        0.020419292849063745,
        0.0048616941254093615,
        0.000343952754855864,
        3.6055731902022107e-07,
    ]
    for err, full, old in zip(errs, from_full_inverse, from_y_minus_yhat, strict=True):
        assert err == pytest.approx(full, rel=1e-10)
        assert err == pytest.approx(old, rel=1e-10)


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
        ("sweep", "sweep", lambda doc: doc.update(espilon=doc.pop("epsilon"))),
        ("sweep", "sweep", lambda doc: doc["outputs"].update(cvs=doc["outputs"].pop("csv"))),
        ("sweep", "sweep", lambda doc: doc["signals"][0].update(hermitian="no")),
        ("synth", "sweep", lambda doc: doc["outputs"].update(decay_tol="abc")),
    ],
    ids=["kernel-without-poles", "pole-entry-too-short", "grid-signal-without-support",
         "mixed-signal-without-class", "noise-eta-not-a-number", "noise-support-too-short",
         "grid-not-an-object", "misspelt-epsilon", "misspelt-output-key",
         "hermitian-not-a-bool", "decay-tol-not-a-number"],
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
    # y - y_hat read 0.0 from gamma = 400 on, though V - 1 does not
    # underflow there: |V - 1| <= 7.5e-20 on the support, so V * Y rounded to
    # Y.  The error inverted from E = (V - 1) K X keeps falling: 2.6e-25 at
    # gamma = 400 and 2.0e-44 at 800.
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    doc["gamma_ladder"] = [20, 50, 100, 200, 400, 800]
    report = run_convergence_sweep(config_from_dict(doc))
    errs = [r.err_l2 for r in report.rows]
    assert all(err > 0.0 for err in errs)
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert all(r.monotone_ok for r in report.rows)


def _config_error_spectra():
    """(label, gamma, E, err_l2) for every FFT-route rung of configs/: the
    sweep (its ladder run on to gamma = 800), robustness, both decompose
    parts and their recombined error, and a one-sided HIGH part on the full
    grid.  Each ladder is rebuilt as its op builds it, E is the rung's error
    spectrum, and err_l2 is the value the op reports for that rung."""
    def load(name, **changes):
        doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        doc.update(changes, outputs={})
        return config_from_dict(doc)

    def spectrum(cfg, spec):
        return harness.build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega)

    def rungs(label, cfg, X, gammas, reported):
        ladder = harness.spectral_predict_ladder(X, cfg.kernel, gammas)
        for r, err in zip(ladder, reported, strict=True):
            assert r.err_l2 == err, label
            yield label, r.gamma, r.error_spectrum, err

    cfg = load("sweep", gamma_ladder=[2, 5, 10, 20, 50, 100, 200, 400, 800])
    (spec,) = cfg.signals
    errs = [row.err_l2 for row in run_convergence_sweep(cfg).rows]
    out = list(rungs("sweep", cfg, spectrum(cfg, spec), cfg.gamma_ladder, errs))

    cfg = load("robustness")
    (spec,) = cfg.signals
    errs = [row.err_l2 for row in run_robustness_probe(cfg).rows]
    X = signals.add_outofband_noise(spectrum(cfg, spec), cfg.noise.eta, cfg.noise.support,
                                    cfg.seed, cfg.kernel.omega)
    out += rungs("robustness", cfg, X, cfg.gamma_ladder, errs)

    part = {"envelope": "raised_cosine", "support": [-0.9, 0.9], "hermitian": True}
    one_sided = {"envelope": "raised_cosine", "support": [1.2, 1.5], "hermitian": False}
    one_sided_cfg = config_from_dict(
        base_config(signals=[{"id": "mix", "kind": "composite", "parts": [part, one_sided]}]))
    for name, cfg in (("decompose", load("decompose")), ("one-sided", one_sided_cfg)):
        (spec,) = cfg.signals
        report = run_decomposition_demo(cfg)
        low, high = signals.ideal_lowpass_split(spectrum(cfg, spec), cfg.kernel.omega)
        gammas = cfg.gamma_ladder
        lows = list(rungs(f"{name} low", cfg, low, gammas, report.summary[spec.id]["err_low"]))
        highs = list(rungs(f"{name} high", cfg, high, [-g for g in gammas],
                           report.summary[spec.id]["err_high"]))
        out += lows + highs
        for (_l, gamma, E_low, _e), (_h, _g, E_high, _e2), row in zip(lows, highs, report.rows):
            total = harness._sum_spectra([E_low, E_high], cfg.grid.n)
            out.append((f"{name} total", gamma, total, row.err_l2))
    return out


def test_err_l2_equals_the_spectral_formula_on_every_config_rung():
    # Parseval plus two end samples (helpers.spectral_err_l2) never inverts:
    # it checks the inverted error from outside, on halves and on the full
    # grid, and at gamma = 400 and 800, where y - y_hat read 0.0.
    rungs = _config_error_spectra()
    assert {label for label, _g, E, _err in rungs if E.omega0 != 0.0} == {
        "one-sided high", "one-sided total"}
    deep = [err for label, gamma, _E, err in rungs if label == "sweep" and gamma >= 400]
    assert len(deep) == 2 and all(0.0 < err < 1e-24 for err in deep)
    for label, gamma, E, err in rungs:
        assert helpers.spectral_err_l2(E) == pytest.approx(err, rel=1e-12), (label, gamma)


@pytest.mark.parametrize(
    "name, op, bound",
    [("sweep", run_convergence_sweep, 2.45), ("robustness", run_robustness_probe, 3.3),
     ("decompose", run_decomposition_demo, 7.3)],
    ids=["sweep", "robustness", "decompose"],
)
def test_grid_op_peak_memory(name, op, bound):
    # Traced peak at n = 2**16, in (n/2 + 1)-point complex half spectra; a
    # float signal of n samples is one such unit.  A ladder holds one reused
    # buffer of band-limited inverse rows and its live rung's e, so it takes
    # 2.27 (sweep), 3.01 (robustness: the noise is drawn on full-length
    # arrays) and 6.65 (decompose: two ladders, and check (a) inverts the
    # sum of both error spectra at their points with a third inverter).
    # The bounds leave under 10 % headroom, less than one more full-length
    # array: a second live rung, a held spectrum or X, a fresh spectrum per
    # rung that outlives its inverse, or a norm temporary such as |e| would
    # each pass them.
    n = 2**16
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["grid"] = {"n": n, "span": 400.0 * n / 2048}
    cfg = config_from_dict(doc)
    op(cfg)  # first-call allocations (FFT plans, caches) stay out of the count
    tracemalloc.start()
    try:
        op(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 16 * (n // 2 + 1)


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


_RAISED = {"kind": "raised_cosine", "lo": -0.6, "hi": -0.2, "height": 1.5}


@pytest.mark.parametrize(
    "signal, message",
    [
        ({"id": "s", "kind": "bandlimited", "envelop": "indicator", "support": [-0.9, 0.9]},
         "unknown key 'envelop'"),
        ({"id": "s", "kind": "bandlimited", "support": [-0.9, 0.9], "sigma": 0.1},
         "unknown key 'sigma'"),
        ({"id": "s", "kind": "composite", "part": []}, "unknown key 'part'"),
        ({"id": "s", "kind": "composite", "parts": [{"id": "p", "support": [-0.9, 0.9]}]},
         "unknown key 'id'"),
        ({**_MIXED, "atom": []}, "unknown key 'atom'"),
        ({**_MIXED, "density": [{**_RAISED, "sigma": 0.1}]}, "unknown key 'sigma'"),
        ({**_MIXED, "omega": 3.0}, "omega 3.0 is not the kernel's 1.0"),
    ],
    ids=["misspelt-envelope", "sigma-on-raised-cosine", "misspelt-parts", "id-in-a-part",
         "misspelt-atoms", "sigma-on-raised-cosine-density", "mixed-omega"],
)
def test_signal_entries_reject_keys_they_do_not_take(signal, message):
    # "envelop" used to build the default raised cosine, and a mixed entry's
    # omega overrode the kernel's.
    with pytest.raises(ConfigError, match=message):
        cfg = config_from_dict(base_config(signals=[signal]))
        for spec in cfg.signals:
            if spec.kind == "mixed":
                harness.build_mixed_signal(spec, cfg.kernel.omega)
            else:
                harness.build_grid_spectrum(spec, cfg.grid, cfg.kernel.omega)


def test_grid_gaussian_entry_takes_its_sigma():
    # sigma used to be dropped: the spectrum was the default sigma's.
    grid = GridSpec(2048, 400.0)
    spec = {"id": "g", "kind": "bandlimited", "envelope": "gaussian", "support": [-0.9, 0.9]}
    default = harness.build_grid_spectrum(_entry(spec), grid, 1.0)
    narrow = harness.build_grid_spectrum(_entry({**spec, "sigma": 0.1}), grid, 1.0)
    expected = signals.GaussianBump(-0.9, 0.9, 1.0, 0.1)(np.abs(grid.omegas()))
    assert np.array_equal(full_grid(narrow, grid).values, expected)
    assert not np.array_equal(narrow.values, default.values)


def test_mixed_entry_may_repeat_the_kernel_omega():
    # perfbench's pool entries carry the omega of mixed_to_json_dict.
    ms = harness.build_mixed_signal(_entry({**_MIXED, "omega": 1.0}), 1.0)
    assert ms.omega == 1.0


@pytest.mark.parametrize(
    "ids, message",
    [
        (["a", "a"], "duplicate signal id 'a'"),
        (["a,b"], "signal id must be a string"),
        (['a"b'], "signal id must be a string"),
        (["a\nb"], "signal id must be a string"),
        ([7], "signal id must be a string"),
    ],
    ids=["duplicate", "comma", "quote", "line-break", "number"],
)
def test_signal_ids_are_unique_csv_fields(ids, message):
    # Two entries with one id gave robustness one sidecar entry for two
    # ladders, and "a,b" wrote a 9-field row under the 8-column header.
    signal = base_config()["signals"][0]
    with pytest.raises(ConfigError, match=message):
        config_from_dict(base_config(signals=[{**signal, "id": sid} for sid in ids]))


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

    for fn_name in ("make_bandlimited_signal", "make_highfreq_signal", "make_mixed_signal",
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
        ("sweep", run_convergence_sweep, 5),  # one error per rung, no y
        ("robustness", run_robustness_probe, 7),  # 7 rungs
        ("decompose", run_decomposition_demo, 15),  # 2 errors per rung, 1 recombined
    ],
    ids=["sweep", "robustness", "decompose"],
)
def test_inverse_transform_budget(monkeypatch, name, op, inverses):
    # Grid signals are spectra: no op inverts a signal it does not predict.
    # The configs' signals are Hermitian, so every inverse is a real one, and
    # results carry the halves they inverted: nothing is mirrored.
    cfg = config_from_dict(json.loads((ROOT / "configs" / f"{name}.json").read_text()))
    calls = helpers.record_inverse_transforms(monkeypatch)
    mirrored, mirror = [], transforms.mirror_half

    def mirror_half(*args, **kwargs):
        mirrored.append(args)
        return mirror(*args, **kwargs)

    for module in (transforms, harness):
        monkeypatch.setattr(module, "mirror_half", mirror_half)
    op(cfg)
    assert helpers.inverses_made(calls, cfg.grid.n) == inverses
    assert mirrored == []


def _slow_decay_synth_config(tmp_path, **outputs) -> str:
    # K = 1/(p - 1) at gamma = 5 on GridSpec(2**16, 200): |K_hat| at the grid
    # ends is 0.14.
    doc = base_config(gamma_ladder=[5.0], grid={"n": 2**16, "span": 200.0}, outputs=outputs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return str(cfg)


@pytest.mark.parametrize("decay_tol, code, error", [
    (None, 1, "SpectrumNotDecayed"),
    (1.0, 0, None),
    (math.nan, 2, "ConfigError"),
    (math.inf, 2, "ConfigError"),
    (0.0, 2, "ConfigError"),
    (-1.0, 2, "ConfigError"),
])
def test_cli_synth_decay_tol(tmp_path, capsys, decay_tol, code, error):
    # A NaN decay_tol used to turn the decay check off (exit 0).
    outputs = {} if decay_tol is None else {"decay_tol": decay_tol}
    assert cli_main(["synth", "--config", _slow_decay_synth_config(tmp_path, **outputs)]) == code
    if error is not None:
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == error


@pytest.mark.parametrize("decay_tol", [math.nan, math.inf, 0.0, -1.0])
def test_synthesize_rejects_bad_decay_tol(single_pole, decay_tol):
    predictor = PredictorTransfer(single_pole, 5.0)
    with pytest.raises(DomainError, match="decay_tol"):
        synthesize_time_predictor(predictor, GridSpec(2**10, 100.0), decay_tol)


def _deviations_scaled_down(real):
    return lambda *args: [d * 1e-9 for d in real(*args)]


def _deviation_values_doubled(real):
    return lambda predictor, w: 2.0 * real(predictor, w)


def _inverse_offset(real):
    def offset_sum_inverse(first):
        inverse = real(first)

        def offset(rungs):
            e = inverse(rungs)
            return signals.SampledSignal(e.t0, e.dt, e.values + 1.0)
        return offset
    return offset_sum_inverse


def _norms_inflated(real):
    def inflated(e):
        err_l2, err_linf = real(e)
        return err_l2 + 1.0, err_linf
    return inflated


@pytest.mark.parametrize(
    "command, config, target, wrap, signal_id, holds",
    [
        ("bound-check", "bound_check", "_ladder_deviations", _deviations_scaled_down, "tone",
         lambda measured, bound: measured > 1e6 * bound > 0.0),
        ("bound-check", "bound_check", "_deviation_values", _deviation_values_doubled, "tone",
         lambda measured, bound: bound == pytest.approx(2.0 * measured, rel=1e-6)),
        ("decompose", "decompose", "error_sum_inverse", _inverse_offset, "mix",
         lambda measured, bound: measured == pytest.approx(1.0) and bound < 1e-11),
        ("decompose", "decompose", "signal_norms", _norms_inflated, "mix",
         lambda measured, bound: bound < measured <= bound + 1.0),
    ],
    ids=["uniform-bound", "single-atom", "decompose-split-sum", "decompose-triangle"],
)
def test_cli_bound_violation_exits_1_with_record_and_writes_nothing(
        tmp_path, monkeypatch, capsys, command, config, target, wrap, signal_id, holds):
    # No shipped config reaches these four raises, so each is forced by
    # perturbing the value its check reads.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, target, wrap(getattr(harness, target)))
    assert cli_main([command, "--config", str(ROOT / "configs" / f"{config}.json")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "BoundViolation"
    assert (record["gamma"], record["signal_id"]) == (2.0, signal_id)
    assert holds(record["measured"], record["bound"])
    assert list(tmp_path.iterdir()) == []


def test_cli_decompose_rising_total_is_a_monotonicity_violation(tmp_path, monkeypatch, capsys):
    # The recombined ladder fails as its parts do: a MonotonicityViolation
    # record naming the signal, and no CSV.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_recombined_errors", lambda _id, r_low, _r_high, _inverse: (
        float(r_low.gamma), float(r_low.gamma)))
    assert cli_main(["decompose", "--config", str(ROOT / "configs" / "decompose.json")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "MonotonicityViolation"
    assert (record["signal_id"], record["gamma_prev"], record["gamma"]) == ("mix", 2.0, 5.0)
    assert not (tmp_path / "decompose.csv").exists()


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


def test_cli_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    # A missing directory used to end in a FileNotFoundError traceback (exit 1).
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    missing = str(tmp_path / "missing" / "sweep.csv")
    doc["outputs"] = {"csv": missing}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["sweep", "--config", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and missing in record["message"]


@pytest.mark.parametrize(
    "command, config, key, flags",
    [
        ("sweep", "sweep", "sidecar", []),
        ("sweep", "sweep", "svg", ["--emit-svg"]),
        ("bound-check", "bound_check", "sidecar", []),
        ("synth", "synth", "sidecar", []),
    ],
    ids=["sweep-sidecar", "sweep-svg", "bound-check-sidecar", "synth-sidecar"],
)
def test_cli_missing_output_directory_writes_and_computes_nothing(tmp_path, monkeypatch, capsys,
                                                                  command, config, key, flags):
    # The CSV used to be written before the sidecar's directory was found
    # missing: exit 2, with sweep.csv left behind and the op run for nothing.
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the op ran")

    for op in harness._OPS:
        monkeypatch.setitem(harness._OPS, op, forbidden)
    monkeypatch.setattr(harness, "synthesize_time_predictor", forbidden)
    monkeypatch.chdir(tmp_path)
    doc = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    doc["outputs"][key] = f"missing/{key}.out"
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert cli_main([command, "--config", "cfg.json", *flags]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and f"missing/{key}.out" in record["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_synth_shipped_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["synth", "--config", str(ROOT / "configs" / "synth.json")]) == 0
    sidecar = json.loads((tmp_path / "synth_summary.json").read_text())
    assert (sidecar["n"], sidecar["span"], sidecar["gamma"]) == (2**16, 64.0, 1.0)
    assert sidecar["spectrum_end_magnitude"] <= 1e-8
    assert sidecar["leakage"] < 1e-12


@pytest.mark.parametrize(
    "command, config_path, name, flags",
    [
        ("sweep", GOLDEN / "sweep_config.json", "sweep", ["--emit-svg"]),
        ("bound-check", ROOT / "configs" / "bound_check.json", "bound_check", []),
        ("decompose", ROOT / "configs" / "decompose.json", "decompose", []),
    ],
    ids=["sweep", "bound-check", "decompose"],
)
def test_cli_golden_and_determinism(tmp_path, monkeypatch, command, config_path, name, flags):
    monkeypatch.chdir(tmp_path)
    assert cli_main([command, "--config", str(config_path), *flags]) == 0
    produced = (tmp_path / f"{name}.csv").read_text()
    golden = (GOLDEN / f"{name}_golden.csv").read_text()

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

    if "--emit-svg" in flags:
        assert (tmp_path / f"{name}.svg").read_text().startswith("<svg")

    # Bit-identical reproduction with the same config and seed.
    (tmp_path / f"{name}.csv").unlink()
    assert cli_main([command, "--config", str(config_path)]) == 0
    assert (tmp_path / f"{name}.csv").read_bytes() == produced.encode()


_EMPTY_PLOT_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="420">
<rect width="640" height="420" fill="white"/>
<line x1="50" y1="370" x2="590" y2="370" stroke="black"/>
<line x1="50" y1="50" x2="50" y2="370" stroke="black"/>
<polyline points="50.00,370.00 590.00,370.00" fill="none" stroke="steelblue" stroke-width="1.5"/>
<circle cx="50.00" cy="370.00" r="3" fill="steelblue"/>
<circle cx="590.00" cy="370.00" r="3" fill="steelblue"/>
<text x="320" y="20" text-anchor="middle" font-size="14">error vs gamma</text>
<text x="320" y="408" text-anchor="middle" font-size="12">|gamma|</text>
<text x="14" y="210" text-anchor="middle" font-size="12" transform="rotate(-90 14 210)">err_l2</text>
</svg>
"""


def test_error_plot_svg_text_is_pinned():
    # The exact text the CLI writes: the sweep golden's ladder (the SVG of
    # configs/sweep.json hashes the same) and an all-zero ladder, which
    # has no point on log axes and falls back to a flat line.
    from bandcast.svgplot import line_plot_svg

    rows = (GOLDEN / "sweep_golden.csv").read_text().splitlines()[1:]
    gammas = [float(row.split(",")[1]) for row in rows]
    errs = [float(row.split(",")[2]) for row in rows]
    labels = ("error vs gamma", "|gamma|", "err_l2")
    svg = line_plot_svg(gammas, errs, *labels)
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "0759076e383059c62bbc74be35d82906dc2936eca680c78fa29c74c4bb3bb8a2"
    )
    assert line_plot_svg(gammas, [0.0] * len(gammas), *labels) == _EMPTY_PLOT_SVG


def _run_module(module, *args, cwd, timeout=120, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_huge_multiplicity_ends_in_seconds(tmp_path):
    # V - 1 took one step per unit of multiplicity: with 2**62 sweep was still
    # in deviation_norm after minutes.  It ends with finite rows or a typed
    # record.
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    doc["kernel"]["poles"][0]["mult"] = 2**62
    doc["outputs"] = {"csv": "sweep.csv"}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    proc = _run_module("bandcast", "sweep", "--config", "cfg.json", cwd=tmp_path, timeout=10)
    if proc.returncode == 0:
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[2:5])
    else:
        record = json.loads(proc.stderr.strip().splitlines()[-1])
        assert proc.returncode == 1
        assert issubclass(getattr(bandcast.errors, record["error"]), bandcast.errors.BandcastError)


@pytest.mark.parametrize("module", ["bandcast", "bandcast.harness"])
def test_module_entry_points_run_the_cli(tmp_path, module):
    config_path = GOLDEN / "sweep_config.json"
    proc = _run_module(module, "sweep", "--config", str(config_path), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == (
        (GOLDEN / "sweep_golden.csv").read_text().splitlines()[0]
    )


def test_sweep_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # At n = 2**16 a BLAS dot product of the error samples with themselves
    # already rounds differently on one and on two OpenBLAS threads; the
    # norms sum without BLAS, so the CSV bytes agree.  At n = 2048 they would
    # agree either way.
    n = 2**16
    doc = json.loads((ROOT / "configs" / "sweep.json").read_text())
    doc.update(grid={"n": n, "span": 400.0 * n / 2048}, outputs={"csv": "sweep.csv"})
    csvs = []
    for threads in ("1", "2"):
        run_dir = tmp_path / threads
        run_dir.mkdir()
        (run_dir / "cfg.json").write_text(json.dumps(doc))
        proc = _run_module("bandcast", "sweep", "--config", "cfg.json", cwd=run_dir,
                           OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        csvs.append((run_dir / "sweep.csv").read_bytes())
    assert csvs[0] == csvs[1]


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


# Exports kept without a caller in src/ or perfbench/, each for a reason.
_EXPORTS_WITHOUT_CALLER = {
    "fourier_forward",  # the way in for measured time signals (ROADMAP 6b)
    "mobius_real_part",  # acceptance c01 checks the paper's Re z identity with it
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_export_has_a_caller():
    # A public name that only tests call belongs in tests/helpers.py.
    import bandcast

    used = set()
    files = [*(ROOT / "src" / "bandcast").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for target in _load_tracer().TARGETS:
        for text in target:
            used.update(text.split("."))
    unused = set(bandcast.__all__) - used - _EXPORTS_WITHOUT_CALLER
    assert not unused, sorted(unused)


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these names in place, as Tracer.install does:
    # a module attribute, or a method in its class's own __dict__.  A name
    # that no longer resolves crashes the traced benchmark run.
    for _layer, module_name, attr in _load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(owner, cls_name).__dict__, f"{module_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"
