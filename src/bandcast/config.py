"""Experiment configs: one schema table and the one reader that applies it.

The tables at the end hold every intake rule: for each section and entry
kind, each key's type, default and rules.  The reader refuses an unknown
key, a wrong JSON type (a bool is no number, 1.5 no integer and "2"
neither), a wrong list length, an unknown enum value or an out-of-range
value with a ConfigError naming the dotted path (``kernel.poles[0].pared``).
A rule of GridSpec or build_kernel keeps its error type and gains the
section's path (``grid: ...``).  Numbers must be finite, except
DENSITY_NUMBERs: a mixed entry checks those when it is built
(bandcast.harness, exit 1).  An object is read into a frozen dataclass
whose fields are its keys ("class" as ``class_``).
"""

from __future__ import annotations

import json
import keyword
import math
from collections import namedtuple
from dataclasses import make_dataclass

from .errors import BandcastError, ConfigError
from .grids import GridSpec, as_float, in_class
from .kernels import build_kernel

REQUIRED = object()  # the default of a key that must be given


class _Refused(Exception):
    """(text) a value breaks a rule, or (text, key) a rule that joins keys
    refuses `key`; the reader says where."""


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _error(path: str, label: str, text: str) -> ConfigError:
    what = f"{label} {text}"
    return ConfigError(what if path in ("", label) else f"{path}: {what}")


def _json(kind: type, finite: bool = True):
    """Parser of a JSON scalar of `kind`; any JSON number reads as a float."""
    accepted = (int, float) if kind is float else kind
    name = {float: "number", int: "integer", bool: "bool", str: "string"}[kind]

    def parse(value):
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            no_bool = " and takes no bool" if isinstance(value, bool) else ""
            raise _Refused(f"must be a JSON {name}{no_bool}, got {value!r}")
        value = as_float(value) if kind is float else kind(value)
        if finite and kind is float and not math.isfinite(value):
            raise _Refused(f"must be finite, got {value!r}")
        return value

    return parse


NUMBER, DENSITY_NUMBER = _json(float), _json(float, finite=False)
INTEGER, BOOL, STRING = _json(int), _json(bool), _json(str)


def _signal_id(value) -> str:
    """An id is one CSV field and one sidecar key."""
    if not isinstance(value, str) or any(c in value for c in ',"\r\n'):
        raise _Refused(f"must be a string without ',', '\"' or a line break, got {value!r}")
    return value


# A JSON list of `item`s, of `length` entries if given.  Its entries are
# labelled as the list, or by `labels`: one label, or one per entry.
ListOf = namedtuple("ListOf", "item length labels", defaults=(None, None))


def _read(type_, value, path: str, label: str, omega):
    """`value` read as `type_`: a Record, a union (a dict of Records, picked
    by the value's "kind"), a ListOf, an enum (the tuple of its values) or a
    parser.  `omega` is the kernel's."""
    if value is REQUIRED:
        raise _error(path, label, "is required")
    if isinstance(type_, Record):
        return type_.read(value, path, label, omega)
    if isinstance(type_, dict):
        if not isinstance(value, dict):
            raise _error(path, label, f"must be a JSON object, got {value!r}")
        prefix = next(iter(type_.values())).prefix
        _read(tuple(type_), value.get("kind", REQUIRED), _at(path, "kind"), prefix + "kind", omega)
        return type_[value["kind"]].read(value, path, label, omega)
    if isinstance(type_, ListOf):
        if not isinstance(value, list) or type_.length not in (None, len(value)):
            size = "" if type_.length is None else f" of {type_.length} entries"
            raise _error(path, label, f"must be a JSON list{size}, got {value!r}")
        labels = type_.labels or label
        labels = [labels] * len(value) if isinstance(labels, str) else labels
        return tuple(_read(type_.item, v, f"{path}[{i}]", labels[i], omega)
                     for i, v in enumerate(value))
    if isinstance(type_, tuple):  # an enum; a ListOf, a namedtuple, was read above
        if value not in type_:
            raise _error(path, label, f"must be one of {', '.join(map(repr, type_))}, "
                                      f"got {value!r}")
        return value
    try:
        return type_(value)
    except _Refused as exc:
        raise _error(path, label, str(exc)) from None


class Record:
    """A JSON object: `fields` maps each key, labelled `prefix` + key, to
    (type, default, *rules).  A default is a JSON value, read as a given one
    (None: absent); a rule is (predicate(value, omega), text to format with
    the value and omega).  `finish(values, omega)` applies the rules that
    join keys, and may fill defaults that depend on other keys; `make`
    builds the result from the values, or names the frozen dataclass that
    holds them.  With `entries` (lo, hi), a list of lo to hi values is read
    as the first keys in order."""

    def __init__(self, prefix: str, fields: dict, make, finish=None, entries=None):
        self.prefix, self.fields, self.finish, self.entries = prefix, fields, finish, entries
        self.make = make if callable(make) else make_dataclass(
            make, [key + "_" * keyword.iskeyword(key) for key in fields], frozen=True)

    def read(self, value, path, label, omega):
        if self.entries and isinstance(value, list) and \
                self.entries[0] <= len(value) <= self.entries[1]:
            value = dict(zip(self.fields, value))
        elif not isinstance(value, dict):
            entries = " or a list of %d to %d entries" % self.entries if self.entries else ""
            raise _error(path, label, f"must be a JSON object{entries}, got {value!r}")
        for key in value:
            if key not in self.fields:
                raise ConfigError(f"{_at(path, key)}: unknown key {key!r}")
        values = {}
        for key, (type_, default, *rules) in self.fields.items():
            at, name, raw = _at(path, key), self.prefix + key, value.get(key, default)
            got = None if raw is None and default is None else _read(type_, raw, at, name, omega)
            for ok, text in rules:
                if not ok(got, omega):
                    raise _error(at, name, text.format(value=got, omega=omega))
            values[key + "_" * keyword.iskeyword(key)] = got
            if key == "kernel":  # the keys after it are read against its band constant
                omega = got.omega
        if self.finish is not None:
            try:
                self.finish(values, omega)
            except _Refused as exc:
                text, key = exc.args
                raise ConfigError(f"{_at(path, key)}: {text}") from None
        try:
            return self.make(**values)
        except BandcastError as exc:  # a GridSpec or kernel rule, named by its section
            raise type(exc)(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Rules that join keys


def _finish_part(v: dict, omega: float) -> None:
    """A part without a kind is bandlimited inside [-omega, omega], else
    highfreq.  A bandlimited spectrum is Hermitian exactly when its support
    is symmetric, so hermitian defaults to that and must agree."""
    lo, hi = v["support"]
    if v["kind"] is None:
        v["kind"] = "bandlimited" if in_class(max(abs(lo), abs(hi)), "LOW", omega) else "highfreq"
    bandlimited, symmetric = v["kind"] == "bandlimited", lo == -hi
    if v["hermitian"] is None:
        v["hermitian"] = symmetric or not bandlimited
    elif bandlimited and v["hermitian"] != symmetric:
        raise _Refused(f"hermitian must be true on a bandlimited part exactly when lo == -hi; "
                       f"got {v['hermitian']!r} on {[lo, hi]}", "hermitian")
    if v["sigma"] is not None and v["envelope"] != "gaussian":
        raise _Refused("unknown key 'sigma': only the gaussian envelope takes it", "sigma")


def _finish_sampled(v: dict, _omega) -> None:
    if not len(v["omegas"]) == len(v["re"]) == len(v["im"]):
        raise _Refused("a sampled density takes one re and one im per omega", "re")


def _finish_config(v: dict, _omega) -> None:
    if (v["domain"] == "LOW") != (v["gamma_ladder"][0] > 0):
        raise _Refused(f"gamma_ladder's sign does not match domain {v['domain']}", "domain")
    ids = [spec.id for spec in v["signals"]]
    for i, sid in enumerate(ids):
        if sid in ids[:i]:
            raise _Refused(f"duplicate signal id {sid!r}", f"signals[{i}].id")


def _kernel(omega: float, poles, numerator):
    """A paired pole with b != 0 stands for itself and its conjugate mate."""
    triples = []
    for a, b, mult, paired in poles:
        triples += [(a, b, mult), (a, -b, mult)] if paired and b != 0.0 else [(a, b, mult)]
    return build_kernel(triples, numerator, omega)


# ---------------------------------------------------------------------------
# The tables


_NONNEGATIVE = (lambda x, _omega: x >= 0, "must be >= 0, got {value!r}")
_KIND = (STRING, REQUIRED)  # checked by the union that picked the record
_ID = (_signal_id, REQUIRED)
_PART = {
    "kind": (("bandlimited", "highfreq"), None),
    "envelope": (("raised_cosine", "indicator", "gaussian"), "raised_cosine"),
    "support": (ListOf(NUMBER, 2), REQUIRED),
    "hermitian": (BOOL, None),
    "height": (NUMBER, 1.0),
    "sigma": (NUMBER, None),
}
_BUMP = {"kind": _KIND, "lo": (NUMBER, REQUIRED), "hi": (NUMBER, REQUIRED),
         "height": (DENSITY_NUMBER, 1.0)}
_DENSITY = {
    "raised_cosine": Record("density ", _BUMP, "RaisedCosineItem"),
    "gaussian": Record("density ", {**_BUMP, "sigma": (DENSITY_NUMBER, None)}, "GaussianItem"),
    "sampled": Record("density ", {"kind": _KIND, **{key: (ListOf(DENSITY_NUMBER), REQUIRED)
                                                      for key in ("omegas", "re", "im")}},
                      "SampledItem", _finish_sampled),
}
_GRID_SIGNAL = Record("signal ", {"id": _ID, **_PART}, "GridEntry", _finish_part)
_SIGNAL = {
    "bandlimited": _GRID_SIGNAL,
    "highfreq": _GRID_SIGNAL,
    "composite": Record("signal ", {"id": _ID, "kind": _KIND, "parts": (ListOf(
        Record("part ", _PART, "GridPart", _finish_part)), REQUIRED)}, "CompositeEntry"),
    "mixed": Record("signal ", {
        "id": _ID, "kind": _KIND,
        "atoms": (ListOf(ListOf(NUMBER, 3, ("atom omega", "atom re", "atom im"))), []),
        "density": (ListOf(_DENSITY), []), "class": (("LOW", "HIGH"), REQUIRED),
        "epsilon": (NUMBER, REQUIRED),
        "omega": (NUMBER, None, (lambda w, omega: w in (None, omega),
                                 "{value!r} is not the kernel's {omega}")),
    }, "MixedEntry"),
}
_POLE = Record("pole ", {"a": (NUMBER, REQUIRED), "b": (NUMBER, REQUIRED),
                         "mult": (INTEGER, REQUIRED), "paired": (BOOL, False)},
               lambda a, b, mult, paired: (a, b, mult, paired), entries=(3, 4))
SCHEMA = Record("", {
    "kernel": (Record("kernel ", {"omega": (NUMBER, REQUIRED), "poles": (ListOf(_POLE), REQUIRED),
                                  "numerator": (ListOf(NUMBER), REQUIRED)}, _kernel), REQUIRED),
    "gamma_ladder": (
        ListOf(NUMBER, labels="gamma_ladder entry"), REQUIRED,
        (lambda g, _omega: len(g) > 0 and all(g), "must be nonempty and nonzero, got {value}"),
        (lambda g, _omega: len({math.copysign(1.0, x) for x in g}) == 1,
         "must have one sign, got {value}"),
        (lambda g, _omega: all(abs(b) > abs(a) for a, b in zip(g, g[1:])),
         "must be strictly increasing in |gamma|, got {value}"),
    ),
    "epsilon": (NUMBER, 0.0, (lambda e, omega: 0 <= e < omega,
                              "must lie in [0, omega = {omega}), got {value!r}")),
    "domain": (("LOW", "HIGH"), "LOW"),
    "grid": (Record("grid.", {"n": (INTEGER, 2048), "span": (NUMBER, 400.0)}, GridSpec), {}),
    "seed": (INTEGER, 0, _NONNEGATIVE),
    "signals": (ListOf(_SIGNAL), []),
    "noise": (Record("noise.", {
        "eta": (NUMBER, REQUIRED, _NONNEGATIVE),
        "support": (ListOf(NUMBER, 2), REQUIRED,
                    (lambda s, omega: omega < s[0] < s[1],
                     "must lie strictly outside the band, above omega = {omega}; got {value}")),
    }, "Noise"), None),
    "outputs": (Record("outputs.", {
        **{key: (STRING, "") for key in ("csv", "sidecar", "svg")},  # "": not written
        "decay_tol": (NUMBER, 1e-8, (lambda tol, _omega: tol > 0, "must be > 0, got {value!r}")),
    }, "Outputs"), {}),
}, "ExperimentConfig", _finish_config)
ExperimentConfig = SCHEMA.make


def config_from_dict(doc) -> ExperimentConfig:
    return SCHEMA.read(doc, "", "config", None)


def load_config(path: str, seed: int | None = None) -> ExperimentConfig:
    """The config in the JSON file at `path`; a `seed` replaces its own."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if seed is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed}
    return config_from_dict(doc)
