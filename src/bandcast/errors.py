"""Exception types shared across the package.

Every error raised by bandcast derives from :class:`BandcastError`, so callers
can catch the whole family with one clause.  Exceptions that report a measured
violation carry the offending numbers as attributes; their ``str()`` includes
them so CLI failure records are self-diagnosing.
"""

from __future__ import annotations


class BandcastError(Exception):
    """Base class for all bandcast errors."""


class PoleOutOfRegion(BandcastError):
    """A pole violates the admissible region (a <= 0 or |b| >= omega)."""


class DegreeViolation(BandcastError):
    """Numerator degree is not strictly below the denominator degree."""


class NonConjugateSymmetric(BandcastError):
    """A complex pole has no conjugate mate, so the time kernel is not real."""


class NumericalDegeneracy(BandcastError):
    """Distinct pole entries (nearly) coincide, or residues are unreliable."""


class NonFiniteResult(BandcastError):
    """A computed value or norm is NaN or infinite."""


class QuadratureNotConverged(BandcastError):
    """An adaptive quadrature failed to reach the requested tolerance."""


class DomainError(BandcastError):
    """An argument lies outside the mathematical domain of the operation."""


class Saturated(BandcastError):
    """A compensator factor overflowed; value carried in log form.

    Attributes
    ----------
    log_magnitude : float
        Natural log of the magnitude of the (unrepresentable) value.
    phase : float
        Phase of the value, radians.
    """

    def __init__(self, log_magnitude: float, phase: float):
        self.log_magnitude = float(log_magnitude)
        self.phase = float(phase)
        super().__init__(
            f"saturated: log-magnitude {self.log_magnitude:.6g}, "
            f"phase {self.phase:.6g} rad"
        )


class SpectrumNotDecayed(BandcastError):
    """The transfer magnitude at the frequency grid ends exceeds the decay tolerance."""


class SaturatedSpectrum(BandcastError):
    """The predictor transfer saturates somewhere on the synthesis grid."""


class TruncationNotJustified(BandcastError):
    """|K(i w)| stops being finite before it falls to the HIGH-domain truncation tolerance."""


class GridMismatch(BandcastError):
    """Two sampled objects do not share a compatible uniform grid."""


class InsufficientHistory(BandcastError):
    """The convolution horizon exceeds the available past samples."""


class ClassMismatch(BandcastError):
    """Signal frequency content is inconsistent with the predictor's target class."""


class SupportViolation(BandcastError):
    """A spectrum or noise support lies outside its allowed region."""


class ClassConstraintViolation(BandcastError):
    """An atom or density support violates the declared mixed-spectrum class."""


class MonotonicityViolation(BandcastError):
    """An error ladder failed to decrease strictly.

    Attributes carry the ladder's signal and the offending pair:
    (signal_id, gamma_prev, err_prev, gamma, err).
    """

    def __init__(
        self, signal_id: str, gamma_prev: float, err_prev: float, gamma: float, err: float
    ):
        self.signal_id = signal_id
        self.gamma_prev = gamma_prev
        self.err_prev = err_prev
        self.gamma = gamma
        self.err = err
        super().__init__(
            f"error of signal {signal_id!r} did not decrease: err({gamma_prev:g}) = "
            f"{err_prev:.6e} -> err({gamma:g}) = {err:.6e}"
        )


class BoundViolation(BandcastError):
    """A measured error exceeded its theoretical bound.

    Carries (gamma, signal_id, measured, bound).
    """

    def __init__(self, gamma: float, signal_id: str, measured: float, bound: float):
        self.gamma = gamma
        self.signal_id = signal_id
        self.measured = measured
        self.bound = bound
        super().__init__(
            f"bound violated for signal {signal_id!r} at gamma={gamma:g}: "
            f"measured {measured:.6e} > bound {bound:.6e}"
        )


class ConfigError(BandcastError):
    """An experiment configuration is malformed or inconsistent."""
