"""bandcast: a numerical laboratory for causal prediction of anticausal
convolutions of band-limited and high-frequency signals."""

import types

from .engine import (
    PredictionResult,
    anticausal_convolve_oracle,
    causal_convolve,
    error_norms,
    fourier_forward,
    fourier_inverse,
    mixed_predict,
    mixed_predict_ladder,
    spectral_predict,
    spectral_predict_ladder,
)
from .errors import BandcastError
from .grids import GridSpec
from .kernels import (
    RationalAnticausalKernel,
    ResidueExpansion,
    build_kernel,
    eval_time_kernel,
    eval_transfer,
    kernel_from_json,
    kernel_l2_norm,
    kernel_to_json,
    partial_fraction_expand,
)
from .predictor import (
    PredictorTransfer,
    alpha_coefficient,
    deviation_norm,
    eval_compensator,
    eval_predictor_transfer,
    hardy_boundary_check,
    mobius_real_part,
    synthesize_time_predictor,
)
from .signals import (
    GaussianBump,
    MixedSpectrum,
    RaisedCosineBump,
    SampledDensity,
    SampledSignal,
    SampledSpectrum,
    add_outofband_noise,
    cstar_norm,
    ideal_lowpass_split,
    make_bandlimited_signal,
    make_highfreq_signal,
    make_mixed_signal,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
__version__ = "0.1.0"
