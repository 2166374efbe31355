"""Gaussian-process long-horizon forecasting with skewed-Laplace spectral
mixture kernels."""

from .errors import DataError, DimensionMismatchError, NumericalError, SkewGPError
from .kernels import (
    BaselineKernelParams,
    SlsmComponent,
    SlsmParams,
    baseline_kernel,
    gram,
    kernel_value,
    slsm_component,
    spectral_density,
)
from .gp import (
    Dataset,
    Normalization,
    Prediction,
    TrainedModel,
    fit,
    model_from_json,
    model_to_json,
    nlml,
    nlml_grad,
    sample_prior,
)
from .optimize import OptConfig, minimize, transform, untransform
from .spectral import MixtureFit, SpectrumEstimate, em_mixture, init_params, periodogram
from .pruning import PruneConfig, lth_fit
from .rbcm import ExpertEnsemble, partition, rbcm_fit, rbcm_predict
from .metrics import metric_mae, metric_mse, metric_smse

__version__ = "0.1.0"
