"""Temporally parameterized neural displacement fields for longitudinal
volume registration: fitting, dense field prediction, Jacobian-determinant
morphometry, and the monotonicity diagnostics."""

from .volume import Volume3D, Volume4DSeries, normalize_intensities, sample_trilinear
from .network import (
    NetworkConfig,
    NetworkState,
    DerivativeRequest,
    DisplacementResult,
    init_network,
    forward,
    forward_with_derivatives,
)
from .losses import LossWeights, LossBreakdown, total_loss
from .trainer import FitConfig, FitReport, fit, predict_field, warp_volume
from .phantom import PhantomSpec, generate_phantom, true_field, true_jacobian_det
from .metrics import dice, warp_labels, sign_consistency, structure_trajectories

__version__ = "0.1.0"
