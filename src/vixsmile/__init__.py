"""Short-maturity implied-volatility asymptotics for VIX and realized-variance
options under mixed rough lognormal volatility models, with an exact-Gaussian
Monte Carlo pricer for validation."""

from .asymptotics import (
    heston_vix_skew_sign,
    rv_atmi_approx,
    rv_atmi_limit,
    rv_skew_limit,
    sabr_mixed_vix_skew,
    vix_atmi_approx,
    vix_atmi_limit,
    vix_skew_approx,
    vix_skew_limit,
)
from .mc import (
    PathBatch,
    SimGrid,
    build_rv_sampler,
    build_vix_sampler,
    sample_common,
    sample_rv,
    sample_vix,
)
from .model import HestonParams, ModelParams
from .pricing import atmi, atmi_skew

__version__ = "0.1.0"

__all__ = [
    "HestonParams",
    "ModelParams",
    "PathBatch",
    "SimGrid",
    "atmi",
    "atmi_skew",
    "build_rv_sampler",
    "build_vix_sampler",
    "heston_vix_skew_sign",
    "rv_atmi_approx",
    "rv_atmi_limit",
    "rv_skew_limit",
    "sabr_mixed_vix_skew",
    "sample_common",
    "sample_rv",
    "sample_vix",
    "vix_atmi_approx",
    "vix_atmi_limit",
    "vix_skew_approx",
    "vix_skew_limit",
]
