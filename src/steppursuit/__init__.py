"""Step-function approximation of scalar sequences by greedy window pursuit."""

from .core import l2_norm
from .dictionary import WaveformAtom, alternating_pair_modulus, inner_product
from .maximizer import (
    best_window,
    best_window_single_signed,
    brute_force_best,
    three_term_max,
)
from .pursuit import (
    PursuitConfig,
    breakpoints,
    energy_ledger,
    pursuit_step,
    reconstruct,
    run_pursuit,
)
from .simulate import kmeans_1d, mse, run_preset
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "l2_norm",
    "WaveformAtom",
    "inner_product",
    "alternating_pair_modulus",
    "best_window",
    "best_window_single_signed",
    "brute_force_best",
    "three_term_max",
    "PursuitConfig",
    "pursuit_step",
    "run_pursuit",
    "reconstruct",
    "energy_ledger",
    "breakpoints",
    "kmeans_1d",
    "mse",
    "run_preset",
    "run_suite",
    "__version__",
]
