"""Active disturbance rejection control for fractional-order plants.

Three SISO control structures built around extended state observers — an
integer-order observer, a fully fractional one, and an improved hybrid that
adds an order-mismatch correction channel — together with Grunwald-Letnikov
fractional calculus, a simulated fractional plant, sector-based stability
analysis, and closed-form disturbance-estimation error curves.
"""

from .control import (AdrcConfig, AdrcVariant, SimulationDiverged, Trajectory,
                      loop_symbol, run_closed_loop)
from .experiments import (DEFAULT_PARAMS, EXPERIMENT_IDS, UnstableConfigError,
                          run_experiment, step_metrics, summarize)
from .fracops import GLOperator, gl_coefficients, gl_differintegral
from .freqdom import bode, delta, g_ifio, g_io, log_grid, mse_ifio, mse_io
from .observers import Feso, Ieso, Ifeso, bandwidth_gains
from .plant import DisturbanceSignal, FracPlant, reconstruct_disturbances
from .stability import (CharPoly, StabilityReport, build_char_poly,
                        loop_sector_test, poly_roots, rationalize_order,
                        sector_test)

__version__ = "0.1.0"

__all__ = [
    "AdrcConfig", "AdrcVariant", "SimulationDiverged", "Trajectory",
    "loop_symbol", "run_closed_loop",
    "DEFAULT_PARAMS", "EXPERIMENT_IDS", "UnstableConfigError",
    "run_experiment", "step_metrics", "summarize",
    "GLOperator", "gl_coefficients", "gl_differintegral",
    "bode", "delta", "g_ifio", "g_io", "log_grid", "mse_ifio", "mse_io",
    "Feso", "Ieso", "Ifeso", "bandwidth_gains",
    "DisturbanceSignal", "FracPlant", "reconstruct_disturbances",
    "CharPoly", "StabilityReport", "build_char_poly", "loop_sector_test",
    "poly_roots", "rationalize_order", "sector_test",
    "__version__",
]
