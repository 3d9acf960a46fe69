"""Harmonic functions and conditioning tools for a jump diffusion avoiding an interval.

The model is Brownian motion plus symmetric two-sided exponential jumps.
`model` holds the parameters and fluctuation-theory quantities, `closedform`
the overshoot laws, crossing measures and harmonic functions, `engine` the
exact path simulation and raw estimators, `particles` the weighted-particle
realisation of the conditioned laws, and `suites`/`cli` the verification
harness.
"""

import os

# The package's BLAS calls are short dot products, so an OpenBLAS thread pool
# only costs start-up time and a spinning CPU; an explicit setting still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .closedform import (avoidance_probability, crossing_factor, default_series_depth,
                         gamma_bound, harmonic_plus_partial_sum, harmonic_plus_q_partial_sum,
                         harmonics, nu, overshoot_law)
from .engine import (PathConfig, bridge_cross_prob, empirical_crossing_law,
                     estimate_avoidance, estimate_clock_event, estimate_survival,
                     simulate_path, terminal_sample)
from .model import (Interval, ModelParams, kappa, ladder_exponent, laplace_exponent,
                    potential, potential_q, potential_q_total, wiener_hopf_roots)
from .particles import (EnsembleExtinctionError, drift_probability, harmonicity_residual,
                        occupation_time, propagate_ensemble)
from .suites import emit_table, run_suite

__version__ = "1.0.0"
