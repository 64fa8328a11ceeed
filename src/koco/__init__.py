"""Second-order kernel online convex optimization.

Exact and sketched kernel Newton-step learners with clipped predictions,
an online ridge-leverage-score row sampler, offline oracles for every
quantity the learners maintain incrementally, and a CLI harness for
reproducible seeded experiments.
"""

from .errors import (ConfigError, DimensionMismatch, KocoError, NoConvergence,
                     NoProgress, NotPositiveDefinite, SchurNotPositive,
                     StreamParseError, TargetOutOfRange, ZeroNormPoint)
from .kernels import KernelSpec, cross_vector, eval_kernel, gaussian, gram, linear, polynomial
from .kons import Kons, KonsConfig, StepRecord, eta_at
from .kors import Dictionary, KorsConfig, KorsSampler, dict_size_bound, required_budget
from .linalg import RegularizedFactor, RegularizedInverse, psd_solve, sym_eigvals
from .losses import (CurvatureProfile, LossEvent, clip_to_interval, curvature_profile,
                     loss_derivative, loss_value)
from .oracle import (ComparatorResult, best_comparator, effective_dimension,
                     exact_rls, logdet_chain, online_effective_dimension,
                     prefix_rls, primal_ons, regret_bound, spectral_audit)
from .skons import SketchedKons, SkonsConfig, sandwich_audit
from .streams import SyntheticSpec, generate_stream, ingest_csv

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
