"""Skorokhod embeddings of atomic distributions into Brownian motion by
balayage and tangent constructions, with exact piecewise-linear potential
algebra, minimality diagnostics, and exact-exit Monte Carlo verification."""

from .balayage import Interval, balayage, balayage_finite, balayage_semi, delta_m
from .construct import (
    EmbeddingPlan,
    Step,
    Tangent,
    ay_sweep,
    barycentre_phi,
    cw_run,
    cw_step,
    expected_local_time_zero,
    jacka_plan,
    reversed_ay_sweep,
    tangent_ratio_min,
    vallois_eps_plan,
)
from .errors import (
    EmbedError,
    InadmissibleConstantError,
    IncompletePlanError,
    InvalidIntervalError,
    InvalidParameterError,
    InvalidTangentError,
    MalformedPotentialError,
    ProblemSpecError,
    UndefinedBarycentreError,
)
from .measure import (
    MASS_TOL,
    VALUE_TOL,
    AtomicMeasure,
    PLConcave,
    gap_constant,
    pair,
    sup_difference,
)
from .minimality import (
    ContactRegion,
    MinimalityReport,
    TailEstimate,
    ay_max_law,
    contact_region,
    max_law_bound,
    minimality_report,
)

__version__ = "0.1.0"

#: the Monte Carlo names: the first use of one imports ``simulate``, the one
#: module that needs numpy, so a command that never simulates never loads it
_SIMULATE = ("EmpiricalLaw", "PathSample", "empirical_law", "sample_path",
             "tail_probability", "tv_distance")


def __getattr__(name):
    if name in _SIMULATE:
        from . import simulate
        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
