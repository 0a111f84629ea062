"""mmWave downlink coverage toolkit: Monte Carlo and quadrature engines for
beam-aware serving policies over Poisson-deployed transmitters."""

from .radio import AntennaConfig, ChannelParams, NetworkParams
from .montecarlo import (CoverageCurve, SimPlan, run_coverage, run_coverages, run_power_ccdf,
                         run_power_ccdfs)
from .analytic import coverage_p1, coverage_p2, coverage_p3, serving_power_law
from .dominant import coverage_dom_p2, coverage_dom_p3

__version__ = "0.1.0"

__all__ = [
    "AntennaConfig",
    "ChannelParams",
    "NetworkParams",
    "SimPlan",
    "CoverageCurve",
    "run_coverage",
    "run_coverages",
    "run_power_ccdf",
    "run_power_ccdfs",
    "coverage_p1",
    "coverage_p2",
    "coverage_p3",
    "coverage_dom_p2",
    "coverage_dom_p3",
    "serving_power_law",
    "__version__",
]
