"""Analysis and Monte Carlo simulation of a cache-enabled heterogeneous
wireless network (base stations, relays, cache-enabled users as D2D
transmitters): association and user-state probabilities, ergodic rates,
outage, processor-sharing queueing metrics, and a spatial simulation oracle.

Every model input comes from one ``NetworkConfig``: the state matrix and
the active D2D density read the Zipf content popularity from its ``gamma``
and ``n_contents``.  Rates (``rate_case1..3``) and outage (``sinr_cdf``, the
one outage entry point) derive from one coverage probability per radio case,
all in ``rates``.
Quadrature tolerances are fixed inside ``quadrature``; no public function
takes one.  ``queue_metrics`` is the one steady-state analysis of the
processor-sharing queues: its steady rulers give stability, occupancy,
throughput and delay, the binding node type and the maximum arrival rate
``varsigma_star``.  The simulation oracle measures association, rates and
outage in one pass, ``run_monte_carlo``.
"""

from .association import (
    D2DActivity,
    StateMatrix,
    active_d2d_density,
    first_association_probability,
    ordering_probability,
    state_matrix,
)
from .config import NetworkConfig, dbm_to_watts, fig6_config, load_config, watts_to_dbm
from .montecarlo import (
    EmpiricalEstimate,
    MonteCarloSummary,
    SpatialRealization,
    run_monte_carlo,
    sample_topology,
)
from .queueing import (
    CtmcTrace,
    QueueClassLoad,
    QueueMetrics,
    RateMatrix,
    baseline_model,
    class_loads,
    ctmc_simulate,
    network_model,
    queue_metrics,
    rate_matrix,
    throughput_gain,
)
from .quadrature import QuadratureError, integrate_interval
from .rates import RateResult, case_rate_table, rate_case1, rate_case2, rate_case3, sinr_cdf
from .specfun import gauss_2f1, kernel_z1, kernel_z2

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
