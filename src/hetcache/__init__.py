"""Analysis and Monte Carlo simulation of a cache-enabled heterogeneous
wireless network (base stations, relays, cache-enabled users as D2D
transmitters): association and user-state probabilities, ergodic rates,
outage, processor-sharing queueing metrics, and two simulation oracles.

README states the model and how to run it.  Each layer's mechanisms are
documented in its own module's docstring, and only there:

- ``config``: the network's parameters, their units and checks, config files;
- ``association``: association and user-state probabilities, Zipf
  popularity, the active D2D density and the model's tables;
- ``specfun``: the interference kernels;
- ``rates``: the coverage of each radio case, the rates and the outage
  (``sinr_cdf``) read from it, and the fixed rules that integrate them;
- ``quadrature``: the tolerances and ``QuadratureError``;
- ``queueing``: the processor-sharing queues, the no-caching baseline and the
  CTMC oracle;
- ``montecarlo``: the spatial oracle;
- ``presets`` and ``cli``: the experiment registry, the figure presets and
  the command line;
- ``results``: the CSV table and JSON envelope that a run writes.
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
