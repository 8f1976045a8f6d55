"""Outage probability of the content-access cases.  ``sinr_cdf`` lives in
``rates``, beside the coverage it reads; this module stays so that
``hetcache.outage.sinr_cdf``, which the benchmark's workloads and tracer
address, names the same function."""

from .rates import sinr_cdf  # noqa: F401
