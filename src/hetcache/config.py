"""Network configuration, unit conversions and config-file ingestion.

All physical quantities are stored in SI-ish base units: densities in
nodes/m^2, powers in watts, bandwidth in Hz, content size in bits.
dBm / dB values only appear at the file/CLI boundary (keys carrying an
explicit ``_dbm`` / ``_db`` suffix) and are converted on load.

``NetworkConfig`` is the one check on a network: every field must be a
finite real number (an integer for the catalog and cache sizes) within its
range, whether the config is built in code or read from a file.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

from .specfun import check_path_loss_exponent

# Reference area for densities quoted as "n nodes per 500 m disk".
DISK_500M_AREA = math.pi * 500.0**2


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level in dBm to watts (30 dBm -> 1 W)."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    if p_watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(p_watts) + 30.0


def _check_number(name: str, value, integer: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite real number (an
    integer if ``integer``); ``bool`` is rejected, numpy scalars pass."""
    kind = numbers.Integral if integer else numbers.Real
    # a plain int or float skips the slower abstract-base-class check
    if type(value) is not (int if integer else float) and (
            isinstance(value, bool) or not isinstance(value, kind)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a real number'}, "
                         f"got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} lies outside the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")


def db_to_linear(x_db: float) -> float:
    """Convert a ratio in dB (e.g. an SINR threshold) to linear scale."""
    if math.isnan(x_db):
        raise ValueError("nan dB is not a number")
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db!r} dB gives a ratio outside the float range") from None


@dataclass(frozen=True)
class NetworkConfig:
    """All physical and traffic parameters of the three-tier network.

    Tier indices follow the convention: tier 1 = cache-enabled users
    acting as D2D transmitters, tier 2 = relays, tier 3 = base stations.
    ``lambda0`` is the density of all users; the D2D-tier density is the
    derived quantity ``lambda1 = alpha * lambda0`` and is never stored.

    Defaults reproduce the typical evaluation parameter set.
    """

    lambda0: float = 300.0 / DISK_500M_AREA  # users per m^2
    lambda2: float = 5.0 / DISK_500M_AREA    # relays per m^2
    lambda3: float = 1.0 / DISK_500M_AREA    # base stations per m^2
    alpha: float = 0.1          # fraction of cache-enabled users
    p1: float = dbm_to_watts(23.0)  # D2D transmit power [W]
    p2: float = dbm_to_watts(33.0)  # relay transmit power [W]
    p3: float = dbm_to_watts(43.0)  # BS transmit power [W]
    beta: float = 4.0           # path-loss exponent
    noise: float = 0.0          # noise power sigma^2 [W]; 0 = interference-limited
    bandwidth_w: float = 20e6   # shared bandwidth [Hz]
    n_contents: int = 200       # catalog size
    content_size_s: float = 100e6  # content size [bits]
    m1: int = 5                 # user caching capacity [contents]
    m2: int = 50                # relay caching capacity [contents]
    gamma: float = 0.8          # Zipf skew
    nu: float = 1.0             # propagation constant (fixed 1)
    bias: float = 1.0           # association bias (fixed 1)
    eta: float = 1.443          # nat -> bit conversion factor
    varsigma: float = 0.25      # total request arrival rate per BS cell [requests/s]
    varrho_inv: float = 1.0     # mean request volume [contents/request]
    backhaul_kappa: float = 0.8  # backhaul penalty: BH-needed rate = kappa * U
    local_rate_ul: float = 1e3  # local-cache read-out rate [nats/s/Hz equivalent]

    def __post_init__(self) -> None:
        for name, integer in _FIELD_KINDS:
            _check_number(name, getattr(self, name), integer)
        if not (self.lambda0 > self.lambda2 > self.lambda3 > 0.0):
            raise ValueError("densities must satisfy lambda0 > lambda2 > lambda3 > 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("p1", "p2", "p3", "bandwidth_w", "content_size_s", "local_rate_ul",
                     "varrho_inv"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("noise", "gamma", "varsigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        check_path_loss_exponent(self.beta)
        if not (1 <= self.m1 < self.m2 < self.n_contents):
            raise ValueError("caching sizes must satisfy 1 <= m1 < m2 < n_contents")
        if not 0.0 < self.backhaul_kappa < 1.0:
            raise ValueError("backhaul_kappa must lie strictly in (0, 1)")
        if self.nu != 1.0 or self.bias != 1.0:
            raise ValueError("nu and bias are both fixed at 1; the analysis reads neither")

    @property
    def lambda1(self) -> float:
        """Density of cache-enabled users (derived, never stored)."""
        return self.alpha * self.lambda0

    @property
    def powers(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)

    @property
    def densities(self) -> tuple[float, float, float]:
        """Three-tier densities (lambda1, lambda2, lambda3)."""
        return (self.lambda1, self.lambda2, self.lambda3)

    def with_updates(self, **kwargs) -> "NetworkConfig":
        return replace(self, **kwargs)

    def to_flat_dict(self) -> dict:
        """Flat key-value view for result envelopes (powers also in dBm)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update({k: watts_to_dbm(getattr(self, w)) for k, w in _DBM_KEYS.items()})
        return out


# (name, is an integer) per field; annotations are strings under the future import
_FIELD_KINDS = tuple((f.name, f.type == "int") for f in fields(NetworkConfig))
_DBM_KEYS = {"p1_dbm": "p1", "p2_dbm": "p2", "p3_dbm": "p3"}


def config_from_dict(raw: dict) -> NetworkConfig:
    """Build a NetworkConfig from a flat key-value mapping.

    Powers may be given either in watts (``p1``) or dBm (``p1_dbm``);
    the dBm form wins if both are present, but the watts value must still
    be valid.  A pair whose dBm value is exactly ``watts_to_dbm`` of its
    watts value is the echo of one power (as ``to_flat_dict`` writes it),
    so the watts value is kept and the echo rebuilds the config exactly.
    A mapping that is not a valid network raises
    ``ValueError("invalid config: ...")``.
    """
    try:
        if not isinstance(raw, dict):
            raise ValueError(f"expected a mapping of keys to numbers, got {type(raw).__name__}")
        kwargs = {k: v for k, v in raw.items() if k not in _DBM_KEYS}
        unknown = set(kwargs) - {name for name, _ in _FIELD_KINDS}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = NetworkConfig(**kwargs)
        watts = {}
        for dbm_key, watt_key in _DBM_KEYS.items():
            if dbm_key in raw:
                _check_number(dbm_key, raw[dbm_key])
                if watt_key in raw and raw[dbm_key] == watts_to_dbm(getattr(cfg, watt_key)):
                    continue
                try:
                    watts[watt_key] = dbm_to_watts(raw[dbm_key])
                except OverflowError:
                    raise ValueError(f"{dbm_key} = {raw[dbm_key]!r} gives a power "
                                     "outside the float range") from None
        return replace(cfg, **watts)
    except ValueError as exc:
        raise ValueError(f"invalid config: {exc}") from exc


def load_config(path: str) -> NetworkConfig:
    """Load and validate a JSON config file; a path to no JSON file is a ``ValueError`` too."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid config file {path}: {exc}") from exc
    return config_from_dict(raw)


def fig6_config() -> NetworkConfig:
    """Denser-infrastructure, low-D2D-power parameter set used for the
    queueing evaluations (relay/BS densities 30 and 6 per 500 m disk,
    D2D power 13 dBm, alpha = 0.25)."""
    return NetworkConfig(
        lambda2=30.0 / DISK_500M_AREA,
        lambda3=6.0 / DISK_500M_AREA,
        p1=dbm_to_watts(13.0),
        alpha=0.25,
        varsigma=0.25,
        varrho_inv=1.0,
    )
