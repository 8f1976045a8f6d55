"""Monte Carlo spatial oracle.

Samples Poisson topologies on a square window, applies the max-average-power
association rule, and measures association fractions, ergodic rates and
outage under Rayleigh fading.  It is the independent cross-check for all
closed-form layers, so it shares no kernel code with them: the topology is
literal geometry plus sampling, and the fading is averaged per reference
user given its topology.  It shares with them only the model's table of
serving tiers per radio case (``association.SERVING_TIERS``).

The window is a torus: every distance wraps, so each tier stays a
stationary PPP with no edge, and every user is a reference user.  Nearest
nodes (the nearest other cache-enabled user, relay and BS) come from one
periodic k-d tree query per tier (``scipy.spatial.cKDTree``;
``scipy.spatial`` loads on the first query, so the analytic layers never pay
for it).  They give each reference user one received-power table
(``_geometry``): per tier, the nearest node and its mean received power
P d^-beta.  The serving node is the strongest in the table, and every
(case, serving tier) reads its signal power from the same table.
Interference is computed in one pass per topology (``_weight_blocks``):
the rows of every (case, serving tier), case-major, go through it together
in blocks of ``_ROW_BLOCK`` reference users, each row with its own case and
serving tier.  The node coordinates, the power vector, the column maps and
three block buffers are built once per topology.  Each block then takes the
squared torus distances sq to every active D2D transmitter, relay and BS
(the coordinate offsets as one matrix product per axis, exact) and the
weights P sq^(-beta/2) (no square root).  At beta = 4 a weight is
(sqrt(P) / sq)^2, a division and a square in place of ``np.power``.  One
rule excludes nodes in every (case, serving tier): the reference user
itself, its serving node and, in case 3, the blocker (the nearest
cache-enabled user, which outranks the serving relay or BS).  An excluded
node is infinitely far and weighs 0.  The block goes straight into the
fading average, so no (users x nodes) matrix is ever built and a block
stays in cache.

Given a user's topology, with signal power S, weights w_j and noise
sigma^2, Rayleigh fading gives the coverage in closed form:
P(SINR > theta) = exp(-theta n) prod_j 1 / (1 + theta a_j), where
a_j = w_j / S and n = sigma^2 / S.  ``run_monte_carlo`` averages the
fading out exactly this way (``_fading_average``), with 1 / S applied to
each row's reductions rather than to its weights: outage is
-expm1(log P(tau)), and the ergodic rate is
integral P(e^u) e^u / (1 + e^u) du over u = ln theta, on a 24-node
Gauss-Legendre rule between 0 and the knee u0 = -ln(sum_j a_j + n) and, on
either side, the first 22 nodes of the 32-node Gauss-Laguerre rule (the 10
dropped weigh 2.1e-19; the bound is stated at ``_TAIL_NODES``), 68 nodes in
all.  log P takes log1p exactly for the strongest ``_EXACT_TERMS`` weights
and a fourth-order series for the rest; the error bounds are stated next to
``_EXACT_TERMS``.

Replications split a master seed through ``SeedSequence`` so runs are
reproducible and mergeable.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .association import SERVING_TIERS, active_d2d_density
from .config import NetworkConfig

# The fading average takes log1p exactly for the _EXACT_TERMS strongest
# weights of a row.  The rest, each at most a_next, go through
# log1p(x) = x - x^2/2 + x^3/3 - x^4/4 + r(x), with 0 <= r(x) <= x^5/5.
# Where x = theta a_next <= 1/2, the series makes the coverage P too high by
# P (e^(sum r) - 1).  Every exact term is at least log1p(x), and
# log1p(x) >= 0.81 x, so that error is below
# (1 + x)^-32 e^(-0.81 s) (e^(x^4 s / 5) - 1) < 5.3e-7 (the worst x is 1/7),
# where s = theta times the sum of the rest.  Where x > 1/2, the rest enters
# as e^(-theta a_j) in place of 1 / (1 + theta a_j).  That makes P too low by
# less than 1.5^-32 max_s (1 / (1 + s) - e^-s) < 4.8e-7.  Both bounds hold
# for the outage too, absolutely and relative to it.  With the series cut
# after the cubic term, the first bound would be 5.4e-6.
_EXACT_TERMS = 32
# Gauss-Legendre nodes between 0 and the knee, Gauss-Laguerre nodes on
# either side: the first _TAIL_NODES nodes of the 32-node rule.  The 10
# dropped from each tail weigh 2.14e-19 together, and on both tails the
# integrand times e^x is at most 1: above the knee
# P(theta) <= 1 / (1 + theta (sum a + n)) with theta >= e^x / (sum a + n),
# below it e^u / (1 + e^u) <= e^(lo - x).  So a rate moves by less than
# 4.3e-19 absolute, and the outage not at all.
_KNEE_X, _KNEE_W = np.polynomial.legendre.leggauss(24)
_KNEE_X, _KNEE_W = (_KNEE_X + 1.0) / 2.0, _KNEE_W / 2.0
_TAIL_NODES = 22
_TAIL_X, _TAIL_W = np.polynomial.laguerre.laggauss(32)
_TAIL_X, _TAIL_W = _TAIL_X[:_TAIL_NODES], _TAIL_W[:_TAIL_NODES]
# the rate nodes u = (lo, hi, 1) @ _RATE_U: lo + (hi - lo) x between the knee
# and 0, then hi + x and lo - x on the tails; _TAIL_W weighs both tails
_RATE_U = np.stack([np.concatenate(parts) for parts in (
    (1.0 - _KNEE_X, np.zeros_like(_TAIL_X), np.ones_like(_TAIL_X)),
    (_KNEE_X, np.ones_like(_TAIL_X), np.zeros_like(_TAIL_X)),
    (np.zeros_like(_KNEE_X), _TAIL_X, -_TAIL_X))])
_TAIL_W = np.tile(_TAIL_W * np.exp(_TAIL_X), 2)
# rows per block of the fused weights and fading pass
_ROW_BLOCK = 32
# the largest mean node count of a window.  Every node drawn can be a column of
# the weight pass (each user transmits where alpha is below the activity
# threshold), and a column holds ~1.1 KB there: three _ROW_BLOCK-row float64
# buffers and _fading_average's squares of the rest.  With every user
# transmitting, simulate's peak RSS grew by 1144 B per mean node between 17000
# and 24000 m windows, so 2^18 nodes keep it near 350 MiB; at the default
# config's 0.00039 nodes per m^2 that is a side of 25939 m
_MAX_MEAN_COUNT = float(2**18)


@dataclass(frozen=True)
class EmpiricalEstimate:
    """Point estimate with a normal-approximation standard error
    (95% CI: value +/- 1.96 * std_error)."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0 or self.n_samples < 0:
            raise ValueError("standard error and sample count must be non-negative")


def check_window(window: float, density: float = 0.0) -> None:
    """Reject a window side that is not positive with a finite area, or whose
    mean node count at ``density`` (per m^2) is more than a run holds in
    memory (``_MAX_MEAN_COUNT``); at density 0 only the side and its area
    are checked."""
    area = window * window
    if not (0.0 < window and area < math.inf and density * area <= _MAX_MEAN_COUNT):
        raise ValueError("window side must be positive, with a finite area and node count; "
                         f"got {window} (at most {_MAX_MEAN_COUNT:.0f} nodes on average, "
                         f"at {density:g} per m^2)")


@dataclass(frozen=True)
class SpatialRealization:
    """One sampled topology: positions per tier, caching and activity flags."""

    window: float
    users: np.ndarray          # (n_users, 2)
    relays: np.ndarray         # (n_relays, 2)
    bs: np.ndarray             # (n_bs, 2)
    cache_flags: np.ndarray    # bool per user
    active_flags: np.ndarray   # bool per user; active => cache-enabled

    def __post_init__(self) -> None:
        check_window(self.window)
        if (self.active_flags & ~self.cache_flags).any():
            raise ValueError("active D2D transmitters must be cache-enabled")


def sample_topology(cfg: NetworkConfig, window: float, seed: int) -> SpatialRealization:
    """Poisson node counts, uniform positions, Bernoulli(alpha) cache flags.

    Active D2D transmitters: every cache-enabled user, thinned independently
    to the analyzed active density where that is below alpha lambda0 (above
    the full-activity threshold).
    """
    # before a draw over its area, at the density of every node drawn
    check_window(window, cfg.lambda0 + cfg.lambda2 + cfg.lambda3)
    rng = np.random.default_rng(seed)
    area = window * window

    def draw(lam: float) -> np.ndarray:
        n = rng.poisson(lam * area)
        return rng.uniform(0.0, window, size=(n, 2))

    users = draw(cfg.lambda0)
    relays = draw(cfg.lambda2)
    bs = draw(cfg.lambda3)
    cache_flags = rng.random(len(users)) < cfg.alpha
    active_flags = cache_flags.copy()
    lambda1_active = active_d2d_density(cfg).lambda1_active
    if lambda1_active < cfg.lambda1:
        active_flags &= rng.random(len(users)) < lambda1_active / cfg.lambda1
    return SpatialRealization(window, users, relays, bs, cache_flags, active_flags)


def _nearest(points: np.ndarray, targets: np.ndarray, window: float,
             k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k nearest targets to each point, from a
    k-d tree that is periodic on the torus.  A missing neighbour is at
    distance inf with index len(targets)."""
    from scipy.spatial import cKDTree

    return cKDTree(targets, boxsize=window).query(points, k=k)


def _nearest_cache_user(real: SpatialRealization,
                        ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance and index of each reference user's nearest other cache-enabled
    user (inf and -1 where there is none).  Two are queried, so that a
    cache-enabled reference user that finds itself first takes the second."""
    cache_users = np.flatnonzero(real.cache_flags)
    d, j = _nearest(real.users[ref], real.users[cache_users], real.window, k=2)
    ids = np.append(cache_users, -1)[j]
    itself = ids[:, 0] == ref
    return np.where(itself, d[:, 1], d[:, 0]), np.where(itself, ids[:, 1], ids[:, 0])


@dataclass
class _Geometry:
    """Per-reference-user received-power table and ranking, shared by all
    measures.  Row i - 1 of ``nearest`` and ``received`` is tier i: the
    nearest other cache-enabled user, the nearest relay, the nearest BS."""

    ref: np.ndarray            # reference user indices into real.users
    nearest: np.ndarray        # (3, rows) index of that node in its tier (-1 if none)
    received: np.ndarray       # (3, rows) its mean received power P_i d^-beta (0 if none)
    winner: np.ndarray         # tier (1/2/3) with max average received power
    relay_over_bs: np.ndarray  # bool: relay beats BS


def _geometry(real: SpatialRealization, cfg: NetworkConfig, ref: np.ndarray) -> _Geometry:
    if len(real.relays) == 0 or len(real.bs) == 0:
        raise RuntimeError("relay and BS tiers must be non-empty; resample the topology")
    pts = real.users[ref]
    r_cache, cache_idx = _nearest_cache_user(real, ref)
    r_relay, relay_idx = _nearest(pts, real.relays, real.window)
    r_bs, bs_idx = _nearest(pts, real.bs, real.window)
    # a missing cache-enabled user is at inf, and inf^-beta = 0
    with np.errstate(divide="ignore"):
        received = np.asarray(cfg.powers)[:, None] * np.stack((r_cache, r_relay, r_bs)) ** -cfg.beta
    return _Geometry(ref, np.stack((cache_idx, relay_idx, bs_idx)), received,
                     np.argmax(received, axis=0) + 1, received[1] > received[2])


def _association_counts(winner: np.ndarray, relay_over_bs: np.ndarray) -> dict[str, int]:
    """Reference users per association outcome: relay over BS, each tier
    strongest, and the D2D tier strongest split by the relay/BS comparison."""
    d2d_first = winner == 1
    return {
        "relay_over_bs": int(relay_over_bs.sum()),
        **{f"g{i}": int((winner == i).sum()) for i in (1, 2, 3)},
        "p123": int((d2d_first & relay_over_bs).sum()),
        "p132": int((d2d_first & ~relay_over_bs).sum()),
    }


_PAIRS = [(c, t) for c, tiers in SERVING_TIERS.items() for t in tiers]


def _case_members(geo: _Geometry, real: SpatialRealization, case_id: int, tier: int) -> np.ndarray:
    """Row indices (into geo arrays) of reference users in the geometric
    conditioning of (case, serving tier), a pair of ``SERVING_TIERS``.  Cases
    1/3 condition on non-caching users, case 2 on cache-enabled ones; the
    content split is analytic."""
    caching = real.cache_flags[geo.ref]
    if case_id == 1:
        return np.flatnonzero(~caching & (geo.winner == tier))
    # cases 2 and 3 are served by the stronger of relay and BS
    serving = geo.relay_over_bs == (tier == 2)
    if case_id == 2:
        return np.flatnonzero(caching & serving)
    return np.flatnonzero(~caching & (geo.winner == 1) & serving)


def _weight_blocks(real: SpatialRealization, cfg: NetworkConfig, geo: _Geometry,
                   rows: np.ndarray, case_ids: np.ndarray | int, tiers: np.ndarray | int
                   ) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Interference of ``rows``, each in its own (case, serving tier), in
    blocks of ``_ROW_BLOCK`` rows.

    ``case_ids`` and ``tiers`` hold each row's case and serving tier; a
    scalar holds for every row.  Yields ``(block, w, signal, n)``: ``block``
    slices ``rows``; ``w`` (rows in the block, nodes) holds the interference
    weights P_j d_j^-beta, ``signal`` each row's mean signal power from its
    serving node and ``n`` the noise divided by that signal.  ``w`` is not
    divided by the signal: ``_fading_average`` applies 1 / signal to its
    per-row reductions instead.  Columns are every active D2D transmitter
    (in user order), then every relay, then every BS.  One rule holds in
    every (case, tier): the reference user itself, its serving node and, in
    case 3 only, the blocker (the nearest cache-enabled user, which outranks
    the serving relay or BS) do not interfere and weigh 0.  ``w`` is a view
    of a buffer that the next block overwrites.
    """
    case_ids, tiers = np.broadcast_arrays(case_ids, tiers, rows)[:2]
    ref = geo.ref[rows]
    active = np.flatnonzero(real.active_flags)
    node_xy = np.concatenate((real.users[active], real.relays, real.bs))
    power = np.repeat(cfg.powers, (len(active), len(real.relays), len(real.bs)))
    signal = geo.received[tiers - 1, rows]
    noise = cfg.noise / signal
    # each user's column; a user that does not transmit, and the index -1 of
    # a missing node, map to -1 (no column)
    user_col = np.full(len(real.users) + 1, -1)
    user_col[active] = np.arange(len(active))
    # per row and tier, the column of its nearest node in that tier
    nearest_col = np.stack((user_col[geo.nearest[0, rows]],
                            len(active) + geo.nearest[1, rows],
                            len(active) + len(real.relays) + geo.nearest[2, rows]))
    # per row, the columns that do not interfere (-1: none)
    excluded = [user_col[ref], nearest_col[tiers - 1, np.arange(len(rows))],
                np.where(case_ids == 3, nearest_col[0], -1)]
    # per axis, the users as rows (u, 1) and the nodes as columns (1, -v):
    # their matrix product is every offset u - v, rounded once exactly as
    # np.subtract.outer rounds it, at a third of its cost
    user_rows = [np.column_stack((u, np.ones(len(u)))) for u in real.users[ref].T]
    node_cols = [np.stack((np.ones(len(v)), -v)) for v in node_xy.T]

    window, exponent = real.window, -cfg.beta / 2.0
    root_power = np.sqrt(power)
    shape = (min(_ROW_BLOCK, len(rows)), len(node_xy))
    sq_buf, delta_buf, wrap_buf = np.empty(shape), np.empty(shape), np.empty(shape)
    for start in range(0, len(rows), _ROW_BLOCK):
        block = slice(start, min(start + _ROW_BLOCK, len(rows)))
        b = block.stop - start
        sq, delta, wrapped = sq_buf[:b], delta_buf[:b], wrap_buf[:b]
        # squared torus distances: the x offsets squared into sq, the y
        # offsets squared into delta
        for users, nodes, out in zip(user_rows, node_cols, (sq, delta)):
            np.matmul(users[block], nodes, out=delta)
            np.abs(delta, out=delta)
            np.subtract(window, delta, out=wrapped)
            np.minimum(delta, wrapped, out=delta)
            np.square(delta, out=out)
        sq += delta
        for cols in excluded:
            cols = cols[block]
            hit = np.flatnonzero(cols >= 0)
            sq[hit, cols[hit]] = math.inf
        # P d^-beta = P sq^(-beta/2), at beta = 4 as (sqrt(P) / sq)^2; an
        # excluded node is infinitely far
        if cfg.beta == 4.0:
            np.divide(root_power, sq, out=sq)
            np.square(sq, out=sq)
        else:
            np.power(sq, exponent, out=sq)
            sq *= power
        yield block, sq, signal[block], noise[block]


def _fading_average(w: np.ndarray, signal: np.ndarray, n: np.ndarray,
                    taus: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Ergodic rate E[ln(1 + SINR)] and outage P(SINR <= tau) of each row,
    averaged over Rayleigh fading given the row's topology.

    ``w`` (rows, nodes) holds the interference weights, ``signal`` (rows,)
    the signal power and ``n`` (rows,) the noise divided by the signal;
    every row needs a positive interference or noise.  The relative weights
    a_j = w_j / S are never formed: 1 / S scales each row's reductions (the
    rest's power sums, a_next, the top weights' sum and the theta grid that
    multiplies the top weights).  The partition is scale-invariant, so it
    picks the same exact terms as on a.  Each row of ``w`` is reordered in
    place (a partition that puts its ``_EXACT_TERMS`` largest weights last).
    Returns the rates (rows,) and the outage (rows, len(taus)).  All rows
    are evaluated at once, so callers pass a block of ``_ROW_BLOCK`` rows
    (``_weight_blocks``).
    """
    rows, nodes = w.shape
    inv = 1.0 / signal
    k = min(_EXACT_TERMS, nodes)
    if k < nodes:
        # the largest of the rest, a_next, lands in column nodes - k - 1
        w.partition(nodes - k - 1, axis=1)
        a_next = w[:, nodes - k - 1] * inv
    else:
        a_next = np.zeros(rows)
    top, rest = w[:, nodes - k:], w[:, :nodes - k]
    rest2 = rest * rest
    inv2 = inv * inv
    first = rest.sum(axis=1) * inv + n
    second = rest2.sum(axis=1) * inv2
    third = np.einsum("rn,rn->r", rest2, rest) * (inv2 * inv)
    fourth = np.einsum("rn,rn->r", rest2, rest2) * (inv2 * inv2)

    u0 = -np.log(top.sum(axis=1) * inv + first)
    lo, hi = np.minimum(u0, 0.0), np.maximum(u0, 0.0)
    knee, m = len(_KNEE_X), _RATE_U.shape[1]
    u = np.column_stack((lo, hi, np.ones(rows))) @ _RATE_U
    theta = np.empty((rows, m + len(taus)))
    np.exp(u, out=theta[:, :m])
    theta[:, m:] = taus

    # every top weight times every theta / S, as einsum forms it at half the
    # cost of a broadcast multiply
    terms = np.einsum("rk,rc->rkc", top, theta * inv[:, None])
    log_p = -np.log1p(terms, out=terms).sum(axis=1)
    log_p -= theta * first[:, None]
    # the rest through the series of log1p where theta a_next <= 1/2; the
    # error bounds are stated at _EXACT_TERMS
    th = np.where(theta * a_next[:, None] <= 0.5, theta, 0.0)
    log_p += th * th * (second[:, None] / 2.0
                        - th * (third[:, None] / 3.0 - th * fourth[:, None] / 4.0))

    # the rate integrand P(e^u) e^u / (1 + e^u) at the rule's nodes
    f = np.exp(log_p[:, :m])
    f /= 1.0 + np.exp(-u)
    rate = (hi - lo) * (f[:, :knee] @ _KNEE_W) + f[:, knee:] @ _TAIL_W
    return rate, -np.expm1(log_p[:, m:])


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated estimates across topology replications.

    ``rates`` maps case id to an ergodic-rate estimate pooled over serving
    tiers (the analytic rates are tier-independent per case); ``outage`` maps
    (case id, linear threshold) likewise; ``association`` maps the
    association fractions.  Standard errors are across replications.
    ``reference_rows`` maps each (case id, serving tier) to the reference
    users measured in it, summed over replications.
    """

    rates: dict[int, EmpiricalEstimate]
    outage: dict[tuple[int, float], EmpiricalEstimate]
    association: dict[str, EmpiricalEstimate]
    reference_rows: dict[tuple[int, int], int]


def _across_reps(per_rep: list[float]) -> EmpiricalEstimate:
    vals = np.array([v for v in per_rep if not math.isnan(v)])
    if len(vals) == 0:
        return EmpiricalEstimate(math.nan, 0.0, 0)
    se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
    return EmpiricalEstimate(float(vals.mean()), float(se), len(vals))


def run_monte_carlo(cfg: NetworkConfig, n_topologies: int = 200, n_fading: int = 20,
                    seed: int = 0, window: float = 2000.0, boundary: str = "torus",
                    margin: float = 0.0, max_users: int = 200,
                    max_reference_users: int = 500,
                    tau_grid: tuple[float, ...] = ()) -> MonteCarloSummary:
    """Full oracle run: per replication, sample a topology and measure rates,
    outage and association; aggregate with across-replication standard errors.

    Fading is averaged in closed form per reference user
    (``_fading_average``), so ``n_fading`` is not read, and the window is
    always a torus, so ``margin`` is not read either and ``boundary`` must be
    ``"torus"``; the three stay in the signature for existing callers.
    Replication seeds are spawned from the master seed; identical inputs
    give bit-identical results.

    ``tau_grid`` holds distinct linear outage thresholds, each >= 0.  An
    empty relay or BS tier is resampled, up to 20 times before a ``ValueError``.
    """
    if boundary != "torus":
        raise ValueError(f"the window is a torus; boundary {boundary!r} is not supported")
    if n_topologies < 1:
        raise ValueError("need at least one topology replication")
    if not all(t >= 0.0 for t in tau_grid):
        raise ValueError(f"outage thresholds {tau_grid} must be non-negative")
    if len(set(tau_grid)) != len(tau_grid):  # one estimate per (case, threshold)
        raise ValueError("outage thresholds must be distinct")
    children = np.random.SeedSequence(seed).spawn(n_topologies)
    # per estimate, keyed (summary field, its key there), one value per
    # topology: NaN where the topology has no sample of it
    acc: dict[tuple, list[float]] = {}
    row_acc = dict.fromkeys(_PAIRS, 0)

    retry_budget = 20
    for child in children:
        seeds = child.generate_state(retry_budget + 1)
        for attempt in range(retry_budget):  # an empty relay/BS tier is resampled
            real = sample_topology(cfg, window, int(seeds[attempt]))
            if len(real.relays) > 0 and len(real.bs) > 0:
                break
        else:
            raise ValueError(
                f"relay/BS tier stayed empty after {retry_budget} resamples; "
                "enlarge the window or raise the densities"
            )
        rng = np.random.default_rng(int(seeds[-1]))
        uniform = np.arange(len(real.users))
        if len(uniform) > max_reference_users:  # keeps the geometry pass cheap
            uniform = np.sort(rng.choice(uniform, size=max_reference_users, replace=False))
        # sparse conditionings (cache-enabled users at small alpha) get a
        # dedicated quota so their estimates are not starved
        extra = np.flatnonzero(real.cache_flags)
        if len(extra) > max_reference_users:
            extra = np.sort(rng.choice(extra, size=max_reference_users, replace=False))
        ref = np.union1d(uniform, extra)
        geo = _geometry(real, cfg, ref)
        uniform_rows = np.isin(ref, uniform)

        # association fractions only over the uniform subsample (the cache
        # top-up would bias them)
        n_ref = len(uniform)
        counts = _association_counts(geo.winner[uniform_rows], geo.relay_over_bs[uniform_rows])
        for key, count in counts.items():
            acc.setdefault(("association", key), []).append(count / n_ref if n_ref else math.nan)

        # every (case, serving tier)'s rows, drawn in this order, go through
        # one pass, case-major: each case's rows stay one contiguous run
        picked = []
        for pair in _PAIRS:
            rows = _case_members(geo, real, *pair)
            if len(rows) > max_users:
                rows = rng.choice(rows, size=max_users, replace=False)
            picked.append(rows)
            row_acc[pair] += len(rows)
        sizes = [len(rows) for rows in picked]
        case_ids, tiers = (np.repeat(column, sizes) for column in zip(*_PAIRS))
        rows = np.concatenate(picked)
        rate, outage = np.empty(len(rows)), np.empty((len(rows), len(tau_grid)))
        for block, w, signal, n in _weight_blocks(real, cfg, geo, rows, case_ids, tiers):
            rate[block], outage[block] = _fading_average(w, signal, n, tau_grid)

        for case_id in SERVING_TIERS:
            members = case_ids == case_id
            keys = [("rates", case_id), *(("outage", (case_id, t)) for t in tau_grid)]
            for key, v in zip(keys, (rate[members], *outage[members].T)):
                acc.setdefault(key, []).append(float(v.mean()) if len(v) else math.nan)

    fields = {"rates": {}, "outage": {}, "association": {}}
    for (field, key), per_rep in acc.items():
        fields[field][key] = _across_reps(per_rep)
    return MonteCarloSummary(**fields, reference_rows=row_acc)
