"""Numerical lab for score-based diffusion over a finite latent set.

For a variance-exploding process z_t = z_0 + sigma(t) * eps over training
points, the score minimizing the denoising objective has a closed form: the
softmax-weighted average of (point - z) / sigma^2 with weights proportional
to exp(-||point - z||^2 / (2 sigma^2)). Reversing the SDE with this score
drives every trajectory onto a training point, which this module makes
measurable: the Euler iteration stops at the first positive grid time and
the terminal step applies the analytic small-time limit, a hard assignment
to the nearest point. Replication statistics are therefore reported for the
pre-assignment state, where they are informative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadTimeError, ZeroSigmaError


def _identity(t: float) -> float:
    return t


@dataclass(frozen=True)
class SigmaSchedule:
    """Noise level sigma(t) on [0, horizon], zero at t = 0, increasing after."""

    horizon: float = 1.0
    fn: Callable[[float], float] = _identity

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.fn(0.0) != 0.0:
            raise ValueError("sigma(0) must be 0")
        probe = np.linspace(0.0, self.horizon, 17)
        values = [self.fn(float(t)) for t in probe]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sigma must be strictly increasing on (0, horizon]")

    def sigma(self, t: float) -> float:
        return self.fn(t)


@dataclass(frozen=True)
class LatentSet:
    """Training points of the diffusion, shape (N, dim)."""

    points: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        if points.ndim != 2 or points.shape[0] < 1:
            raise ValueError("latents must form an (N, dim) array with N >= 1")
        if not np.isfinite(points).all():
            raise ValueError("latent coordinates must be finite")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def diameter(self) -> float:
        return float(np.sqrt(max(sq.max() for _, sq in _squared_distances(self.points, self.points))))

    def nearest(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of and distance to the nearest latent, batched over rows;
        ties go to the lowest index."""
        z = np.atleast_2d(z)
        idx = np.empty(z.shape[0], dtype=np.intp)
        dist = np.empty(z.shape[0])
        for lo, sq in _squared_distances(z, self.points):
            block = np.sqrt(sq)
            rows = slice(lo, lo + block.shape[0])
            idx[rows] = np.argmin(block, axis=1)
            dist[rows] = block[np.arange(block.shape[0]), idx[rows]]
        return idx, dist


# Entries per block of squared distances, so memory stays linear in the latents.
_DISTANCE_BLOCK = 1 << 16


def _squared_distances(z: np.ndarray, points: np.ndarray):
    """Yield (first row, squared distances from a block of rows of z to every
    point), the squares summed in dimension order."""
    rows = max(1, _DISTANCE_BLOCK // points.shape[0])
    columns = points.T
    for lo in range(0, z.shape[0], rows):
        block = z[lo:lo + rows]
        total = np.zeros((block.shape[0], points.shape[0]))
        for d in range(points.shape[1]):
            diff = block[:, d, None] - columns[d]
            total += diff * diff
        yield lo, total


@dataclass(frozen=True)
class SdeConfig:
    steps: int
    seed: int = 0
    trajectories: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.trajectories < 1:
            raise ValueError(f"trajectories must be >= 1, got {self.trajectories}")


def forward_noise(
    z0: np.ndarray,
    t: float,
    schedule: SigmaSchedule,
    rng: np.random.Generator,
) -> np.ndarray:
    """One draw of the noised state z_0 + sigma(t) * eps."""
    if not (0.0 <= t <= schedule.horizon):
        raise BadTimeError(f"t={t} outside [0, {schedule.horizon}]")
    z0 = np.asarray(z0, dtype=np.float64)
    return z0 + schedule.sigma(t) * rng.standard_normal(z0.shape)


def _posterior(points: np.ndarray, columns: np.ndarray, sigma: float):
    """Posterior weights over latents and the latent differences, in column layout.

    ``columns`` holds n states as a (dim, n) array. Returns the weights as an
    (N, n) array and the differences points - state as an (N, dim, n) array,
    computed once for both the weights and the score. The summation orders are
    part of the contract, so a state's result does not depend on the batch it
    is in: squared differences add up in dimension order, and each state's
    weights are normalized by numpy's sum over a contiguous row of N weights.
    """
    diffs = points[:, :, None] - columns[None, :, :]
    logits = diffs[:, 0] * diffs[:, 0]
    for k in range(1, points.shape[1]):
        logits += diffs[:, k] * diffs[:, k]
    np.negative(logits, out=logits)
    logits /= 2.0 * sigma * sigma
    logits -= logits.max(axis=0)
    weights = np.exp(logits, out=logits)
    weights /= np.ascontiguousarray(weights.T).sum(axis=1)
    return weights, diffs


def _score(points: np.ndarray, columns: np.ndarray, sigma: float) -> np.ndarray:
    """Optimal score of (dim, n) states at noise level sigma, as a (dim, n) array.

    The weighted differences accumulate over latents in latent order.
    """
    weights, diffs = _posterior(points, columns, sigma)
    diffs *= weights[:, None, :]
    terms = diffs.reshape(diffs.shape[0], -1)
    # numpy sums along the contiguous axis pairwise; that axis is the latent
    # axis only when each latent contributes a single value.
    if terms.shape[1] > 1:
        total = np.add.reduce(terms, axis=0)
    else:
        total = np.add.accumulate(terms, axis=0)[-1]
    return total.reshape(columns.shape) / (sigma * sigma)


def latent_posterior(z: np.ndarray, sigma: float, latents: LatentSet) -> np.ndarray:
    """Softmax weights over latents at noise level sigma, batched over rows.

    Computed through log-sum-exp so weights stay normalized down to very
    small sigma, where the raw exponentials underflow.
    """
    if sigma <= 0.0:
        raise ZeroSigmaError(f"sigma must be positive, got {sigma}")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    weights, _ = _posterior(latents.points, z.T, sigma)
    return weights.T


def optimal_score(
    z: np.ndarray,
    t: float,
    latents: LatentSet,
    schedule: SigmaSchedule,
) -> np.ndarray:
    """Closed-form optimal denoising score at (z, t); batched over leading rows."""
    sigma = schedule.sigma(t)
    if sigma <= 0.0:
        raise ZeroSigmaError(f"sigma(t)={sigma} at t={t}; the score needs sigma > 0")
    single = np.asarray(z).ndim == 1
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    score = _score(latents.points, z.T, sigma).T
    return score[0] if single else score


# Steps of noise drawn from each trajectory's stream at a time.
_NOISE_CHUNK = 256


def _noise(rngs: list[np.random.Generator], rows: int, dim: int):
    """Yield ``rows`` standard-normal draws per stream, one (dim, n) array per row.

    Each stream fills (chunk, dim) arrays in turn. A Generator fills arrays in
    sequence, so the values equal one (rows, dim) draw per stream, and memory
    does not grow with ``rows``.
    """
    for start in range(0, rows, _NOISE_CHUNK):
        size = min(_NOISE_CHUNK, rows - start)
        yield from np.stack([rng.standard_normal((size, dim)) for rng in rngs], axis=2)


def _integrate(
    latents: LatentSet,
    schedule: SigmaSchedule,
    steps: int,
    rngs: list[np.random.Generator],
    record: bool = False,
):
    """Reverse the diffusion for one trajectory per generator, all in lockstep.

    Each trajectory starts from sigma(T) times its stream's first draw and is
    Euler-iterated down to t = T/steps, consuming steps + 1 draws of shape
    (dim,) from its stream. Returns the pre-assignment states (n, dim) and,
    if ``record``, an (n, steps + 1, dim) array holding every state from T
    down to the last Euler step, with the final entry left for the caller's
    terminal assignment; otherwise None.
    """
    n = len(rngs)
    noise = _noise(rngs, steps + 1, latents.dim)
    times = np.linspace(0.0, schedule.horizon, steps + 1).tolist()
    sigmas = [schedule.sigma(t) for t in times]
    state = sigmas[-1] * next(noise)
    path = np.empty((n, steps + 1, latents.dim)) if record else None
    for k in range(steps, 1, -1):
        if path is not None:
            path[:, steps - k] = state.T
        s_hi, s_lo = sigmas[k], sigmas[k - 1]
        if s_hi <= 0.0:
            raise ZeroSigmaError(f"sigma(t)={s_hi} at t={times[k]}; the score needs sigma > 0")
        score = _score(latents.points, state, s_hi)
        diffusion = np.sqrt(2.0 * s_hi * (s_hi - s_lo) * (times[k] - times[k - 1]))
        state = state + 2.0 * s_hi * (s_hi - s_lo) * score + diffusion * next(noise)
    next(noise)  # the last draw is unused; drawing it keeps each stream's consumption at steps + 1
    if path is not None:
        path[:, steps - 1] = state.T
    return np.ascontiguousarray(state.T), path


def backward_sample(
    latents: LatentSet,
    schedule: SigmaSchedule,
    steps: int,
    rng: np.random.Generator,
    return_trajectory: bool = False,
):
    """Sample one latent-space point by reversing the diffusion.

    Starts from z_T ~ N(0, sigma(T)^2 I), Euler-iterates down to t = T/steps,
    then applies the terminal limit: hard assignment to the nearest latent.
    Returns the final point, or (point, trajectory) with the trajectory
    holding the state at every grid time from T down to 0.
    """
    state, path = _integrate(latents, schedule, steps, [rng], record=return_trajectory)
    idx, _ = latents.nearest(state)
    final = latents.points[int(idx[0])].copy()
    if path is not None:
        path[0, steps] = final
        return final, path[0]
    return final


@dataclass(frozen=True)
class ReplicationResult:
    """Batched backward-SDE outcome against the training latents."""

    final_points: np.ndarray
    pre_assignment_points: np.ndarray
    assigned_indices: np.ndarray
    pre_assignment_distances: np.ndarray
    latent_diameter: float
    tolerance: float

    @property
    def replication_fraction(self) -> float:
        """Fraction of trajectories already within tolerance before assignment."""
        scale = self.latent_diameter if self.latent_diameter > 0 else 1.0
        return float(np.mean(self.pre_assignment_distances <= self.tolerance * scale))

    @property
    def mean_final_nn_distance(self) -> float:
        return float(np.mean(self.pre_assignment_distances))

    def to_dict(self) -> dict:
        return {
            "replication_fraction": self.replication_fraction,
            "mean_final_nn_distance": self.mean_final_nn_distance,
            "latent_diameter": self.latent_diameter,
            "tolerance": self.tolerance,
        }


def run_replication(
    latents: LatentSet,
    schedule: SigmaSchedule,
    config: SdeConfig,
    tolerance: float = 1e-2,
    return_trajectories: bool = False,
):
    """Run many backward trajectories and measure how they land on latents.

    Each trajectory consumes its own RNG stream spawned from the seed, so a
    trajectory's outcome is identical whether it is run here or alone through
    ``backward_sample``. All trajectories advance in lockstep for speed.
    Returns the result, or (result, trajectories) with trajectories[j] equal
    to ``backward_sample``'s trajectory for stream j: an (n, steps + 1, dim)
    array of the states at every grid time from T down to 0.
    """
    streams = np.random.SeedSequence(config.seed).spawn(config.trajectories)
    rngs = [np.random.default_rng(s) for s in streams]
    state, path = _integrate(latents, schedule, config.steps, rngs, record=return_trajectories)
    idx, dist = latents.nearest(state)
    result = ReplicationResult(
        final_points=latents.points[idx].copy(),
        pre_assignment_points=state,
        assigned_indices=idx,
        pre_assignment_distances=dist,
        latent_diameter=latents.diameter(),
        tolerance=tolerance,
    )
    if path is None:
        return result
    path[:, config.steps] = result.final_points
    return result, path


def dsm_loss(
    latents: LatentSet,
    score_fn: Callable[[np.ndarray, float], np.ndarray],
    schedule: SigmaSchedule,
    samples: int,
    rng: np.random.Generator,
    t_bounds: tuple[float, float] | None = None,
) -> float:
    """Monte-Carlo denoising score-matching objective for a given score.

    Draws (point, t, eps), noises the point, and averages the squared error
    of the score against the conditional target -eps / sigma(t). Times are
    uniform on ``t_bounds`` (default [0.1 T, T] to keep target variance sane).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    lo, hi = t_bounds if t_bounds is not None else (0.1 * schedule.horizon, schedule.horizon)
    if not (0.0 < lo <= hi <= schedule.horizon):
        raise BadTimeError(f"t_bounds {lo, hi} must satisfy 0 < lo <= hi <= horizon")
    total = 0.0
    for _ in range(samples):
        z0 = latents.points[int(rng.integers(latents.count))]
        t = float(rng.uniform(lo, hi))
        sigma = schedule.sigma(t)
        eps = rng.standard_normal(latents.dim)
        z_t = z0 + sigma * eps
        residual = np.asarray(score_fn(z_t, t)) - (-eps / sigma)
        total += float(np.sum(residual * residual))
    return total / samples
