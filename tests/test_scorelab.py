import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from tabmem import scorelab
from tabmem.errors import BadTimeError, ZeroSigmaError
from tabmem.scorelab import (
    LatentSet,
    SdeConfig,
    SigmaSchedule,
    backward_sample,
    dsm_loss,
    forward_noise,
    latent_posterior,
    optimal_score,
    run_replication,
)

def log_density(z, sigma, points):
    """Independent oracle: log of the unnormalized Gaussian-mixture density."""
    d2 = np.sum((points - z) ** 2, axis=1)
    return logsumexp(-d2 / (2.0 * sigma * sigma))

def finite_difference_score(z, sigma, points, h):
    grad = np.zeros_like(z)
    for i in range(z.size):
        up = z.copy()
        down = z.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (log_density(up, sigma, points) - log_density(down, sigma, points)) / (2 * h)
    return grad

class TestSigmaSchedule:
    def test_linear_default(self):
        sched = SigmaSchedule()
        assert sched.sigma(0.0) == 0.0
        assert sched.sigma(0.25) == 0.25

    def test_nonzero_origin_rejected(self):
        with pytest.raises(ValueError):
            SigmaSchedule(horizon=1.0, fn=lambda t: t + 0.1)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            SigmaSchedule(horizon=1.0, fn=lambda t: t * (1.0 - t))

    def test_custom_schedule(self):
        sched = SigmaSchedule(horizon=1.0, fn=lambda t: t * t)
        assert sched.sigma(0.5) == 0.25

class TestForwardNoise:
    def test_time_zero_is_identity(self):
        sched = SigmaSchedule()
        z0 = np.array([1.0, -2.0])
        out = forward_noise(z0, 0.0, sched, np.random.default_rng(0))
        assert np.array_equal(out, z0)

    def test_reproducible(self):
        sched = SigmaSchedule()
        z0 = np.zeros(3)
        a = forward_noise(z0, 0.7, sched, np.random.default_rng(5))
        b = forward_noise(z0, 0.7, sched, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_monte_carlo_std(self):
        sched = SigmaSchedule()
        rng = np.random.default_rng(1)
        draws = np.array([forward_noise(np.zeros(1), 0.6, sched, rng)[0] for _ in range(100_000)])
        assert draws.std() == pytest.approx(0.6, rel=0.01)

    def test_bad_time(self):
        with pytest.raises(BadTimeError):
            forward_noise(np.zeros(1), 1.5, SigmaSchedule(), np.random.default_rng(0))

class TestOptimalScore:
    def test_single_latent_exact(self):
        lat = LatentSet(np.array([[2.0, -1.0]]))
        sched = SigmaSchedule()
        z = np.array([0.5, 0.5])
        t = 0.4
        expected = (lat.points[0] - z) / (0.4**2)
        assert np.allclose(optimal_score(z, t, lat, sched), expected, atol=1e-12)

    def test_symmetric_cancellation(self):
        lat = LatentSet(np.array([[1.0], [-1.0]]))
        sched = SigmaSchedule()
        assert optimal_score(np.array([0.0]), 0.8, lat, sched)[0] == pytest.approx(0.0, abs=1e-14)

    def test_two_latent_fixed_point(self):
        # softmax-weighted pull toward +1/-1 evaluated at z = 0.5, sigma = 1
        lat = LatentSet(np.array([[1.0], [-1.0]]))
        sched = SigmaSchedule(horizon=2.0)
        value = float(optimal_score(np.array([0.5]), 1.0, lat, sched)[0])
        assert value == pytest.approx(-0.03788284273999021, abs=1e-12)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 3))
        shift = rng.normal(size=3)
        z = rng.normal(size=3)
        sched = SigmaSchedule()
        a = optimal_score(z, 0.5, LatentSet(points), sched)
        b = optimal_score(z + shift, 0.5, LatentSet(points + shift), sched)
        assert np.allclose(a, b, atol=1e-10)

    def test_zero_sigma_rejected(self):
        lat = LatentSet(np.array([[1.0]]))
        with pytest.raises(ZeroSigmaError):
            optimal_score(np.array([0.0]), 0.0, lat, SigmaSchedule())

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 2))
        lat = LatentSet(points)
        sched = SigmaSchedule(horizon=4.0)
        for sigma in (1e-6, 1e-3, 0.3, 2.0):
            anchor = points[int(rng.integers(10))]
            z = anchor + sigma * rng.uniform(-2, 2, size=2)
            score = optimal_score(z, sigma, lat, sched)  # sigma(t) = t
            fd = finite_difference_score(z.copy(), sigma, points, h=sigma * 1e-4)
            assert np.allclose(score, fd, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(score).max()))

    def test_posterior_weights_normalized_at_tiny_sigma(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(20, 2))
        lat = LatentSet(points)
        z = points[3] + 1e-7 * rng.normal(size=2)
        weights = latent_posterior(z, 1e-6, lat)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert weights.min() >= 0.0

def _broadcast_posterior(z, sigma, points):
    """The (n, N, dim) broadcast formula the column-layout kernel replaced."""
    diff = points[None, :, :] - z[:, None, :]
    logits = -np.sum(diff * diff, axis=-1) / (2.0 * sigma * sigma)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    return weights / weights.sum(axis=1, keepdims=True)


def _broadcast_score(z, sigma, points):
    weights = _broadcast_posterior(z, sigma, points)
    diff = points[None, :, :] - z[:, None, :]
    return np.sum(weights[:, :, None] * diff, axis=1) / (sigma * sigma)


def _contract_score(z, sigma, points):
    """The kernel's summation contract, one scalar operation at a time."""
    n, dim = z.shape
    diff = points[None, :, :] - z[:, None, :]
    sq = diff[:, :, 0] * diff[:, :, 0]
    for k in range(1, dim):
        sq = sq + diff[:, :, k] * diff[:, :, k]
    logits = -sq / (2.0 * sigma * sigma)
    logits -= logits.max(axis=1, keepdims=True)
    weights = np.exp(logits)
    weights /= np.array([np.ascontiguousarray(row).sum() for row in weights])[:, None]
    score = np.empty((n, dim))
    for i in range(n):
        for k in range(dim):
            acc = weights[i, 0] * diff[i, 0, k]
            for j in range(1, points.shape[0]):
                acc += weights[i, j] * diff[i, j, k]
            score[i, k] = acc / (sigma * sigma)
    return weights, score


@st.composite
def score_inputs(draw, min_dim=1, max_dim=7, min_latents=1):
    dim = draw(st.integers(min_dim, max_dim))
    n_latents = draw(st.integers(min_latents, 40))
    n = draw(st.integers(1, 64))
    coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.5]), st.floats(-3.0, 3.0))
    points = draw(arrays(np.float64, (n_latents, dim), elements=coords))
    z = draw(arrays(np.float64, (n, dim), elements=coords))
    # some states sit exactly on a latent, as they do at the end of a trajectory
    on_latent = draw(st.lists(st.integers(0, n_latents - 1), max_size=n))
    z[: len(on_latent)] = points[on_latent]
    sigma = draw(st.floats(0.05, 5.0))
    return points, z, sigma


def _kernel(points, z, sigma):
    latents = LatentSet(points)
    score = optimal_score(z, sigma, latents, SigmaSchedule(horizon=10.0))  # sigma(t) = t
    return latent_posterior(z, sigma, latents), score


class TestScoreKernel:
    @settings(max_examples=200, deadline=None)
    @given(inputs=score_inputs(min_dim=2))
    def test_bit_identical_to_broadcast_from_two_to_seven_dims(self, inputs):
        points, z, sigma = inputs
        weights, score = _kernel(points, z, sigma)
        assert np.array_equal(weights, _broadcast_posterior(z, sigma, points))
        assert np.array_equal(score, _broadcast_score(z, sigma, points))

    @settings(max_examples=60, deadline=None)
    @given(inputs=score_inputs(max_dim=1), n_latents=st.integers(1, 7))
    def test_bit_identical_to_broadcast_in_one_dim_below_eight_latents(self, inputs, n_latents):
        points, z, sigma = inputs
        points = points[:n_latents]
        weights, score = _kernel(points, z, sigma)
        assert np.array_equal(weights, _broadcast_posterior(z, sigma, points))
        assert np.array_equal(score, _broadcast_score(z, sigma, points))

    @settings(max_examples=100, deadline=None)
    @given(inputs=score_inputs(max_dim=12))
    def test_bit_identical_to_summation_contract(self, inputs):
        points, z, sigma = inputs
        weights, score = _kernel(points, z, sigma)
        ref_weights, ref_score = _contract_score(z, sigma, points)
        assert np.array_equal(weights, ref_weights)
        assert np.array_equal(score, ref_score)

    @settings(max_examples=100, deadline=None)
    @given(inputs=st.one_of(score_inputs(min_dim=8, max_dim=20),
                            score_inputs(max_dim=1, min_latents=8)))
    def test_within_last_bits_of_broadcast_otherwise(self, inputs):
        # numpy's broadcast sums 8 or more dimensions, or a single dimension
        # over 8 or more latents, pairwise; the kernel keeps its fixed order.
        points, z, sigma = inputs
        weights, score = _kernel(points, z, sigma)
        assert np.allclose(weights, _broadcast_posterior(z, sigma, points), rtol=1e-12, atol=1e-12)
        scale = np.abs(points[None, :, :] - z[:, None, :]).max(axis=1) / (sigma * sigma)
        assert np.all(np.abs(score - _broadcast_score(z, sigma, points)) <= 1e-12 * scale)


def _broadcast_diameter(points):
    """The (N, N, dim) broadcast formula the blocked distances replaced."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(np.sum(diff * diff, axis=-1)).max())


def _broadcast_nearest(points, z):
    diff = z[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    idx = np.argmin(dist, axis=1)
    return idx, dist[np.arange(z.shape[0]), idx]


class TestLatentDistances:
    @settings(max_examples=200, deadline=None)
    @given(inputs=score_inputs(max_dim=7))
    def test_bit_identical_to_broadcast_up_to_seven_dims(self, inputs):
        # Coordinates repeat, so latents coincide and states sit on them:
        # ties must still go to the lowest latent index.
        points, z, _ = inputs
        latents = LatentSet(points)
        assert latents.diameter() == _broadcast_diameter(points)
        idx, dist = latents.nearest(z)
        ref_idx, ref_dist = _broadcast_nearest(points, z)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_changes_nothing(self, monkeypatch, block):
        rng = np.random.default_rng(block)
        points = rng.integers(-2, 3, size=(30, 3)).astype(np.float64)
        z = np.concatenate([points[::-1], rng.normal(size=(20, 3))])
        expected = _broadcast_diameter(points), _broadcast_nearest(points, z)
        monkeypatch.setattr(scorelab, "_DISTANCE_BLOCK", block)
        latents = LatentSet(points)
        idx, dist = latents.nearest(z)
        assert latents.diameter() == expected[0]
        assert np.array_equal(idx, expected[1][0]) and np.array_equal(dist, expected[1][1])

    def test_memory_is_linear_in_the_latents(self):
        # The broadcast held 2000 x 2000 x 2 float64 differences (64 MB).
        latents = LatentSet(np.random.default_rng(0).normal(size=(2000, 2)))
        z = np.random.default_rng(1).normal(size=(4000, 2))
        tracemalloc.start()
        try:
            latents.diameter()
            _, diameter_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            latents.nearest(z)
            _, nearest_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert diameter_peak < 8e6
        assert nearest_peak < 8e6


def _reference_pre_assignment(latents, schedule, config):
    """The two-copy integrator the batched one replaced: one bulk noise draw
    per stream, and the broadcast score."""
    streams = np.random.SeedSequence(config.seed).spawn(config.trajectories)
    draws = np.stack(
        [np.random.default_rng(s).standard_normal((config.steps + 1, latents.dim)) for s in streams],
        axis=1,
    )
    state = schedule.sigma(schedule.horizon) * draws[0]
    times = np.linspace(0.0, schedule.horizon, config.steps + 1)
    for k in range(config.steps, 1, -1):
        t_hi, t_lo = float(times[k]), float(times[k - 1])
        s_hi, s_lo = schedule.sigma(t_hi), schedule.sigma(t_lo)
        score = _broadcast_score(state, s_hi, latents.points)
        diffusion = np.sqrt(2.0 * s_hi * (s_hi - s_lo) * (t_hi - t_lo))
        state = state + 2.0 * s_hi * (s_hi - s_lo) * score + diffusion * draws[config.steps - k + 1]
    return state


CHUNK = scorelab._NOISE_CHUNK
STEPS_AROUND_CHUNK = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]


class TestIntegrator:
    @pytest.mark.parametrize("steps", STEPS_AROUND_CHUNK)
    def test_recorded_paths_equal_single_trajectories(self, steps):
        lat = LatentSet(np.random.default_rng(20).normal(size=(5, 3)))
        sched = SigmaSchedule(horizon=1.5)
        config = SdeConfig(steps=steps, seed=21, trajectories=4)
        result, paths = run_replication(lat, sched, config, return_trajectories=True)
        assert paths.shape == (4, steps + 1, 3)
        for j, stream in enumerate(np.random.SeedSequence(21).spawn(4)):
            final, path = backward_sample(
                lat, sched, steps, np.random.default_rng(stream), return_trajectory=True
            )
            assert np.array_equal(paths[j], path)
            assert np.array_equal(result.final_points[j], final)
            assert np.array_equal(path[-2], result.pre_assignment_points[j])

    @pytest.mark.parametrize("steps", STEPS_AROUND_CHUNK)
    def test_matches_bulk_draw_reference(self, steps):
        lat = LatentSet(np.random.default_rng(22).normal(size=(16, 2)))
        sched = SigmaSchedule()
        config = SdeConfig(steps=steps, seed=23, trajectories=6)
        result = run_replication(lat, sched, config)
        assert np.array_equal(result.pre_assignment_points, _reference_pre_assignment(lat, sched, config))

    @pytest.mark.parametrize("chunk", [1, 3, 7, 1000])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        lat = LatentSet(np.random.default_rng(24).normal(size=(7, 2)))
        sched = SigmaSchedule()
        config = SdeConfig(steps=40, seed=25, trajectories=3)
        expected, expected_paths = run_replication(lat, sched, config, return_trajectories=True)
        monkeypatch.setattr(scorelab, "_NOISE_CHUNK", chunk)
        result, paths = run_replication(lat, sched, config, return_trajectories=True)
        assert np.array_equal(paths, expected_paths)
        assert np.array_equal(result.pre_assignment_points, expected.pre_assignment_points)

    @pytest.mark.parametrize("steps", STEPS_AROUND_CHUNK)
    def test_consumes_one_draw_per_grid_time(self, steps):
        lat = LatentSet(np.random.default_rng(26).normal(size=(3, 2)))
        rng = np.random.default_rng(27)
        backward_sample(lat, SigmaSchedule(), steps, rng)
        bulk = np.random.default_rng(27)
        bulk.standard_normal((steps + 1, 2))
        assert rng.random() == bulk.random()


class TestBackwardSample:
    def test_single_latent_attractor(self):
        target = np.array([1.5, -0.5])
        lat = LatentSet(target[None, :])
        sched = SigmaSchedule()
        final, path = backward_sample(lat, sched, 1000, np.random.default_rng(5), return_trajectory=True)
        assert np.array_equal(final, target)  # terminal limit step is exact
        assert np.linalg.norm(path[-2] - target) < 1e-3  # pre-assignment state
        assert len(path) == 1001  # one state per grid time from T down to 0

    def test_deterministic(self):
        lat = LatentSet(np.random.default_rng(6).normal(size=(4, 2)))
        sched = SigmaSchedule()
        a = backward_sample(lat, sched, 500, np.random.default_rng(7))
        b = backward_sample(lat, sched, 500, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_batch_matches_single_trajectory(self):
        lat = LatentSet(np.random.default_rng(8).normal(size=(6, 2)))
        sched = SigmaSchedule()
        config = SdeConfig(steps=400, seed=11, trajectories=5)
        result = run_replication(lat, sched, config)
        streams = np.random.SeedSequence(11).spawn(5)
        for j in (0, 2, 4):
            single = backward_sample(lat, sched, 400, np.random.default_rng(streams[j]))
            assert np.array_equal(result.final_points[j], single)

class TestRunReplication:
    def test_all_trajectories_replicate(self):
        lat = LatentSet(np.random.default_rng(9).normal(size=(16, 2)))
        sched = SigmaSchedule()
        result = run_replication(lat, sched, SdeConfig(steps=1000, seed=13, trajectories=64))
        assert result.replication_fraction >= 0.99
        assert result.mean_final_nn_distance < 0.01 * result.latent_diameter
        # every terminal point is exactly a training latent
        assert all(
            np.any(np.all(result.final_points[j] == lat.points, axis=1))
            for j in range(64)
        )

    def test_report_dict_fields(self):
        lat = LatentSet(np.random.default_rng(10).normal(size=(4, 2)))
        result = run_replication(lat, SigmaSchedule(), SdeConfig(steps=100, seed=1, trajectories=8))
        payload = result.to_dict()
        assert set(payload) == {
            "replication_fraction",
            "mean_final_nn_distance",
            "latent_diameter",
            "tolerance",
        }

class TestDsmLoss:
    def test_exact_conditional_target_gives_zero(self):
        point = np.array([0.7, -0.2])
        lat = LatentSet(point[None, :])
        sched = SigmaSchedule()

        def exact_target(z, t):
            # with one training point the conditional score is recoverable
            return -(z - point) / sched.sigma(t) ** 2

        loss = dsm_loss(lat, exact_target, sched, 200, np.random.default_rng(14))
        assert loss == pytest.approx(0.0, abs=1e-25)

    def test_non_negative(self):
        lat = LatentSet(np.random.default_rng(15).normal(size=(5, 2)))
        sched = SigmaSchedule()
        loss = dsm_loss(
            lat, lambda z, t: optimal_score(z, t, lat, sched), sched, 500, np.random.default_rng(16)
        )
        assert loss >= 0.0

    def test_constant_bias_adds_its_squared_norm(self):
        lat = LatentSet(np.random.default_rng(0).normal(size=(8, 2)))
        sched = SigmaSchedule()
        bias = np.array([0.6, -0.8])  # squared norm 1.0

        def opt(z, t):
            return optimal_score(z, t, lat, sched)

        base = dsm_loss(lat, opt, sched, 8000, np.random.default_rng(42), t_bounds=(0.5, 1.0))
        biased = dsm_loss(
            lat, lambda z, t: opt(z, t) + bias, sched, 8000, np.random.default_rng(42), t_bounds=(0.5, 1.0)
        )
        assert biased - base == pytest.approx(1.0, rel=0.1)

    def test_optimal_score_beats_perturbed(self):
        lat = LatentSet(np.random.default_rng(17).normal(size=(6, 2)))
        sched = SigmaSchedule()
        base = dsm_loss(
            lat, lambda z, t: optimal_score(z, t, lat, sched), sched, 3000, np.random.default_rng(18)
        )
        worse = dsm_loss(
            lat,
            lambda z, t: optimal_score(z, t, lat, sched) + 0.5,
            sched,
            3000,
            np.random.default_rng(18),
        )
        assert base < worse
