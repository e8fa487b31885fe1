import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from socialml.data import (
    mean_shift_gaussian_spec,
    one_informative_gaussian_spec,
    prediction_streams,
    true_log_ratio,
    two_class_log_likelihood,
)
from socialml.graph import CombinationMatrix, build_averaging_matrix, directed_ring_adjacency, perron_eigenvector
from socialml.social import (
    BeliefState,
    RegimeSchedule,
    SocialLearningError,
    asl_step,
    check_consistency_conditions,
    decide,
    diffuse,
    periodic_schedule,
    run_prediction,
    sl_step,
)
from socialml.stats import conditional_means

RING4 = CombinationMatrix(
    np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
)
SINGLE = CombinationMatrix(np.array([[1.0]]))


class TestSlStep:
    def test_single_agent_accumulates(self):
        state = sl_step(BeliefState(np.zeros(1)), SINGLE, np.array([0.3]))
        assert state.lam[0] == pytest.approx(0.3)
        assert state.step == 1

    def test_symmetric_cancellation(self):
        m = CombinationMatrix(np.full((2, 2), 0.5))
        state = BeliefState(np.zeros(2))
        for _ in range(10):
            state = sl_step(state, m, np.array([1.0, -1.0]))
        np.testing.assert_allclose(state.lam, 0.0, atol=1e-12)

    def test_time_average_converges_to_perron_mean(self):
        c = np.array([0.0, 0.1, 0.0, 0.0])
        pi = perron_eigenvector(RING4).values
        target = float(pi @ c)
        state = BeliefState(np.zeros(4))
        for _ in range(2000):
            state = sl_step(state, RING4, c)
        np.testing.assert_allclose(state.lam / 2000, target, atol=1e-2)

    def test_nan_statistic_rejected(self):
        with pytest.raises(SocialLearningError):
            sl_step(BeliefState(np.zeros(1)), SINGLE, np.array([np.nan]))

    @given(
        hnp.arrays(np.float64, (4,), elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-10, 10)),
        hnp.arrays(np.float64, (4,), elements=st.floats(-10, 10)),
        st.floats(-3, 3),
        st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_linear_in_state_and_statistics(self, l1, l2, c1, c2, a, b):
        combined = sl_step(BeliefState(a * l1 + b * l2), RING4, a * c1 + b * c2)
        separate = a * sl_step(BeliefState(l1), RING4, c1).lam + b * sl_step(
            BeliefState(l2), RING4, c2
        ).lam
        np.testing.assert_allclose(combined.lam, separate, atol=1e-9)


class TestAslStep:
    def test_near_one_delta_is_memoryless(self):
        state = BeliefState(np.array([5.0, -3.0, 2.0, 1.0]))
        c = np.array([0.2, -0.4, 0.6, 0.0])
        stepped = asl_step(state, RING4, c, delta=1 - 1e-12)
        memoryless = RING4.weights.T @ c
        np.testing.assert_allclose(stepped.lam, memoryless, atol=1e-9)

    def test_geometric_fixed_point_single_agent(self):
        delta, c = 0.1, 0.5
        state = BeliefState(np.zeros(1))
        for i in range(1, 201):
            state = asl_step(state, SINGLE, np.array([c]), delta)
            expect = c * (1 - (1 - delta) ** i) / delta
            assert state.lam[0] == pytest.approx(expect, rel=1e-12)
        assert state.lam[0] == pytest.approx(c / delta, rel=0.01)

    def test_delta_zero_rejected(self):
        with pytest.raises(SocialLearningError):
            asl_step(BeliefState(np.zeros(4)), RING4, np.zeros(4), delta=0.0)
        with pytest.raises(SocialLearningError):
            asl_step(BeliefState(np.zeros(4)), RING4, np.zeros(4), delta=1.0)

    def test_bounded_by_saturation_level(self):
        rng = np.random.default_rng(0)
        delta = 0.2
        state = BeliefState(rng.normal(size=4))
        lam0_max = np.abs(state.lam).max()
        cap = 1.0 / delta + lam0_max
        for _ in range(300):
            c = rng.uniform(-1.0, 1.0, 4)
            state = asl_step(state, RING4, c, delta)
            assert np.all(np.abs(state.lam) <= cap + 1e-9)


class TestDecide:
    def test_sign_rule_with_tie_to_reference(self):
        lam = np.array([[0.0], [-0.2], [0.3]])
        np.testing.assert_array_equal(decide(lam), np.array([0, 1, 0]))

    def test_multiclass_argmax(self):
        assert decide(np.array([[-1.0, 1.0]]))[0] == 1
        ties = np.array([[0.0, 0.0]])
        assert decide(ties)[0] == 0  # ties go to the earliest class

    @given(
        hnp.arrays(
            np.float64,
            (3, 2),
            elements=st.floats(-5, 5, allow_subnormal=False).map(lambda x: round(x, 6)),
        ),
        st.floats(min_value=0.1, max_value=50.0).map(lambda x: round(x, 6)),
    )
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_positive_rescaling(self, lam, factor):
        a = decide(lam)
        b = decide(lam * factor)
        np.testing.assert_array_equal(a, b)

    @given(
        st.integers(1, 4).flatmap(
            lambda width: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 3), st.integers(1, 6), st.just(width)),
                elements=st.one_of(
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5]),
                    st.floats(-1e300, 1e300),
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_concatenate_argmax(self, lam):
        # the reference: the reference class's score 0 beside -lam, and
        # argmax, which takes the first maximizer
        scores = np.concatenate([np.zeros(lam.shape[:-1] + (1,)), -lam], axis=-1)
        np.testing.assert_array_equal(decide(lam), np.argmax(scores, axis=-1))
        assert decide(lam[0, 0]) == np.argmax(scores[0, 0])


def random_primitive_matrix(rng, n_agents) -> CombinationMatrix:
    """Random left-stochastic weights on a random graph that holds a directed
    ring plus self-loops, so its support is strongly connected and aperiodic."""
    support = rng.random((n_agents, n_agents)) < 0.4
    support |= np.eye(n_agents, dtype=bool)
    support |= np.roll(np.eye(n_agents, dtype=bool), 1, axis=1)
    weights = rng.uniform(0.05, 1.0, (n_agents, n_agents)) * support
    return CombinationMatrix(weights / weights.sum(axis=0))


def out_of_place_diffuse(stats, weights, delta):
    """``diffuse`` as a loop that allocates keep * state + c_t at every step."""
    keep = 1.0 if delta is None else 1.0 - delta
    horizon, n_agents = stats.shape[-3:-1]
    steps = np.moveaxis(np.swapaxes(stats, -1, -2), -3, 0)
    lam = np.empty(steps.shape)
    rows = lam.reshape(horizon, math.prod(steps.shape[1:-1]), n_agents)
    state = np.zeros(rows.shape[1:])
    for t in range(horizon):
        state = np.matmul(keep * state + steps[t].reshape(state.shape), weights, out=rows[t])
    return np.moveaxis(np.swapaxes(lam, -1, -2), 0, -3)


class TestDiffuse:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 4, 7]),
        st.sampled_from([1, 2]),
        st.sampled_from([None, 0.05, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_iterated_reference_steps(self, seed, n_agents, width, delta):
        # the kernel over a batch of 3 streams equals the reference steps run
        # one stream at a time, with (K,) states for one ratio, (K, W) otherwise
        rng = np.random.default_rng(seed)
        matrix = random_primitive_matrix(rng, n_agents)
        stats = rng.uniform(-3.0, 3.0, (3, 25, n_agents, width))
        lam = diffuse(stats, matrix.weights, delta)
        assert lam.shape == stats.shape
        for s in range(3):
            state = BeliefState(np.zeros((n_agents, width)) if width > 1 else np.zeros(n_agents))
            for t in range(25):
                c = stats[s, t] if width > 1 else stats[s, t, :, 0]
                if delta is None:
                    state = sl_step(state, matrix, c)
                else:
                    state = asl_step(state, matrix, c, delta)
                expect = state.lam if width > 1 else state.lam[:, None]
                np.testing.assert_allclose(lam[s, t], expect, rtol=1e-12, atol=1e-12)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(), (3,), (2, 3)]),
        st.sampled_from([1, 4, 7, 33]),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([None, 0.05]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_equal_to_out_of_place_loop(self, seed, batch, n_agents, width, delta):
        # the in-place kernel does the out-of-place loop's operations in the
        # same order, so it must reproduce every bit
        rng = np.random.default_rng(seed)
        weights = random_primitive_matrix(rng, n_agents).weights
        stats = rng.uniform(-3.0, 3.0, batch + (17, n_agents, width))
        expect = out_of_place_diffuse(stats, weights, delta)
        assert np.array_equal(diffuse(stats, weights, delta), expect)

    def test_unbatched_track_equals_batch_of_one(self):
        rng = np.random.default_rng(4)
        stats = rng.normal(size=(40, 4, 2))
        np.testing.assert_array_equal(
            diffuse(stats, RING4.weights, 0.1), diffuse(stats[None], RING4.weights, 0.1)[0]
        )

    def test_delta_outside_unit_interval_rejected(self):
        for delta in (0.0, 1.0):
            with pytest.raises(SocialLearningError):
                diffuse(np.zeros((3, 4, 1)), RING4.weights, delta)


class TestRegimeSchedule:
    def test_states_track(self):
        sched = periodic_schedule(3, [0, 1], 8)
        np.testing.assert_array_equal(
            sched.states(8), np.array([0, 0, 0, 1, 1, 1, 0, 0], dtype=object)
        )

    def test_must_start_at_zero(self):
        with pytest.raises(SocialLearningError):
            RegimeSchedule(((3, 0),))

    def test_overlap_rejected(self):
        with pytest.raises(SocialLearningError):
            RegimeSchedule(((0, 0), (5, 1), (5, 0)))


class TestRunPrediction:
    def constant_providers(self, values, width=None):
        def make(v):
            if width is None:
                return lambda h: np.full(len(h), v)
            return lambda h: np.full((len(h), width), v)

        return [make(v) for v in values]

    def test_zero_providers_keep_initial_state(self):
        feats = [np.zeros((5, 1))] * 4
        states = np.array([1] * 5, dtype=object)
        run = run_prediction(
            "sl", RING4, self.constant_providers([0.0] * 4), feats, states, (1, -1)
        )
        assert np.all(run.lam == 0.0)
        assert np.all(run.decisions == 1)  # ties go to the reference class

    def test_engine_delta_contract(self):
        feats = [np.zeros((2, 1))] * 4
        states = np.array([1, 1], dtype=object)
        providers = self.constant_providers([0.0] * 4)
        with pytest.raises(SocialLearningError):
            run_prediction("sl", RING4, providers, feats, states, (1, -1), delta=0.1)
        with pytest.raises(SocialLearningError):
            run_prediction("asl", RING4, providers, feats, states, (1, -1))
        with pytest.raises(SocialLearningError):
            run_prediction("other", RING4, providers, feats, states, (1, -1))

    def test_shape_mismatches_rejected(self):
        states = np.array([1, 1], dtype=object)
        with pytest.raises(SocialLearningError, match="cover all agents"):
            run_prediction(
                "sl", RING4, self.constant_providers([0.0] * 3),
                [np.zeros((2, 1))] * 3, states, (1, -1),
            )
        with pytest.raises(SocialLearningError, match="stream length"):
            run_prediction(
                "sl", RING4, self.constant_providers([0.0] * 4),
                [np.zeros((2, 1))] * 3 + [np.zeros((5, 1))], states, (1, -1),
            )

    def test_non_finite_statistic_rejected(self):
        feats = [np.zeros((5, 1))] * 4
        states = np.array([1] * 5, dtype=object)
        providers = self.constant_providers([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(SocialLearningError, match="non-finite statistic"):
            run_prediction("sl", RING4, providers, feats, states, (1, -1))

    def test_overflowing_lambda_rejected(self):
        feats = [np.zeros((5, 1))] * 4
        states = np.array([1] * 5, dtype=object)
        providers = self.constant_providers([1e308] * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SocialLearningError, match="non-finite"):
                run_prediction("sl", RING4, providers, feats, states, (1, -1))

    def test_single_agent_true_ratio_learns_truth(self):
        # known-likelihood statistic at one informative agent: decisions settle
        # on the true state in every seeded run
        spec = mean_shift_gaussian_spec(1, dim=1, shift=1.0)
        provider = true_log_ratio(spec, 0)
        sched = RegimeSchedule(((0, 1),))
        for seed in range(10):
            stream = prediction_streams(spec, sched, 60, [seed])
            run = run_prediction(
                "sl",
                SINGLE,
                [provider],
                [v[0] for v in stream.features_per_agent],
                stream.true_states,
                (1, -1),
            )
            assert np.all(run.decisions[25:, 0] == 1)

    def test_asl_recovers_after_flip_within_five_over_delta(self):
        # strongly informative fixed statistics, flip mid-stream; all agents
        # recover within 5/delta steps in at least 9 of 10 seeded runs
        delta, flip, horizon = 0.1, 100, 200
        window = int(5 / delta)
        spec = mean_shift_gaussian_spec(4, dim=1, shift=1.0)
        providers = [true_log_ratio(spec, k) for k in range(4)]
        sched = RegimeSchedule(((0, 1), (flip, -1)))
        recovered = 0
        for seed in range(10):
            stream = prediction_streams(spec, sched, horizon, [100 + seed])
            run = run_prediction(
                "asl",
                RING4,
                providers,
                [v[0] for v in stream.features_per_agent],
                stream.true_states,
                (1, -1),
                delta=delta,
            )
            recovered += bool(np.all(run.correct[flip + window :]))
        assert recovered >= 9

    def test_binary_and_two_class_engines_agree(self):
        # the same stream driven as binary scalars and as a 2-class vector
        # produces identical decisions
        rng = np.random.default_rng(21)
        feats = [rng.normal(size=(30, 1)) for _ in range(4)]
        states = np.array([1] * 30, dtype=object)
        scalar_providers = [
            (lambda c: (lambda h: c * np.asarray(h)[:, 0]))(c)
            for c in (0.5, -0.2, 0.8, 0.1)
        ]
        vector_providers = [
            (lambda c: (lambda h: (c * np.asarray(h)[:, 0])[:, None]))(c)
            for c in (0.5, -0.2, 0.8, 0.1)
        ]
        run_b = run_prediction("sl", RING4, scalar_providers, feats, states, (1, -1))
        run_v = run_prediction("sl", RING4, vector_providers, feats, states, (1, -1))
        np.testing.assert_array_equal(run_b.decisions, run_v.decisions)
        np.testing.assert_allclose(run_b.lam, run_v.lam, atol=0)


class TestRunPredictionBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 3, 5]),
        st.sampled_from([(1, -1), (0, 1, 2)]),
        st.integers(1, 4),
        st.integers(1, 12),
        st.sampled_from([None, 0.2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_single_stream_runs(
        self, seed, n_agents, classes, n_streams, horizon, delta
    ):
        rng = np.random.default_rng(seed)
        matrix = random_primitive_matrix(rng, n_agents)
        width = len(classes) - 1
        # agents see features of different widths; statistics are row-wise
        feats = [
            rng.normal(size=(n_streams, horizon, width + k % 2)) for k in range(n_agents)
        ]
        providers = [
            (lambda c: (lambda h: c * np.tanh(h[:, :width]) - 0.5 * h[:, -1:]))(c)
            for c in rng.uniform(0.5, 2.0, n_agents)
        ]
        states = np.array(rng.choice(classes, horizon).tolist(), dtype=object)
        engine = "sl" if delta is None else "asl"
        batch = run_prediction(engine, matrix, providers, feats, states, classes, delta)
        assert batch.horizon == horizon
        assert batch.lam.shape == (n_streams, horizon, n_agents, width)
        for s in range(n_streams):
            single = run_prediction(
                engine, matrix, providers, [f[s] for f in feats], states, classes, delta
            )
            if width > 1:
                assert np.array_equal(batch.lam[s], single.lam)
            else:
                # one binary stream mixes a single row per step, which BLAS
                # runs as a matrix-vector product; its K-term sums may round
                # differently from the matrix-matrix product of a batch
                np.testing.assert_allclose(batch.lam[s], single.lam, rtol=1e-12, atol=1e-12)
            assert np.array_equal(batch.decisions[s], single.decisions)
            assert np.array_equal(batch.correct[s], single.correct)

    def test_true_state_outside_classes_rejected(self):
        feats = [np.zeros((3, 1))] * 4
        providers = [lambda h: np.zeros(len(h))] * 4
        states = np.array([1, 0, 1], dtype=object)
        with pytest.raises(SocialLearningError, match="true state 0 not in classes"):
            run_prediction("sl", RING4, providers, feats, states, (1, -1))

    def test_batch_shapes_must_agree(self):
        feats = [np.zeros((2, 3, 1))] * 3 + [np.zeros((3, 1))]
        providers = [lambda h: np.zeros(len(h))] * 4
        states = np.array([1, 1, 1], dtype=object)
        with pytest.raises(SocialLearningError, match="agent 3 batch"):
            run_prediction("sl", RING4, providers, feats, states, (1, -1))


class TestConsistencyConditions:
    def gaussian_sampler(self, spec, k):
        return lambda rng, label, n: spec.models[k][label].sample(rng, n)

    def test_zero_statistic_not_satisfied(self):
        spec = mean_shift_gaussian_spec(2, dim=1)
        means = conditional_means(
            [lambda h: np.zeros(len(h))] * 2,
            [self.gaussian_sampler(spec, k) for k in range(2)],
            np.array([0.5, 0.5]),
            n_mc=100,
            seed=0,
        )
        report = check_consistency_conditions(means)
        assert report.margin_plus == 0.0
        assert report.margin_minus == 0.0
        assert not report.satisfied

    def test_informative_true_ratio_satisfied(self):
        # a statistic with positive divergence under +1 and negative under -1
        spec = mean_shift_gaussian_spec(1, dim=1, shift=1.0)
        means = conditional_means(
            [true_log_ratio(spec, 0)],
            [self.gaussian_sampler(spec, 0)],
            np.array([1.0]),
            n_mc=50_000,
            seed=1,
        )
        report = check_consistency_conditions(means)
        assert report.satisfied
        # expected divergence of unit Gaussians at means +-1 is 2
        assert report.margin_plus == pytest.approx(2.0, abs=0.1)

    def test_biased_statistic_satisfied_after_centering(self):
        # f(h) = h + 5 keeps both conditional means positive; centering with
        # the training mean still separates them symmetrically
        spec = mean_shift_gaussian_spec(1, dim=1, shift=1.0)
        fn = lambda h: np.asarray(h)[:, 0] + 5.0
        means = conditional_means(
            [fn],
            [self.gaussian_sampler(spec, 0)],
            np.array([1.0]),
            n_mc=100_000,
            seed=2,
            train_means=[5.0],  # population training mean of f
        )
        assert means.mu_plus > means.mu_minus > 0
        report = check_consistency_conditions(means)
        assert report.satisfied
        assert report.margin_plus == pytest.approx(1.0, abs=5 * means.stderr_network)
        assert report.margin_minus == pytest.approx(1.0, abs=5 * means.stderr_network)


class TestBayesClassifier:
    def test_error_rate_matches_q_function_oracle(self):
        # one agent diffusing its true log-likelihood ratio runs the
        # known-model sequential test; for unit Gaussians at means +-1 under
        # +1, the error at step i is Q(sqrt(i)); at i = 50 that is ~7.7e-13,
        # so no errors in 1e4 runs
        spec = mean_shift_gaussian_spec(1, dim=1, shift=1.0)
        pair = two_class_log_likelihood(spec, 0)
        q50 = 0.5 * math.erfc(math.sqrt(50.0) / math.sqrt(2.0))
        assert q50 < 1e-3
        rng = np.random.default_rng(3)
        feats = rng.normal(1.0, 1.0, (10_000, 50, 1))
        run = run_prediction(
            "sl", CombinationMatrix([[1.0]]), [lambda h: np.subtract(*pair(h))],
            [feats], [1] * 50, (1, -1),
        )
        errors = int(np.sum(~run.correct[:, -1, 0]))
        assert errors / 10_000 <= 1e-3
