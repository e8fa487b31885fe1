import itertools
import math

import numpy as np
import pytest

from socialml.mlp import (
    MLPArchitecture,
    TrainingHyperparameters,
    initialize_model,
    reference_logits,
    train_stack,
)
from socialml.stats import StatisticError, make_debiased_statistic
from socialml.theory import class_means, mlp_rademacher_bound, rademacher_monte_carlo
from helpers import empirical_training_mean, gaussian_training_set, mean_shift_gaussian_spec


def train_small(feats, labels, n_classes, seed, hidden=(6,)):
    arch = MLPArchitecture((feats.shape[1] + 1, *hidden, n_classes))
    hyper = TrainingHyperparameters(6, 8, 0.05)
    (model,), _, _ = train_stack([feats], [labels], arch, hyper, [seed])
    return model


def random_binary_dataset(rng, n_per_class=25, dim=2):
    """``(features, labels)``: class 0 centered at +0.6, class 1 at -0.6."""
    feats = np.vstack(
        [rng.normal(0.6, 1.0, (n_per_class, dim)), rng.normal(-0.6, 1.0, (n_per_class, dim))]
    )
    return feats, np.repeat([0, 1], n_per_class)


class TestEmpiricalTrainingMean:
    def test_zero_and_constant_functions(self):
        feats = np.random.default_rng(0).normal(size=(30, 2))
        assert empirical_training_mean(lambda h: np.zeros(len(h)), feats) == 0.0
        assert empirical_training_mean(lambda h: np.full(len(h), 7.0), feats) == 7.0

    def test_matches_independent_summation_order(self):
        rng = np.random.default_rng(1)
        feats, labels = random_binary_dataset(rng)
        model = train_small(feats, labels, 2, seed=2)
        got = empirical_training_mean(model, feats)
        # oracle: reversed-order plain Python summation
        values = [float(reference_logits(model, h)[..., 0]) for h in feats]
        expect = sum(reversed(values)) / len(values)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(StatisticError):
            empirical_training_mean(lambda h: h[:, 0], np.empty((0, 2)))


class TestDebiasedStatistic:
    def test_constant_function_centered_to_zero(self):
        # a model whose logit is constant: only the bias column is nonzero
        arch = MLPArchitecture((3, 2), bias=True)
        from socialml.mlp import MLPModel

        model = MLPModel(arch, (np.array([[0.0, 0.0, 2.5], [0.0, 0.0, 0.0]]),))
        rng = np.random.default_rng(3)
        feats, labels = random_binary_dataset(rng)
        stat = make_debiased_statistic(model, reference_logits(model, feats), labels, (1, -1))
        np.testing.assert_allclose(stat.scalar(feats), 0.0, atol=1e-12)

    def test_training_mean_centered_binary(self):
        rng = np.random.default_rng(4)
        feats, labels = random_binary_dataset(rng)
        model = train_small(feats, labels, 2, seed=5)
        stat = make_debiased_statistic(model, reference_logits(model, feats), labels, (1, -1))
        assert abs(stat.scalar(feats).mean()) < 1e-10

    def test_training_mean_centered_per_class_pair(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(60, 2)) + np.repeat(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 20, axis=0
        )
        labels = np.repeat([0, 1, 2], 20)
        model = train_small(feats, labels, 3, seed=7)
        stat = make_debiased_statistic(model, reference_logits(model, feats), labels, (0, 1, 2))
        values = stat(feats)
        for j, cls in enumerate((1, 2)):
            pair = (labels == 0) | (labels == cls)
            assert abs(values[pair, j].mean()) < 1e-10

    def test_binary_and_two_class_paths_identical(self):
        rng = np.random.default_rng(8)
        feats, labels = random_binary_dataset(rng)
        model = train_small(feats, labels, 2, seed=9)
        stat = make_debiased_statistic(model, reference_logits(model, feats), labels, (1, -1))
        h = rng.normal(size=(40, 2))
        np.testing.assert_allclose(stat.scalar(h), stat(h)[:, 0], atol=1e-12)
        # the pairwise mean over labels {first, second} is the plain mean
        assert stat.train_means[0] == pytest.approx(
            float(reference_logits(model, feats)[:, 0].mean()), abs=1e-12
        )

    def test_unbalanced_warns(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(30, 2))
        labels = np.repeat([0, 1], [20, 10])
        model = train_small(feats, labels, 2, seed=11)
        with pytest.warns(UserWarning, match=r"unbalanced training set \{1: 20, -1: 10\}"):
            make_debiased_statistic(model, reference_logits(model, feats), labels, (1, -1))

    def test_missing_pair_class_rejected(self):
        # labels only from class 1: the {0, 2} pair set is empty
        feats = np.random.default_rng(0).normal(size=(10, 2))
        model = train_small(feats, np.array([0, 1, 2, 0, 1] * 2), 3, seed=12)
        with pytest.warns(UserWarning, match="unbalanced"):
            with pytest.raises(StatisticError, match="no training samples labeled 0 or 2"):
                logits = reference_logits(model, feats)
                make_debiased_statistic(model, logits, np.ones(10, dtype=int), (0, 1, 2))

    def test_logits_of_another_shape_rejected(self):
        rng = np.random.default_rng(14)
        feats, labels = random_binary_dataset(rng)
        model = train_small(feats, labels, 2, seed=15)
        logits = reference_logits(model, feats)
        for bad in (logits[:-1], logits[:, 0], np.hstack([logits, logits])):
            with pytest.raises(StatisticError, match="logits"):
                make_debiased_statistic(model, bad, labels, (1, -1))

    @pytest.mark.filterwarnings("ignore:agent 0. unbalanced")
    @pytest.mark.parametrize(
        "case, want",
        [
            ("binary", [-0.16909615702066702]),
            ("three unbalanced", [0.6116814827701273, 1.3548284589701547]),
        ],
    )
    def test_means_from_the_models_logits_are_the_pinned_ones(self, case, want):
        # the means the statistic computed from the features before it read
        # logits; the tolerance only admits another BLAS or libm build's
        # last-bit rounding, and on the build that pinned them they are exact
        if case == "binary":
            rng = np.random.default_rng(51)
            feats, labels = random_binary_dataset(rng)
            arch = MLPArchitecture((3, 6, 2))
            hyper = TrainingHyperparameters(6, 8, 0.05)
            seed, classes = 52, (1, -1)
        else:
            rng = np.random.default_rng(53)
            feats = rng.normal(size=(45, 3))
            labels = np.repeat([0, 1, 2], [20, 15, 10])
            arch = MLPArchitecture((4, 5, 3), activation="relu")
            hyper = TrainingHyperparameters(4, 7, 0.1, optimizer="adam")
            seed, classes = 54, ("a", "b", "c")
        (model,), _, logits = train_stack([feats], [labels], arch, hyper, [seed])
        for source in (logits[0], reference_logits(model, feats)):
            stat = make_debiased_statistic(model, source, labels, classes)
            np.testing.assert_allclose(stat.train_means, want, rtol=1e-10, atol=0)

    def test_conditional_mean_symmetry_monte_carlo(self):
        # fixed linear statistic on +-1-mean unit Gaussians: after centering
        # with a large training sample, E[c | +1] and -E[c | -1] agree
        spec = mean_shift_gaussian_spec(1, dim=1, shift=1.0)
        big_train, _ = gaussian_training_set(spec, 0, 50_000, seed=13)
        mean_train = float(big_train[:, 0].mean())

        def centered(h):
            return np.asarray(h)[:, 0] - mean_train

        rng = np.random.default_rng(14)
        n = 100_000
        plus = centered(rng.normal(1.0, 1.0, (n, 1)))
        minus = centered(rng.normal(-1.0, 1.0, (n, 1)))
        total = plus.mean() + minus.mean()
        stderr = math.sqrt(
            plus.var() / n + minus.var() / n + 2 * (1.0 / big_train.shape[0])
        )
        assert abs(total) < 4 * stderr


class TestClassMeans:
    def test_zero_function_zero_means(self):
        spec = mean_shift_gaussian_spec(2, dim=1)
        means = class_means([lambda h: np.zeros(len(h))] * 2, spec, np.array([0.5, 0.5]), 200, 0)
        assert means.drift[0, 0] == 0.0 and means.drift[1, 0] == 0.0 and means.drift.mean() == 0.0

    def test_single_agent_network_mean_is_agent_mean(self):
        spec = mean_shift_gaussian_spec(1, dim=1, shift=0.7)
        means = class_means([lambda h: np.asarray(h)[:, 0]], spec, np.array([1.0]), 50_000, 1)
        assert means.drift[0, 0] == pytest.approx(means.means[0, 0, 0])
        assert means.drift[0, 0] == pytest.approx(0.7, abs=4 * means.stderrs[0, 0, 0])

    def test_identity_statistic_recovers_shift(self):
        spec = mean_shift_gaussian_spec(3, dim=1, shift=1.3)
        fns = [lambda h: np.asarray(h)[:, 0]] * 3
        means = class_means(fns, spec, np.full(3, 1 / 3), 50_000, 2)
        stderr = np.hypot(*means.drift_stderr[:, 0])
        assert means.drift[0, 0] == pytest.approx(1.3, abs=5 * stderr)
        assert means.drift[1, 0] == pytest.approx(-1.3, abs=5 * stderr)
        # uniform-prior mean halves the sum exactly
        assert means.drift.mean() == pytest.approx(means.drift[:, 0].sum() / 2, abs=1e-12)

    def test_one_draw_has_zero_stderr(self):
        spec = mean_shift_gaussian_spec(2, dim=1)
        means = class_means([lambda h: np.asarray(h)[:, 0]] * 2, spec, np.full(2, 0.5), 1, 0)
        assert np.array_equal(means.stderrs, np.zeros((2, 2, 1)))

    @pytest.mark.parametrize("n", [0, -3])
    def test_fewer_than_one_draw_rejected(self, n):
        spec = mean_shift_gaussian_spec(2, dim=1)
        with pytest.raises(StatisticError, match="n must be at least 1"):
            class_means([lambda h: np.zeros(len(h))] * 2, spec, np.full(2, 0.5), n, 0)

    def test_statistics_misaligned_with_perron_rejected(self):
        spec = mean_shift_gaussian_spec(2, dim=1)
        zero = lambda h: np.zeros(len(h))
        with pytest.raises(StatisticError, match="2 statistics but 3 Perron weights"):
            class_means([zero] * 2, spec, np.full(3, 1 / 3), 10, 0)
        with pytest.raises(StatisticError, match="3 statistics but the source has 2 agents"):
            class_means([zero] * 3, spec, np.full(3, 1 / 3), 10, 0)


class TestRademacherMonteCarlo:
    def test_zero_family(self):
        est = rademacher_monte_carlo(
            [lambda h: np.zeros(len(h))], np.ones((6, 1)), n_draws=50, seed=0
        )
        assert est.value == 0.0

    def test_two_point_linear_class_exact(self):
        # candidates w in {-1, +1} acting on scalar features; the exact value
        # enumerates all 4 sign vectors
        feats = np.array([[0.5], [2.0]])
        candidates = [lambda h: np.asarray(h)[:, 0], lambda h: -np.asarray(h)[:, 0]]
        est = rademacher_monte_carlo(candidates, feats, exact=True)
        expect = np.mean(
            [
                max(abs(r1 * 0.5 + r2 * 2.0), abs(-r1 * 0.5 - r2 * 2.0)) / 2
                for r1, r2 in itertools.product((-1, 1), repeat=2)
            ]
        )
        assert est.value == pytest.approx(expect, abs=1e-12)
        assert est.method == "exhaustive"

    def test_singleton_family_matches_full_enumeration(self):
        rng = np.random.default_rng(15)
        feats = rng.normal(size=(10, 1))
        fn = lambda h: np.asarray(h)[:, 0] ** 2 - 1.0
        est = rademacher_monte_carlo([fn], feats, exact=True)
        values = fn(feats)
        brute = np.mean(
            [
                abs(np.dot(signs, values)) / len(values)
                for signs in itertools.product((-1.0, 1.0), repeat=10)
            ]
        )
        assert est.value == pytest.approx(brute, abs=1e-12)

    def test_monte_carlo_close_to_exact(self):
        rng = np.random.default_rng(16)
        feats = rng.normal(size=(8, 2))
        candidates = [
            (lambda w: (lambda h: np.asarray(h) @ w))(rng.normal(size=2))
            for _ in range(5)
        ]
        exact = rademacher_monte_carlo(candidates, feats, exact=True)
        mc = rademacher_monte_carlo(candidates, feats, n_draws=4000, seed=17)
        assert mc.value == pytest.approx(exact.value, abs=5 * mc.stderr)

    def test_empty_inputs_rejected(self):
        with pytest.raises(StatisticError):
            rademacher_monte_carlo([], np.ones((3, 1)), n_draws=5)
        with pytest.raises(StatisticError):
            rademacher_monte_carlo([lambda h: h[:, 0]], np.empty((0, 1)), n_draws=5)


class TestMlpRademacherBound:
    def test_direct_formula(self):
        arch = MLPArchitecture((2, 2), bias=False, norm_bound=1.0, input_bound=1.0)
        bound = mlp_rademacher_bound(arch, 100)
        assert bound == pytest.approx(4.0 * math.sqrt(math.log(4.0)) / 10.0, abs=1e-12)
        assert bound == pytest.approx(0.47096, abs=1e-4)

    def test_scaling_in_samples(self):
        arch = MLPArchitecture((2, 2), bias=False, norm_bound=1.0)
        assert mlp_rademacher_bound(arch, 200) == pytest.approx(
            mlp_rademacher_bound(arch, 100) / math.sqrt(2), rel=1e-12
        )

    def test_depth_factor(self):
        one = MLPArchitecture((2, 2), bias=False, norm_bound=0.5)
        two = MLPArchitecture((2, 4, 2), bias=False, norm_bound=0.5)
        # (2 b L)^(L-1) with b = 0.5 contributes a factor of exactly 1
        assert mlp_rademacher_bound(two, 64) == pytest.approx(
            mlp_rademacher_bound(one, 64), rel=1e-12
        )

    def test_missing_bound_rejected(self):
        with pytest.raises(StatisticError):
            mlp_rademacher_bound(MLPArchitecture((2, 2)), 10)

    def test_bound_dominates_monte_carlo_for_feasible_families(self):
        rng = np.random.default_rng(18)
        for trial in range(20):
            n0 = int(rng.integers(2, 5))
            depth = int(rng.integers(1, 3))
            b = float(rng.uniform(0.3, 2.0))
            sizes = (n0, *([int(rng.integers(2, 6))] * (depth - 1)), 2)
            arch = MLPArchitecture(sizes, bias=False, norm_bound=b, input_bound=1.0)
            feats = rng.uniform(-1.0, 1.0, size=(8, n0))

            candidates = []
            for _ in range(12):
                model = initialize_model(arch, rng)
                candidates.append(
                    (lambda m: (lambda h: _logit(m, h)))(model)
                )
            est = rademacher_monte_carlo(candidates, feats, exact=True)
            assert est.value <= mlp_rademacher_bound(arch, 8) + 1e-12


def _logit(model, h):
    return reference_logits(model, h)[..., 0]
