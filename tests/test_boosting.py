import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialml.boosting import BoostingError, adaboost_decide, adaboost_train_stack
from socialml.mlp import (
    MLPArchitecture,
    MLPModel,
    TrainingDiverged,
    TrainingHyperparameters,
    reference_logits,
)
from socialml.social import decide


def flipped_views(n=20, flip_sets=((0, 1, 2), (7, 8, 9), (14, 15))):
    """Shared class indices; each agent's scalar view encodes the class (+2
    for class 0, -2 for class 1) except on its own disjoint flip set, so
    every agent errs somewhere but any two agents cover each other's
    mistakes."""
    labels = np.array([0, 1] * (n // 2))
    views = []
    for flips in flip_sets:
        view = np.where(labels == 0, 2.0, -2.0)
        view[list(flips)] *= -1.0
        views.append(view[:, None])
    return views, labels


HYPER = TrainingHyperparameters(epochs=80, batch_size=5, learning_rate=0.3)
SEEDS = [11, 12, 13]  # agent k trains with seed 11 + k
ARCH = MLPArchitecture((2, 2))  # scalar view + bias, linear scorer


class TestAdaboostTrain:
    def test_single_agent_reduces_to_weighted_training(self):
        views, labels = flipped_views(flip_sets=((0, 1),))
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH], HYPER, [SEEDS])
        assert len(ensemble.models) == 1
        err = ensemble.errors[0]
        assert ensemble.votes[0] == pytest.approx(0.5 * math.log((1 - err) / err))

    def test_perfect_learner_clamped_vote(self):
        views, labels = flipped_views(flip_sets=((),))  # view equals the label
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH], HYPER, [SEEDS])
        assert ensemble.degenerate == (0,)
        assert ensemble.votes[0] == pytest.approx(0.5 * math.log((1 - 1e-10) / 1e-10), rel=1e-6)
        assert ensemble.votes[0] == pytest.approx(11.51, abs=0.01)

    def test_complementary_agents_reach_zero_ensemble_error(self):
        views, labels = flipped_views()
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH] * 3, HYPER, [SEEDS])

        # each agent alone errs on its flip set
        for k, view in enumerate(views):
            own = decide(reference_logits(ensemble.models[k], view))
            assert np.any(own != labels)

        # exhaustive-evaluation oracle over all 20 points: recompute the
        # weighted vote by hand for every sample
        decisions = adaboost_decide(ensemble, views)
        for n in range(len(labels)):
            vote = 0.0
            for k in range(len(views)):
                f = float(reference_logits(ensemble.models[k], views[k][n])[..., 0])
                vote += ensemble.votes[k] * (1.0 if f >= 0 else -1.0)
            expect = 0 if vote >= 0 else 1
            assert decisions[n] == expect
        assert np.all(decisions == labels)

    def test_sample_weights_remain_pmf(self):
        views, labels = flipped_views()
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH] * 3, HYPER, [SEEDS])
        for weights in ensemble.weight_history:
            assert np.all(weights >= 0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_reweighting_equals_the_signed_product(self):
        # each round's update is AdaBoost's w * exp(-vote * y * h) over signs
        # y and h (+1.0 for class 0), normalized, bit for bit
        views, labels = flipped_views()
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH] * 3, HYPER, [SEEDS])
        y = np.where(labels == 0, 1.0, -1.0)
        for k, (model, view) in enumerate(zip(ensemble.models, views)):
            h = np.where(reference_logits(model, view)[:, 0] >= 0.0, 1.0, -1.0)
            weights = ensemble.weight_history[k] * np.exp(-ensemble.votes[k] * y * h)
            assert np.array_equal(ensemble.weight_history[k + 1], weights / weights.sum())

    def test_labels_must_be_binary(self):
        with pytest.raises(BoostingError):
            adaboost_train_stack(
                [([np.zeros((4, 1))], np.array([0, 1, 2, 0]))], [ARCH], HYPER, [SEEDS]
            )
        # labels are class indices, not signs
        with pytest.raises(BoostingError, match="class indices 0 and 1"):
            adaboost_train_stack(
                [([np.zeros((4, 1))], np.array([1, -1, 1, -1]))], [ARCH], HYPER, [SEEDS]
            )

    def test_view_length_mismatch_rejected(self):
        with pytest.raises(BoostingError):
            adaboost_train_stack([([np.zeros((3, 1))], np.array([0, 1]))], [ARCH], HYPER, [SEEDS])


    def test_diverged_round_names_the_agent(self):
        rng = np.random.default_rng(0)
        labels = np.where(rng.random(20) < 0.5, 0, 1)
        views = [rng.normal(size=(20, 2)) * scale for scale in (1.0, 1e300)]
        arch = MLPArchitecture((3, 4, 2), activation="identity")
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="agent 1"):
            adaboost_train_stack(
                [(views, labels)], [arch] * 2, TrainingHyperparameters(2, 5, 1e10), [[0, 1]]
            )


class TestAdaboostTrainStack:
    @given(
        dims=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4),
        n_scenes=st.integers(1, 4),
        shift=st.sampled_from([0.0, 0.7, 6.0]),
        optimizer=st.sampled_from(["gd", "adam"]),
        batch_size=st.integers(3, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_scene_equals_its_own_run(
        self, dims, n_scenes, shift, optimizer, batch_size, seed
    ):
        # a stack of many scenes equals a stack of one per scene, bit for bit;
        # a shift of 6 makes agents perfect learners, so rounds hit the clamp
        rng = np.random.default_rng(seed)
        n = 22
        scenes, seeds = [], []
        for _ in range(n_scenes):
            labels = np.where(rng.random(n) < 0.5, 0, 1)
            views = [(1 - 2 * labels)[:, None] * shift + rng.normal(size=(n, d)) for d in dims]
            scenes.append((views, labels))
            seeds.append(rng.integers(0, 2**31, len(dims)).tolist())
        archs = [MLPArchitecture((d + 1, 3, 2)) for d in dims]
        hyper = TrainingHyperparameters(3, batch_size, 0.2, optimizer=optimizer)
        stacked = adaboost_train_stack(scenes, archs, hyper, seeds)
        for (views, labels), own_seeds, got in zip(scenes, seeds, stacked):
            (want,) = adaboost_train_stack([(views, labels)], archs, hyper, [own_seeds])
            for a, b in zip(got.models, want.models):
                assert all(np.array_equal(u, v) for u, v in zip(a.weights, b.weights))
            assert np.array_equal(got.votes, want.votes)
            assert np.array_equal(got.errors, want.errors)
            assert np.array_equal(got.weight_history, want.weight_history)
            assert got.degenerate == want.degenerate

    def test_diverged_round_names_scene_round_and_agent(self):
        rng = np.random.default_rng(0)
        labels = np.where(rng.random(20) < 0.5, 0, 1)
        scenes = [
            ([rng.normal(size=(20, 2)), rng.normal(size=(20, 2)) * scale], labels)
            for scale in (1.0, 1e300)
        ]
        arch = MLPArchitecture((3, 4, 2), activation="identity")
        hyper = TrainingHyperparameters(2, 5, 1e10)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            adaboost_train_stack(scenes, [arch] * 2, hyper, [[1, 2], [3, 4]])
        assert info.value.model == 1
        assert "AdaBoost round 1, agent 1" in str(info.value)


class TestAdaboostDecide:
    def trained(self):
        views, labels = flipped_views()
        (ensemble,) = adaboost_train_stack([(views, labels)], [ARCH] * 3, HYPER, [SEEDS])
        return ensemble, views, labels

    def test_unanimous_agreement(self):
        ensemble, _, _ = self.trained()
        batch = [np.full((3, 1), 4.0) for _ in ensemble.models]
        np.testing.assert_array_equal(adaboost_decide(ensemble, batch), 0)

    def test_weighted_vote_arithmetic(self):
        ensemble, _, _ = self.trained()
        object.__setattr__(ensemble, "votes", np.array([3.0, 1.0, 1.0]))
        batch = [np.array([[-4.0]]), np.array([[4.0]]), np.array([[4.0]])]
        assert adaboost_decide(ensemble, batch)[0] == 1

    def test_tie_goes_to_the_reference_class(self):
        ensemble, _, _ = self.trained()
        object.__setattr__(ensemble, "votes", np.array([1.0, 1.0, 2.0]))
        batch = [np.array([[4.0]]), np.array([[4.0]]), np.array([[-4.0]])]
        assert adaboost_decide(ensemble, batch)[0] == 0

    def test_invariant_to_vote_rescaling(self):
        ensemble, views, _ = self.trained()
        base = adaboost_decide(ensemble, views)
        object.__setattr__(ensemble, "votes", ensemble.votes * 7.5)
        np.testing.assert_array_equal(adaboost_decide(ensemble, views), base)

    def test_memoryless_in_time(self):
        # shuffling the stream permutes decisions identically: no state
        ensemble, views, _ = self.trained()
        perm = np.random.default_rng(3).permutation(len(views[0]))
        base = adaboost_decide(ensemble, views)
        shuffled = adaboost_decide(ensemble, [v[perm] for v in views])
        np.testing.assert_array_equal(shuffled, base[perm])

    @given(
        votes=st.lists(
            st.floats(-3.0, 3.0, allow_nan=False).filter(lambda v: v != 0.0),
            min_size=3,
            max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_the_sum_of_signed_votes(self, votes, seed):
        # +-vote chosen per row is the +-1.0 decision times the vote, bit for
        # bit, a single row included; agent 0 scores every row 0, a tie
        # that decides class 0.  The reference multiplies signs: +1.0 for
        # class 0 (a logit >= 0), -1.0 for class 1
        ensemble, _, _ = self.trained()
        zero = MLPModel(ARCH, tuple(np.zeros_like(w) for w in ensemble.models[0].weights))
        object.__setattr__(ensemble, "models", (zero, *ensemble.models[1:]))
        object.__setattr__(ensemble, "votes", np.array(votes))
        rng = np.random.default_rng(seed)
        batch = [rng.normal(size=(30, 1)) * 3.0 for _ in ensemble.models]
        for feats in (batch, [b[0] for b in batch]):
            total = sum(
                np.where(reference_logits(model, f)[..., 0] >= 0.0, 1.0, -1.0) * vote
                for model, vote, f in zip(ensemble.models, ensemble.votes, feats)
            )
            want = np.where(total >= 0.0, 0, 1)
            got = adaboost_decide(ensemble, feats)
            assert got.dtype == np.intp and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_view_count_mismatch_rejected(self):
        ensemble, views, _ = self.trained()
        with pytest.raises(BoostingError):
            adaboost_decide(ensemble, views[:2])
