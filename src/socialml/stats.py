"""Debiased plug-in statistics.

A trained logit is turned into a detection statistic by subtracting its
average over the agent's own training set, which centers the statistic and
removes any constant bias toward one class.  In the multi-class case each
pairwise logit (reference class versus gamma) is centered with the mean taken
over the training samples labeled with either of those two classes.  The
consistency checks on these statistics (conditional means, classifier
complexity) live in ``theory``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import Record, ValidationError
from .mlp import MLPModel, reference_logits

DEBIAS_TOL = 1e-10


class StatisticError(ValidationError):
    """Invalid statistic construction or estimation input."""


def empirical_training_mean(model_or_fn, features) -> float:
    """Average of a scalar statistic over the given feature rows."""
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    if feats.shape[0] == 0:
        raise StatisticError("empty feature list")
    values = _evaluate_scalar(model_or_fn, feats)
    return float(np.mean(values))


def _evaluate_scalar(model_or_fn, feats: np.ndarray) -> np.ndarray:
    if isinstance(model_or_fn, MLPModel):
        values = reference_logits(model_or_fn, feats)
        if values.shape[1] != 1:
            raise StatisticError("scalar statistic needs a 2-output model")
        return values[:, 0]
    return np.asarray(model_or_fn(feats), dtype=float).reshape(feats.shape[0])


class DebiasedStatistic(Record):
    """Trained logit minus its training mean, one component per non-reference class.

    ``train_means[j]`` centers the pairwise logit of ``classes[0]`` versus
    ``classes[j + 1]``; for two classes this is the plain training mean of the
    binary logit.
    """

    agent: int
    model: MLPModel
    classes: tuple
    train_means: np.ndarray

    def __call__(self, features) -> np.ndarray:
        """Centered pairwise logits, shape (M-1,) or (N, M-1)."""
        logits = reference_logits(self.model, features)
        # column by column: numpy loops slowly over a short last axis
        for j, mean in enumerate(self.train_means):
            logits[..., j] -= mean
        return logits

    def scalar(self, features) -> np.ndarray:
        """Binary convenience: the single centered logit component."""
        if len(self.classes) != 2:
            raise StatisticError("scalar form needs exactly two classes")
        out = self(features)
        return out[..., 0]


def make_debiased_statistic(
    model: MLPModel, logits, labels, classes, agent: int = 0
) -> DebiasedStatistic:
    """Center the model's pairwise logits on the agent's training set.

    ``logits`` holds the model's (N, M-1) pairwise logits z_0 - z_gamma on
    the training rows, as ``train_stack`` returns them, and ``labels`` the
    rows' class indices into ``classes``.

    Warns (rather than fails) on unbalanced training sets: the centering is
    still well defined, it just no longer symmetrizes the class-conditional
    means exactly.  Fails if some non-reference class has no training sample
    labeled with it or the reference class.
    """
    if model.architecture.n_outputs != len(classes):
        raise StatisticError("model outputs must match the classes")
    if np.shape(logits) != (len(labels), len(classes) - 1):
        raise StatisticError(
            f"logits: shape {np.shape(logits)}, expected {(len(labels), len(classes) - 1)}"
        )
    counts = np.bincount(labels, minlength=len(classes)).tolist()
    if len(set(counts)) != 1:
        warnings.warn(
            f"agent {agent}: unbalanced training set {dict(zip(classes, counts))}; "
            "centering uses the plain mean",
            stacklevel=2,
        )
    means = np.empty(len(classes) - 1)
    for j in range(1, len(classes)):
        pair = (labels == 0) | (labels == j)
        if not np.any(pair):
            raise StatisticError(f"no training samples labeled {classes[0]} or {classes[j]}")
        means[j - 1] = logits[pair, j - 1].mean()
    return DebiasedStatistic(agent, model, tuple(classes), means)
