"""Debiased plug-in statistics.

A trained logit is turned into a detection statistic by subtracting its
average over the agent's own training set, which centers the statistic and
removes any constant bias toward one class.  In the multi-class case each
pairwise logit (reference class versus gamma) is centered with the mean taken
over the training samples labeled with either of those two classes.  The
checks of these statistics against the theory (the consistency conditions
on their class-conditional means, classifier complexity) live in
``theory``.
"""

from __future__ import annotations

import warnings

import numpy as np

from .base import Record, ValidationError
from .mlp import MLPModel, reference_logits


class StatisticError(ValidationError):
    """Invalid statistic construction or estimation input."""


class DebiasedStatistic(Record):
    """Trained logit minus its training mean, one component per non-reference class.

    ``train_means[j]`` centers the pairwise logit of class 0 versus class
    j + 1; for two classes this is the plain training mean of the binary
    logit.
    """

    model: MLPModel
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
        if self.train_means.size != 1:
            raise StatisticError("scalar form needs exactly two classes")
        out = self(features)
        return out[..., 0]


def make_debiased_statistic(
    model: MLPModel, logits, labels, classes, agent: int = 0
) -> DebiasedStatistic:
    """Center the model's pairwise logits on the agent's training set.

    ``logits`` holds the model's (N, M-1) pairwise logits z_0 - z_gamma on
    the training rows, as ``train_stack`` returns them, and ``labels`` the
    rows' class indices into ``classes``.  ``agent`` and ``classes`` name the
    agent and its classes in the messages.

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
    return DebiasedStatistic(model, means)
