"""Centralized boosting baseline over the same per-agent classifiers.

Agents are trained sequentially on their own views of one shared labeled
sample set.  Each round trains under the current sample weights (weights
multiply per-sample losses, no resampling), scores the agent's hard
decisions, converts the weighted error into a vote weight, and reweights the
samples multiplicatively.  Prediction combines the instantaneous hard
decisions of all agents with those vote weights, so the ensemble is
memoryless in time and needs every agent's decision at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import (
    LabeledDataset,
    MLPArchitecture,
    TrainingDiverged,
    TrainingHyperparameters,
    binary_logit,
    train_erm,
    with_seed,
)

ERROR_CLAMP = 1e-10


class BoostingError(ValueError):
    """Invalid boosting input."""


def sign_decision(values) -> np.ndarray:
    """Hard decision with sign(0) = +1."""
    return np.where(np.asarray(values, dtype=float) >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class BoostedEnsemble:
    models: tuple  # trained per-agent models, ascending agent order
    votes: np.ndarray  # boosting weight per agent
    errors: np.ndarray  # weighted training error per round
    weight_history: np.ndarray  # sample pmf after every round, (K+1, N)
    degenerate: tuple  # agent indices whose error hit the clamp

    def __post_init__(self):
        if not np.all(np.isfinite(self.votes)):
            raise BoostingError("vote weights must be finite")


def adaboost_train(
    views,
    labels,
    arch_per_agent,
    hyper: TrainingHyperparameters,
    seeds=None,
) -> BoostedEnsemble:
    """Sequential boosting rounds over agents in ascending index order.

    ``views[k]`` holds agent k's features for the same underlying samples
    (one shared label vector with values in {-1, +1}).  ``seeds`` optionally
    gives one training seed per agent; otherwise ``hyper.seed + k`` is used.
    """
    labels = np.asarray(labels)
    if set(labels.tolist()) - {-1, +1}:
        raise BoostingError("boosting labels must be in {-1, +1}")
    n = labels.shape[0]
    n_agents = len(views)
    if isinstance(arch_per_agent, MLPArchitecture):
        arch_per_agent = [arch_per_agent] * n_agents
    if len(arch_per_agent) != n_agents:
        raise BoostingError("need one architecture per agent")
    if seeds is None:
        seeds = [hyper.seed + k for k in range(n_agents)]

    y = labels.astype(float)
    sample_w = np.full(n, 1.0 / n)
    history = [sample_w.copy()]
    models = []
    votes = np.empty(n_agents)
    errors = np.empty(n_agents)
    degenerate = []
    for k in range(n_agents):
        view = np.asarray(views[k], dtype=float)
        if view.shape[0] != n:
            raise BoostingError(f"agent {k} view has {view.shape[0]} rows, labels {n}")
        dataset = LabeledDataset(view, labels, (+1, -1))
        try:
            result = train_erm(dataset, arch_per_agent[k], with_seed(hyper, seeds[k]), sample_w)
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"agent {k}: {exc}") from exc
        models.append(result.model)
        decisions = sign_decision(binary_logit(result.model, view))
        err = float(np.sum(sample_w * (decisions != y)))
        if err < ERROR_CLAMP or err > 1.0 - ERROR_CLAMP:
            degenerate.append(k)
            err = min(max(err, ERROR_CLAMP), 1.0 - ERROR_CLAMP)
        errors[k] = err
        votes[k] = 0.5 * np.log((1.0 - err) / err)
        sample_w = sample_w * np.exp(-votes[k] * y * decisions)
        sample_w /= sample_w.sum()
        history.append(sample_w.copy())
    return BoostedEnsemble(
        tuple(models), votes, errors, np.asarray(history), tuple(degenerate)
    )


def adaboost_decide(ensemble: BoostedEnsemble, features_per_agent) -> np.ndarray:
    """Weighted vote over instantaneous hard decisions, sign(0) = +1.

    ``features_per_agent[k]`` is agent k's feature row or batch; the output
    has one label per row.
    """
    if len(features_per_agent) != len(ensemble.models):
        raise BoostingError("need one feature view per trained agent")
    total = None
    for model, vote, feats in zip(ensemble.models, ensemble.votes, features_per_agent):
        contribution = vote * sign_decision(binary_logit(model, feats))
        total = contribution if total is None else total + contribution
    return sign_decision(total).astype(int)
