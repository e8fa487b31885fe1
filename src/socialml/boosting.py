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

import numpy as np

from .base import Record
from .mlp import TrainingDiverged, TrainingHyperparameters, reference_logits, train_stack

ERROR_CLAMP = 1e-10


class BoostingError(ValueError):
    """Invalid boosting input."""


def sign_decision(values) -> np.ndarray:
    """Hard decision with sign(0) = +1."""
    return np.where(np.asarray(values, dtype=float) >= 0.0, 1.0, -1.0)


class BoostedEnsemble(Record):
    models: tuple  # trained per-agent models, ascending agent order
    votes: np.ndarray  # boosting weight per agent
    errors: np.ndarray  # weighted training error per round
    weight_history: np.ndarray  # sample pmf after every round, (K+1, N)
    degenerate: tuple  # agent indices whose error hit the clamp

    def __post_init__(self):
        if not np.all(np.isfinite(self.votes)):
            raise BoostingError("vote weights must be finite")


def adaboost_train_stack(scenes, arch_per_agent, hyper: TrainingHyperparameters, seeds) -> list:
    """Boosting on S independent scenes in lockstep, one ensemble per scene.

    ``scenes[r]`` is a ``(views, labels)`` pair: ``views[k]`` holds agent k's
    features for the same underlying samples, ``labels`` their one shared
    label vector with values in {-1, +1}.  ``seeds[r][k]`` is agent k's
    training seed in scene r, and ``arch_per_agent[k]`` its architecture.
    Rounds stay sequential over agents: round k trains agent k of every scene
    in one ``train_stack`` call, each scene under its own sample weights, so
    each scene's ensemble equals a stack of one.  The scenes must share their
    sample count.  A diverging round raises ``TrainingDiverged`` whose
    ``model`` is the scene's index.
    """
    n_agents = len(scenes[0][0])
    ys = []
    for views, labels in scenes:
        labels = np.asarray(labels)
        if set(labels.tolist()) - {-1, +1}:
            raise BoostingError("boosting labels must be in {-1, +1}")
        if len(views) != n_agents or len(arch_per_agent) != n_agents:
            raise BoostingError("need one view and one architecture per agent")
        ys.append(labels.astype(float))
    # the models' class indices: output 0 scores +1 and output 1 scores -1,
    # so a positive logit decides +1
    indices = [(y < 0).astype(np.intp) for y in ys]

    sample_w = [np.full(y.size, 1.0 / y.size) for y in ys]
    history = [[w.copy()] for w in sample_w]
    models = [[] for _ in scenes]
    votes = np.empty((len(scenes), n_agents))
    errors = np.empty((len(scenes), n_agents))
    degenerate = [[] for _ in scenes]
    for k in range(n_agents):
        round_views = []
        for (views, labels), y in zip(scenes, ys):
            view = np.asarray(views[k], dtype=float)
            if view.shape[0] != y.size:
                raise BoostingError(f"agent {k} view has {view.shape[0]} rows, labels {y.size}")
            round_views.append(view)
        try:
            trained, _ = train_stack(
                round_views,
                indices,
                arch_per_agent[k],
                hyper,
                [s[k] for s in seeds],
                sample_w,
                trace=False,
            )
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"AdaBoost round {k}, agent {k}: {exc}", exc.model) from exc
        for r, (model, view, y) in enumerate(zip(trained, round_views, ys)):
            models[r].append(model)
            decisions = sign_decision(reference_logits(model, view)[..., 0])
            err = float(np.sum(sample_w[r] * (decisions != y)))
            if err < ERROR_CLAMP or err > 1.0 - ERROR_CLAMP:
                degenerate[r].append(k)
                err = min(max(err, ERROR_CLAMP), 1.0 - ERROR_CLAMP)
            errors[r, k] = err
            votes[r, k] = 0.5 * np.log((1.0 - err) / err)
            weights = sample_w[r] * np.exp(-votes[r, k] * y * decisions)
            sample_w[r] = weights / weights.sum()
            history[r].append(sample_w[r].copy())
    return [
        BoostedEnsemble(tuple(m), v, e, np.asarray(h), tuple(d))
        for m, v, e, h, d in zip(models, votes, errors, history, degenerate)
    ]


def adaboost_decide(ensemble: BoostedEnsemble, features_per_agent) -> np.ndarray:
    """Weighted vote over instantaneous hard decisions, sign(0) = +1.

    ``features_per_agent[k]`` is agent k's feature row or batch; the output
    has one label per row.
    """
    if len(features_per_agent) != len(ensemble.models):
        raise BoostingError("need one feature view per trained agent")
    # each agent adds +vote or -vote: the same bits as its +-1.0 decision times
    # its vote, without the multiplication
    total = None
    for model, vote, feats in zip(ensemble.models, ensemble.votes, features_per_agent):
        logit = reference_logits(model, feats)[..., 0]
        contribution = np.where(logit >= 0.0, vote, -vote)
        if total is None:
            total = contribution
        else:
            total += contribution
    return np.where(total >= 0.0, 1, -1)
