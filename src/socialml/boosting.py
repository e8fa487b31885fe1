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

from .base import Record, ValidationError
from .mlp import TrainingDiverged, TrainingHyperparameters, reference_logits, train_stack
from .social import decide

ERROR_CLAMP = 1e-10


class BoostingError(ValidationError):
    """Invalid boosting input."""


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
    vector of class indices 0 and 1, 0 the reference class that output 0
    scores.  ``seeds[r][k]`` is agent k's training seed in scene r, and
    ``arch_per_agent[k]`` its architecture.  Rounds stay sequential over
    agents: round k trains agent k of every scene in one ``train_stack``
    call, each scene under its own sample weights, so each scene's ensemble
    equals a stack of one.  A round's hard decisions are ``decide`` of the
    training-set logits that call returns.  The scenes must share their
    sample count.  A diverging round raises ``TrainingDiverged`` whose
    ``model`` is the scene's index.
    """
    n_agents = len(scenes[0][0])
    labels = [np.asarray(y) for _, y in scenes]
    for (views, _), y in zip(scenes, labels):
        if set(y.tolist()) - {0, 1}:
            raise BoostingError("boosting labels must be the class indices 0 and 1")
        if len(views) != n_agents or len(arch_per_agent) != n_agents:
            raise BoostingError("need one view and one architecture per agent")

    sample_w = [np.full(y.size, 1.0 / y.size) for y in labels]
    history = [[w.copy()] for w in sample_w]
    models = [[] for _ in scenes]
    votes = np.empty((len(scenes), n_agents))
    errors = np.empty((len(scenes), n_agents))
    degenerate = [[] for _ in scenes]
    for k in range(n_agents):
        round_views = []
        for (views, _), y in zip(scenes, labels):
            view = np.asarray(views[k])
            if view.shape[0] != y.size:
                raise BoostingError(f"agent {k} view has {view.shape[0]} rows, labels {y.size}")
            round_views.append(view)
        try:
            trained, _, logits = train_stack(
                round_views,
                labels,
                arch_per_agent[k],
                hyper,
                [s[k] for s in seeds],
                sample_w,
                trace=False,
            )
        except TrainingDiverged as exc:
            raise TrainingDiverged(f"AdaBoost round {k}, agent {k}: {exc}", exc.model) from exc
        for r, (model, y) in enumerate(zip(trained, labels)):
            models[r].append(model)
            wrong = decide(logits[r]) != y
            err = float(np.sum(sample_w[r] * wrong))
            if err < ERROR_CLAMP or err > 1.0 - ERROR_CLAMP:
                degenerate[r].append(k)
                err = min(max(err, ERROR_CLAMP), 1.0 - ERROR_CLAMP)
            errors[r, k] = err
            votes[r, k] = 0.5 * np.log((1.0 - err) / err)
            # AdaBoost's exp(-vote * y * h) with y and h in {-1, +1}, whose
            # product is exactly +-1.0: +vote where the round errs, -vote elsewhere
            weights = sample_w[r] * np.exp(np.where(wrong, votes[r, k], -votes[r, k]))
            sample_w[r] = weights / weights.sum()
            history[r].append(sample_w[r].copy())
    return [
        BoostedEnsemble(tuple(m), v, e, np.asarray(h), tuple(d))
        for m, v, e, h, d in zip(models, votes, errors, history, degenerate)
    ]


def adaboost_decide(ensemble: BoostedEnsemble, features_per_agent) -> np.ndarray:
    """Weighted vote over instantaneous hard decisions, as class indices.

    ``features_per_agent[k]`` is agent k's feature row or batch; the output
    has one class index per row.  Each agent's pick and the vote's outcome
    both come from ``decide``, so a tie goes to class 0.
    """
    if len(features_per_agent) != len(ensemble.models):
        raise BoostingError("need one feature view per trained agent")
    # each agent adds +vote for class 0 and -vote for class 1: the same bits
    # as its +-1.0 decision times its vote, without the multiplication
    total = None
    for model, vote, feats in zip(ensemble.models, ensemble.votes, features_per_agent):
        picks = decide(reference_logits(model, feats))
        contribution = np.where(picks == 0, vote, -vote)
        if total is None:
            total = contribution
        else:
            total += contribution
    return decide(total[..., None])
