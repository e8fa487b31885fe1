"""Prediction-phase engines: belief diffusion over the agent graph.

Each agent carries a log-belief ratio lambda against the reference class
(one value for two classes, a vector with one entry per non-reference class
otherwise).  A step mixes neighbors' updated values through the combination
matrix:

    standard step:  lambda_k <- sum_l A[l, k] (lambda_l + c_l)
    adaptive step:  lambda_k <- sum_l A[l, k] ((1 - delta) lambda_l + c_l)

where c_l is agent l's statistic at the current observation.  The adaptive
variant forgets at rate delta in (0, 1), trading asymptotic certainty for an
adaptation time on the order of 1/delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import ConditionalMeans


class SocialLearningError(ValueError):
    """Invalid engine input (shapes, step size, non-finite statistics)."""


@dataclass(frozen=True)
class BeliefState:
    """Per-agent log-belief ratios at one time step.

    ``lam`` has shape (K,) for two classes or (K, M-1) otherwise; entries are
    log beliefs of the reference class over each alternative.
    """

    lam: np.ndarray
    step: int = 0

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim not in (1, 2):
            raise SocialLearningError(f"lambda must be 1- or 2-d, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)):
            raise SocialLearningError("lambda contains non-finite values")
        object.__setattr__(self, "lam", lam)

    @property
    def n_agents(self) -> int:
        return self.lam.shape[0]


@dataclass(frozen=True)
class RegimeSchedule:
    """Contiguous segments of (start index, true state) covering the stream."""

    segments: tuple

    def __post_init__(self):
        segs = tuple((int(s), g) for s, g in self.segments)
        if not segs or segs[0][0] != 0:
            raise SocialLearningError("schedule must start at index 0")
        starts = [s for s, _ in segs]
        if starts != sorted(set(starts)):
            raise SocialLearningError("segment starts must be strictly increasing")
        object.__setattr__(self, "segments", segs)

    def states(self, length: int) -> np.ndarray:
        """True-state track over [0, length)."""
        track = np.empty(length, dtype=object)
        starts = [s for s, _ in self.segments] + [length]
        for (start, state), end in zip(self.segments, starts[1:]):
            track[start:min(end, length)] = state
        if length > 0 and track[length - 1] is None:
            raise SocialLearningError("schedule does not cover the stream")
        return track


def periodic_schedule(period: int, states, length: int) -> RegimeSchedule:
    """Cycle through ``states``, switching every ``period`` steps."""
    if period < 1:
        raise SocialLearningError("period must be positive")
    segments = [
        (start, states[(start // period) % len(states)])
        for start in range(0, length, period)
    ]
    return RegimeSchedule(tuple(segments))


def _check_stats(values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    stats = np.asarray(values, dtype=float)
    if stats.shape != lam.shape:
        raise SocialLearningError(f"statistics shape {stats.shape} vs state {lam.shape}")
    if not np.all(np.isfinite(stats)):
        raise SocialLearningError("non-finite statistic value")
    return stats


def _mix(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    # sum_l A[l, k] x[l, ...] for 1-d (K,) or 2-d (K, D) values
    if values.ndim == 1:
        return weights.T @ values
    return np.einsum("lk,ld->kd", weights, values)


def sl_step(state: BeliefState, matrix, stats) -> BeliefState:
    """One standard diffusion step; past evidence is kept in full."""
    a = matrix.weights
    c = _check_stats(stats, state.lam)
    return BeliefState(_mix(a, state.lam + c), state.step + 1)


def _check_delta(delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise SocialLearningError(f"delta must lie strictly in (0, 1), got {delta}")
    return delta


def asl_step(state: BeliefState, matrix, stats, delta: float) -> BeliefState:
    """One adaptive diffusion step; past evidence decays by (1 - delta)."""
    delta = _check_delta(delta)
    a = matrix.weights
    c = _check_stats(stats, state.lam)
    return BeliefState(_mix(a, (1.0 - delta) * state.lam + c), state.step + 1)


def diffuse(stats, weights, delta: float | None = None) -> np.ndarray:
    """Log-belief ratios of a whole stream, starting from lambda = 0.

    ``stats`` has shape (..., T, K, W): any leading batch axes (independent
    streams), then time, agents and the M - 1 ratio components.  Without
    ``delta`` this iterates the standard step, with it the adaptive one; the
    result has the shape of ``stats`` and holds lambda after each step.
    """
    keep = 1.0 if delta is None else 1.0 - _check_delta(delta)
    stats = np.asarray(stats, dtype=float)
    horizon, n_agents = stats.shape[-3:-1]
    # time first and agents last, so one matmul mixes every (stream, ratio) row
    steps = np.moveaxis(np.swapaxes(stats, -1, -2), -3, 0)  # (T, ..., W, K) view
    lam = np.empty(steps.shape)
    # a view of lam: rows[t] holds step t's (stream, ratio) rows
    rows = lam.reshape(horizon, math.prod(steps.shape[1:-1]), n_agents)
    # keep * state + c_t, built in one buffer reused by every step; the
    # evidence view gives it the shape of steps[t], so no step copies stats
    mixed = np.empty(rows.shape[1:])
    evidence = mixed.reshape(steps.shape[1:])
    state = np.zeros(mixed.shape)
    for step, row in zip(steps, rows):
        np.multiply(keep, state, out=mixed)
        np.add(evidence, step, out=evidence)
        state = np.matmul(mixed, weights, out=row)
    return np.moveaxis(np.swapaxes(lam, -1, -2), 0, -3)


def decide(lam) -> np.ndarray:
    """Index of the class with the largest belief, over the last axis of ``lam``.

    Index 0 is the reference class, whose implicit log score 0 is compared
    with -lam[..., j] for class j + 1; ties go to the earliest class, so for
    two classes the reference class wins whenever lambda >= 0.  ``lam`` must
    be finite, as ``run_prediction`` checks first; a NaN entry gives no
    meaningful pick.
    """
    lam = np.asarray(lam, dtype=float)
    # a running maximum of the scores -lam[..., j], kept as the lowest lambda
    # so far; a later class wins only by a strictly lower one
    picks = np.array(lam[..., 0] < 0.0, dtype=np.intp)
    if lam.shape[-1] > 1:
        lowest = np.asarray(np.minimum(lam[..., 0], 0.0))
        for j in range(1, lam.shape[-1]):
            picks[lam[..., j] < lowest] = j + 1
            np.minimum(lowest, lam[..., j], out=lowest)
    return picks


@dataclass(frozen=True)
class PredictionRun:
    """Trajectory of one prediction-phase run, or of a batch of streams."""

    lam: np.ndarray  # (..., T, K, M-1)
    decisions: np.ndarray  # (..., T, K) labels
    true_states: np.ndarray  # (T,)
    correct: np.ndarray  # (..., T, K) bool

    @property
    def horizon(self) -> int:
        return self.lam.shape[-3]


def run_prediction(
    engine: str,
    matrix,
    providers,
    features_per_agent,
    true_states,
    classes,
    delta: float | None = None,
) -> PredictionRun:
    """Diffuse the agents' statistics over feature streams and record everything.

    ``features_per_agent[k]`` holds agent k's observations, shape (T, d_k) for
    one stream or (..., T, d_k) for a batch of streams (ndim >= 3);
    ``true_states`` is the label track, shared by every stream, that the
    decisions are scored against.  Providers must be pure functions of the
    observation; they are applied to each agent's whole batch in one
    vectorized pass and the recursion consumes the values in time order, so
    no engine-level caching exists.
    """
    if engine not in ("sl", "asl"):
        raise SocialLearningError(f"engine must be 'sl' or 'asl', got {engine!r}")
    if engine == "asl" and delta is None:
        raise SocialLearningError("adaptive engine needs delta")
    if engine == "sl" and delta is not None:
        raise SocialLearningError("standard engine takes no delta")
    classes = tuple(classes)
    n_agents = matrix.size
    if len(providers) != n_agents or len(features_per_agent) != n_agents:
        raise SocialLearningError("providers and feature views must cover all agents")
    true_states = np.asarray(true_states, dtype=object)
    index = {label: i for i, label in enumerate(classes)}
    try:
        truth = np.array([index[g] for g in true_states.tolist()], dtype=int)
    except KeyError as exc:
        raise SocialLearningError(f"true state {exc.args[0]!r} not in classes") from None
    horizon = len(true_states)
    feats = [np.asarray(f) for f in features_per_agent]
    batch = feats[0].shape[:-2]
    for k, f in enumerate(feats):
        if f.shape[:-2] != batch:
            raise SocialLearningError(f"agent {k} batch {f.shape[:-2]} != {batch}")
        if f.shape[len(batch)] != horizon:
            raise SocialLearningError(f"agent {k} stream length != {horizon}")

    # statistics for all streams in one vectorized pass per agent
    width = len(classes) - 1
    stat_track = np.empty(batch + (horizon, n_agents, width))
    for k, f in enumerate(feats):
        flat = f.reshape(-1, f.shape[-1]) if batch else f
        values = np.asarray(providers[k](flat), dtype=float)
        stat_track[..., k, :] = values.reshape(batch + (horizon, width))
    if not np.all(np.isfinite(stat_track)):
        raise SocialLearningError("non-finite statistic value")
    lam = diffuse(stat_track, matrix.weights, delta)
    if not np.all(np.isfinite(lam)):
        raise SocialLearningError("lambda contains non-finite values")
    picks = decide(lam)
    correct = picks == truth[:, None]
    decisions = np.array(classes, dtype=object)[picks]
    return PredictionRun(lam, decisions, true_states, correct)


@dataclass(frozen=True)
class ConsistencyReport:
    margin_plus: float  # mu+ minus the network training mean
    margin_minus: float  # network training mean minus mu-
    satisfied: bool
    details: dict


def check_consistency_conditions(means: ConditionalMeans) -> ConsistencyReport:
    """Verify that the statistic separates the classes around its training mean.

    Requires the network conditional mean under +1 to exceed the network
    training mean and the one under -1 to fall below it, strictly.
    """
    margin_plus = means.mu_plus - means.mu_train
    margin_minus = means.mu_train - means.mu_minus
    satisfied = margin_plus > 0.0 and margin_minus > 0.0
    return ConsistencyReport(
        margin_plus,
        margin_minus,
        satisfied,
        {
            "mu_plus": means.mu_plus,
            "mu_minus": means.mu_minus,
            "mu_train": means.mu_train,
            "stderr_network": means.stderr_network,
        },
    )

