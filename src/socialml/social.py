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

import bisect
import math

import numpy as np

from .base import Record, ValidationError


class SocialLearningError(ValidationError):
    """Invalid engine input (shapes, step size, non-finite statistics)."""


class RegimeSchedule(Record):
    """The true class index at every step of an endless stream: segments of
    (start index, class index), each in force until the next starts and the
    last forever, or, with ``cycle``, repeating every ``cycle`` steps."""

    segments: tuple
    cycle: int | None = None

    def __post_init__(self):
        segs = tuple((int(s), g) for s, g in self.segments)
        if not segs or segs[0][0] != 0:
            raise SocialLearningError("schedule must start at index 0")
        starts = [s for s, _ in segs] + [math.inf if self.cycle is None else self.cycle]
        if starts != sorted(set(starts)):
            raise SocialLearningError("segment starts must increase strictly within the cycle")
        object.__setattr__(self, "segments", segs)

    def spans(self, stop: int, start: int = 0):
        """Yield ``(n, start, end, class index)`` for each segment in force
        within steps [start, stop), in order and cut at the window's edges,
        where the segment is the nth from step 0 on, counting every repeat
        of the cycle."""
        count, cycle = len(self.segments), self.cycle or 0
        turns, step = divmod(start, cycle) if cycle else (0, start)
        n = turns * count + bisect.bisect_right(self.segments, step, key=lambda seg: seg[0]) - 1
        while start < stop:
            turns, i = divmod(n + 1, count)
            # where the next segment starts; a schedule's last has none without a cycle
            end = turns * cycle + self.segments[i][0] if cycle or i else stop
            yield n, start, min(end, stop), self.segments[n % count][1]
            n, start = n + 1, end

    def states(self, stop: int, start: int = 0) -> np.ndarray:
        """True class-index track over steps [start, stop)."""
        track = np.empty(stop - start, dtype=np.intp)
        for _, lo, hi, state in self.spans(stop, start):
            track[lo - start : hi - start] = state
        return track


def periodic_schedule(period: int, states) -> RegimeSchedule:
    """Cycle through the class indices ``states``, switching every ``period`` steps."""
    segments = tuple((i * period, state) for i, state in enumerate(states))
    return RegimeSchedule(segments, period * len(states))


def _check_stats(lam, values) -> tuple:
    """``(lam, stats)`` as float arrays, checked for one reference step.

    ``lam`` holds the per-agent log-belief ratios, shape (K,) for two classes
    or (K, M-1) otherwise; ``values`` the statistics, of the same shape.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2):
        raise SocialLearningError(f"lambda must be 1- or 2-d, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise SocialLearningError("lambda contains non-finite values")
    stats = np.asarray(values, dtype=float)
    if stats.shape != lam.shape:
        raise SocialLearningError(f"statistics shape {stats.shape} vs state {lam.shape}")
    if not np.all(np.isfinite(stats)):
        raise SocialLearningError("non-finite statistic value")
    return lam, stats


def _mix(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    # sum_l A[l, k] x[l, ...] for 1-d (K,) or 2-d (K, D) values
    if values.ndim == 1:
        return weights.T @ values
    return np.einsum("lk,ld->kd", weights, values)


def sl_step(lam, matrix, stats) -> np.ndarray:
    """One standard diffusion step; past evidence is kept in full."""
    lam, c = _check_stats(lam, stats)
    return _mix(matrix.weights, lam + c)


def _check_delta(delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise SocialLearningError(f"delta must lie strictly in (0, 1), got {delta}")
    return delta


def asl_step(lam, matrix, stats, delta: float) -> np.ndarray:
    """One adaptive diffusion step; past evidence decays by (1 - delta)."""
    delta = _check_delta(delta)
    lam, c = _check_stats(lam, stats)
    return _mix(matrix.weights, (1.0 - delta) * lam + c)


def diffuse(stats, weights, delta: float | None = None, lam0=None) -> np.ndarray:
    """Log-belief ratios of a stream, starting from ``lam0`` (lambda = 0
    without it).

    ``stats`` has shape (..., T, K, W): any leading batch axes (independent
    streams), then time, agents and the M - 1 ratio components; ``lam0``
    has the shape of one step, (..., K, W).  Without ``delta`` this iterates
    the standard step, with it the adaptive one; the result has the shape of
    ``stats`` and holds lambda after each step.  A stream cut into time
    blocks, each diffused from the last lambda of the block before, gives
    the whole stream's bits: every step makes the same products of the same
    operands.

    A step's mix is ``np.dot(mixed, weights, out=row)``: for 2-d float64
    operands ``np.dot`` makes the same BLAS call as ``np.matmul`` (gemv for
    one row, gemm for more), with the same operands in the same order, so it
    gives the same bits with less per-call dispatch.
    """
    # a float64 scalar, so no step converts a Python float
    keep = np.float64(1.0 if delta is None else 1.0 - _check_delta(delta))
    stats = np.asarray(stats, dtype=float)
    horizon, n_agents = stats.shape[-3:-1]
    # time first and agents last, so one product mixes every (stream, ratio) row
    steps = np.moveaxis(np.swapaxes(stats, -1, -2), -3, 0)  # (T, ..., W, K) view
    # lam starts as a contiguous copy of the statistics; step t reads its
    # c_t from rows[t], a view of lam, then overwrites it with lambda
    lam = np.array(steps, order="C")
    rows = lam.reshape(horizon, math.prod(steps.shape[1:-1]), n_agents)
    # keep * state + c_t, built in one buffer reused by every step
    mixed = np.empty(rows.shape[1:])
    if lam0 is None:
        state = np.zeros(mixed.shape)
    else:
        lam0 = np.asarray(lam0, dtype=float)
        want = stats.shape[:-3] + stats.shape[-2:]
        if lam0.shape != want:
            raise SocialLearningError(f"lam0 shape {lam0.shape}, expected {want}")
        state = np.swapaxes(lam0, -1, -2).reshape(mixed.shape)
    for row in rows:
        np.multiply(keep, state, out=mixed)
        np.add(mixed, row, out=mixed)
        state = np.dot(mixed, weights, out=row)
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


class PredictionRun(Record):
    """Trajectory of one prediction-phase run, or of a batch of streams."""

    lam: np.ndarray  # (..., T, K, M-1)
    picks: np.ndarray  # (..., T, K) decided class indices, as ``decide`` gives
    correct: np.ndarray  # (..., T, K) bool

    @property
    def horizon(self) -> int:
        return self.lam.shape[-3]


def run_prediction(
    matrix,
    providers,
    features_per_agent,
    true_states,
    n_classes: int,
    delta: float | None = None,
    lam0=None,
) -> PredictionRun:
    """Diffuse the agents' statistics over feature streams and decide.

    ``features_per_agent[k]`` holds agent k's observations, shape (T, d_k) for
    one stream or (..., T, d_k) for a batch of streams (ndim >= 3);
    ``true_states`` is the class-index track, shared by every stream, that
    the decisions are scored against.  The run holds lambda, the decided
    class indices and whether each is right.  Without ``delta``
    the beliefs diffuse by the standard step, with it by the adaptive one, as
    in ``diffuse``, from ``lam0``: lambda before the first step, (..., K,
    M-1), 0 without it.  Passing a run's last lambda as the next run's
    ``lam0`` continues the stream in time blocks with the bits of one run.
    Providers must be pure functions of the observation; they are applied to
    each agent's whole batch in one vectorized pass and the recursion consumes
    the values in time order, so no engine-level caching exists.
    """
    n_agents = matrix.size
    if len(providers) != n_agents or len(features_per_agent) != n_agents:
        raise SocialLearningError("providers and feature views must cover all agents")
    truth = np.asarray(true_states)
    outside = truth[(truth < 0) | (truth >= n_classes)]
    if outside.size:
        raise SocialLearningError(f"true state {outside[0]} is not a class index below {n_classes}")
    horizon = len(truth)
    feats = [np.asarray(f) for f in features_per_agent]
    batch = feats[0].shape[:-2]
    for k, f in enumerate(feats):
        if f.shape[:-2] != batch:
            raise SocialLearningError(f"agent {k} batch {f.shape[:-2]} != {batch}")
        if f.shape[len(batch)] != horizon:
            raise SocialLearningError(f"agent {k} stream length != {horizon}")

    # statistics for all streams in one vectorized pass per agent, each
    # agent's written contiguously; diffuse's copy puts agents last
    width = n_classes - 1
    stat_track = np.empty((n_agents,) + batch + (horizon, width))
    for k, f in enumerate(feats):
        flat = f.reshape(-1, f.shape[-1]) if batch else f
        values = np.asarray(providers[k](flat), dtype=float)
        stat_track[k] = values.reshape(batch + (horizon, width))
    if not np.all(np.isfinite(stat_track)):
        raise SocialLearningError("non-finite statistic value")
    lam = diffuse(np.moveaxis(stat_track, 0, -2), matrix.weights, delta, lam0)
    del stat_track  # diffuse copied it: freed before the decisions are made
    if not np.all(np.isfinite(lam)):
        raise SocialLearningError("lambda contains non-finite values")
    picks = decide(lam)
    return PredictionRun(lam, picks, picks == truth[:, None])
