"""Debiased plug-in statistics and classifier-complexity estimates.

A trained logit is turned into a detection statistic by subtracting its
average over the agent's own training set, which centers the statistic and
removes any constant bias toward one class.  In the multi-class case each
pairwise logit (reference class versus gamma) is centered with the mean taken
over the training samples labeled with either of those two classes.

Classifier complexity is measured two ways: a Monte Carlo estimate of the
expected sup-correlation with random signs over a sampled candidate family
(an approximation from below, since the true sup over the full family is out
of reach), and the analytic upper bound for norm-constrained feedforward
networks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .mlp import LabeledDataset, MLPArchitecture, MLPModel, reference_logits
from .seeds import generators

DEBIAS_TOL = 1e-10


class StatisticError(ValueError):
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


@dataclass(frozen=True)
class DebiasedStatistic:
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
    model: MLPModel, training: LabeledDataset, agent: int = 0
) -> DebiasedStatistic:
    """Center the model's pairwise logits on the agent's training set.

    Warns (rather than fails) on unbalanced training sets: the centering is
    still well defined, it just no longer symmetrizes the class-conditional
    means exactly.  Fails if some non-reference class has no training sample
    labeled with it or the reference class.
    """
    if model.architecture.n_outputs != len(training.classes):
        raise StatisticError("model outputs must match the dataset classes")
    if not training.balanced:
        warnings.warn(
            f"agent {agent}: unbalanced training set {training.class_counts}; "
            "centering uses the plain mean",
            stacklevel=2,
        )
    logits = reference_logits(model, training.features)  # (N, M-1)
    labels = training.labels
    reference = training.classes[0]
    means = np.empty(len(training.classes) - 1)
    for j, cls in enumerate(training.classes[1:]):
        pair = (labels == reference) | (labels == cls)
        if not np.any(pair):
            raise StatisticError(f"no training samples labeled {reference} or {cls}")
        means[j] = logits[pair, j].mean()
    return DebiasedStatistic(agent, model, tuple(training.classes), means)


@dataclass(frozen=True)
class ConditionalMeans:
    """Class-conditional means of per-agent statistics plus network averages."""

    per_agent_plus: np.ndarray
    per_agent_minus: np.ndarray
    stderr_plus: np.ndarray
    stderr_minus: np.ndarray
    perron: np.ndarray
    train_means: np.ndarray
    n_draws: int = 0
    seed: int | None = None

    @property
    def mu_plus(self) -> float:
        return float(self.perron @ self.per_agent_plus)

    @property
    def mu_minus(self) -> float:
        return float(self.perron @ self.per_agent_minus)

    @property
    def mu(self) -> float:
        """Prediction-phase mean under uniform priors, (mu+ + mu-)/2."""
        return 0.5 * (self.mu_plus + self.mu_minus)

    @property
    def mu_train(self) -> float:
        return float(self.perron @ self.train_means)

    @property
    def stderr_network(self) -> float:
        w2 = np.asarray(self.perron) ** 2
        return float(np.sqrt(w2 @ (self.stderr_plus**2 + self.stderr_minus**2)))

    def to_dict(self) -> dict:
        return {
            "per_agent_plus": self.per_agent_plus.tolist(),
            "per_agent_minus": self.per_agent_minus.tolist(),
            "stderr_plus": self.stderr_plus.tolist(),
            "stderr_minus": self.stderr_minus.tolist(),
            "train_means": self.train_means.tolist(),
            "mu_plus": self.mu_plus,
            "mu_minus": self.mu_minus,
            "mu": self.mu,
            "mu_train": self.mu_train,
            "n_draws": self.n_draws,
            "seed": self.seed,
        }


def conditional_means(
    functions,
    samplers,
    perron,
    n_mc: int,
    seed: int,
    train_means=None,
) -> ConditionalMeans:
    """Monte Carlo estimate of per-agent conditional means under both classes.

    ``functions[k]`` maps a feature batch to scalar statistic values;
    ``samplers[k]`` maps ``(rng, label, n)`` to n feature rows drawn from
    agent k's likelihood under that label (labels +1 and -1).  ``train_means``
    optionally supplies each agent's empirical training mean (defaults to 0,
    appropriate for already-centered statistics).
    """
    if n_mc < 1:
        raise StatisticError("n_mc must be at least 1")
    pi = np.asarray(perron, dtype=float)
    n_agents = len(functions)
    if len(samplers) != n_agents or pi.shape != (n_agents,):
        raise StatisticError("functions, samplers and perron must align")
    train_mean_arr = np.zeros(n_agents) if train_means is None else np.asarray(train_means, float)
    (rng,) = generators([seed])
    plus = np.empty(n_agents)
    minus = np.empty(n_agents)
    se_plus = np.empty(n_agents)
    se_minus = np.empty(n_agents)
    for k in range(n_agents):
        for label, mean_arr, se_arr in ((+1, plus, se_plus), (-1, minus, se_minus)):
            values = np.asarray(functions[k](samplers[k](rng, label, n_mc)), float)
            values = values.reshape(n_mc)
            mean_arr[k] = values.mean()
            se_arr[k] = values.std(ddof=1) / math.sqrt(n_mc) if n_mc > 1 else 0.0
    return ConditionalMeans(
        plus, minus, se_plus, se_minus, pi, train_mean_arr, n_draws=n_mc, seed=seed
    )


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    stderr: float
    n_draws: int
    method: str  # "monte-carlo" or "exhaustive"
    seed: int | None = None


def rademacher_monte_carlo(
    candidates, features, n_draws: int = 200, seed: int = 0, exact: bool = False
) -> RademacherEstimate:
    """Approximate the expected sup-correlation with random sign vectors.

    For each sign draw r the sup over the function family is replaced by a
    max over the supplied candidate functions, so the result approximates the
    true quantity from below.  With ``exact=True`` all 2^N sign patterns are
    enumerated instead of sampled (N capped at 20).
    """
    feats = np.atleast_2d(np.asarray(features, dtype=float))
    n = feats.shape[0]
    if n == 0:
        raise StatisticError("empty feature set")
    table = _candidate_table(candidates, feats)  # (n_candidates, N)
    if table.shape[0] == 0:
        raise StatisticError("empty candidate family")
    if exact:
        if n > 20:
            raise StatisticError(f"exhaustive enumeration capped at N=20, got {n}")
        signs = _all_sign_patterns(n)
        sups = np.abs(table @ signs.T / n).max(axis=0)
        return RademacherEstimate(
            float(sups.mean()), 0.0, signs.shape[0], "exhaustive", seed=None
        )
    if n_draws < 1:
        raise StatisticError("need at least one sign draw")
    (rng,) = generators([seed])
    signs = rng.integers(0, 2, size=(n_draws, n)) * 2.0 - 1.0
    sups = np.abs(table @ signs.T / n).max(axis=0)
    stderr = float(sups.std(ddof=1) / math.sqrt(n_draws)) if n_draws > 1 else 0.0
    return RademacherEstimate(
        float(sups.mean()), stderr, n_draws, "monte-carlo", seed=seed
    )


def _candidate_table(candidates, feats: np.ndarray) -> np.ndarray:
    rows = []
    for fn in candidates:
        rows.append(np.asarray(fn(feats), dtype=float).reshape(feats.shape[0]))
    return np.asarray(rows) if rows else np.empty((0, feats.shape[0]))


def _all_sign_patterns(n: int) -> np.ndarray:
    grid = np.indices((2,) * n).reshape(n, -1).T
    return grid * 2.0 - 1.0


def mlp_rademacher_bound(arch: MLPArchitecture, n_samples: int) -> float:
    """Complexity bound for norm-constrained networks on n training samples:
    (4 / sqrt(N)) (2 b L_sigma)^(L-1) b c sqrt(log(2 n_0)).
    """
    if arch.norm_bound is None:
        raise StatisticError("bound needs the column-sum norm bound b")
    if arch.input_bound is None or arch.input_bound <= 0:
        raise StatisticError("bound needs the input bound c")
    if n_samples < 1:
        raise StatisticError("sample count must be positive")
    b, c = arch.norm_bound, arch.input_bound
    depth, width0 = arch.n_layers, arch.layer_sizes[0]
    return (
        4.0
        / math.sqrt(n_samples)
        * (2.0 * b * arch.lipschitz) ** (depth - 1)
        * b
        * c
        * math.sqrt(math.log(2.0 * width0))
    )
