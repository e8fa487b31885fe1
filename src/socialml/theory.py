"""Consistency guarantees as executable formulas.

The central quantity is an error exponent measuring how far the network
target risk sits from the log(2) uninformed boundary.  It comes from the
unique real root y > 1 of the cubic

    e^r y^3 - y - 1 = 0,        exponent(r) = log(y) / 4,

solved here by bisection (the cubic is strictly increasing in y on y >= 1,
so bisection is exact and robust; the tests cross-check it against the
closed-form radicals).  The exponent feeds an exponential lower bound on the
probability that training produces models consistent during prediction, and
inverting that bound gives the training-set size needed for a target
confidence.

The same module holds the checks that put the theory's assumptions to
trained statistics: the consistency conditions, checked on Monte Carlo
class-conditional means drawn from the scene itself (under each class the
network's Perron-weighted mean statistic must favour that class, as
``social.decide`` reads lambda), classifier complexity estimated two ways (a
Monte Carlo estimate of the expected sup-correlation with random sign draws
over a sampled candidate family, which approximates the true sup from below,
and the analytic bound for norm-constrained feedforward networks), and the
analytic logit bound.  The ``theory`` command reads the analytic bounds;
``class_means`` and ``rademacher_monte_carlo`` have no program caller yet,
only tests.  Only the ``theory`` command imports this module, so the
pipeline commands never load it.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Record, ValidationError
from .data import prediction_streams
from .mlp import MLPArchitecture, ModelError
from .seeds import generators
from .stats import StatisticError

LOG2 = math.log(2.0)
# 4 * exponent(0), the reported constant for the zero-risk endpoint
FOUR_EXPONENT_AT_ZERO = 0.2812


class TheoryError(ValidationError):
    """Inputs outside the validity region of a bound."""


def _cubic(r: float, y: float) -> float:
    return math.exp(r) * y**3 - y - 1.0


def exact_exponent(target_risk: float) -> float:
    """Error exponent from the cubic root, valid for 0 <= risk < log 2."""
    if not 0.0 <= target_risk < LOG2:
        raise TheoryError(f"target risk must lie in [0, log 2), got {target_risk}")
    lo, hi = 1.0, 2.0
    # cubic(lo) = e^r - 2 <= 0 and cubic(hi) = 8 e^r - 3 > 0 on the valid range
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _cubic(target_risk, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    return 0.25 * math.log(root)


def approx_exponent(target_risk: float) -> float:
    """Linear fit of the exponent: (0.2812 / 4) * (1 - risk / log 2)."""
    if not 0.0 <= target_risk <= LOG2:
        raise TheoryError(f"target risk must lie in [0, log 2], got {target_risk}")
    return 0.25 * FOUR_EXPONENT_AT_ZERO * (1.0 - target_risk / LOG2)


class TrainingProfile(Record):
    """Per-agent training-set sizes and the derived imbalance penalties."""

    sample_counts: tuple
    perron: np.ndarray

    def __post_init__(self):
        counts = tuple(int(n) for n in self.sample_counts)
        pi = np.asarray(self.perron, dtype=float)
        if any(n < 1 for n in counts):
            raise TheoryError("sample counts must be positive")
        if pi.shape != (len(counts),):
            raise TheoryError("Perron vector length must match the agent count")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-10:
            raise TheoryError("Perron weights must be positive and sum to 1")
        object.__setattr__(self, "sample_counts", counts)
        object.__setattr__(self, "perron", pi)

    @property
    def n_max(self) -> int:
        return max(self.sample_counts)

    @property
    def alpha_k(self) -> np.ndarray:
        return self.n_max / np.asarray(self.sample_counts, dtype=float)

    @property
    def alpha(self) -> float:
        return float(self.perron @ self.alpha_k)


class ConsistencyBound(Record):
    exponent: float  # exact exponent at the target risk
    raw: float  # 1 - 2 exp(-...), may be negative
    value: float  # clamped to [0, 1)
    vacuous: bool  # complexity at or above the exponent


def pc_lower_bound(
    target_risk: float, beta, complexity: float, profile: TrainingProfile
) -> ConsistencyBound:
    """Lower bound on the probability that training yields consistent models.

    ``beta`` is one logit bound for every agent or one per agent, and
    ``complexity`` the network-averaged classifier complexity.  With a scalar
    beta the exponent reads
    ``8 N_max (exponent - complexity)^2 / (alpha beta)^2``; with per-agent
    betas the denominator uses the network average of alpha_k * beta_k.  When
    the complexity is not strictly below the exponent the bound carries no
    information and is reported with the vacuous flag set and value 0.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise TheoryError("beta must be positive")
    if beta.ndim not in (0, 1):
        raise TheoryError("beta must be a scalar or one value per agent")
    if beta.ndim == 1 and beta.shape[0] != len(profile.sample_counts):
        raise TheoryError("per-agent beta length must match the agent count")
    if complexity < 0:
        raise TheoryError("complexity must be nonnegative")
    eps = exact_exponent(target_risk)
    if beta.ndim == 0:
        denom = profile.alpha * float(beta)
    else:
        denom = float(profile.perron @ (profile.alpha_k * beta))
    gap = eps - complexity
    raw = 1.0 - 2.0 * math.exp(-8.0 * profile.n_max * gap**2 / denom**2)
    vacuous = not complexity < eps
    value = 0.0 if vacuous else max(0.0, raw)
    return ConsistencyBound(exponent=eps, raw=raw, value=value, vacuous=vacuous)


def network_complexity_bound(constants, profile: TrainingProfile) -> tuple[float, float]:
    """Combine per-agent complexity constants C_k into the network bound.

    Returns ``(rho_bound, C)`` with ``C = sum_k pi_k C_k sqrt(alpha_k)`` and
    ``rho_bound = C / sqrt(N_max)``.
    """
    c = np.asarray(constants, dtype=float)
    if c.shape != (len(profile.sample_counts),):
        raise TheoryError("need one complexity constant per agent")
    if np.any(c < 0):
        raise TheoryError("complexity constants must be nonnegative")
    mixed = float(profile.perron @ (c * np.sqrt(profile.alpha_k)))
    return mixed / math.sqrt(profile.n_max), mixed


def sample_complexity(
    c_mixed: float, target_risk: float, alpha: float, beta: float, epsilon: float
) -> int:
    """Smallest N_max guaranteeing consistent learning with confidence 1 - epsilon."""
    if not 0.0 < epsilon < 1.0:
        raise TheoryError("epsilon must lie in (0, 1)")
    if c_mixed <= 0 or beta <= 0 or alpha < 1:
        raise TheoryError("need C > 0, beta > 0, alpha >= 1")
    eps = exact_exponent(target_risk)
    bracket = 1.0 + (alpha * beta / (2.0 * c_mixed)) * math.sqrt(
        0.5 * math.log(2.0 / epsilon)
    )
    threshold = (c_mixed / eps) ** 2 * bracket**2
    return int(math.floor(threshold)) + 1


def self_consistency_check(
    c_mixed: float, target_risk: float, alpha: float, beta: float, epsilon: float
) -> tuple[bool, dict]:
    """Plug the sample-complexity answer back into the probability bound.

    Returns ``(ok, details)``; ``ok`` means the bound evaluated at
    ``N = sample_complexity(...)`` with complexity ``C / sqrt(N)`` reaches at
    least ``1 - epsilon``.  If the plug-in lands in the vacuous region the
    check is skipped and reported as such.
    """
    n_needed = sample_complexity(c_mixed, target_risk, alpha, beta, epsilon)
    rho = c_mixed / math.sqrt(n_needed)
    profile = TrainingProfile((n_needed,), np.array([1.0]))
    # alpha/beta enter only through their product; fold alpha into beta so the
    # single-agent profile reproduces the requested penalty
    bound = pc_lower_bound(target_risk, alpha * beta, rho, profile)
    details = {
        "n_max": n_needed,
        "plug_in_complexity": rho,
        "bound": bound.value,
        "target": 1.0 - epsilon,
        "skipped_vacuous": bound.vacuous,
    }
    if bound.vacuous:
        return False, details
    return bound.value >= 1.0 - epsilon, details


# --- consistency conditions and classifier complexity ----------------------


class ClassMeans(Record):
    """Class-conditional means of the agents' statistics, as ``class_means``
    estimates them: ``means[k, j]`` is agent k's mean statistic under class
    j, its M - 1 pairwise components, and ``stderrs[k, j]`` their standard
    errors, both (K, M, M-1); ``perron`` weighs the agents."""

    means: np.ndarray
    stderrs: np.ndarray
    perron: np.ndarray

    @property
    def drift(self) -> np.ndarray:
        """(M, M-1): the network's mean statistic under each class, the
        per-step drift of lambda."""
        return np.tensordot(self.perron, self.means, 1)

    @property
    def drift_stderr(self) -> np.ndarray:
        return np.sqrt(np.tensordot(self.perron**2, self.stderrs**2, 1))

    @property
    def margins(self) -> np.ndarray:
        """(M,): under class j's drift, class j's score minus the best other
        score, with the scores as ``social.decide`` reads lambda: 0 for
        class 0 and -drift for the others."""
        # row j holds every class's score under class j's drift
        scores = np.hstack([np.zeros((len(self.drift), 1)), -self.drift])
        others = np.where(np.eye(len(scores), dtype=bool), -np.inf, scores)
        return np.diag(scores) - others.max(axis=1)

    @property
    def consistent(self) -> bool:
        """Every class's drift favours that class, strictly."""
        return bool(np.all(self.margins > 0.0))


def class_means(statistics, source, perron, n: int, seed: int) -> ClassMeans:
    """Monte Carlo class-conditional means of the agents' statistics.

    ``n`` rows of every class are drawn from the scene ``source`` (a
    ``GaussianSceneSpec`` or an ``ImageSource``) by one
    ``data.prediction_streams`` call, whose one stream's track holds class j
    for ``n`` steps and is drawn from the generator of ``seed``.
    ``statistics[k]`` maps agent k's rows to its statistic values, (rows,)
    or (rows, M-1), as ``run_prediction`` reads its providers.
    """
    if n < 1:
        raise StatisticError(f"n must be at least 1, got {n}")
    pi = np.asarray(perron, dtype=float)
    if pi.shape != (len(statistics),):
        raise StatisticError(f"{len(statistics)} statistics but {pi.size} Perron weights")
    m = source.n_classes
    (rng,) = generators([seed])
    views = prediction_streams(source, np.repeat(np.arange(m), n), 1, rng)
    if len(views) != pi.size:
        raise StatisticError(f"{pi.size} statistics but the source has {len(views)} agents")
    values = np.stack(
        [
            np.asarray(statistic(view[0]), dtype=float).reshape(m, n, m - 1)
            for statistic, view in zip(statistics, views)
        ]
    )  # (K, M, n, M-1)
    # one draw of a class has no spread to estimate; its stderr reads 0
    stderrs = values.std(axis=2, ddof=min(n - 1, 1)) / math.sqrt(n)
    return ClassMeans(values.mean(axis=2), stderrs, pi)


class RademacherEstimate(Record):
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
        patterns = _all_sign_patterns(n)
        sups = np.abs(table @ patterns.T / n).max(axis=0)
        return RademacherEstimate(
            float(sups.mean()), 0.0, patterns.shape[0], "exhaustive", seed=None
        )
    if n_draws < 1:
        raise StatisticError("need at least one sign draw")
    (rng,) = generators([seed])
    patterns = rng.integers(0, 2, size=(n_draws, n)) * 2.0 - 1.0
    sups = np.abs(table @ patterns.T / n).max(axis=0)
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
    (4 / sqrt(N)) (2 b L_sigma)^(L-1) b c sqrt(log(2 n_0)), where the input
    width n_0 = ``layer_sizes[0]`` counts the bias slot.
    """
    if arch.norm_bound is None:
        raise StatisticError("bound needs the column-sum norm bound b")
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


def logit_bound(arch: MLPArchitecture) -> float:
    """Analytic bound on |logit|, 2 (b L_sigma)^(L-1) b c n_0; n_0 counts the bias slot."""
    if arch.norm_bound is None:
        raise ModelError("logit bound needs a norm-constrained architecture")
    b, c = arch.norm_bound, arch.input_bound
    depth, width0 = arch.n_layers, arch.layer_sizes[0]
    return 2.0 * (b * arch.lipschitz) ** (depth - 1) * b * c * width0
