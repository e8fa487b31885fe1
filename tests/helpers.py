"""Reference computations and scene builders that only the tests use: the
risks and finite-difference gradients the training kernel is checked
against, a second Gaussian training draw, a mean-shift scene, the inverse
of ``data.split_patches``, a writer of well-formed IDX files, and the
directory of the example configs.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from socialml.data import GaussianClassModel, GaussianSceneSpec, PatchLayout
from socialml.mlp import (
    MLPModel,
    ModelError,
    _augment,
    _check_stack,
    _log_softmax,
    _stack_loss,
    output_preactivations,
    reference_logits,
)
from socialml.seeds import generators
from socialml.stats import StatisticError

EXP_CLAMP = 500.0  # exp argument clamp of softplus

# the example configs the CLI runs, whose scenes the tests read too
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def gaussian_training_set(spec: GaussianSceneSpec, agent: int, per_class: int, seed) -> tuple:
    """Balanced labeled draws, ``per_class`` samples for every class:
    ``(features, labels)``, each label a class index."""
    (rng,) = generators([seed])
    feats = np.vstack([model.sample(rng, per_class) for model in spec.models[agent]])
    order = rng.permutation(feats.shape[0])
    return feats[order], np.repeat(np.arange(spec.n_classes), per_class)[order]


def mean_shift_gaussian_spec(n_agents: int, dim: int = 1, shift: float = 1.0) -> GaussianSceneSpec:
    """Binary scene where every agent sees unit Gaussians at mean +shift
    under class 0 and -shift under class 1."""
    plus = GaussianClassModel(np.full(dim, shift), np.eye(dim))
    minus = GaussianClassModel(np.full(dim, -shift), np.eye(dim))
    return GaussianSceneSpec(((plus, minus),) * n_agents)


def reassemble_patches(views, layout: PatchLayout) -> np.ndarray:
    """Invert ``data.split_patches`` on a batch of per-agent views, keeping
    the views' type."""
    first = np.atleast_2d(np.asarray(views[0]))
    n = first.shape[0]
    out = np.empty((n, layout.height, layout.width), first.dtype)
    for agent in range(layout.n_agents):
        rs, cs = layout.patch_slices(agent)
        shape = layout.patch_shape(agent)
        out[:, rs, cs] = np.asarray(views[agent]).reshape(n, *shape)
    return out[0] if np.asarray(views[0]).ndim == 1 else out


def write_idx(directory, images, labels) -> tuple:
    """``images`` (n, height, width) and their n labels as the IDX pair
    ``images.idx`` and ``labels.idx`` in ``directory``, both uint8: a
    big-endian header of the magic number and the sizes, then the raw bytes.
    Returns the two paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    img_path, lab_path = Path(directory) / "images.idx", Path(directory) / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, *images.shape) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return img_path, lab_path


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^{-|x|})."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.clip(-np.abs(x), -EXP_CLAMP, 0.0)))


def logistic_risk(logit_source, features, labels) -> float:
    """Mean log(1 + exp(-y f(h))) over feature rows h with labels y in {-1, +1}.

    ``logit_source`` may be a trained 2-output model, whose output 0 scores
    +1, or precomputed per-sample logits.
    """
    y = np.asarray(labels, dtype=float)
    if y.size == 0:
        raise ModelError("empty dataset")
    if set(y.tolist()) - {-1.0, 1.0}:
        raise ModelError("logistic risk is defined for labels {-1, +1}")
    if isinstance(logit_source, MLPModel):
        if logit_source.architecture.n_outputs != 2:
            raise ModelError("logistic risk needs a 2-output model")
        values = reference_logits(logit_source, features)[..., 0]
    else:
        values = np.asarray(logit_source, dtype=float)
    if values.shape != y.shape:
        raise ModelError(f"expected {y.size} logit values, got {values.shape}")
    return float(np.mean(softplus(-y * values)))


def cross_entropy_risk(model: MLPModel, features, labels) -> float:
    """Mean negative log approximate posterior of the true class, over
    feature rows and their class indices."""
    (labels,), _ = _check_stack([features], [labels], model.architecture, None)
    logp = _log_softmax(output_preactivations(model, features))
    return float(-np.mean(logp[np.arange(labels.size), labels]))


def gradient_check(model: MLPModel, features, labels, eps: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    The error of each weight matrix is the largest entrywise deviation scaled
    by the largest gradient entry of that matrix, so near-zero entries do not
    blow up the ratio.  Intended for small models (< 1e4 parameters).
    """
    arch = model.architecture
    labels, uniform = _check_stack([features], [labels], arch, None)
    n_params = sum(w.size for w in model.weights)
    if n_params > 10_000:
        raise ModelError(f"{n_params} parameters is too large for finite differences")
    h = _augment(arch, features)[None]
    targets = labels[:, :, None] == np.arange(arch.n_outputs)
    weights = [w[None].copy() for w in model.weights]
    grads = [np.empty_like(w) for w in weights]
    _stack_loss(weights, h, targets, uniform, arch.activation, grads)

    def risk() -> float:
        return float(_stack_loss(weights, h, targets, uniform, arch.activation)[0][0])

    worst = 0.0
    for ell, w in enumerate(weights):
        fd = np.empty_like(w[0])
        for pos in np.ndindex(fd.shape):
            original = w[0][pos]
            w[0][pos] = original + eps
            up = risk()
            w[0][pos] = original - eps
            down = risk()
            w[0][pos] = original
            fd[pos] = (up - down) / (2 * eps)
        grad = grads[ell][0]
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-12)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
    return worst


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
