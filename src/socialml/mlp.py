"""Per-agent classifiers: feedforward networks with softmax heads.

The network computes pre-activations layer by layer, applies the activation
between layers only, and turns the final pre-activations z into approximate
posteriors with a softmax.  Class order is fixed by the dataset's ``classes``
tuple: output unit j scores ``classes[j]`` and ``classes[0]`` is the reference
class for every logit.  A bias is folded in as a constant trailing input
feature, so the first layer width counts one slot more than the raw feature
dimension when ``bias`` is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .seeds import generators

EXP_CLAMP = 500.0  # exp argument clamp used by the stable loss helpers


class ModelError(ValueError):
    """Invalid classifier configuration or input."""


class TrainingDiverged(RuntimeError):
    """Loss became NaN/Inf during empirical risk minimization.

    ``model`` is the stack index of the first model whose loss diverged.
    """

    def __init__(self, message: str, model: int = 0):
        super().__init__(message)
        self.model = model


# activation name -> (function f, called as f(a, out=a) to overwrite a with
# f(a) and return it; f' written in terms of y = f(a), overwriting y where
# it is an array; Lipschitz constant); all satisfy f(0)=0
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda y: np.subtract(1.0, np.square(y, out=y), out=y), 1.0),
    "relu": (
        lambda a, out: np.maximum(a, 0.0, out=out),
        lambda y: np.greater(y, 0.0, out=y),
        1.0,
    ),
    "identity": (lambda a, out: out, lambda y: 1.0, 1.0),
}
ACTIVATIONS = tuple(_ACTIVATIONS)
OPTIMIZERS = ("gd", "adam")


@dataclass(frozen=True)
class MLPArchitecture:
    """Layer widths and constraints of one agent's classifier.

    ``layer_sizes[0]`` is the input-layer width as seen by the first weight
    matrix; with ``bias=True`` it includes the constant-1 slot, so raw
    features have ``layer_sizes[0] - 1`` entries.  ``norm_bound`` caps the
    max-column-sum norm of every weight matrix; ``input_bound`` is the known
    bound on the absolute value of any (augmented) input entry.
    """

    layer_sizes: tuple
    activation: str = "tanh"
    bias: bool = True
    norm_bound: float | None = None
    input_bound: float = 1.0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ModelError(f"need positive layer sizes with L >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if self.norm_bound is not None and self.norm_bound <= 0:
            raise ModelError("norm bound must be positive when set")
        if self.input_bound <= 0:
            raise ModelError("input bound must be positive")
        if self.bias and sizes[0] < 2:
            raise ModelError("bias slot leaves no room for features")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_features(self) -> int:
        """Raw feature dimension callers provide (bias slot excluded)."""
        return self.layer_sizes[0] - (1 if self.bias else 0)

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

    @property
    def lipschitz(self) -> float:
        return _ACTIVATIONS[self.activation][2]


@dataclass(frozen=True)
class TrainingHyperparameters:
    """Optimizer settings; ``optimizer`` is plain mini-batch gradient descent
    by default, with diagonally adaptive steps ("adam") available for small
    learning rates that plain descent cannot exploit.  ``init_scale``
    multiplies the default 1/sqrt(fan_in) initialization range; values above
    1 give the readout richer random hidden features to start from."""

    epochs: int
    batch_size: int
    learning_rate: float
    optimizer: str = "gd"
    init_scale: float = 1.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ModelError("epochs and batch size must be positive")
        if self.learning_rate < 0:
            raise ModelError("learning rate must be nonnegative")
        if self.optimizer not in OPTIMIZERS:
            raise ModelError(f"unknown optimizer {self.optimizer!r}")
        if self.init_scale <= 0:
            raise ModelError("init scale must be positive")


@dataclass(frozen=True)
class LabeledDataset:
    """One agent's feature view with labels drawn from ``classes``."""

    features: np.ndarray
    labels: np.ndarray
    classes: tuple

    def __post_init__(self):
        feats = np.atleast_2d(np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels)
        if feats.shape[0] != labels.shape[0]:
            raise ModelError(
                f"{feats.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        classes = tuple(self.classes)
        if len(set(classes)) != len(classes) or len(classes) < 2:
            raise ModelError("classes must be at least two distinct labels")
        unknown = set(labels.tolist()) - set(classes)
        if unknown:
            raise ModelError(f"labels {unknown} not in classes {classes}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", classes)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def class_counts(self) -> dict:
        return {c: int(np.sum(self.labels == c)) for c in self.classes}

    @property
    def balanced(self) -> bool:
        counts = list(self.class_counts.values())
        return len(set(counts)) == 1

    def label_indices(self) -> np.ndarray:
        lookup = {c: j for j, c in enumerate(self.classes)}
        return np.array([lookup[l] for l in self.labels.tolist()], dtype=int)


@dataclass(frozen=True)
class MLPModel:
    architecture: MLPArchitecture
    weights: tuple = field(repr=False)

    def __post_init__(self):
        sizes = self.architecture.layer_sizes
        ws = tuple(np.asarray(w, dtype=float) for w in self.weights)
        if len(ws) != self.architecture.n_layers:
            raise ModelError(f"expected {self.architecture.n_layers} weight matrices")
        for ell, w in enumerate(ws, start=1):
            want = (sizes[ell], sizes[ell - 1])
            if w.shape != want:
                raise ModelError(f"layer {ell} weights {w.shape}, expected {want}")
        b = self.architecture.norm_bound
        if b is not None:
            worst = max(float(np.abs(w).sum(axis=0).max()) for w in ws)
            if worst > b * (1 + 1e-12):
                raise ModelError(f"column-sum norm {worst:.6g} exceeds bound {b}")
        object.__setattr__(self, "weights", ws)


def initialize_model(
    arch: MLPArchitecture, rng: np.random.Generator, scale: float = 1.0
) -> MLPModel:
    """Uniform init in +-scale/sqrt(fan_in) per layer."""
    sizes = arch.layer_sizes
    weights = []
    for ell in range(1, len(sizes)):
        bound = scale / np.sqrt(sizes[ell - 1])
        w = rng.uniform(-bound, bound, size=(sizes[ell], sizes[ell - 1]))
        weights.append(w)
    if arch.norm_bound is not None:
        weights = [_project_columns(w, arch.norm_bound) for w in weights]
    return MLPModel(arch, tuple(weights))


def _augment(arch: MLPArchitecture, features) -> np.ndarray:
    h = np.atleast_2d(np.asarray(features, dtype=float))
    if h.shape[1] != arch.n_features:
        raise ModelError(f"feature dim {h.shape[1]}, expected {arch.n_features}")
    if arch.bias:
        out = np.empty((h.shape[0], h.shape[1] + 1))
        out[:, :-1] = h
        out[:, -1] = 1.0
        h = out
    return h


def _stack_forward(weights, h, act_fn) -> list:
    """Activations of every layer for stacked (S, N, n_0) inputs: [h, ..., z].

    ``weights[ell]`` holds the layer's matrices of all S models, (S, n_l, n_{l-1}).
    Each activation overwrites the matmul output it is applied to, so a layer
    costs one fresh array; backpropagation reads only activation outputs.
    The matmuls keep the transposed-view operand: a contiguous copy of W^T, or
    splitting the rows into blocks, changes the last bits of some products.
    """
    acts = [h]
    for w in weights[:-1]:
        a = np.matmul(acts[-1], w.transpose(0, 2, 1))
        acts.append(act_fn(a, out=a))
    acts.append(np.matmul(acts[-1], weights[-1].transpose(0, 2, 1)))
    return acts


def output_preactivations(model: MLPModel, features) -> np.ndarray:
    """Final-layer scores z, shape (N, M); accepts a single feature vector too."""
    single = np.asarray(features).ndim == 1
    arch = model.architecture
    weights = [w[None] for w in model.weights]
    h = _augment(arch, features)[None]
    z = _stack_forward(weights, h, _ACTIVATIONS[arch.activation][0])[-1][0]
    return z[0] if single else z


def binary_logit(model: MLPModel, features) -> np.ndarray:
    """Log posterior ratio of the reference class versus the other, z_0 - z_1."""
    if model.architecture.n_outputs != 2:
        raise ModelError("binary logit needs a 2-output model")
    z = output_preactivations(model, features)
    return z[..., 0] - z[..., 1]


def reference_logits(model: MLPModel, features) -> np.ndarray:
    """Pairwise logits against the reference class: z_0 - z_gamma, gamma > 0.

    The log-odds of approximate posteriors reduce to score differences
    because the softmax normalizer cancels.  Shape (..., M-1), a view of the
    scores: each difference overwrites z_gamma.
    """
    z = output_preactivations(model, features)
    for gamma in range(1, z.shape[-1]):
        np.subtract(z[..., 0], z[..., gamma], out=z[..., gamma])
    return z[..., 1:]


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^{-|x|})."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.clip(-np.abs(x), -EXP_CLAMP, 0.0)))


def logistic_risk(logit_source, dataset: LabeledDataset) -> float:
    """Mean log(1 + exp(-y f(h))) over the dataset, labels in {-1, +1}.

    ``logit_source`` may be a trained 2-output model, a callable mapping a
    feature batch to logit values, or precomputed per-sample logits.
    """
    if len(dataset) == 0:
        raise ModelError("empty dataset")
    if set(dataset.classes) != {-1, +1}:
        raise ModelError("logistic risk is defined for labels {-1, +1}")
    if isinstance(logit_source, MLPModel):
        values = binary_logit(logit_source, dataset.features)
    elif callable(logit_source):
        values = np.asarray(logit_source(dataset.features), dtype=float)
    else:
        values = np.asarray(logit_source, dtype=float)
    if values.shape != (len(dataset),):
        raise ModelError(f"expected {len(dataset)} logit values, got {values.shape}")
    y = dataset.labels.astype(float)
    return float(np.mean(softplus(-y * values)))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # the ufunc reductions directly: ndarray.max and np.sum reach the same
    # ones through Python wrappers, a cost per training step
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def _log_posteriors(model: MLPModel, features) -> np.ndarray:
    return _log_softmax(output_preactivations(model, np.atleast_2d(features)))


def cross_entropy_risk(model: MLPModel, dataset: LabeledDataset) -> float:
    """Mean negative log approximate posterior of the true class."""
    if len(dataset) == 0:
        raise ModelError("empty dataset")
    if model.architecture.n_outputs != len(dataset.classes):
        raise ModelError(
            f"model has {model.architecture.n_outputs} outputs for "
            f"{len(dataset.classes)} classes"
        )
    logp = _log_posteriors(model, dataset.features)
    idx = dataset.label_indices()
    return float(-np.mean(logp[np.arange(len(dataset)), idx]))


def _project_columns(w: np.ndarray, bound: float, out=None) -> np.ndarray:
    # rescale columns whose absolute sum exceeds the bound; any leading axes
    # stack independent matrices
    sums = np.abs(w).sum(axis=-2, keepdims=True)
    factor = np.where(sums > bound, bound / np.maximum(sums, 1e-300), 1.0)
    return np.multiply(w, factor, out=out)


@dataclass(frozen=True)
class TrainResult:
    model: MLPModel
    risk_trace: np.ndarray  # empirical risk after each epoch


def _stack_risk(weights, h, picks, row_weights, activation) -> np.ndarray:
    """Weighted cross-entropy of each stacked model, forward pass only.

    ``picks`` indexes the true-class entries of the flattened (S, N, C)
    log-posteriors; ``row_weights`` is (S, N).
    """
    logp = _log_softmax(_stack_forward(weights, h, _ACTIVATIONS[activation][0])[-1])
    return -(row_weights * logp.reshape(-1)[picks]).sum(axis=1)


def _stack_gradients(weights, h, picks, row_weights, activation, grads=None):
    """Per-model weighted cross-entropy and its gradient for every layer.

    Backpropagation reuses the forward activations: each derivative is
    written in terms of the activation's output, over that output once the
    layer's gradient has read it.  The gradients are written into ``grads``,
    arrays shaped like ``weights``, or into fresh arrays when it is None.
    """
    act_fn, act_deriv, _ = _ACTIVATIONS[activation]
    acts = _stack_forward(weights, h, act_fn)
    logp = _log_softmax(acts[-1])
    loss = -(row_weights * logp.reshape(-1)[picks]).sum(axis=1)

    delta = np.exp(logp)
    delta.reshape(-1)[picks] -= 1.0
    delta *= row_weights[:, :, None]

    if grads is None:
        grads = [np.empty_like(w) for w in weights]
    for ell in range(len(weights) - 1, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), acts[ell], out=grads[ell])
        if ell > 0:
            delta = np.matmul(delta, weights[ell])
            delta *= act_deriv(acts[ell])
    return loss, grads


def _pick_offsets(n_models: int, n: int, batch_size: int, n_classes: int) -> np.ndarray:
    """(S, n) offset of row j's first class entry in the flattened log-posteriors
    of the mini-batch that holds position j; adding the label index picks it."""
    pos = np.arange(n)
    start = pos - pos % batch_size
    size = np.minimum(batch_size, n - start)
    return (np.arange(n_models)[:, None] * size + (pos - start)) * n_classes


def _batch_normalized(row_weights: np.ndarray, batch_size: int) -> np.ndarray:
    """Each mini-batch's share of the (S, n) weights rescaled to sum to one;
    a batch whose weights are all zero is weighted uniformly."""
    n_models, n = row_weights.shape
    out = np.empty_like(row_weights)
    full = n - n % batch_size
    for lo, hi, size in ((0, full, batch_size), (full, n, n - full)):
        if hi == lo:
            continue
        part = row_weights[:, lo:hi].reshape(n_models, -1, size)
        total = part.sum(axis=2, keepdims=True)
        scaled = np.divide(part, total, out=np.full_like(part, 1.0 / size), where=total > 0)
        out[:, lo:hi] = scaled.reshape(n_models, hi - lo)
    return out


def _check_stack(datasets, arch: MLPArchitecture, seeds, sample_weights) -> np.ndarray:
    """Validate a stack of training sets; returns the normalized (S, n) weights."""
    if len(datasets) == 0:
        raise ModelError("datasets: need at least one training set")
    if len(seeds) != len(datasets):
        raise ModelError(f"seeds: {len(seeds)} seeds for {len(datasets)} datasets")
    n, classes = len(datasets[0]), datasets[0].classes
    for m, dataset in enumerate(datasets):
        if len(dataset) != n:
            raise ModelError(f"datasets: dataset {m} has {len(dataset)} rows, dataset 0 has {n}")
        if dataset.classes != classes:
            raise ModelError(
                f"classes: dataset {m} has classes {dataset.classes}, dataset 0 has {classes}"
            )
        if dataset.dim != arch.n_features:
            raise ModelError(f"dataset dim {dataset.dim} vs arch features {arch.n_features}")
    if n == 0:
        raise ModelError("empty dataset")
    if arch.n_outputs != len(classes):
        raise ModelError("output layer width must match the number of classes")
    if sample_weights is None:
        return np.full((len(datasets), n), 1.0 / n)
    if len(sample_weights) != len(datasets):
        raise ModelError(
            f"sample_weights: {len(sample_weights)} weight vectors for {len(datasets)} datasets"
        )
    rows = []
    for sw in sample_weights:
        sw = np.asarray(sw, dtype=float)
        if sw.shape != (n,) or np.any(sw < 0) or sw.sum() <= 0:
            raise ModelError("sample weights must be nonnegative with positive sum")
        rows.append(sw / sw.sum())
    return np.stack(rows)


def _flat_views(buffer: np.ndarray, shapes) -> list:
    """Consecutive C-ordered views of the flat ``buffer``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(buffer[start:stop].reshape(shape))
        start = stop
    return views


def _first_nonfinite(values: np.ndarray) -> int:
    return int(np.flatnonzero(~np.isfinite(values))[0])


def train_stack(
    datasets,
    arch: MLPArchitecture,
    hyper: TrainingHyperparameters,
    seeds,
    sample_weights=None,
) -> list:
    """Mini-batch ERM of S same-shape models in lockstep, one result per dataset.

    Model m trains on ``datasets[m]`` exactly as it would alone: its own
    generator ``generators(seeds)[m]`` draws the initial weights and then one
    permutation per epoch, and its optional ``sample_weights[m]`` multiply the
    per-sample losses (weighted mean per batch).  Every step is one batched
    matmul per layer over the model axis and one optimizer pass over all
    weights, which share one flat buffer; with a norm bound set, every update
    is followed by a column-sum projection.  The datasets must share their
    length and classes; a non-finite loss raises ``TrainingDiverged`` naming
    the first diverged model's stack index.
    """
    row_weights = _check_stack(datasets, arch, seeds, sample_weights)
    n_models, n = row_weights.shape
    rngs = generators(seeds)
    sizes = arch.layer_sizes
    shapes = [(n_models, sizes[ell], sizes[ell - 1]) for ell in range(1, len(sizes))]
    params = np.empty(sum(math.prod(shape) for shape in shapes))
    gflat = np.empty_like(params)
    weights, grads = _flat_views(params, shapes), _flat_views(gflat, shapes)
    inits = [initialize_model(arch, rng, hyper.init_scale).weights for rng in rngs]
    for w, layer in zip(weights, zip(*inits)):
        np.stack(layer, out=w)
    h = np.stack([_augment(arch, dataset.features) for dataset in datasets])
    labels = np.stack([dataset.label_indices() for dataset in datasets])
    rows = np.arange(n_models)[:, None]
    risk_picks = _pick_offsets(n_models, n, n, arch.n_outputs) + labels
    offsets = _pick_offsets(n_models, n, hyper.batch_size, arch.n_outputs)
    bound, lr = arch.norm_bound, hyper.learning_rate

    adam = hyper.optimizer == "adam"
    if adam:
        beta1, beta2, tiny = 0.9, 0.999, 1e-8
        first = np.zeros_like(params)
        second = np.zeros_like(params)
        scratch = np.empty_like(params)
        step = 0

    trace = np.empty((n_models, hyper.epochs))
    for epoch in range(hyper.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        h_epoch = h[rows, order]
        picks_epoch = offsets + labels[rows, order]
        weights_epoch = _batch_normalized(row_weights[rows, order], hyper.batch_size)
        for start in range(0, n, hyper.batch_size):
            batch = slice(start, start + hyper.batch_size)
            loss, _ = _stack_gradients(
                weights,
                h_epoch[:, batch],
                picks_epoch[:, batch],
                weights_epoch[:, batch],
                arch.activation,
                grads,
            )
            if not np.isfinite(loss).all():
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch start {start} (lr={lr})",
                    _first_nonfinite(loss),
                )
            # one pass over the flat buffers: the operations and their order
            # are those of the per-layer update, so the bits are too; the
            # step overwrites the gradients, which the next batch recomputes
            if adam:
                # first = beta1 first + (1 - beta1) g
                # second = beta2 second + (1 - beta2) g^2
                # w -= lr (first / (1 - beta1^t)) / (sqrt(second / (1 - beta2^t)) + tiny)
                step += 1
                np.multiply(first, beta1, out=first)
                np.multiply(gflat, 1 - beta1, out=scratch)
                np.add(first, scratch, out=first)
                np.square(gflat, out=gflat)
                np.multiply(second, beta2, out=second)
                np.multiply(gflat, 1 - beta2, out=gflat)
                np.add(second, gflat, out=second)
                np.divide(second, 1 - beta2**step, out=scratch)
                np.sqrt(scratch, out=scratch)
                np.add(scratch, tiny, out=scratch)
                np.divide(first, 1 - beta1**step, out=gflat)
                np.multiply(gflat, lr, out=gflat)
                np.divide(gflat, scratch, out=gflat)
            else:
                np.multiply(gflat, lr, out=gflat)
            np.subtract(params, gflat, out=params)
            if bound is not None:
                for w in weights:
                    _project_columns(w, bound, out=w)
        risk = _stack_risk(weights, h, risk_picks, row_weights, arch.activation)
        if not np.isfinite(risk).all():
            raise TrainingDiverged(
                f"non-finite epoch risk at epoch {epoch}", _first_nonfinite(risk)
            )
        trace[:, epoch] = risk

    return [
        TrainResult(MLPModel(arch, tuple(w[m].copy() for w in weights)), trace[m].copy())
        for m in range(n_models)
    ]


def gradient_check(model: MLPModel, dataset: LabeledDataset, eps: float = 1e-5) -> float:
    """Max relative error between backprop and central finite differences.

    The error of each weight matrix is the largest entrywise deviation scaled
    by the largest gradient entry of that matrix, so near-zero entries do not
    blow up the ratio.  Intended for small models (< 1e4 parameters).
    """
    if len(dataset) == 0:
        raise ModelError("empty dataset")
    n_params = sum(w.size for w in model.weights)
    if n_params > 10_000:
        raise ModelError(f"{n_params} parameters is too large for finite differences")
    arch = model.architecture
    n = len(dataset)
    h = _augment(arch, dataset.features)[None]
    picks = _pick_offsets(1, n, n, arch.n_outputs) + dataset.label_indices()
    uniform = np.full((1, n), 1.0 / n)
    weights = [w[None].copy() for w in model.weights]
    _, grads = _stack_gradients(weights, h, picks, uniform, arch.activation)

    def risk() -> float:
        return float(_stack_risk(weights, h, picks, uniform, arch.activation)[0])

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


def logit_bound(arch: MLPArchitecture) -> float:
    """Analytic bound on |logit| from norm-constrained weights and inputs."""
    if arch.norm_bound is None:
        raise ModelError("logit bound needs a norm-constrained architecture")
    b, c = arch.norm_bound, arch.input_bound
    depth, width0 = arch.n_layers, arch.layer_sizes[0]
    return 2.0 * (b * arch.lipschitz) ** (depth - 1) * b * c * width0


def save_model(model: MLPModel, path) -> None:
    """JSON with the architecture block and row-major weight arrays.

    Floats serialize via shortest round-trip repr (17 significant digits at
    most), so save -> load -> save is byte-stable.
    """
    arch = model.architecture
    payload = {
        "format": "mlp-v1",
        "architecture": {
            "layer_sizes": list(arch.layer_sizes),
            "activation": arch.activation,
            "bias": arch.bias,
            "norm_bound": arch.norm_bound,
            "input_bound": arch.input_bound,
        },
        "weights": [w.tolist() for w in model.weights],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MLPModel:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "mlp-v1":
        raise ModelError(f"{path}: unknown model format {payload.get('format')!r}")
    spec = payload["architecture"]
    arch = MLPArchitecture(
        layer_sizes=tuple(spec["layer_sizes"]),
        activation=spec["activation"],
        bias=spec["bias"],
        norm_bound=spec["norm_bound"],
        input_bound=spec["input_bound"],
    )
    return MLPModel(arch, tuple(np.asarray(w, dtype=float) for w in payload["weights"]))
