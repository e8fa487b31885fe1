"""Per-agent classifiers: feedforward networks with softmax heads.

The network computes pre-activations layer by layer, applies the activation
between layers only, and turns the final pre-activations z into approximate
posteriors with a softmax.  A class is an index 0..M-1: output unit j scores
class j, and class 0 is the reference class for every logit.  Training
labels are these indices.  A bias is folded in as a constant trailing input
feature, so the first layer width counts one slot more than the raw feature
dimension when ``bias`` is set.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .base import Record, ValidationError
from .seeds import generators

EXP_CLAMP = 500.0  # exp argument clamp used by the stable loss helpers


class ModelError(ValidationError):
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


class MLPArchitecture(Record):
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


class TrainingHyperparameters(Record):
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


class MLPModel(Record, hidden=("weights",)):
    architecture: MLPArchitecture
    weights: tuple

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


def _initial_weights(arch: MLPArchitecture, rng: np.random.Generator, scale: float) -> list:
    """A model's initial matrices: uniform in +-scale/sqrt(fan_in) per layer,
    each column-projected onto the norm bound when one is set."""
    sizes = arch.layer_sizes
    weights = []
    for ell in range(1, len(sizes)):
        bound = scale / np.sqrt(sizes[ell - 1])
        w = rng.uniform(-bound, bound, size=(sizes[ell], sizes[ell - 1]))
        weights.append(w)
    if arch.norm_bound is not None:
        weights = [_project_columns(w, arch.norm_bound) for w in weights]
    return weights


def initialize_model(
    arch: MLPArchitecture, rng: np.random.Generator, scale: float = 1.0
) -> MLPModel:
    """Uniform init in +-scale/sqrt(fan_in) per layer."""
    return MLPModel(arch, tuple(_initial_weights(arch, rng, scale)))


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


def reference_logits(model: MLPModel, features) -> np.ndarray:
    """Pairwise logits against the reference class: z_0 - z_gamma, gamma > 0.

    The log-odds of approximate posteriors reduce to score differences
    because the softmax normalizer cancels.  Shape (..., M-1), a view of the
    scores: each difference overwrites z_gamma.
    """
    return _pairwise_logits(output_preactivations(model, features))


def _pairwise_logits(z: np.ndarray) -> np.ndarray:
    # z_0 - z_gamma over the last axis, each difference written over z_gamma
    for gamma in range(1, z.shape[-1]):
        np.subtract(z[..., 0], z[..., gamma], out=z[..., gamma])
    return z[..., 1:]


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^{-|x|})."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(np.clip(-np.abs(x), -EXP_CLAMP, 0.0)))


def logistic_risk(logit_source, features, labels) -> float:
    """Mean log(1 + exp(-y f(h))) over feature rows h with labels y in {-1, +1}.

    ``logit_source`` may be a trained 2-output model, whose output 0 scores
    +1, a callable mapping a feature batch to logit values, or precomputed
    per-sample logits.
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
    elif callable(logit_source):
        values = np.asarray(logit_source(features), dtype=float)
    else:
        values = np.asarray(logit_source, dtype=float)
    if values.shape != y.shape:
        raise ModelError(f"expected {y.size} logit values, got {values.shape}")
    return float(np.mean(softplus(-y * values)))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # The row maximum goes column by column: a reduction over the short class
    # axis runs an inner loop of C entries per row, each np.maximum one loop
    # over all rows.  A maximum is exact in any order, so the bits equal the
    # reduction's for any C, +-inf and NaN included.  The normalizer stays a
    # reduction: numpy sums 8 or more terms pairwise, so a sum column by
    # column would move the last bits of rows with 8 or more classes.
    top = z[..., :1].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j : j + 1], out=top)
    shifted = z - top
    shifted -= np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def cross_entropy_risk(model: MLPModel, features, labels) -> float:
    """Mean negative log approximate posterior of the true class, over
    feature rows and their class indices."""
    (labels,), _ = _check_stack([features], [labels], model.architecture, None)
    logp = _log_softmax(output_preactivations(model, features))
    return float(-np.mean(logp[np.arange(labels.size), labels]))


def _project_columns(w: np.ndarray, bound: float, out=None) -> np.ndarray:
    # rescale columns whose absolute sum exceeds the bound; any leading axes
    # stack independent matrices
    sums = np.abs(w).sum(axis=-2, keepdims=True)
    factor = np.where(sums > bound, bound / np.maximum(sums, 1e-300), 1.0)
    return np.multiply(w, factor, out=out)


def _stack_risk(weights, h, picks, row_weights, activation) -> tuple:
    """Weighted cross-entropy of each stacked model, forward pass only.

    ``picks`` indexes the true-class entries of the flattened (S, N, C)
    log-posteriors; ``row_weights`` is (S, N).  Returns the (S,) risks and
    the (S, N, C) final scores z they were computed from.
    """
    z = _stack_forward(weights, h, _ACTIVATIONS[activation][0])[-1]
    logp = _log_softmax(z)
    return -(row_weights * logp.reshape(-1)[picks]).sum(axis=1), z


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


def _check_stack(features, labels, arch: MLPArchitecture, sample_weights) -> tuple:
    """Validate a stack of training sets: ``features[m]`` holds set m's rows,
    ``labels[m]`` their class indices.  Returns the (S, n) labels and the
    normalized (S, n) sample weights."""
    if len(features) == 0:
        raise ModelError("features: need at least one training set")
    if len(labels) != len(features):
        raise ModelError(f"labels: {len(labels)} label vectors for {len(features)} training sets")
    n = len(labels[0])
    for m, (feats, labs) in enumerate(zip(features, labels)):
        if np.shape(labs) != (n,):
            raise ModelError(f"labels: set {m} has labels of shape {np.shape(labs)}, set 0 has {n}")
        if np.shape(feats) != (n, arch.n_features):
            raise ModelError(f"features: set {m} is {np.shape(feats)}, not {(n, arch.n_features)}")
    if n == 0:
        raise ModelError("empty dataset")
    labels = np.stack(labels)
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= arch.n_outputs:
        raise ModelError(f"labels: class indices must be integers in [0, {arch.n_outputs})")
    if sample_weights is None:
        return labels, np.full((len(features), n), 1.0 / n)
    if len(sample_weights) != len(features):
        raise ModelError(
            f"sample_weights: {len(sample_weights)} weight vectors for {len(features)} sets"
        )
    rows = []
    for sw in sample_weights:
        sw = np.asarray(sw, dtype=float)
        if sw.shape != (n,) or np.any(sw < 0) or sw.sum() <= 0:
            raise ModelError("sample weights must be nonnegative with positive sum")
        rows.append(sw / sw.sum())
    return labels, np.stack(rows)


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
    features,
    labels,
    arch: MLPArchitecture,
    hyper: TrainingHyperparameters,
    seeds,
    sample_weights=None,
    trace=True,
) -> tuple:
    """Mini-batch ERM of S same-shape models in lockstep, one per training set.

    Returns ``(models, risk, logits)``: the S trained models in training-set
    order, the (S, epochs) empirical risk of each model after every epoch,
    and the (S, n, M-1) reference logits z_0 - z_gamma of each model over its
    own training rows, in input order (``reference_logits`` of model m on
    ``features[m]``, bit for bit).  The risk is a forward pass over every
    training set; with ``trace`` off it runs after the last epoch alone, as a
    divergence check, and ``risk`` is None.  The logits come from that last
    pass.

    Model m trains on the (n, d) rows ``features[m]``, labeled with the class
    indices ``labels[m]``, exactly as it would alone: its own
    generator ``generators(seeds)[m]`` draws the initial weights and then one
    permutation per epoch, and its optional ``sample_weights[m]`` multiply the
    per-sample losses (weighted mean per batch).  Every step is one batched
    matmul per layer over the model axis and one optimizer pass over all
    weights, which share one flat buffer; with a norm bound set, every update
    is followed by a column-sum projection.  The training sets must share
    their length, and the class indices lie below the output width; a
    non-finite loss or risk raises ``TrainingDiverged`` naming the first
    diverged model's stack index.
    """
    labels, row_weights = _check_stack(features, labels, arch, sample_weights)
    if len(seeds) != len(features):
        raise ModelError(f"seeds: {len(seeds)} seeds for {len(features)} training sets")
    n_models, n = row_weights.shape
    rngs = generators(seeds)
    sizes = arch.layer_sizes
    shapes = [(n_models, sizes[ell], sizes[ell - 1]) for ell in range(1, len(sizes))]
    params = np.empty(sum(math.prod(shape) for shape in shapes))
    gflat = np.empty_like(params)
    weights, grads = _flat_views(params, shapes), _flat_views(gflat, shapes)
    for m, rng in enumerate(rngs):
        for w, init in zip(weights, _initial_weights(arch, rng, hyper.init_scale)):
            w[m] = init
    # the inputs in training-set order, augmented in place: the one stacked
    # copy of them, which every mini-batch is gathered from
    h = np.empty((n_models, n, sizes[0]))
    for m, feats in enumerate(features):
        h[m, :, : arch.n_features] = feats
    if arch.bias:
        h[:, :, -1] = 1.0
    # one ``take`` on the rows of all models gathers a mini-batch: a third of
    # the per-step cost of indexing h with (model, row) pairs at small batches
    h_rows = h.reshape(n_models * n, -1)
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

    risks = np.empty((n_models, hyper.epochs)) if trace else None
    order = np.empty((n_models, n), dtype=np.intp)
    for epoch in range(hyper.epochs):
        # rng.permutation(n) is arange(n) shuffled: the same draws, in place
        order[:] = np.arange(n)
        for o, rng in zip(order, rngs):
            rng.shuffle(o)
        flat = order + rows * n
        picks_epoch = offsets + labels[rows, order]
        weights_epoch = _batch_normalized(row_weights[rows, order], hyper.batch_size)
        for start in range(0, n, hyper.batch_size):
            batch = slice(start, start + hyper.batch_size)
            loss, _ = _stack_gradients(
                weights,
                h_rows.take(flat[:, batch], 0),
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
        # the last step's weights are read by no later loss, so the risk
        # after the last epoch runs with the trace off too
        if trace or epoch == hyper.epochs - 1:
            risk, z = _stack_risk(weights, h, risk_picks, row_weights, arch.activation)
            if not np.isfinite(risk).all():
                raise TrainingDiverged(
                    f"non-finite epoch risk at epoch {epoch}", _first_nonfinite(risk)
                )
            if trace:
                risks[:, epoch] = risk
                if epoch < hyper.epochs - 1:
                    del z  # only the last pass's scores are returned

    models = [MLPModel(arch, tuple(w[m].copy() for w in weights)) for m in range(n_models)]
    return models, risks, _pairwise_logits(z)


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
    n = labels.shape[1]
    h = _augment(arch, features)[None]
    picks = _pick_offsets(1, n, n, arch.n_outputs) + labels
    weights = [w[None].copy() for w in model.weights]
    _, grads = _stack_gradients(weights, h, picks, uniform, arch.activation)

    def risk() -> float:
        return float(_stack_risk(weights, h, picks, uniform, arch.activation)[0][0])

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


def save_model(model: MLPModel, path) -> None:
    """JSON with the architecture block and row-major weight arrays.

    Floats serialize via shortest round-trip repr (17 significant digits at
    most), so save -> load -> save is byte-stable.  ``json.dumps`` encodes
    the payload in one C-encoder pass; ``json.dump`` would take the pure
    Python encoder for the same bytes.
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
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


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
