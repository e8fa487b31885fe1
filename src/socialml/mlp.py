"""Per-agent classifiers: feedforward networks with softmax heads.

The network computes pre-activations layer by layer, applies the activation
between layers only, and turns the final pre-activations z into approximate
posteriors with a softmax.  A class is an index 0..M-1: output unit j scores
class j, and class 0 is the reference class for every logit.  Training
labels are these indices.  Every model folds its bias in as a constant-1
trailing input slot, so the first layer width counts one slot more than the
raw feature dimension.  Features become a model's float inputs in one place,
``_augment``, and 8-bit pixels by one rule, ``_scale_pixels``, which training
also applies to its byte stack a mini-batch at a time: image views stay one
byte a pixel until a model reads them, in training and evaluation alike.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .base import Record, ValidationError
from .seeds import generators


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

# The fewest rows a block of a forward pass holds.  A pass's last bits depend
# on how many rows it is given, up to 600 rows (numpy 2.4.6 with OpenBLAS
# 0.3.31; the largest such count over 8 input widths from 2 to 785, 8 hidden
# layouts, 1-3 outputs and both activations, at up to 4,096 rows against one
# 8,192-row pass).  Blocks above that floor give every row the bits of one
# pass over all of them: ``output_preactivations`` evaluates many uint8 rows
# in such blocks, and ``predict`` its stream in time blocks of such length.
FORWARD_BLOCK_ROWS = 1024


class MLPArchitecture(Record):
    """Layer widths and constraints of one agent's classifier.

    ``layer_sizes[0]`` is the input-layer width as seen by the first weight
    matrix; it includes the constant-1 bias slot, so raw features have
    ``layer_sizes[0] - 1`` entries.  ``norm_bound`` caps the max-column-sum
    norm of every weight matrix; ``input_bound`` is the known bound on the
    absolute value of any input entry, the bias slot's 1 included.
    """

    layer_sizes: tuple
    activation: str = "tanh"
    norm_bound: float | None = None
    input_bound: float = 1.0

    def __post_init__(self):
        sizes = tuple(self.layer_sizes)
        if len(sizes) < 2 or not all(
            isinstance(s, (int, np.integer)) and s is not True and s >= 1 for s in sizes
        ):
            raise ModelError(f"layer_sizes must be two or more positive integers, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"activation is unknown, got {self.activation!r}")
        if self.norm_bound is not None and self.norm_bound <= 0:
            raise ModelError(f"norm_bound must be positive when set, got {self.norm_bound!r}")
        if self.input_bound < 1:
            raise ModelError(f"input_bound must be at least 1 with bias, got {self.input_bound!r}")
        if sizes[0] < 2:
            raise ModelError(f"layer_sizes[0] {sizes[0]} leaves no room for features and bias")
        object.__setattr__(self, "layer_sizes", tuple(map(int, sizes)))

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def n_features(self) -> int:
        """Raw feature dimension callers provide (bias slot excluded)."""
        return self.layer_sizes[0] - 1

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
            raise ModelError(
                f"epochs and batch_size must be positive, got {self.epochs!r}, {self.batch_size!r}"
            )
        if self.learning_rate < 0:
            raise ModelError(f"learning_rate must be nonnegative, got {self.learning_rate!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ModelError(f"optimizer is unknown, got {self.optimizer!r}")
        if self.init_scale <= 0:
            raise ModelError(f"init_scale must be positive, got {self.init_scale!r}")


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


def _augment(arch: MLPArchitecture, features, out=None) -> np.ndarray:
    """The (N, layer_sizes[0]) float inputs a model reads from its raw feature
    rows, written into ``out`` when it is given: a uint8 array holds 8-bit
    pixel intensities, read as value / 255.0 (the bits of features scaled up
    front), any other array, other integer types included, is read as it is,
    and the bias slot is the trailing 1."""
    h = np.atleast_2d(np.asarray(features))
    if h.shape[1] != arch.n_features:
        raise ModelError(f"feature dim {h.shape[1]}, expected {arch.n_features}")
    if out is None:
        out = np.empty((h.shape[0], arch.layer_sizes[0]))
    if h.dtype == np.uint8:
        _scale_pixels(h, out[:, :-1])
    else:
        out[:, :-1] = h
    out[:, -1] = 1.0
    return out


def _scale_pixels(pixels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """uint8 pixel intensities as floats in [0, 1], value / 255.0, written
    into ``out``: the one rule every model input of a uint8 array follows.
    A byte of 255 becomes exactly 1.0."""
    return np.divide(pixels, 255.0, out=out)


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
    """Final-layer scores z, shape (N, M); accepts a single feature vector too.

    N uint8 rows, 2 * ``FORWARD_BLOCK_ROWS`` or more, are scaled and
    evaluated in ``b = N // FORWARD_BLOCK_ROWS`` blocks cut at ``N * i // b``,
    one reused float buffer holding a block's inputs, so no float copy of
    them all is made; blocks of 1,024 to 2,047 rows keep one pass's bits.
    """
    x = np.asarray(features)
    arch = model.architecture
    weights = [w[None] for w in model.weights]
    act_fn = _ACTIVATIONS[arch.activation][0]
    if not (x.dtype == np.uint8 and x.ndim == 2 and len(x) >= 2 * FORWARD_BLOCK_ROWS):
        z = _stack_forward(weights, _augment(arch, x)[None], act_fn)[-1][0]
        return z[0] if x.ndim == 1 else z
    n_blocks = len(x) // FORWARD_BLOCK_ROWS
    cuts = [len(x) * i // n_blocks for i in range(n_blocks + 1)]
    z = np.empty((len(x), arch.n_outputs))
    floats = np.empty((cuts[-1] - cuts[-2], arch.layer_sizes[0]))  # the longest block
    for lo, hi in zip(cuts, cuts[1:]):
        h = _augment(arch, x[lo:hi], floats[: hi - lo])
        z[lo:hi] = _stack_forward(weights, h[None], act_fn)[-1][0]
    return z


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


def _project_columns(w: np.ndarray, bound: float, out=None) -> np.ndarray:
    # rescale columns whose absolute sum exceeds the bound; any leading axes
    # stack independent matrices
    sums = np.abs(w).sum(axis=-2, keepdims=True)
    factor = np.where(sums > bound, bound / np.maximum(sums, 1e-300), 1.0)
    return np.multiply(w, factor, out=out)


def _stack_loss(weights, h, targets, row_weights, activation, grads=None) -> tuple:
    """Weighted cross-entropy of each stacked model: the (S,) losses and the
    (S, N, C) final scores z they were computed from.

    ``targets`` is the (S, N, C) one-hot mask of the true classes: with one
    true entry a row, masking the log-posteriors reads them row by row in
    order.  ``row_weights`` is (S, N).  Without ``grads`` the pass is forward
    only and drops the hidden activations as soon as z is taken.  With it,
    each layer's gradient is written into ``grads[ell]``, each derivative
    formed in terms of the activation's output, over that output once the
    gradient has read it.
    """
    act_fn, act_deriv, _ = _ACTIVATIONS[activation]
    acts = _stack_forward(weights, h, act_fn)
    z = acts[-1]
    if grads is None:
        del acts
    logp = _log_softmax(z)
    loss = -(row_weights * logp[targets].reshape(row_weights.shape)).sum(axis=1)
    if grads is None:
        return loss, z
    delta = np.exp(logp)
    delta -= targets
    delta *= row_weights[:, :, None]
    for ell in range(len(weights) - 1, -1, -1):
        np.matmul(delta.transpose(0, 2, 1), acts[ell], out=grads[ell])
        if ell > 0:
            delta = np.matmul(delta, weights[ell])
            delta *= act_deriv(acts[ell])
    return loss, z


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


def _risk_group(stack: np.ndarray) -> int:
    """Models per forward pass of the risk over the stacked inputs: the most
    whose float inputs take no more bytes than the stack, and at least one;
    every model of a float stack."""
    return max(1, len(stack) * stack.itemsize // 8)


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
    training set, in groups of ``_risk_group`` models; with ``trace`` off it
    runs after the last epoch alone, as a divergence check, and ``risk`` is
    None.  The logits come from that last pass.

    Model m trains on the (n, d) rows ``features[m]``, labeled with the class
    indices ``labels[m]``, exactly as it would alone: its own
    generator ``generators(seeds)[m]`` draws the initial weights and then one
    permutation per epoch, and its optional ``sample_weights[m]`` multiply the
    per-sample losses (weighted mean per batch).  Every step is one batched
    matmul per layer over the model axis and one optimizer pass over all
    weights, which share one flat buffer (Adam's two moments are the rows of
    a second); with a norm bound set, every update is followed by a
    column-sum projection.  uint8 rows are stacked as bytes and scaled as
    each batch or group reads them, so training holds one float copy of a
    batch or a group, not of every row; a matmul over the model axis
    computes each model alone, so the bits are those of rows scaled up
    front.  The training sets must share their length, and the class indices
    lie below the output width; a non-finite loss or risk raises
    ``TrainingDiverged`` naming the first diverged model's stack index.
    """
    labels, row_weights = _check_stack(features, labels, arch, sample_weights)
    if len(seeds) != len(features):
        raise ModelError(f"seeds: {len(seeds)} seeds for {len(features)} training sets")
    n_models, n = row_weights.shape
    rngs = generators(seeds)
    sizes = arch.layer_sizes
    shapes = [(n_models, sizes[ell], sizes[ell - 1]) for ell in range(1, len(sizes))]
    params = np.empty(sum(math.prod(shape) for shape in shapes))
    adam = hyper.optimizer == "adam"
    # the gradient, and under Adam its square beside it as a second row
    gpair = np.empty((1 + adam, params.size))
    gflat = gpair[0]
    weights, grads = _flat_views(params, shapes), _flat_views(gflat, shapes)
    for m, rng in enumerate(rngs):
        for w, init in zip(weights, _initial_weights(arch, rng, hyper.init_scale)):
            w[m] = init
    # the inputs in training-set order: the one stacked copy of them, which
    # every mini-batch is gathered from.  Float inputs are augmented in
    # place.  uint8 rows stay bytes, a byte of 255 in the bias slot, and are
    # scaled a whole batch or risk group at a time into one reused float
    # buffer as training reads them: 255 / 255.0 is the bias slot's 1.0
    byte_rows = all(np.asarray(feats).dtype == np.uint8 for feats in features)
    if byte_rows:
        stack = np.full((n_models, n, sizes[0]), 255, dtype=np.uint8)
        for m, feats in enumerate(features):
            stack[m, :, :-1] = feats
    else:
        stack = np.empty((n_models, n, sizes[0]))
        for m, feats in enumerate(features):
            _augment(arch, feats, stack[m])
    group = _risk_group(stack)
    if byte_rows:  # as many floats as a mini-batch of every model or a risk group
        floats = np.empty(max(n_models * min(hyper.batch_size, n), group * n) * sizes[0])

    def inputs(block):
        """The float inputs of stacked rows: byte rows scaled into ``floats``."""
        if not byte_rows:
            return block
        return _scale_pixels(block, floats[: block.size].reshape(block.shape))

    # one ``take`` on the rows of all models gathers a mini-batch: a third of
    # the per-step cost of indexing with (model, row) pairs at small batches
    stack_rows = stack.reshape(n_models * n, -1)
    rows = np.arange(n_models)[:, None]
    # the true classes as a one-hot mask, gathered per epoch like the labels
    targets = labels[:, :, None] == np.arange(arch.n_outputs)
    bound, lr = arch.norm_bound, hyper.learning_rate

    if adam:
        beta1, beta2, tiny = 0.9, 0.999, 1e-8
        betas = np.array([[beta1], [beta2]])
        mix = 1 - betas
        corrections = np.empty((2, 1))
        moments = np.zeros((2, params.size))  # paired, as gpair's g and g^2
        gsq = gpair[1]
        step = 0

    risks = np.empty((n_models, hyper.epochs)) if trace else None
    order = np.empty((n_models, n), dtype=np.intp)
    for epoch in range(hyper.epochs):
        # rng.permutation(n) is arange(n) shuffled: the same draws, in place
        order[:] = np.arange(n)
        for o, rng in zip(order, rngs):
            rng.shuffle(o)
        flat = order + rows * n
        targets_epoch = targets[rows, order]
        weights_epoch = _batch_normalized(row_weights[rows, order], hyper.batch_size)
        for start in range(0, n, hyper.batch_size):
            batch = slice(start, start + hyper.batch_size)
            loss, _ = _stack_loss(
                weights,
                inputs(stack_rows.take(flat[:, batch], 0)),
                targets_epoch[:, batch],
                weights_epoch[:, batch],
                arch.activation,
                grads,
            )
            if not np.isfinite(loss).all():
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch start {start} (lr={lr})",
                    int(np.isfinite(loss).argmin()),  # the first diverged model
                )
            # one pass over the flat buffers: the operations and their order
            # are those of the per-layer update, so the bits are too; the
            # step overwrites the gradients, which the next batch recomputes
            if adam:
                # (m, v) = betas (m, v) + (1 - betas) (g, g^2)
                # w -= lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + tiny)
                step += 1
                corrections[0, 0], corrections[1, 0] = 1 - beta1**step, 1 - beta2**step
                np.square(gflat, out=gsq)
                np.multiply(moments, betas, out=moments)
                np.multiply(gpair, mix, out=gpair)
                np.add(moments, gpair, out=moments)
                np.divide(moments, corrections, out=gpair)
                np.sqrt(gsq, out=gsq)
                np.add(gsq, tiny, out=gsq)
                np.multiply(gflat, lr, out=gflat)
                np.divide(gflat, gsq, out=gflat)
            else:
                np.multiply(gflat, lr, out=gflat)
            np.subtract(params, gflat, out=params)
            if bound is not None:
                for w in weights:
                    _project_columns(w, bound, out=w)
        # the last step's weights are read by no later loss, so the risk
        # after the last epoch runs with the trace off too
        if trace or epoch == hyper.epochs - 1:
            parts = [
                _stack_loss(
                    [w[part] for w in weights],
                    inputs(stack[part]),
                    targets[part],
                    row_weights[part],
                    arch.activation,
                )
                for part in (slice(lo, lo + group) for lo in range(0, n_models, group))
            ]
            risk, z = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            del parts
            if not np.isfinite(risk).all():
                raise TrainingDiverged(
                    f"non-finite epoch risk at epoch {epoch}", int(np.isfinite(risk).argmin())
                )
            if trace:
                risks[:, epoch] = risk
                if epoch < hyper.epochs - 1:
                    del z  # only the last pass's scores are returned

    models = [MLPModel(arch, tuple(w[m].copy() for w in weights)) for m in range(n_models)]
    return models, risks, _pairwise_logits(z)


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
            "bias": True,
            "norm_bound": arch.norm_bound,
            "input_bound": arch.input_bound,
        },
        "weights": [w.tolist() for w in model.weights],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


# a saved model's entries and the JSON types each may hold
_SAVED_TYPES = {
    "format": (str,),
    "architecture": (dict,),
    "architecture.layer_sizes": (list,),
    "architecture.activation": (str,),
    "architecture.bias": (bool,),
    "architecture.norm_bound": (int, float, type(None)),
    "architecture.input_bound": (int, float),
    "weights": (list,),
}


def load_model(path) -> MLPModel:
    """The model ``save_model`` wrote to ``path``; a missing, mistyped or
    invalid entry raises ``ModelError`` naming it."""
    with open(path) as fh:
        payload = json.load(fh)
    for name, types in _SAVED_TYPES.items():
        *outer, key = name.split(".")
        block = payload[outer[0]] if outer else payload
        if not isinstance(block, dict) or key not in block:
            raise ModelError(f"{path}: {name} is missing")
        if type(block[key]) not in types:
            raise ModelError(f"{path}: {name} has the wrong type, got {block[key]!r}")
    spec = payload["architecture"]
    if payload["format"] != "mlp-v1":
        raise ModelError(f"{path}: format must be 'mlp-v1', got {payload['format']!r}")
    if not spec["bias"]:  # every model has the bias slot
        raise ModelError(f"{path}: architecture.bias must be true")
    try:
        arch = MLPArchitecture(
            spec["layer_sizes"], spec["activation"], spec["norm_bound"], spec["input_bound"]
        )
    except ModelError as exc:
        raise ModelError(f"{path}: architecture.{exc}") from exc
    for ell, matrix in enumerate(payload["weights"], start=1):
        for entry in _leaves(matrix):
            # np.asarray(..., dtype=float) would read "0.5" and true, and null as NaN
            if not (type(entry) is int or type(entry) is float and math.isfinite(entry)):
                raise ModelError(
                    f"{path}: weights: layer {ell} holds {entry!r}, not a finite number"
                )
    try:  # a ragged matrix, or an integer beyond float range, fails here
        return MLPModel(arch, tuple(payload["weights"]))
    except (ModelError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{path}: weights: {exc}") from exc


def _leaves(value):
    """The entries of nested JSON lists, depth first."""
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value
