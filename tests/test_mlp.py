import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socialml import mlp as mlp_mod
from socialml.mlp import (
    FORWARD_BLOCK_ROWS,
    MLPArchitecture,
    MLPModel,
    ModelError,
    TrainingDiverged,
    TrainingHyperparameters,
    _ACTIVATIONS,
    _augment,
    _batch_normalized,
    _check_stack,
    _flat_views,
    _log_softmax,
    _project_columns,
    _risk_group,
    _scale_pixels,
    _stack_forward,
    _stack_loss,
    initialize_model,
    load_model,
    output_preactivations,
    reference_logits,
    save_model,
    train_stack,
)
from socialml.seeds import generators
from socialml.stats import DebiasedStatistic
from socialml.theory import logit_bound
from helpers import cross_entropy_risk, gradient_check, logistic_risk, softplus
from test_byte_ledger import byte_ledger


def binary_dataset(rng, n=20, dim=2):
    """``(features, labels)``: each label class 0 or 1 at random."""
    feats = rng.normal(size=(n, dim))
    labels = (rng.random(n) >= 0.5).astype(np.intp)
    # force both classes present
    labels[0], labels[1] = 0, 1
    return feats, labels


def plus_minus(labels):
    """Class indices 0 and 1 as the logistic labels +1 and -1."""
    return 1 - 2 * np.asarray(labels)


def zero_model(layer_sizes, **kwargs):
    arch = MLPArchitecture(layer_sizes, **kwargs)
    sizes = arch.layer_sizes
    weights = tuple(
        np.zeros((sizes[ell], sizes[ell - 1])) for ell in range(1, len(sizes))
    )
    return MLPModel(arch, weights)


def reference_log_softmax(z):
    """The plain log-softmax: the row maximum and the normalizer sum taken by
    one reduction each over the class axis."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def pick_offsets(n_models: int, n: int, batch_size: int, n_classes: int) -> np.ndarray:
    """(S, n) offset of row j's first class entry in the flattened (S, b, C)
    log-posteriors of the mini-batch that holds position j; adding the label
    index picks its true class.  The reference trainers select targets this
    way, independently of the kernel's one-hot mask."""
    pos = np.arange(n)
    start = pos - pos % batch_size
    size = np.minimum(batch_size, n - start)
    return (np.arange(n_models)[:, None] * size + (pos - start)) * n_classes


def mask_of(picks, shape) -> np.ndarray:
    """The boolean mask of ``shape`` that is true at the flat offsets ``picks``."""
    mask = np.zeros(math.prod(shape), dtype=bool)
    mask[picks] = True
    return mask.reshape(shape)


def per_layer_train_stack(features, labels, arch, hyper, seeds, sample_weights=None):
    """``train_stack``'s reference: out-of-place backpropagation and an update
    of fresh arrays one layer at a time.  Returns the stacked weights and the
    (S, epochs) risk traces."""
    act_fn = _ACTIVATIONS[arch.activation][0]
    act_deriv = {
        "tanh": lambda y: 1.0 - y**2,
        "relu": lambda y: (y > 0).astype(float),
        "identity": lambda y: 1.0,
    }[arch.activation]
    labels, row_weights = _check_stack(features, labels, arch, sample_weights)
    n_models, n = row_weights.shape
    rngs = generators(seeds)
    inits = [initialize_model(arch, rng, hyper.init_scale).weights for rng in rngs]
    weights = [np.stack(layer) for layer in zip(*inits)]
    h = np.stack([_augment(arch, feats) for feats in features])
    rows = np.arange(n_models)[:, None]
    risk_picks = pick_offsets(n_models, n, n, arch.n_outputs) + labels
    offsets = pick_offsets(n_models, n, hyper.batch_size, arch.n_outputs)
    bound, lr = arch.norm_bound, hyper.learning_rate

    def forward(h, picks, row_weights):
        acts = _stack_forward(weights, h, act_fn)
        logp = reference_log_softmax(acts[-1])
        return acts, logp, -(row_weights * logp.reshape(-1)[picks]).sum(axis=1)

    beta1, beta2, tiny = 0.9, 0.999, 1e-8
    first = [np.zeros_like(w) for w in weights]
    second = [np.zeros_like(w) for w in weights]
    step = 0
    trace = np.empty((n_models, hyper.epochs))
    for epoch in range(hyper.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        h_epoch = h[rows, order]
        picks_epoch = offsets + labels[rows, order]
        weights_epoch = _batch_normalized(row_weights[rows, order], hyper.batch_size)
        for start in range(0, n, hyper.batch_size):
            batch = slice(start, start + hyper.batch_size)
            picks, batch_weights = picks_epoch[:, batch], weights_epoch[:, batch]
            acts, logp, _ = forward(h_epoch[:, batch], picks, batch_weights)
            delta = np.exp(logp)
            delta.reshape(-1)[picks] -= 1.0
            delta *= batch_weights[:, :, None]
            grads = [None] * len(weights)
            for ell in range(len(weights) - 1, -1, -1):
                grads[ell] = np.matmul(delta.transpose(0, 2, 1), acts[ell])
                if ell > 0:
                    delta = np.matmul(delta, weights[ell]) * act_deriv(acts[ell])
            step += 1
            for ell, g in enumerate(grads):
                if hyper.optimizer == "adam":
                    first[ell] = beta1 * first[ell] + (1 - beta1) * g
                    second[ell] = beta2 * second[ell] + (1 - beta2) * g**2
                    m_hat = first[ell] / (1 - beta1**step)
                    v_hat = second[ell] / (1 - beta2**step)
                    weights[ell] -= lr * m_hat / (np.sqrt(v_hat) + tiny)
                else:
                    weights[ell] -= lr * g
                if bound is not None:
                    weights[ell] = _project_columns(weights[ell], bound)
        trace[:, epoch] = forward(h, risk_picks, row_weights)[2]
    return weights, trace


def epoch_copy_train_stack(features, labels, arch, hyper, seeds, sample_weights=None):
    """``train_stack``'s earlier algorithm: the augmented inputs stacked from
    per-dataset copies, and one permuted copy of the whole stack per epoch
    that the mini-batches are sliced from.  Returns the stacked weights and
    the (S, epochs) risk traces."""
    labels, row_weights = _check_stack(features, labels, arch, sample_weights)
    n_models, n = row_weights.shape
    rngs = generators(seeds)
    inits = [initialize_model(arch, rng, hyper.init_scale).weights for rng in rngs]
    weights = [np.stack(layer) for layer in zip(*inits)]
    params = np.concatenate([w.ravel() for w in weights])
    weights = _flat_views(params, [w.shape for w in weights])
    gflat = np.empty_like(params)
    grads = _flat_views(gflat, [w.shape for w in weights])
    h = np.stack([_augment(arch, feats) for feats in features])
    rows = np.arange(n_models)[:, None]
    n_classes = arch.n_outputs
    risk_picks = pick_offsets(n_models, n, n, n_classes) + labels
    risk_targets = mask_of(risk_picks, (n_models, n, n_classes))
    offsets = pick_offsets(n_models, n, hyper.batch_size, n_classes)
    bound, lr = arch.norm_bound, hyper.learning_rate
    beta1, beta2, tiny = 0.9, 0.999, 1e-8
    first, second, scratch = (np.zeros_like(params) for _ in range(3))
    step = 0
    trace = np.empty((n_models, hyper.epochs))
    for epoch in range(hyper.epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        h_epoch = h[rows, order]
        picks_epoch = offsets + labels[rows, order]
        weights_epoch = _batch_normalized(row_weights[rows, order], hyper.batch_size)
        for start in range(0, n, hyper.batch_size):
            batch = slice(start, start + hyper.batch_size)
            h_batch = h_epoch[:, batch]
            _stack_loss(
                weights,
                h_batch,
                mask_of(picks_epoch[:, batch], (*h_batch.shape[:2], n_classes)),
                weights_epoch[:, batch],
                arch.activation,
                grads,
            )
            if hyper.optimizer == "adam":
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
        trace[:, epoch] = _stack_loss(weights, h, risk_targets, row_weights, arch.activation)[0]
    return weights, trace


class TestForward:
    def test_zero_weights_uniform_posteriors(self):
        model = zero_model((3, 8, 4))
        z = output_preactivations(model, [0.3, -0.7])
        np.testing.assert_array_equal(z, np.zeros(4))

    def test_single_layer_analytic(self):
        arch = MLPArchitecture((2, 2))
        model = MLPModel(arch, (np.array([[1.0, 0.0], [0.0, 0.0]]),))
        z = output_preactivations(model, [3.0])
        np.testing.assert_array_equal(z, [3.0, 0.0])
        assert reference_logits(model, [3.0])[..., 0] == pytest.approx(3.0)

    def test_matches_straightforward_reimplementation(self):
        # duplicate-code oracle: plain loops over layers and nodes
        rng = np.random.default_rng(123)
        arch = MLPArchitecture((4, 5, 3), activation="tanh")
        model = initialize_model(arch, rng)
        h = rng.normal(size=3)

        x = np.append(h, 1.0)
        acts = x
        for ell, w in enumerate(model.weights):
            pre = np.array([np.dot(w[m], acts) for m in range(w.shape[0])])
            acts = np.tanh(pre) if ell + 1 < len(model.weights) else pre
        expect_z = acts

        z = output_preactivations(model, h)
        np.testing.assert_allclose(z, expect_z, atol=1e-12)

    def test_batch_shape(self):
        rng = np.random.default_rng(5)
        model = initialize_model(MLPArchitecture((6, 7, 3)), rng)
        assert output_preactivations(model, rng.normal(size=(40, 5))).shape == (40, 3)

    def test_dimension_mismatch(self):
        model = zero_model((3, 2))
        with pytest.raises(ModelError):
            output_preactivations(model, [1.0, 2.0, 3.0])

    @given(
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        n_models=st.sampled_from([1, 3]),
        n_rows=st.sampled_from([1, 2, 7, 40]),
        n_features=st.sampled_from([1, 3, 60]),
        hidden=st.lists(st.integers(1, 12), min_size=0, max_size=2),
        n_outputs=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_place_kernels_equal_out_of_place_chain(
        self, activation, n_models, n_rows, n_features, hidden, n_outputs, seed
    ):
        # the plain chain: fresh arrays for the bias column, every activation
        # and every difference, with the same matmul operands
        act = {"tanh": np.tanh, "relu": lambda a: np.maximum(a, 0.0), "identity": lambda a: a}
        rng = np.random.default_rng(seed)
        sizes = (n_features + 1, *hidden, n_outputs)
        weights = [
            rng.normal(size=(n_models, n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])
        ]
        feats = rng.normal(size=(n_models, n_rows, n_features))

        def chain(feats, weights):
            acts = [np.concatenate([feats, np.ones(feats.shape[:-1] + (1,))], axis=-1)]
            for w in weights[:-1]:
                acts.append(act[activation](np.matmul(acts[-1], w.transpose(0, 2, 1))))
            acts.append(np.matmul(acts[-1], weights[-1].transpose(0, 2, 1)))
            return acts

        want = chain(feats, weights)
        got = _stack_forward(weights, want[0].copy(), _ACTIVATIONS[activation][0])
        assert len(got) == len(want)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

        model = MLPModel(
            MLPArchitecture(sizes, activation=activation), tuple(w[0] for w in weights)
        )
        means = rng.normal(size=n_outputs - 1)
        statistic = DebiasedStatistic(model, means)
        first = [w[:1] for w in weights]
        batch_z = chain(feats[:1], first)[-1][0]
        # one feature vector is a 1-row product, whose bits may differ
        single_z = chain(feats[:1, :1], first)[-1][0, 0]
        for rows, z in ((feats[0], batch_z), (feats[0, 0], single_z)):
            logits = z[..., :1] - z[..., 1:]
            np.testing.assert_array_equal(output_preactivations(model, rows), z)
            np.testing.assert_array_equal(reference_logits(model, rows), logits)
            np.testing.assert_array_equal(statistic(rows), logits - means)

    def test_forward_holds_one_array_per_layer(self):
        # a one-pass forward of 2,047 rows, the most that are not cut into
        # blocks, through a (2, 10, 2) network keeps the augmented input, one
        # hidden activation and the scores, and no second copy of any of them
        rng = np.random.default_rng(1)
        model = initialize_model(MLPArchitecture((2, 10, 2)), rng)
        n = 2 * FORWARD_BLOCK_ROWS - 1
        feats = rng.normal(size=(n, 1))
        output_preactivations(model, feats)  # warm-up outside the trace
        tracemalloc.start()
        try:
            output_preactivations(model, feats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = 8 * n * (2 + 10 + 2)
        assert peak < 1.1 * held, (peak, held)


GAP_ROWS = 4096


def gap_model(sizes, activation):
    """A model of ``sizes`` with wide initial weights, its first
    ``GAP_ROWS``-row input block and that block's reference logits."""
    model = initialize_model(MLPArchitecture(sizes, activation), np.random.default_rng(0), 3.0)
    rows = np.random.default_rng(1).standard_normal((GAP_ROWS, sizes[0] - 1))
    return model, rows, reference_logits(model, rows)


def row_counts_that_differ(model, rows, whole, counts) -> list:
    """The row counts n whose logits differ in any bit from the first n rows
    of ``whole``, the logits of every row in one pass."""
    return [n for n in counts if not np.array_equal(reference_logits(model, rows[:n]), whole[:n])]


class TestRowCountGap:
    """A forward pass's last bits may depend on how many rows it is given,
    but not at ``FORWARD_BLOCK_ROWS`` rows or more: predict's time blocks
    and the row blocks of a uint8 evaluation then give every row the bits of
    one pass over all of them."""

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize(
        "sizes", [(2, 32, 2), (3, 10, 10, 2), (197, 32, 2)], ids=["2-32-2", "3-10-10-2", "197-32-2"]
    )
    def test_blocks_of_the_floor_or_more_keep_the_bits(self, sizes, activation):
        model, rows, whole = gap_model(sizes, activation)
        # a stride of 7, prime to 2, meets every residue modulo 256 of the
        # row count, so every edge case of BLAS's power-of-two row blocking
        counts = [*range(FORWARD_BLOCK_ROWS, GAP_ROWS, 7), GAP_ROWS]
        assert row_counts_that_differ(model, rows, whole, counts) == []

    def test_the_gap_is_named_on_the_ledger_environment(self):
        key = byte_ledger.environment_key()
        ledger = json.loads(byte_ledger.LEDGER.read_text())["key"]
        if key != ledger:
            pytest.skip(f"the gap is measured under {ledger}, this environment is {key}")
        model, rows, whole = gap_model((2, 32, 2), "tanh")
        differ = row_counts_that_differ(model, rows, whole, range(1, FORWARD_BLOCK_ROWS))
        # a lone row takes BLAS's matrix-vector path; up to 600 rows, the
        # count sets the last bits
        assert differ[0] == 1
        assert max(differ) == 600

    def test_a_layer_of_width_one_has_no_floor(self):
        key = byte_ledger.environment_key()
        ledger = json.loads(byte_ledger.LEDGER.read_text())["key"]
        if key != ledger:
            pytest.skip(f"the gap is measured under {ledger}, this environment is {key}")
        # one hidden unit: BLAS's matrix-vector path sets the last bits of a
        # block's last rows by the row count above the floor too
        model, rows, whole = gap_model((9, 1, 2), "tanh")
        counts = range(FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS + 16)
        assert row_counts_that_differ(model, rows, whole, counts) != []


def one_pass(model, rows) -> np.ndarray:
    """The scores of ``rows`` from one ``_stack_forward`` call over all of them."""
    weights = [w[None] for w in model.weights]
    act_fn = _ACTIVATIONS[model.architecture.activation][0]
    return _stack_forward(weights, _augment(model.architecture, rows)[None], act_fn)[-1][0]


class TestPixelBlocks:
    """2 * ``FORWARD_BLOCK_ROWS`` or more rows, uint8 or float, are
    evaluated in near-equal row blocks of 1,024 to 2,047 rows; uint8 rows
    are scaled a block at a time."""

    def blocks(self, model, pixels) -> tuple:
        """The scores of ``pixels`` and the row count of each forward pass."""
        counts = []

        def counting(weights, h, act_fn):
            counts.append(h.shape[1])
            return _stack_forward(weights, h, act_fn)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlp_mod, "_stack_forward", counting)
            return output_preactivations(model, pixels), counts

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_blocks_keep_the_bits_of_one_pass(self, activation):
        # an MNIST-sized evaluation: 10,000 rows of a 14x14 patch
        model, _, _ = gap_model((197, 32, 2), activation)
        pixels = np.random.default_rng(2).integers(0, 256, (10_000, 196), dtype=np.uint8)
        want = one_pass(model, pixels / 255.0)
        got, counts = self.blocks(model, pixels)
        assert counts == [1111] * 8 + [1112]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_the_block_edges(self):
        model, _, _ = gap_model((5, 3, 2), "tanh")
        rng = np.random.default_rng(3)
        for n, want in [(2047, [2047]), (2048, [1024, 1024]), (3071, [1535, 1536])]:
            pixels = rng.integers(0, 256, (n, 4), dtype=np.uint8)
            got, counts = self.blocks(model, pixels)
            assert counts == want
            assert np.array_equal(got, one_pass(model, pixels / 255.0))
            # float rows follow the same rule: the same blocks at any count
            floats = rng.random((n, 4))
            got, counts = self.blocks(model, floats)
            assert counts == want
            assert np.array_equal(got, one_pass(model, floats))

    @pytest.mark.parametrize("sizes", [(9, 1, 2), (9, 4, 1, 2)])
    def test_a_layer_of_width_one_takes_one_pass(self, sizes):
        model, _, _ = gap_model(sizes, "tanh")
        rng = np.random.default_rng(5)
        pixels = rng.integers(0, 256, (3071, 8), dtype=np.uint8)
        for rows in (pixels, pixels / 255.0):
            got, counts = self.blocks(model, rows)
            assert counts == [3071]
            assert np.array_equal(got, one_pass(model, pixels / 255.0))

    def test_blocks_hold_one_block_of_floats(self):
        model, _, _ = gap_model((197, 32, 2), "tanh")
        pixels = np.random.default_rng(4).integers(0, 256, (10_000, 196), dtype=np.uint8)
        output_preactivations(model, pixels[:10])  # one-time allocations
        tracemalloc.start()
        try:
            output_preactivations(model, pixels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scores of every row, and a block's floats: its inputs, hidden
        # activations and scores; one pass held 15.0 MiB of inputs alone.
        # Slack: array headers and the block edges, 2 KiB here (numpy 2.4.6)
        block = 8 * 1112 * (197 + 32 + 2)
        assert peak <= 8 * 10_000 * 2 + block + (8 << 10), peak


class TestFloatBlocks:
    """Float rows are cut into the blocks uint8 rows are, with the bits of
    one pass and the memory of one block."""

    @given(
        n_features=st.integers(1, 785),
        hidden=st.lists(st.integers(1, 40), min_size=1, max_size=2),
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        n_outputs=st.integers(2, 3),
        n=st.sampled_from([2047, 2048, 3071, 10_200]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_blocks_keep_the_bits_of_one_pass(
        self, n_features, hidden, activation, n_outputs, n, seed
    ):
        rng = np.random.default_rng(seed)
        arch = MLPArchitecture((n_features + 1, *hidden, n_outputs), activation)
        model = initialize_model(arch, rng, 3.0)  # wide weights, as gap_model's
        rows = rng.standard_normal((n, n_features))
        got = output_preactivations(model, rows)
        want = one_pass(model, rows)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_blocks_hold_one_block_of_floats(self):
        # a replication of the mc_compare benchmark: 200 streams x 51 steps
        # through a (2, 10, 2) network
        model = initialize_model(MLPArchitecture((2, 10, 2)), np.random.default_rng(5))
        rows = np.random.default_rng(6).standard_normal((10_200, 1))
        output_preactivations(model, rows[:10])  # one-time allocations
        tracemalloc.start()
        try:
            output_preactivations(model, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scores of every row, and a block's floats: its inputs, hidden
        # activations and scores; one pass held 1.1 MB.  Slack: array
        # headers and the block edges, 2.3 KiB here (numpy 2.4.6)
        block = 8 * 1134 * (2 + 10 + 2)
        assert peak <= 8 * 10_200 * 2 + block + (8 << 10), peak


class TestLogit:
    def test_zero_weights(self):
        assert reference_logits(zero_model((3, 2)), [1.0, 2.0])[..., 0] == 0.0
        np.testing.assert_array_equal(
            reference_logits(zero_model((3, 4)), [1.0, 2.0]), np.zeros(3)
        )

    def test_multiclass_score_differences(self):
        arch = MLPArchitecture((3, 3))
        weights = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        model = MLPModel(arch, (weights,))
        logits = reference_logits(model, [1.0, 0.0])  # z = [1, 2, 0]
        np.testing.assert_allclose(logits, [-1.0, 1.0])

    def test_analytic_logit_bound_holds_on_samples(self):
        rng = np.random.default_rng(11)
        arch = MLPArchitecture((4, 6, 2), norm_bound=1.2, input_bound=1.0)
        model = initialize_model(arch, rng)
        bound = logit_bound(arch)
        feats = rng.uniform(-1.0, 1.0, size=(500, 3))
        assert np.abs(reference_logits(model, feats)).max() <= bound
        # bias-loaded: each layer spends its whole norm on the one path from
        # the bias slot, whose entry 1.0 is the largest input at x = 0
        small = MLPArchitecture((2, 2), norm_bound=1.0, input_bound=1.0)
        loaded = MLPModel(small, (np.array([[0.0, 1.0], [0.0, 0.0]]),))
        assert abs(reference_logits(loaded, [0.0])).max() == 1.0 <= logit_bound(small)
        first, second = np.zeros((6, 4)), np.zeros((2, 6))
        first[0, -1] = second[0, 0] = 1.2
        loaded = MLPModel(arch, (first, second))
        assert np.abs(reference_logits(loaded, np.zeros((1, 3)))).max() <= bound


class TestLogisticRisk:
    def test_zero_function_gives_log_two(self):
        rng = np.random.default_rng(0)
        feats, labels = binary_dataset(rng)
        assert logistic_risk(np.zeros(len(labels)), feats, plus_minus(labels)) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_single_sample_analytic(self):
        assert logistic_risk(np.array([1.0]), np.array([[0.5]]), np.array([-1])) == pytest.approx(
            math.log(1 + math.e), abs=1e-12
        )

    def test_saturated_margin_tiny(self):
        rng = np.random.default_rng(0)
        feats, labels = binary_dataset(rng, n=8)
        values = 50.0 * plus_minus(labels)
        assert 0 < logistic_risk(values, feats, plus_minus(labels)) < 1e-20

    def test_empty_dataset_rejected(self):
        rng = np.random.default_rng(0)
        feats, labels = binary_dataset(rng, n=4)
        with pytest.raises(ModelError):
            logistic_risk(np.zeros(3), feats, plus_minus(labels))
        with pytest.raises(ModelError, match="empty"):
            logistic_risk(np.zeros(0), np.empty((0, 2)), np.empty(0))

    def test_labels_outside_plus_minus_one_rejected(self):
        rng = np.random.default_rng(0)
        feats, labels = binary_dataset(rng, n=4)
        with pytest.raises(ModelError, match="labels"):
            logistic_risk(np.zeros(4), feats, labels)

    @given(st.floats(min_value=-700, max_value=700))
    def test_softplus_matches_reference(self, x):
        expect = math.log1p(math.exp(x)) if x < 30 else x + math.log1p(math.exp(-x))
        assert softplus(x) == pytest.approx(expect, rel=1e-12)


class TestCrossEntropyRisk:
    def test_zero_model_log_m(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 7):
            feats = rng.normal(size=(12, 4))
            labels = np.arange(12) % m
            model = zero_model((5, m))
            assert cross_entropy_risk(model, feats, labels) == pytest.approx(
                math.log(m), abs=1e-12
            )

    def test_binary_equals_logistic(self):
        rng = np.random.default_rng(2)
        feats, labels = binary_dataset(rng, n=30, dim=3)
        model = initialize_model(MLPArchitecture((4, 6, 2)), rng)
        ce = cross_entropy_risk(model, feats, labels)
        lr = logistic_risk(model, feats, plus_minus(labels))
        assert ce == pytest.approx(lr, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_binary_equals_logistic_property(self, seed, n, init_scale):
        rng = np.random.default_rng(seed)
        feats, labels = binary_dataset(rng, n=n)
        model = initialize_model(MLPArchitecture((3, 5, 2)), rng, scale=init_scale)
        assert cross_entropy_risk(model, feats, labels) == pytest.approx(
            logistic_risk(model, feats, plus_minus(labels)), abs=1e-12
        )

    def test_perfect_posteriors_zero_risk(self):
        # huge correct scores drive the cross entropy to zero
        arch = MLPArchitecture((2, 2))
        model = MLPModel(arch, (np.array([[60.0, 0.0], [-60.0, 0.0]]),))
        assert cross_entropy_risk(model, np.array([[1.0], [-1.0]]), np.array([0, 1])) < 1e-12


class TestLogSoftmax:
    @given(
        n_classes=st.integers(2, 12),
        shape=st.sampled_from([(1,), (7,), (3, 20), (2, 5, 4)]),
        special_share=st.sampled_from([0.0, 0.1, 0.5]),
        scale=st.sampled_from([1.0, 1e3, 1e300]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_the_plain_reductions(
        self, n_classes, shape, special_share, scale, seed
    ):
        # column maxima are exact, so every bit matches the reduction,
        # signed zeros, +-inf and NaN rows included
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(*shape, n_classes)) * scale
        special = rng.random(z.shape) < special_share
        z[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
        with np.errstate(all="ignore"):
            got, want = _log_softmax(z), reference_log_softmax(z)
        assert got.shape == want.shape
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.uint64), want[finite].view(np.uint64))


class TestTargetMask:
    @given(
        n_classes=st.sampled_from([2, 3, 8, 17]),
        n_models=st.integers(1, 3),
        n_rows=st.integers(1, 6),
        special_share=st.sampled_from([0.0, 0.2, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_mask_gather_equals_flat_gather(
        self, n_classes, n_models, n_rows, special_share, seed
    ):
        # identity weights pass the inputs through as the scores: +-1e308 in
        # one row give -inf log-posteriors, and an infinite or NaN input
        # makes its row's scores, and so its log-posteriors, NaN
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n_models, n_rows, n_classes))
        special = rng.random(h.shape) < special_share
        h[special] = rng.choice([-0.0, 1e308, -1e308, np.inf, -np.inf, np.nan], special.sum())
        labels = rng.integers(0, n_classes, (n_models, n_rows))
        row_weights = np.full((n_models, n_rows), 1.0 / n_rows)
        weights = [np.repeat(np.eye(n_classes)[None], n_models, axis=0)]
        grads = [np.empty_like(weights[0])]
        targets = labels[:, :, None] == np.arange(n_classes)
        picks = pick_offsets(n_models, n_rows, n_rows, n_classes) + labels
        with np.errstate(all="ignore"):
            loss, z = _stack_loss(weights, h, targets, row_weights, "identity", grads)
            logp = _log_softmax(z)
            want_loss = -(row_weights * logp.reshape(-1)[picks]).sum(axis=1)
            delta = np.exp(logp)
            delta.reshape(-1)[picks] -= 1.0
            delta *= row_weights[:, :, None]
            want_grad = np.matmul(delta.transpose(0, 2, 1), h)
        assert np.array_equal(loss.view(np.uint64), want_loss.view(np.uint64))
        assert np.array_equal(grads[0].view(np.uint64), want_grad.view(np.uint64))


class TestTrainErm:
    """One model trained alone: ``train_stack`` on a stack of one."""

    def test_separable_blobs_reach_low_risk(self):
        rng = np.random.default_rng(3)
        x = np.vstack(
            [rng.normal(2.0, 0.5, (100, 2)), rng.normal(-2.0, 0.5, (100, 2))]
        )
        y = np.array([1] * 100 + [-1] * 100)
        hyper = TrainingHyperparameters(30, 10, 0.05)
        arch = MLPArchitecture((3, 16, 2))
        _, risk, _ = train_stack([x], [np.repeat([0, 1], 100)], arch, hyper, [9])
        assert risk[0, -1] < 0.1

        # oracle: plain full-batch logistic regression on the same data
        w = np.zeros(3)
        xa = np.hstack([x, np.ones((200, 1))])
        for _ in range(500):
            margins = y * (xa @ w)
            grad = -(xa * (y / (1 + np.exp(margins)))[:, None]).mean(axis=0)
            w -= 0.5 * grad
        oracle_risk = float(np.mean(np.log1p(np.exp(-y * (xa @ w)))))
        assert oracle_risk < 0.1

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(4)
        feats, labels = binary_dataset(rng, n=16)
        arch = MLPArchitecture((3, 5, 2))
        hyper = TrainingHyperparameters(5, 4, 0.0)
        (model,), risk, _ = train_stack([feats], [labels], arch, hyper, [21])
        init = initialize_model(arch, np.random.default_rng(21))
        for got, want in zip(model.weights, init.weights):
            np.testing.assert_array_equal(got, want)
        assert np.all(risk == risk[0, 0])

    def test_same_seed_bitwise_identical(self):
        rng = np.random.default_rng(6)
        feats, labels = binary_dataset(rng, n=24, dim=3)
        arch = MLPArchitecture((4, 6, 2))
        hyper = TrainingHyperparameters(8, 5, 0.02)
        (a,), risk_a, _ = train_stack([feats], [labels], arch, hyper, [77])
        (b,), risk_b, _ = train_stack([feats], [labels], arch, hyper, [77])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(risk_a, risk_b)

    def test_adam_same_seed_identical(self):
        rng = np.random.default_rng(6)
        feats, labels = binary_dataset(rng, n=24, dim=3)
        arch = MLPArchitecture((4, 6, 2))
        hyper = TrainingHyperparameters(8, 5, 0.01, optimizer="adam")
        (a,), _, _ = train_stack([feats], [labels], arch, hyper, [77])
        (b,), _, _ = train_stack([feats], [labels], arch, hyper, [77])
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_norm_bound_projection_enforced(self):
        rng = np.random.default_rng(8)
        feats, labels = binary_dataset(rng, n=40, dim=2)
        arch = MLPArchitecture((3, 8, 2), norm_bound=0.8)
        hyper = TrainingHyperparameters(10, 5, 0.5)
        (model,), _, _ = train_stack([feats], [labels], arch, hyper, [3])
        for w in model.weights:
            assert np.abs(w).sum(axis=0).max() <= 0.8 + 1e-12

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        feats, labels = binary_dataset(rng, n=10, dim=4)
        with pytest.raises(ModelError):
            train_stack(
                [feats], [labels], MLPArchitecture((3, 2)), TrainingHyperparameters(1, 2, 0.1), [0]
            )

    def test_weighted_training_prioritizes_heavy_samples(self):
        # two contradictory points; all weight on the first decides the fit
        feats = np.array([[1.0], [1.0]])
        labels = np.array([0, 1])
        hyper = TrainingHyperparameters(60, 2, 0.5)
        weights = np.array([0.999, 0.001])
        arch = MLPArchitecture((2, 2))
        (model,), _, _ = train_stack([feats], [labels], arch, hyper, [5], [weights])
        assert reference_logits(model, [1.0])[..., 0] > 0


class TestTrainingGolden:
    """Weights and risk traces of one small run per activation other than
    tanh, which the benchmark workloads never train with.  The values were
    computed with out-of-place activations; the tolerance only admits the
    last-bit rounding of another BLAS or libm build."""

    GOLDEN = {
        ("relu", "gd"): (
            [
                [
                    [-0.44948671116153954, -0.18377862356919558, 0.1347654996844265],
                    [-0.6233135938277826, -0.7357469676636048, 0.4208397497814423],
                    [-0.4836308688979803, -0.4926172093092354, 0.42418252027328307],
                ],
                [
                    [-0.011306073055837236, -0.695211572874727, -0.44942641534441746],
                    [0.3400799682198331, 0.28448683090443716, 0.044540018481791746],
                ],
            ],
            [0.5708090097247598, 0.5145776444629859, 0.4885984736987845, 0.46962427259665196],
        ),
        ("identity", "adam"): (
            [
                [
                    [-2.578686265053621, -3.1160034465459203, 0.32115618710539445],
                    [-1.321167918824387, -2.5032082027090654, -0.0939130090751264],
                    [-0.026852931479962906, -0.6739770184233935, -0.06332698329962394],
                ],
                [
                    [-2.630232244498625, -1.7871164323050956, -1.1035177977805384],
                    [2.9590061396626206, 1.376391690334806, 0.6986314009179122],
                ],
            ],
            [0.12873327628754722, 0.06941461755520864, 0.1394757712473677, 0.13522189660736977],
        ),
    }

    @pytest.mark.parametrize("activation, optimizer", sorted(GOLDEN))
    def test_pinned_weights_and_risk_trace(self, activation, optimizer):
        rng = np.random.default_rng(2024)
        feats = rng.normal(size=(20, 2)) + 0.8 * np.tile([1, -1], 10)[:, None]
        (model,), risk, _ = train_stack(
            [feats],
            [np.tile([0, 1], 10)],
            MLPArchitecture((3, 3, 2), activation=activation),
            TrainingHyperparameters(4, 5, 0.3, optimizer=optimizer),
            [11],
        )
        weights, trace = self.GOLDEN[activation, optimizer]
        for got, want in zip(model.weights, weights):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        np.testing.assert_allclose(risk[0], trace, rtol=1e-10, atol=0)


class TestTrainStack:
    @given(
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        optimizer=st.sampled_from(["gd", "adam"]),
        norm_bound=st.sampled_from([None, 0.9]),
        weighted=st.booleans(),
        batch_size=st.integers(2, 8),
        n_models=st.sampled_from([1, 3]),
        n_classes=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_model_equals_its_serial_run(
        self, activation, optimizer, norm_bound, weighted, batch_size, n_models, n_classes, seed
    ):
        # a stack of many equals a stack of one per model, bit for bit
        # 23 rows: no batch size in 2..8 divides it, so every epoch ends short
        rng = np.random.default_rng(seed)
        n = 23
        features, labels = zip(
            *[(rng.normal(size=(n, 2)), rng.integers(0, n_classes, n)) for _ in range(n_models)]
        )
        weights = (
            [rng.random(n) * (rng.random(n) < 0.7) + 1e-3 for _ in range(n_models)]
            if weighted
            else None
        )
        arch = MLPArchitecture((3, 5, 4, n_classes), activation=activation, norm_bound=norm_bound)
        hyper = TrainingHyperparameters(3, batch_size, 0.05, optimizer=optimizer)
        seeds = rng.integers(0, 2**31, n_models).tolist()
        models, risk, _ = train_stack(features, labels, arch, hyper, seeds, weights)
        assert risk.shape == (n_models, hyper.epochs)
        for m, model in enumerate(models):
            own = None if weights is None else [weights[m]]
            (alone,), alone_risk, _ = train_stack(
                [features[m]], [labels[m]], arch, hyper, [seeds[m]], own
            )
            for got, want in zip(model.weights, alone.weights):
                assert np.array_equal(got, want)
            assert np.array_equal(risk[m], alone_risk[0])

    @given(
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        optimizer=st.sampled_from(["gd", "adam"]),
        norm_bound=st.sampled_from([None, 0.9]),
        weighted=st.booleans(),
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
        batch_size=st.integers(2, 8),
        n_models=st.sampled_from([1, 3]),
        n_classes=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_per_layer_update_loop(
        self, activation, optimizer, norm_bound, weighted, hidden, batch_size, n_models,
        n_classes, seed,
    ):
        # 23 rows: no batch size in 2..8 divides it, so every epoch ends short
        rng = np.random.default_rng(seed)
        n = 23
        features, labels = zip(
            *[(rng.normal(size=(n, 2)), rng.integers(0, n_classes, n)) for _ in range(n_models)]
        )
        weights = (
            [rng.random(n) * (rng.random(n) < 0.7) + 1e-3 for _ in range(n_models)]
            if weighted
            else None
        )
        arch = MLPArchitecture(
            (3, *hidden, n_classes), activation=activation, norm_bound=norm_bound
        )
        hyper = TrainingHyperparameters(3, batch_size, 0.05, optimizer=optimizer)
        seeds = rng.integers(0, 2**31, n_models).tolist()
        models, risk, _ = train_stack(features, labels, arch, hyper, seeds, weights)
        want_weights, want_trace = per_layer_train_stack(
            features, labels, arch, hyper, seeds, weights
        )
        for m, model in enumerate(models):
            for got, want in zip(model.weights, want_weights):
                assert np.array_equal(got, want[m])
        assert np.array_equal(risk, want_trace)

    @given(
        n_models=st.integers(1, 5),
        n=st.integers(2, 30),
        batch_size=st.integers(1, 9),
        weighted=st.booleans(),
        optimizer=st.sampled_from(["gd", "adam"]),
        norm_bound=st.sampled_from([None, 0.9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_epoch_copy_algorithm(
        self, n_models, n, batch_size, weighted, optimizer, norm_bound, seed
    ):
        # batches gathered from the one stacked input equal slices of a
        # permuted copy of it, partial last batches included
        rng = np.random.default_rng(seed)
        features, labels = zip(
            *[(rng.normal(size=(n, 3)), rng.integers(0, 2, n)) for _ in range(n_models)]
        )
        weights = (
            [rng.random(n) * (rng.random(n) < 0.7) + 1e-3 for _ in range(n_models)]
            if weighted
            else None
        )
        arch = MLPArchitecture((4, 5, 2), norm_bound=norm_bound)
        hyper = TrainingHyperparameters(3, batch_size, 0.05, optimizer=optimizer)
        seeds = rng.integers(0, 2**31, n_models).tolist()
        models, risk, _ = train_stack(features, labels, arch, hyper, seeds, weights)
        want_weights, want_trace = epoch_copy_train_stack(
            features, labels, arch, hyper, seeds, weights
        )
        for m, model in enumerate(models):
            for got, want in zip(model.weights, want_weights):
                assert np.array_equal(got, want[m])
        assert np.array_equal(risk, want_trace)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    def test_training_holds_one_stacked_input_copy(self, optimizer):
        # an image-sized stack: 12 models of 200 rows of 196 pixels plus bias
        rng = np.random.default_rng(40)
        features = [rng.random((200, 196)) for _ in range(12)]
        labels = [np.repeat([0, 1], 100)] * 12
        arch = MLPArchitecture((197, 8, 2))
        hyper = TrainingHyperparameters(2, 20, 0.05, optimizer=optimizer)
        tracemalloc.start()
        try:
            train_stack(features, labels, arch, hyper, list(range(12)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stacked = 8 * 12 * 200 * 197
        # the weights and gradients, and Adam's two moments and the square of
        # the gradients
        params = 8 * 12 * (8 * 197 + 2 * 8) * (5 if optimizer == "adam" else 2)
        assert peak < 1.3 * (stacked + params), (peak, stacked + params)

    @pytest.mark.parametrize("optimizer", ["gd", "adam"])
    @pytest.mark.parametrize("n_models", [1, 3])
    def test_last_risk_is_the_returned_models_risk(self, n_models, optimizer):
        # the trace's last epoch scores the very models returned beside it
        rng = np.random.default_rng(30 + n_models)
        features, labels = zip(*[binary_dataset(rng, n=17, dim=2) for _ in range(n_models)])
        hyper = TrainingHyperparameters(3, 4, 0.05, optimizer=optimizer)
        models, risk, _ = train_stack(
            features, labels, MLPArchitecture((3, 5, 2)), hyper, list(range(n_models))
        )
        assert risk.shape == (n_models, 3)
        for m, model in enumerate(models):
            risk_m = cross_entropy_risk(model, features[m], labels[m])
            assert abs(risk[m, -1] - risk_m) <= 1e-12

    def test_first_diverged_model_named(self):
        # only model 1 sees features huge enough to overflow its logits
        rng = np.random.default_rng(0)
        labels = (rng.random(20) >= 0.5).astype(np.intp)
        features = [rng.normal(size=(20, 2)) * (1e300 if m == 1 else 1.0) for m in range(3)]
        arch = MLPArchitecture((3, 4, 2), activation="identity")
        hyper = TrainingHyperparameters(2, 5, 1e10)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as info:
            train_stack(features, [labels] * 3, arch, hyper, [1, 2, 3])
        assert info.value.model == 1
        assert str(info.value) == (
            "non-finite loss at epoch 0, batch start 5 (lr=10000000000.0)"
        )

    @given(
        n_models=st.integers(1, 4),
        optimizer=st.sampled_from(["gd", "adam"]),
        norm_bound=st.sampled_from([None, 0.9]),
        weighted=st.booleans(),
        batch_size=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_off_trains_the_same_models(
        self, n_models, optimizer, norm_bound, weighted, batch_size, seed
    ):
        # the risk pass only reads the weights, so skipping it moves no bit
        rng = np.random.default_rng(seed)
        n = 19
        features = [rng.normal(size=(n, 2)) for _ in range(n_models)]
        labels = [rng.integers(0, 2, n) for _ in range(n_models)]
        weights = [rng.random(n) + 1e-3 for _ in range(n_models)] if weighted else None
        arch = MLPArchitecture((3, 5, 2), norm_bound=norm_bound)
        hyper = TrainingHyperparameters(3, batch_size, 0.05, optimizer=optimizer)
        seeds = list(range(n_models))
        traced, risk, logits = train_stack(features, labels, arch, hyper, seeds, weights)
        untraced, none, untraced_logits = train_stack(
            features, labels, arch, hyper, seeds, weights, trace=False
        )
        assert risk.shape == (n_models, 3) and none is None
        for got, want in zip(untraced, traced):
            assert all(np.array_equal(a, b) for a, b in zip(got.weights, want.weights))
        assert np.array_equal(untraced_logits, logits)

    @given(
        n_models=st.integers(1, 6),
        n_features=st.sampled_from([1, 2, 5, 60, 196]),
        hidden=st.lists(st.integers(1, 8), min_size=0, max_size=2),
        n_classes=st.integers(2, 4),
        activation=st.sampled_from(["tanh", "relu", "identity"]),
        optimizer=st.sampled_from(["gd", "adam"]),
        epochs=st.integers(1, 3),
        trace=st.booleans(),
        n=st.sampled_from([1, 2, 13]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_logits_equal_each_models_reference_logits(
        self, n_models, n_features, hidden, n_classes, activation, optimizer, epochs, trace,
        n, seed,
    ):
        # the last risk pass scores each returned model on its own training
        # rows: the bits of a forward pass of that model alone
        rng = np.random.default_rng(seed)
        features = [rng.normal(size=(n, n_features)) for _ in range(n_models)]
        labels = [rng.integers(0, n_classes, n) for _ in range(n_models)]
        arch = MLPArchitecture((n_features + 1, *hidden, n_classes), activation=activation)
        hyper = TrainingHyperparameters(epochs, 4, 0.05, optimizer=optimizer)
        models, _, logits = train_stack(
            features, labels, arch, hyper, list(range(n_models)), trace=trace
        )
        assert logits.shape == (n_models, n, n_classes - 1)
        for m, model in enumerate(models):
            want = reference_logits(model, features[m])
            assert np.array_equal(logits[m].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "scale, lr, model",
        [
            # model 1's only step leaves its weights non-finite
            (1e300, 1e10, 1),
            # model 0's only step leaves finite weights of order 1e298 whose
            # scores overflow on its own training rows
            (1e10, 1e300, 0),
        ],
    )
    def test_divergence_in_the_last_step_raises_with_the_trace_off(self, scale, lr, model):
        # one epoch of one batch: no later loss reads the weights the only
        # step leaves, so the risk after the last epoch must catch them
        rng = np.random.default_rng(2)
        labels = (rng.random(10) >= 0.5).astype(np.intp)
        features = [rng.normal(size=(10, 2)) * (scale if m == 1 else 1.0) for m in range(3)]
        arch = MLPArchitecture((3, 4, 2), activation="identity")
        hyper = TrainingHyperparameters(1, 10, lr)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as traced:
                train_stack(features, [labels] * 3, arch, hyper, [1, 2, 3])
            with pytest.raises(TrainingDiverged) as untraced:
                train_stack(features, [labels] * 3, arch, hyper, [1, 2, 3], trace=False)
        assert traced.value.model == untraced.value.model == model
        assert str(traced.value) == str(untraced.value) == "non-finite epoch risk at epoch 0"

    def test_unstackable_inputs_name_the_field(self):
        rng = np.random.default_rng(1)
        arch = MLPArchitecture((3, 2))
        hyper = TrainingHyperparameters(1, 4, 0.1)
        feats, labels = binary_dataset(rng, n=10)
        other, other_labels = binary_dataset(rng, n=12)
        with pytest.raises(ModelError, match="labels"):
            train_stack([feats, other], [labels, other_labels], arch, hyper, [0, 1])
        with pytest.raises(ModelError, match="features"):
            train_stack([feats, other], [labels, labels], arch, hyper, [0, 1])
        with pytest.raises(ModelError, match="labels"):
            train_stack([feats, feats], [labels], arch, hyper, [0, 1])
        # class indices below the output width, as integers
        for bad in (labels + 1, labels - 1, labels.astype(float)):
            with pytest.raises(ModelError, match="labels"):
                train_stack([feats, feats], [labels, bad], arch, hyper, [0, 1])
        with pytest.raises(ModelError, match="seeds"):
            train_stack([feats, feats], [labels, labels], arch, hyper, [0])
        with pytest.raises(ModelError, match="sample_weights"):
            train_stack([feats, feats], [labels, labels], arch, hyper, [0, 1], [np.ones(10)])


class TestPixelInputs:
    """The input rule: a uint8 feature array holds 8-bit intensities and is
    read as value / 255.0; every other array is read as it is."""

    @given(
        n_models=st.integers(1, 4),
        optimizer=st.sampled_from(["gd", "adam"]),
        trace=st.booleans(),
        n_features=st.sampled_from([1, 4, 9]),
        n_classes=st.sampled_from([2, 3]),
        n=st.sampled_from([1, 7, 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_uint8_features_train_and_score_as_their_scaled_floats(
        self, n_models, optimizer, trace, n_features, n_classes, n, seed
    ):
        rng = np.random.default_rng(seed)
        pixels = [rng.integers(0, 256, (n, n_features), dtype=np.uint8) for _ in range(n_models)]
        scaled = [p / 255.0 for p in pixels]
        labels = [rng.integers(0, n_classes, n) for _ in range(n_models)]
        arch = MLPArchitecture((n_features + 1, 5, n_classes))
        hyper = TrainingHyperparameters(3, 4, 0.05, optimizer=optimizer)
        seeds = rng.integers(0, 2**31, n_models).tolist()
        models, risk, logits = train_stack(pixels, labels, arch, hyper, seeds, trace=trace)
        want_models, want_risk, want_logits = train_stack(
            scaled, labels, arch, hyper, seeds, trace=trace
        )
        if trace:
            assert np.array_equal(risk.view(np.uint64), want_risk.view(np.uint64))
        else:
            assert risk is want_risk is None
        assert np.array_equal(logits.view(np.uint64), want_logits.view(np.uint64))
        for m, (model, want) in enumerate(zip(models, want_models)):
            for got_w, want_w in zip(model.weights, want.weights):
                assert np.array_equal(got_w.view(np.uint64), want_w.view(np.uint64))
            statistic = DebiasedStatistic(model, rng.normal(size=n_classes - 1))
            # a batch of rows and one feature vector
            for rows, floats in ((pixels[m], scaled[m]), (pixels[m][0], scaled[m][0])):
                got = reference_logits(model, rows)
                assert np.array_equal(got, reference_logits(model, floats))
                assert np.array_equal(statistic(rows), statistic(floats))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8, np.float32])
    def test_other_types_are_not_scaled(self, dtype):
        rng = np.random.default_rng(3)
        feats = rng.integers(0, 120, (12, 3)).astype(dtype)
        floats = feats.astype(float)
        labels = [np.arange(12) % 2]
        arch = MLPArchitecture((4, 5, 2))
        hyper = TrainingHyperparameters(2, 4, 0.05)
        (model,), risk, logits = train_stack([feats], labels, arch, hyper, [1])
        (want,), want_risk, want_logits = train_stack([floats], labels, arch, hyper, [1])
        assert np.array_equal(risk, want_risk) and np.array_equal(logits, want_logits)
        for got_w, want_w in zip(model.weights, want.weights):
            assert np.array_equal(got_w, want_w)
        assert np.array_equal(reference_logits(model, feats), reference_logits(model, floats))
        assert not np.array_equal(
            reference_logits(model, feats), reference_logits(model, floats / 255.0)
        )

    @pytest.mark.parametrize("group", ["one", "all", "own"])
    @given(
        n_models=st.sampled_from([1, 3, 9, 17]),
        activation=st.sampled_from(["tanh", "relu"]),
        optimizer=st.sampled_from(["gd", "adam"]),
        norm_bound=st.sampled_from([None, 0.9]),
        weighted=st.booleans(),
        batch_size=st.integers(2, 8),
        n_features=st.sampled_from([1, 5, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_byte_stack_trains_as_its_scaled_floats(
        self, group, n_models, activation, optimizer, norm_bound, weighted, batch_size,
        n_features, seed,
    ):
        # the byte stack's batches and risk groups against a float stack of
        # the same rows scaled up front, at a risk group of one model, of
        # all of them and of the stack's own size (17 // 8 = 2 leaves a
        # group of one last); 23 rows, so every epoch ends short
        rng = np.random.default_rng(seed)
        n = 23
        pixels = [rng.integers(0, 256, (n, n_features), dtype=np.uint8) for _ in range(n_models)]
        labels = [rng.integers(0, 3, n) for _ in range(n_models)]
        weights = [rng.random(n) + 1e-3 for _ in range(n_models)] if weighted else None
        arch = MLPArchitecture(
            (n_features + 1, 5, 3), activation=activation, norm_bound=norm_bound
        )
        hyper = TrainingHyperparameters(3, batch_size, 0.05, optimizer=optimizer)
        seeds = rng.integers(0, 2**31, n_models).tolist()
        scaled = [p / 255.0 for p in pixels]
        want_models, want_risk, want_logits = train_stack(
            scaled, labels, arch, hyper, seeds, weights
        )
        sizes = {"one": lambda stack: 1, "all": len, "own": mlp_mod._risk_group}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mlp_mod, "_risk_group", sizes[group])
            models, risk, logits = train_stack(pixels, labels, arch, hyper, seeds, weights)
        assert np.array_equal(risk.view(np.uint64), want_risk.view(np.uint64))
        assert np.array_equal(logits.view(np.uint64), want_logits.view(np.uint64))
        for model, want in zip(models, want_models):
            for got_w, want_w in zip(model.weights, want.weights):
                assert np.array_equal(got_w.view(np.uint64), want_w.view(np.uint64))

    def test_risk_groups_hold_no_more_float_bytes_than_the_stack(self):
        assert [_risk_group(np.zeros((s, 3, 2), np.uint8)) for s in (1, 7, 8, 17)] == [1, 1, 1, 2]
        assert _risk_group(np.zeros((17, 3, 2))) == 17

    def test_every_byte_scales_to_its_quotient_bits(self):
        # all 256 bytes, into a contiguous output and into the strided
        # out[:, :-1] that _augment passes
        pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
        want = (pixels / 255.0).view(np.uint64)
        contiguous = np.empty((16, 16))
        assert _scale_pixels(pixels, contiguous) is contiguous
        assert np.array_equal(contiguous.view(np.uint64), want)
        strided = np.full((16, 17), -1.0)
        _scale_pixels(pixels, strided[:, :-1])
        assert np.array_equal(strided[:, :-1].copy().view(np.uint64), want)
        assert np.array_equal(strided[:, -1], np.full(16, -1.0))
        assert contiguous[-1, -1] == 1.0

    def test_uint8_features_get_a_scaled_copy_and_the_bias_slot(self):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, (10, 3), dtype=np.uint8)
        inputs = _augment(MLPArchitecture((4, 4, 2)), pixels)
        assert inputs.dtype == np.float64
        assert np.array_equal(inputs[:, :3], pixels / 255.0)
        assert np.array_equal(inputs[:, 3], np.ones(10))


class TestGradientCheck:
    def test_small_tanh_model(self):
        rng = np.random.default_rng(10)
        feats, labels = binary_dataset(rng, n=10, dim=1)
        model = initialize_model(MLPArchitecture((2, 4, 2)), rng)
        assert gradient_check(model, feats, labels, eps=1e-5) < 1e-6

    def test_zero_weights_output_layer_matches_analytic_softmax_gradient(self):
        # with zero weights the posterior is uniform; for a single linear
        # layer the risk gradient is mean((p - onehot) outer h_aug)
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(6, 2))
        labels = np.array([0, 1, 2, 0, 1, 2])
        model = zero_model((3, 3))

        h_aug = np.hstack([feats, np.ones((6, 1))])
        onehot = np.eye(3)[labels]
        analytic = (np.full((6, 3), 1 / 3) - onehot).T @ h_aug / 6

        eps = 1e-6
        w = model.weights[0].copy()
        fd = np.empty_like(w)
        for pos in np.ndindex(w.shape):
            for sign in (1, -1):
                w2 = w.copy()
                w2[pos] += sign * eps
                m2 = MLPModel(model.architecture, (w2,))
                risk = cross_entropy_risk(m2, feats, labels)
                if sign == 1:
                    up = risk
                else:
                    fd[pos] = (up - risk) / (2 * eps)
        np.testing.assert_allclose(fd, analytic, atol=1e-8)
        assert gradient_check(model, feats, labels, eps=1e-5) < 1e-6

    def test_empty_dataset_rejected(self):
        model = zero_model((2, 2))
        with pytest.raises(ModelError):
            gradient_check(
                model,
                np.empty((0, 1)),
                np.empty(0, dtype=int),
                1e-5,
            )


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        model = initialize_model(MLPArchitecture((3, 5, 2), norm_bound=2.0), rng)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for wa, wb in zip(model.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)
        assert loaded.architecture == model.architecture

        path2 = tmp_path / "model2.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("norm_bound", [2.0, None])
    def test_bytes_equal_json_dump_reference(self, tmp_path, norm_bound):
        rng = np.random.default_rng(15)
        arch = MLPArchitecture((4, 6, 3, 2), input_bound=1.5, norm_bound=norm_bound)
        model = initialize_model(arch, rng)
        if norm_bound is None:
            # no bound to keep, so the weights span the float range
            weights = [w * 10.0 ** rng.uniform(-300, 300, w.shape) for w in model.weights]
            weights[0].flat[:3] = (-0.0, 5e-324, 1.7976931348623157e308)
            model = MLPModel(arch, tuple(weights))
        path = tmp_path / "model.json"
        save_model(model, path)
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
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", "other"),
            ("architecture", None),
            ("architecture.layer_sizes", "3,4,2"),
            ("architecture.layer_sizes", [3, 4.0, 2]),
            ("architecture.layer_sizes", [3]),
            ("architecture.activation", ["tanh"]),
            ("architecture.activation", "sigmoid"),
            ("architecture.bias", False),
            ("architecture.bias", None),
            ("architecture.norm_bound", "2.0"),
            ("architecture.input_bound", True),
            ("architecture.input_bound", 0.5),
            ("weights", None),
            ("weights", {"0": []}),
            ("weights", [[[0.0, 1.0], [0.0]]]),
            ("weights", [[["a"] * 3] * 4, [[0.0] * 4] * 2]),
            ("weights", [[[0.0] * 4] * 3, [[0.0] * 4] * 2]),
            # an entry that is no finite JSON number, in either layer
            ("weights", [[[0.0] * 3] * 3 + [[0.0, "0.5", 0.0]], [[0.0] * 4] * 2]),
            ("weights", [[[0.0] * 3] * 4, [[0.0] * 4, [0.0, 0.0, 0.0, None]]]),
            ("weights", [[[0.0] * 3] * 4, [[True] + [0.0] * 3, [0.0] * 4]]),
            ("weights", [[[False] * 3] * 4, [[0.0] * 4] * 2]),
            ("weights", [[[0.0, float("nan"), 0.0]] + [[0.0] * 3] * 3, [[0.0] * 4] * 2]),
            ("weights", [[[0.0] * 3] * 4, [[0.0] * 4, [0.0, 0.0, float("inf"), 0.0]]]),
            ("weights", [[[0.0] * 3] * 4, [[-float("inf")] + [0.0] * 3, [0.0] * 4]]),
            ("weights", [[[0.0] * 3] * 4, [[10**400] + [0.0] * 3, [0.0] * 4]]),
        ],
    )
    def test_bad_entry_rejected_naming_it(self, tmp_path, field, value):
        # each entry missing (None) or mistyped raises ModelError naming it
        path = tmp_path / "model.json"
        save_model(initialize_model(MLPArchitecture((3, 4, 2)), np.random.default_rng(16)), path)
        payload = json.loads(path.read_text())
        outer, _, entry = field.rpartition(".")
        block = payload[outer] if outer else payload
        if value is None:
            del block[entry]
        else:
            block[entry] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError) as caught:
            load_model(path)
        assert re.match(rf"{re.escape(str(path))}: {re.escape(field)}[ :]", str(caught.value)), (
            caught.value
        )

    @pytest.mark.parametrize("layer", [1, 2])
    @pytest.mark.parametrize("entry", ["0.5", None, True, float("nan")])
    def test_a_weight_that_is_no_finite_number_names_its_layer(self, tmp_path, layer, entry):
        path = tmp_path / "model.json"
        save_model(initialize_model(MLPArchitecture((3, 4, 2)), np.random.default_rng(16)), path)
        payload = json.loads(path.read_text())
        payload["weights"][layer - 1][1][2] = entry
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelError, match=f": weights: layer {layer} holds {entry!r}"):
            load_model(path)


class TestArchitectureValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ModelError):
            MLPArchitecture((3,))
        with pytest.raises(ModelError):
            MLPArchitecture((3, 0))
        # a width is an integer: not a float, a string or a boolean
        for sizes in ((3, 2.0), ("3", 2), (3, True)):
            with pytest.raises(ModelError, match="layer_sizes"):
                MLPArchitecture(sizes)
        widths = MLPArchitecture((np.int64(3), 2)).layer_sizes
        assert widths == (3, 2) and type(widths[0]) is int
        with pytest.raises(ModelError):
            MLPArchitecture((3, 2), activation="sigmoid")
        with pytest.raises(ModelError):
            MLPArchitecture((3, 2), activation=["tanh"])
        with pytest.raises(ModelError):
            MLPArchitecture((3, 2), norm_bound=0.0)

    def test_input_bound_covers_the_bias_slot(self):
        # the bias slot is an input entry of 1.0, which input_bound bounds
        with pytest.raises(ModelError, match="input_bound"):
            MLPArchitecture((2, 2), norm_bound=1.0, input_bound=0.01)

    def test_norm_bound_validated_on_model(self):
        arch = MLPArchitecture((2, 2), norm_bound=0.5)
        with pytest.raises(ModelError):
            MLPModel(arch, (np.array([[1.0, 0.0], [0.0, 0.0]]),))

    def test_hyperparameters_validated(self):
        with pytest.raises(ModelError):
            TrainingHyperparameters(0, 1, 0.1)
        with pytest.raises(ModelError):
            TrainingHyperparameters(1, 1, -0.1)
        with pytest.raises(ModelError):
            TrainingHyperparameters(1, 1, 0.1, optimizer="sgd+momentum")
