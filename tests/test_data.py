import json
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from socialml import data as data_mod
from socialml import mlp as mlp_mod
from socialml.cli import main
from socialml.config import load_config, validate_config
from socialml.data import (
    DataError,
    GaussianClassModel,
    GaussianSceneSpec,
    ImageSource,
    PatchLayout,
    file_sha256,
    prediction_streams,
    read_idx_images,
    read_idx_labels,
    read_label_pixel_csv,
    split_patches,
    training_scene,
    verify_manifest,
)
from socialml.mlp import MLPArchitecture, initialize_model, reference_logits
from socialml.social import RegimeSchedule, periodic_schedule
from helpers import (
    CONFIGS,
    gaussian_training_set,
    mean_shift_gaussian_spec,
    reassemble_patches,
    write_idx,
)
from test_images_end_to_end import image_config


class TestGaussianModels:
    def test_zero_covariance_rejected(self):
        with pytest.raises(DataError, match="positive definite"):
            GaussianClassModel([0.0], [[0.0]])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            GaussianClassModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_informative_agent_covariance_trace(self):
        spec = load_config(CONFIGS / "gaussian_demo.json").scene
        draws = spec.models[1][1].sample(np.random.default_rng(0), 100_000)
        trace = np.trace(np.cov(draws.T))
        assert trace == pytest.approx(3.0, rel=0.02)

    def test_uninformative_agents_identical_across_classes(self):
        spec = load_config(CONFIGS / "gaussian_demo.json").scene
        for agent in (0, 2, 3):
            plus = spec.models[agent][0].sample(np.random.default_rng(1), 50_000)
            minus = spec.models[agent][1].sample(np.random.default_rng(2), 50_000)
            # same distribution: means and covariance traces agree within MC error
            se = np.sqrt(2.0 / 50_000)
            assert np.all(np.abs(plus.mean(axis=0) - minus.mean(axis=0)) < 5 * se)
            assert np.trace(np.cov(plus.T)) == pytest.approx(
                np.trace(np.cov(minus.T)), abs=10 * se
            )

    def test_moments_converge_at_root_n_rate(self):
        model = GaussianClassModel([2.0, -1.0], [[1.0, 0.3], [0.3, 2.0]])
        rng = np.random.default_rng(3)
        draws = model.sample(rng, 100_000)
        se_mean = np.sqrt(np.diag(model.cov) / 100_000)
        assert np.all(np.abs(draws.mean(axis=0) - model.mean) < 5 * se_mean)
        sample_cov = np.cov(draws.T)
        assert np.all(np.abs(sample_cov - model.cov) < 0.05)

    def test_log_density_matches_direct_formula(self):
        model = GaussianClassModel([1.0, 0.0], [[2.0, 0.4], [0.4, 1.0]])
        h = np.array([[0.5, -0.3], [2.0, 1.0]])
        diff = h - model.mean
        inv = np.linalg.inv(model.cov)
        expect = -0.5 * (
            np.einsum("ni,ij,nj->n", diff, inv, diff)
            + np.log(np.linalg.det(model.cov))
            + 2 * np.log(2 * np.pi)
        )
        np.testing.assert_allclose(model.log_density(h), expect, atol=1e-12)

    def test_missing_class_rejected(self):
        base = GaussianClassModel([0.0], [[1.0]])
        with pytest.raises(DataError, match="one model per class"):
            GaussianSceneSpec(((base, base), (base,)))

    def test_seed_determinism(self):
        spec = mean_shift_gaussian_spec(2)
        a = spec.models[0][0].sample(np.random.default_rng(9), 10)
        b = spec.models[0][0].sample(np.random.default_rng(9), 10)
        np.testing.assert_array_equal(a, b)


class TestPatchLayout:
    def test_three_by_three_on_28(self):
        layout = PatchLayout(28, 28, 3, 3)
        shapes = [layout.patch_shape(k) for k in range(9)]
        assert shapes[0] == (9, 9)
        assert shapes[8] == (10, 10)  # last row/column absorbs the remainder
        assert sum(layout.view_dim(k) for k in range(9)) == 28 * 28

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        layout = PatchLayout(28, 28, 3, 3)
        views = split_patches(images, layout)
        # the views are the raw uint8 patches, which the models read / 255
        assert all(view.dtype == np.uint8 for view in views)
        rebuilt = reassemble_patches(views, layout)
        assert rebuilt.dtype == np.uint8
        np.testing.assert_array_equal(rebuilt, images)
        scaled = reassemble_patches([view / 255.0 for view in views], layout)
        np.testing.assert_array_equal(scaled, images / 255.0)

    def test_identity_layout(self):
        layout = PatchLayout(4, 4, 1, 1)
        image = np.arange(16.0).reshape(4, 4)
        views = split_patches(image, layout)
        assert len(views) == 1
        np.testing.assert_array_equal(views[0], image.ravel())

    def test_grid_finer_than_image_rejected(self):
        with pytest.raises(DataError):
            PatchLayout(2, 2, 3, 3)

    def test_scaling_only_for_integers(self):
        layout = PatchLayout(2, 2, 1, 1)
        floats = np.array([[0.5, 0.25], [1.0, 0.0]])
        np.testing.assert_array_equal(split_patches(floats, layout)[0], floats.ravel())

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_covers_exactly(self, height, width, rows, cols, seed):
        if rows > height or cols > width:
            with pytest.raises(DataError):
                PatchLayout(height, width, rows, cols)
            return
        layout = PatchLayout(height, width, rows, cols)
        image = np.random.default_rng(seed).random((height, width))
        views = split_patches(image, layout)
        rebuilt = reassemble_patches(views, layout)
        np.testing.assert_array_equal(rebuilt, image)


class TestPredictionStream:
    def test_single_segment_constant_state(self):
        spec = mean_shift_gaussian_spec(2)
        schedule = RegimeSchedule(((0, 1),))
        states = schedule.states(25)
        assert set(states.tolist()) == {1}
        views = prediction_streams(spec, states, 1, np.random.default_rng(0))
        # class 1 of the spec centers on -1
        assert views[0][0].mean() < 0
        assert views[0][0].shape == (25, 1)

    def test_periodic_square_wave(self):
        spec = mean_shift_gaussian_spec(1)
        sched = periodic_schedule(1000, [0, 1])
        states = sched.states(4000)
        assert np.all(states[:1000] == 0)
        assert np.all(states[1000:2000] == 1)
        assert np.all(states[2000:3000] == 0)
        assert np.all(states[3000:] == 1)

    def test_seed_determinism(self):
        spec = load_config(CONFIGS / "gaussian_demo.json").scene
        sched = periodic_schedule(10, [0, 1])
        a = prediction_streams(spec, sched.states(30), 1, np.random.default_rng(5))
        b = prediction_streams(spec, sched.states(30), 1, np.random.default_rng(5))
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va[0], vb[0])

    def test_image_source_views(self):
        rng = np.random.default_rng(10)
        pools = [rng.integers(0, 256, size=(7, 6, 6), dtype=np.uint8) for _ in range(2)]
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1])
        source = image_source(pools, layout)
        states = sched.states(10)
        views = prediction_streams(source, states, 1, np.random.default_rng(2))
        assert len(views) == 4
        assert views[0][0].shape == (10, 9)
        assert all(view.dtype == np.uint8 for view in views)
        # each step's view is the raw top-left patch of an image of the class
        # in force
        for view, state in zip(views[0][0], states.tolist()):
            patches = pools[state][:, :3, :3].reshape(len(pools[state]), -1)
            assert (patches == view).all(axis=1).any()

    def test_image_stream_scales_only_picked_images(self, monkeypatch):
        scaled = []
        original = mlp_mod._augment

        def counting(arch, features, out=None):
            if np.asarray(features).dtype == np.uint8:
                scaled.append(np.asarray(features).size)
            return original(arch, features, out)

        monkeypatch.setattr(mlp_mod, "_augment", counting)
        rng = np.random.default_rng(11)
        pools = [rng.integers(0, 256, size=(300, 6, 6), dtype=np.uint8) for _ in range(2)]
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1])
        source = image_source(pools, layout)
        views = prediction_streams(source, sched.states(10), 1, np.random.default_rng(2))
        # drawing scales nothing; each agent's model input fill converts each
        # picked pixel of its patch once
        assert scaled == []
        models = [
            initialize_model(MLPArchitecture((10, 4, 2)), np.random.default_rng(k))
            for k in range(4)
        ]
        logits = [reference_logits(model, view[0]) for model, view in zip(models, views)]
        assert sum(scaled) == 10 * 6 * 6
        # the same draws from images scaled up front give the same logits
        scaled_up_front = ImageSource(source.images / 255.0, source.rows, layout)
        again = prediction_streams(scaled_up_front, sched.states(10), 1, np.random.default_rng(2))
        for model, got, view in zip(models, logits, again):
            assert view.dtype == np.float64
            np.testing.assert_array_equal(got, reference_logits(model, view[0]))

    def test_missing_class_rejected(self):
        schedule = RegimeSchedule(((0, 1),))
        for rows, message in [
            ((np.arange(3),), "schedule state 1 is not a class index"),
            ((np.arange(3), np.arange(0)), "class 1 has no images"),
        ]:
            images = np.zeros((3, 4, 4), dtype=np.uint8)
            source = ImageSource(images, rows, PatchLayout(4, 4, 2, 2))
            with pytest.raises(DataError, match=message):
                prediction_streams(source, schedule.states(5), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("state", [-1, -2, 2])
    def test_state_outside_the_classes_rejected(self, state):
        # a directly built schedule may hold any integer; a negative one
        # would draw a class from the end of the list
        schedule = RegimeSchedule(((0, 0), (3, state)))
        spec = mean_shift_gaussian_spec(1)
        with pytest.raises(DataError, match=f"schedule state {state} is not a class index"):
            prediction_streams(spec, schedule.states(6), 1, np.random.default_rng(0))
        source = image_source([np.zeros((3, 4, 4), dtype=np.uint8)] * 2, PatchLayout(4, 4, 2, 2))
        with pytest.raises(DataError, match=f"schedule state {state} is not a class index"):
            prediction_streams(source, schedule.states(6), 1, np.random.default_rng(0))


def image_source(pools, layout, seed=0):
    """One image array per class as the ``ImageSource`` of
    ``prediction_streams``: the classes' images shuffled together by ``seed``,
    each class's row indices in that array, and ``layout``."""
    stacked = np.concatenate(pools)
    # stacked row i lands at row order[i]
    order = np.random.default_rng(seed).permutation(len(stacked))
    images = np.empty_like(stacked)
    images[order] = stacked
    ends = np.cumsum([len(pool) for pool in pools])
    rows = tuple(order[end - len(pool) : end] for pool, end in zip(pools, ends))
    return ImageSource(images, rows, layout)


def step_by_step_stream(source, schedule, length, n_streams, seed, layout=None):
    """Reference draw: stream after stream and step after step, one generator
    call per step for all the agents' standard normals, or for its image."""
    states = schedule.states(length)
    rng = np.random.default_rng(seed)
    if isinstance(source, GaussianSceneSpec):
        dims = [source.dimension(k) for k in range(source.n_agents)]
        views = [np.empty((n_streams, length, d)) for d in dims]
        for s in range(n_streams):
            for i, j in enumerate(states.tolist()):
                z = np.split(rng.standard_normal(sum(dims)), np.cumsum(dims)[:-1])
                for view, zk, per_agent in zip(views, z, source.models):
                    view[s, i] = per_agent[j].transform(zk[None])[0]
        return views
    images = np.empty((n_streams, length, layout.height, layout.width), np.uint8)
    for s in range(n_streams):
        for i, j in enumerate(states.tolist()):
            images[s, i] = source[j][rng.integers(0, len(source[j]))]
    flat = split_patches(images.reshape(-1, layout.height, layout.width), layout)
    return [v.reshape(n_streams, length, -1) for v in flat]


def assert_blocks_continue_the_draw(source, schedule, length, seed, cut):
    """One stream drawn over steps [0, cut) and then [cut, length), from one
    generator, has the bits of one draw over [0, length); a block holds one
    step at least."""
    if length < 2:
        return
    cut = min(max(cut, 1), length - 1)
    whole = prediction_streams(source, schedule.states(length), 1, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    head = prediction_streams(source, schedule.states(cut), 1, rng)
    tail = prediction_streams(source, schedule.states(length, cut), 1, rng)
    for k, view in enumerate(whole):
        assert np.array_equal(np.concatenate([head[k], tail[k]], axis=1), view)


def assert_groups_continue_the_draw(source, schedule, length, n_streams, seed, cut):
    """A batch drawn as streams [0, cut) and then [cut, n_streams), from one
    generator, has the bits of one draw of the batch; a group holds one
    stream at least."""
    if n_streams < 2:
        return
    cut = min(max(cut, 1), n_streams - 1)
    states = schedule.states(length)
    whole = prediction_streams(source, states, n_streams, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    head = prediction_streams(source, states, cut, rng)
    tail = prediction_streams(source, states, n_streams - cut, rng)
    for k, view in enumerate(whole):
        assert np.array_equal(np.concatenate([head[k], tail[k]]), view)


class TestPredictionStreams:
    """A batch is one draw, stream after stream: it begins with any smaller
    batch, its first stream's first steps do not depend on its length, two
    groups of its streams drawn one after the other are the one draw, and
    one stream drawn in two time blocks is the one draw."""

    @given(
        dims=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4),
        n_classes=st.sampled_from([2, 3]),
        length=st.integers(1, 25),
        starts=st.lists(st.integers(1, 24), max_size=3),
        n_streams=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        cut=st.integers(1, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_gaussian_batch_begins_with_smaller_batches(
        self, dims, n_classes, length, starts, n_streams, seed, cut
    ):
        rng = np.random.default_rng(seed)
        models = []
        for d in dims:
            per_class = []
            for _ in range(n_classes):
                a = rng.normal(size=(d, d))
                per_class.append(GaussianClassModel(rng.normal(size=d), a @ a.T + d * np.eye(d)))
            models.append(per_class)
        spec = GaussianSceneSpec(tuple(models))
        bounds = sorted({0, *starts})
        schedule = RegimeSchedule(tuple((s, int(rng.integers(n_classes))) for s in bounds))
        batch = prediction_streams(
            spec, schedule.states(length), n_streams, np.random.default_rng(seed)
        )
        reference = step_by_step_stream(spec, schedule, length, n_streams, seed)
        for k, d in enumerate(dims):
            assert batch[k].shape == (n_streams, length, d)
            # a lone row's product may round its last bit differently
            np.testing.assert_allclose(batch[k], reference[k], rtol=1e-13, atol=1e-13)
        for fewer in range(1, n_streams + 1):
            for shorter in {1, (length + 1) // 2, length}:
                head = prediction_streams(
                    spec, schedule.states(shorter), fewer, np.random.default_rng(seed)
                )
                for k in range(len(dims)):
                    assert np.array_equal(head[k][0], batch[k][0, :shorter])
                    if shorter == length:
                        assert np.array_equal(head[k], batch[k][:fewer])
        assert_blocks_continue_the_draw(spec, schedule, length, seed, cut)
        assert_groups_continue_the_draw(spec, schedule, length, n_streams, seed, cut)

    @given(
        grid=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2)]),
        length=st.integers(1, 12),
        period=st.integers(1, 6),
        n_streams=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        cut=st.integers(1, 11),
    )
    @settings(max_examples=30, deadline=None)
    def test_image_batch_begins_with_smaller_batches(
        self, grid, length, period, n_streams, seed, cut
    ):
        rng = np.random.default_rng(seed)
        pools = [rng.integers(0, 256, size=(n, 7, 8), dtype=np.uint8) for n in (9, 5, 12)]
        layout = PatchLayout(7, 8, *grid)
        schedule = periodic_schedule(period, [2, 0, 1])
        source = image_source(pools, layout, seed)
        batch = prediction_streams(
            source, schedule.states(length), n_streams, np.random.default_rng(seed)
        )
        reference = step_by_step_stream(pools, schedule, length, n_streams, seed, layout)
        shorter = (length + 1) // 2
        head = prediction_streams(source, schedule.states(shorter), 1, np.random.default_rng(seed))
        for k in range(layout.n_agents):
            assert batch[k].shape == (n_streams, length, layout.view_dim(k))
            assert batch[k].dtype == np.uint8
            assert np.array_equal(batch[k], reference[k])
            assert np.array_equal(head[k][0], batch[k][0, :shorter])
        assert_blocks_continue_the_draw(source, schedule, length, seed, cut)
        assert_groups_continue_the_draw(source, schedule, length, n_streams, seed, cut)


class TestIdxFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        labels = np.array([0, 1, 1, 0], dtype=np.uint8)
        img_path, lab_path = write_idx(tmp_path, images, labels)
        np.testing.assert_array_equal(read_idx_images(img_path), images)
        np.testing.assert_array_equal(read_idx_labels(lab_path), labels)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000999, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataError, match="magic"):
            read_idx_images(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(DataError, match="truncated"):
            read_idx_images(path)

    @given(
        data=st.data(),
        n=st.integers(1, 60),
        side=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        dtype=st.sampled_from([np.uint8, np.int16, np.int64, np.uint64]),
        window=st.sampled_from([1, 10, 100, data_mod.IDX_WINDOW_BYTES]),
        gap=st.sampled_from([0, 7, 50, data_mod.IDX_GAP_BYTES]),
    )
    @example(data=None, n=40, side=(2, 3), dtype=np.uint8, window=30, gap=6)
    @settings(max_examples=60, deadline=None)
    def test_reads_equal_the_mapped_rows(self, data, n, side, dtype, window, gap):
        """Index arrays of 1-3 dimensions, duplicates and runs of adjacent
        rows included, read the bits that a fancy index of the mapped body
        and of the whole file read give, whatever the spans and windows."""
        if data is None:
            # runs of adjacent rows, duplicates, and gaps of 1 and 2 rows
            index = np.array([[3, 4, 5, 5, 7], [10, 30, 31, 3, 39]], dtype=dtype)
        else:
            shape = hnp.array_shapes(min_dims=1, max_dims=3, max_side=6)
            index = data.draw(hnp.arrays(dtype, shape, elements=st.integers(0, n - 1)))
        images = np.random.default_rng(n).integers(0, 256, (n, *side), dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            data_mod, IDX_WINDOW_BYTES=window, IDX_GAP_BYTES=gap
        ):
            path, _ = write_idx(tmp, images, np.zeros(n))
            reader = read_idx_images(path)
            got = reader[index]
            mapped = np.memmap(path, np.uint8, mode="r", offset=16, shape=(n, *side))
            expect = np.array(mapped[index])
            del mapped
            assert got.dtype == np.uint8 and got.shape == expect.shape
            assert np.array_equal(got, expect)
            assert np.array_equal(got, np.asarray(reader)[index])

    def test_an_index_outside_the_file_is_refused(self, tmp_path):
        img_path, _ = write_idx(tmp_path, np.zeros((3, 2, 2), np.uint8), np.zeros(3, np.uint8))
        reader = read_idx_images(img_path)
        assert reader[np.array([], np.intp)].shape == (0, 2, 2)
        for index in ([0, 3], [-1], [0.0]):
            with pytest.raises(IndexError):
                reader[np.array(index)]

    def test_a_body_cut_after_validation_names_the_file(self, tmp_path):
        images = np.arange(10 * 4, dtype=np.uint8).reshape(10, 2, 2)
        img_path, _ = write_idx(tmp_path, images, np.zeros(10, np.uint8))
        reader = read_idx_images(img_path)
        # the file loses its last 5 images and a byte after validation
        img_path.write_bytes(img_path.read_bytes()[: 16 + 5 * 4 - 1])
        assert np.array_equal(reader[np.array([0, 3])], images[[0, 3]])
        for index in ([4], [2, 7], [9, 9]):
            with pytest.raises(DataError, match=re.escape(f"{img_path}: truncated IDX image body")):
                reader[np.array(index)]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_draw_leaves_no_descriptor_open(self, tmp_path):
        labels = np.arange(40) % 2
        images = np.random.default_rng(5).integers(0, 256, (40, 2, 3), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "idx")
        scene = pooled_config(tmp_path, (2, 3), [0, 1]).scene
        before = os.listdir("/proc/self/fd")
        training_scene(scene, 5, np.random.default_rng(1))
        states = RegimeSchedule(((0, 0), (3, 1))).states(6)
        prediction_streams(scene, states, 2, np.random.default_rng(1))
        (tmp_path / "images.idx").write_bytes(b"")
        with pytest.raises(DataError, match="truncated"):
            training_scene(scene, 5, np.random.default_rng(1))
        assert len(os.listdir("/proc/self/fd")) == len(before)

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "data.csv"
        rows = ["1," + ",".join(["128"] * 4), "0," + ",".join(["255"] * 4)]
        path.write_text("\n".join(rows) + "\n")
        images, labels = read_label_pixel_csv(path, 2, 2)
        assert images.shape == (2, 2, 2)
        np.testing.assert_array_equal(labels, [1, 0])
        assert images.dtype == np.uint8
        assert images[0, 0, 0] == 128

    def test_csv_and_idx_give_the_same_views(self, tmp_path):
        # the same pixels in either format reach the agents as the same uint8
        # views, and the models' inputs scale them identically
        rng = np.random.default_rng(12)
        images = rng.integers(0, 256, size=(6, 4, 5), dtype=np.uint8)
        images[0, 0, 0], images[1, 0, 0] = 0, 255
        labels = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
        img_path, _ = write_idx(tmp_path, images, labels)
        path = tmp_path / "data.csv"
        path.write_text(
            "".join(
                f"{label}," + ",".join(str(p) for p in image.ravel()) + "\n"
                for label, image in zip(labels, images)
            )
        )
        from_csv, csv_labels = read_label_pixel_csv(path, 4, 5)
        np.testing.assert_array_equal(csv_labels, labels)
        layout = PatchLayout(4, 5, 2, 2)
        csv_views = split_patches(from_csv, layout)
        idx_views = split_patches(read_idx_images(img_path), layout)
        def pixels(view):
            # a model's inputs from the view, the bias slot left out
            return mlp_mod._augment(MLPArchitecture((view.shape[1] + 1, 2)), view)[:, :-1]

        for got, want in zip(csv_views, idx_views):
            assert got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want)
            assert np.array_equal(pixels(got), pixels(want))
        assert max(int(v.max()) for v in csv_views) == 255
        assert max(float(pixels(v).max()) for v in csv_views) == 1.0

    @pytest.mark.parametrize("pixel", ["0.5", "256", "-1", "nan", "inf", "1e300", "255.5"])
    def test_csv_pixel_outside_0_255_rejected(self, tmp_path, pixel):
        path = tmp_path / "data.csv"
        path.write_text("1," + ",".join(["128"] * 3 + [pixel]) + "\n")
        with pytest.raises(DataError, match="data.csv: pixel columns"):
            read_label_pixel_csv(path, 2, 2)

    def write_csv(self, path, n_rows, seed=13):
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(n_rows, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, size=n_rows)
        path.write_text(
            "".join(f"{l}," + ",".join(map(str, row)) + "\n" for l, row in zip(labels, images))
        )
        return images.reshape(-1, 2, 2), labels

    def test_csv_longer_than_a_block_matches_one_parse(self, tmp_path):
        path = tmp_path / "data.csv"
        images, labels = self.write_csv(path, 2 * data_mod.IMAGE_BLOCK_ROWS + 7)
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
        got_images, got_labels = read_label_pixel_csv(path, 2, 2)
        assert got_images.dtype == np.uint8 and got_labels.dtype == rows[:, 0].astype(int).dtype
        np.testing.assert_array_equal(got_images, rows[:, 1:].reshape(-1, 2, 2))
        np.testing.assert_array_equal(got_labels, rows[:, 0])
        np.testing.assert_array_equal(got_images, images)
        np.testing.assert_array_equal(got_labels, labels)

    @pytest.mark.parametrize("keep", [(3, 7), (7,), (11,)])
    def test_csv_keeps_the_listed_labels_in_file_order(self, tmp_path, keep):
        path = tmp_path / "data.csv"
        images, labels = self.write_csv(path, 2 * data_mod.IMAGE_BLOCK_ROWS + 7)
        got_images, got_labels = read_label_pixel_csv(path, 2, 2, keep=keep)
        kept = np.isin(labels, keep)
        np.testing.assert_array_equal(got_labels, labels[kept])
        np.testing.assert_array_equal(got_images, images[kept])
        assert got_images.shape == (kept.sum(), 2, 2) and got_images.dtype == np.uint8

    def test_csv_dropped_rows_are_still_checked(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1," + ",".join(["128"] * 4) + "\n" + "2," + ",".join(["300"] * 4) + "\n")
        with pytest.raises(DataError, match="data.csv: pixel columns"):
            read_label_pixel_csv(path, 2, 2, keep=(1,))

    def test_csv_comment_block_skipped(self, tmp_path, monkeypatch):
        # a block holding only comment and blank lines adds no rows
        monkeypatch.setattr(data_mod, "IMAGE_BLOCK_ROWS", 4)
        path = tmp_path / "data.csv"
        path.write_text("1,0,0,0,0\n# a\n\n# b\n# c\n\n# d\n# e\n2,255,1,2,3\n")
        images, labels = read_label_pixel_csv(path, 2, 2)
        np.testing.assert_array_equal(labels, [1, 2])
        np.testing.assert_array_equal(images[1].ravel(), [255, 1, 2, 3])

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# no rows\n")
        with pytest.raises(DataError, match="data.csv: no data rows"):
            read_label_pixel_csv(path, 2, 2)

    @pytest.mark.parametrize("pixel", ["0.5", "256", "-1", "nan", "inf", "1e300", "255.5"])
    def test_csv_bad_pixel_in_a_later_block_rejected(self, tmp_path, pixel):
        path = tmp_path / "data.csv"
        self.write_csv(path, data_mod.IMAGE_BLOCK_ROWS + 3)
        with open(path, "a") as fh:
            fh.write("1," + ",".join(["128"] * 3 + [pixel]) + "\n")
        with pytest.raises(DataError, match="data.csv: pixel columns"):
            read_label_pixel_csv(path, 2, 2)

    def test_csv_width_change_in_a_later_block_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        self.write_csv(path, data_mod.IMAGE_BLOCK_ROWS)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(DataError, match="data.csv: 3 columns"):
            read_label_pixel_csv(path, 2, 2)

    def test_csv_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(DataError, match="columns"):
            read_label_pixel_csv(path, 2, 2)

    def test_csv_fractional_label_rejected(self, tmp_path):
        # a label of 1.5 must not be truncated to class 1
        path = tmp_path / "data.csv"
        path.write_text("1.5," + ",".join(["128"] * 4) + "\n")
        with pytest.raises(DataError, match="label column"):
            read_label_pixel_csv(path, 2, 2)


def write_image_files(directory, images, labels, fmt):
    """``images`` and ``labels`` as an IDX pair or a label-pixel CSV, plus the
    dataset manifest naming them."""
    if fmt == "idx":
        write_idx(directory, images, labels)
        files = {"images": "images.idx", "labels": "labels.idx"}
    else:
        (directory / "data.csv").write_text(
            "".join(
                f"{label}," + ",".join(map(str, image.ravel())) + "\n"
                for label, image in zip(labels.tolist(), images)
            )
        )
        files = {"data": "data.csv"}
    manifest = {
        "format": fmt,
        "files": {
            name: {"path": path, "sha256": file_sha256(directory / path)}
            for name, path in files.items()
        },
    }
    (directory / "dataset.json").write_text(json.dumps(manifest))


def pooled_config(directory, shape, label_map):
    """An image config over ``directory``'s dataset, one agent reading the
    whole image, with class labels 100, 101, ... mapped to ``label_map``; a
    class may hold one image, as a training scene of one row a class draws."""
    classes = [100 + c for c in range(len(label_map))]
    cfg = image_config("dataset.json", classes=classes, graph={"ring": 1}, train_per_class=1)
    cfg["data"].update(
        height=shape[0],
        width=shape[1],
        layout=[1, 1],
        label_map={str(c): raw for c, raw in zip(classes, label_map)},
    )
    cfg["schedule"] = {"segments": [[0, classes[0]]]}
    del cfg["montecarlo"]
    return validate_config(cfg, str(directory))


class TestClassPools:
    """Each class's rows of the one image array are its label's rows."""

    @given(
        data=st.data(),
        n=st.integers(2, 40),
        n_values=st.integers(2, 6),
        block=st.integers(1, 9),
        fmt=st.sampled_from(["idx", "csv"]),
    )
    @example(data=None, n=9, n_values=3, block=4, fmt="idx")
    @example(data=None, n=9, n_values=3, block=4, fmt="csv")
    @settings(max_examples=40, deadline=None)
    def test_pools_equal_the_label_masks(self, data, n, n_values, block, fmt):
        rng = np.random.default_rng(n * 101 + n_values * 7 + block)
        if data is None:
            # three one-image classes and unused rows; 9 rows, blocks of 4
            labels = np.array([5, 0, 5, 1, 5, 5, 2, 5, 5])
            label_map = [2, 0, 1]
        else:
            values = st.integers(0, n_values - 1)
            labels = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
            present = sorted(set(labels.tolist()))
            if len(present) < 2:
                labels[0], labels[-1] = 0, 1
                present = sorted(set(labels.tolist()))
            # classes use any subset of the present labels, in any order
            used = data.draw(st.integers(2, len(present)))
            label_map = data.draw(st.permutations(present))[:used]
        images = rng.integers(0, 256, size=(labels.size, 2, 3), dtype=np.uint8)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            data_mod, "IMAGE_BLOCK_ROWS", block
        ):
            write_image_files(Path(tmp), images, labels, fmt)
            cfg = pooled_config(Path(tmp), (2, 3), label_map)
            pooled, rows = cfg.scene.images, cfg.scene.rows
            # one index array per class, in class order, each in file order
            assert len(rows) == len(cfg.classes)
            assert pooled.dtype == np.uint8
            for class_rows, raw in zip(rows, label_map):
                assert np.all(np.diff(class_rows) > 0)
                assert np.array_equal(pooled[class_rows], images[labels == raw])
            if fmt == "idx":
                # the file's reader: every row, none read before a draw
                assert pooled.path == str(Path(tmp) / "images.idx")
                assert np.array_equal(pooled, images)
            else:
                # the parsed file: only the rows of labels some class uses
                assert np.array_equal(pooled, images[np.isin(labels, label_map)])
            del pooled, cfg

    @pytest.mark.parametrize("fmt", ["idx", "csv"])
    def test_pooled_images_are_read_only(self, tmp_path, fmt):
        labels = np.array([0, 1, 0, 1])
        images = np.arange(4 * 6, dtype=np.uint8).reshape(4, 2, 3)
        write_image_files(tmp_path, images, labels, fmt)
        scene = pooled_config(tmp_path, (2, 3), [0, 1]).scene
        pooled, rows = scene.images, scene.rows
        if fmt == "idx":
            # the reader of the file: it reads rows and has no assignment
            assert pooled.path == str(tmp_path / "images.idx")
            with pytest.raises(TypeError, match="item assignment"):
                pooled[rows[0][0]] = 0
            with pytest.raises(AttributeError, match="frozen"):
                pooled.path = str(tmp_path / "other.idx")
        else:
            with pytest.raises(ValueError, match="read-only"):
                pooled[rows[0][0]] = 0
            with pytest.raises(ValueError, match="read-only"):
                pooled[:] += 1
        assert np.array_equal(pooled[np.concatenate(rows)], images[[0, 2, 1, 3]])
        assert np.array_equal(pooled, images)

    def test_idx_loading_copies_no_body(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 4, 5000)
        images = rng.integers(0, 256, size=(5000, 28, 28), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "idx")
        tracemalloc.start()
        try:
            scene = pooled_config(tmp_path, (28, 28), [3, 1]).scene
            pooled, rows = scene.images, scene.rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the labels, one mask and the row indices: no image is held
        assert peak < 0.05 * images.nbytes, (peak, images.nbytes)
        tracemalloc.start()
        try:
            picked = pooled[rows[0]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(picked, images[labels == 3])
        # a draw holds the images it picks, the scratch window of the file and
        # the picks of one window on their way to their places (136 KB here)
        extra = peak - picked.nbytes - data_mod.IDX_WINDOW_BYTES
        assert extra < data_mod.IDX_WINDOW_BYTES, (extra, images.nbytes)

    def test_csv_reading_holds_the_kept_rows_once(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 4, 5000)
        images = rng.integers(0, 256, size=(5000, 28, 28), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "csv")
        tracemalloc.start()
        try:
            scene = pooled_config(tmp_path, (28, 28), [3, 1]).scene
            pooled, rows = scene.images, scene.rows
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = np.isin(labels, [1, 3])
        assert pooled.nbytes == kept.sum() * 28 * 28
        assert np.array_equal(pooled[rows[1]], images[labels == 1])
        # reading every row, then a whole-file copy, then the class-sorted
        # pools peaked at 8.79 MB here
        assert peak < 4.39e6, (peak, pooled.nbytes)

    def train(self, directory):
        path = directory / "config.json"
        cfg = image_config("dataset.json")
        path.write_text(json.dumps(cfg))
        return main(["train", "--config", str(path), "--out", str(directory / "out")])

    @pytest.mark.parametrize(
        "name, cut, words",
        [
            ("images.idx", lambda b: b[:-5], "truncated IDX image body"),
            ("images.idx", lambda b: b[:10], "truncated IDX header"),
            ("images.idx", lambda b: struct.pack(">IIII", 0x803, 40, 16, 4) + b[16:], "vs config"),
            ("labels.idx", lambda b: b[:-3], "truncated IDX label body"),
            ("labels.idx", lambda b: b[:6], "truncated IDX header"),
            (
                "labels.idx",
                lambda b: struct.pack(">II", 0x801, 39) + b[8:-1],
                "holds 39 labels but",
            ),
        ],
    )
    def test_bad_idx_file_exits_1_naming_it(self, tmp_path, capsys, name, cut, words):
        rng = np.random.default_rng(22)
        labels = np.repeat([0, 1], 20)
        images = rng.integers(0, 256, size=(40, 8, 8), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "idx")
        path = tmp_path / name
        path.write_bytes(cut(path.read_bytes()))
        assert self.train(tmp_path) == 1
        err = capsys.readouterr().err
        assert str(path) in err and words in err, err


class TestManifestVerification:
    def test_all_match(self, tmp_path):
        blob = tmp_path / "blob.bin"
        blob.write_bytes(b"hello world")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"files": {"blob": {"path": "blob.bin", "sha256": file_sha256(blob)}}}
            )
        )
        assert verify_manifest(manifest) == []

    def test_mismatch_reported(self, tmp_path):
        blob = tmp_path / "blob.bin"
        blob.write_bytes(b"hello world")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"files": {"blob": {"path": "blob.bin", "sha256": "0" * 64}}})
        )
        failures = verify_manifest(manifest)
        assert len(failures) == 1 and "sha256" in failures[0]

    def test_missing_file_reported(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"files": {"gone": {"path": "gone.bin", "sha256": "0" * 64}}})
        )
        failures = verify_manifest(manifest)
        assert len(failures) == 1 and "missing" in failures[0]


class TestGaussianTrainingSet:
    def test_balanced_and_deterministic(self):
        spec = load_config(CONFIGS / "gaussian_demo.json").scene
        a_feats, a_labels = gaussian_training_set(spec, 1, 50, seed=12)
        b_feats, b_labels = gaussian_training_set(spec, 1, 50, seed=12)
        assert a_feats.shape == (100, 2) and np.bincount(a_labels).tolist() == [50, 50]
        np.testing.assert_array_equal(a_feats, b_feats)
        np.testing.assert_array_equal(a_labels, b_labels)
