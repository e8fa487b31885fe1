import json
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialml import data as data_mod
from socialml.cli import main
from socialml.config import _image_pools, validate_config
from socialml.data import (
    DataError,
    GaussianClassModel,
    GaussianSceneSpec,
    PatchLayout,
    file_sha256,
    gaussian_training_set,
    mean_shift_gaussian_spec,
    one_informative_gaussian_spec,
    prediction_streams,
    read_idx_images,
    read_idx_labels,
    read_label_pixel_csv,
    reassemble_patches,
    split_patches,
    verify_manifest,
)
from socialml.social import RegimeSchedule, periodic_schedule
from test_images_end_to_end import image_config


class TestGaussianModels:
    def test_zero_covariance_rejected(self):
        with pytest.raises(DataError, match="positive definite"):
            GaussianClassModel([0.0], [[0.0]])

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            GaussianClassModel([0.0, 0.0], [[1.0, 0.5], [0.2, 1.0]])

    def test_informative_agent_covariance_trace(self):
        spec = one_informative_gaussian_spec()
        draws = spec.models[1][-1].sample(np.random.default_rng(0), 100_000)
        trace = np.trace(np.cov(draws.T))
        assert trace == pytest.approx(3.0, rel=0.02)

    def test_uninformative_agents_identical_across_classes(self):
        spec = one_informative_gaussian_spec()
        for agent in (0, 2, 3):
            plus = spec.models[agent][+1].sample(np.random.default_rng(1), 50_000)
            minus = spec.models[agent][-1].sample(np.random.default_rng(2), 50_000)
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
        with pytest.raises(DataError):
            GaussianSceneSpec(({+1: base},), (+1, -1))

    def test_seed_determinism(self):
        spec = mean_shift_gaussian_spec(2)
        a = spec.models[0][+1].sample(np.random.default_rng(9), 10)
        b = spec.models[0][+1].sample(np.random.default_rng(9), 10)
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
        rebuilt = reassemble_patches(views, layout)
        np.testing.assert_array_equal(rebuilt, images / 255.0)

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
        views, states = prediction_streams(spec, RegimeSchedule(((0, 1),)), 25, [0])
        assert set(states.tolist()) == {1}
        # class 1 of the spec is -1: its features center on -1
        assert views[0][0].mean() < 0
        assert views[0][0].shape == (25, 1)

    def test_periodic_square_wave(self):
        spec = mean_shift_gaussian_spec(1)
        sched = periodic_schedule(1000, [0, 1], 4000)
        _, states = prediction_streams(spec, sched, 4000, [1])
        assert np.all(states[:1000] == 0)
        assert np.all(states[1000:2000] == 1)
        assert np.all(states[2000:3000] == 0)
        assert np.all(states[3000:] == 1)

    def test_seed_determinism(self):
        spec = one_informative_gaussian_spec()
        sched = periodic_schedule(10, [0, 1], 30)
        a, _ = prediction_streams(spec, sched, 30, [5])
        b, _ = prediction_streams(spec, sched, 30, [5])
        for va, vb in zip(a, b):
            np.testing.assert_array_equal(va[0], vb[0])

    def test_image_source_views(self):
        rng = np.random.default_rng(10)
        pools = [rng.integers(0, 256, size=(7, 6, 6), dtype=np.uint8) for _ in range(2)]
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1], 10)
        views, _ = prediction_streams(image_source(pools), sched, 10, [2], layout)
        assert len(views) == 4
        assert views[0][0].shape == (10, 9)
        assert np.all(views[0][0] <= 1.0)

    def test_image_stream_scales_only_picked_images(self, monkeypatch):
        import socialml.data as data_mod

        scaled = []
        original = data_mod.scale_pixels

        def counting(images):
            scaled.append(np.asarray(images).size)
            return original(images)

        monkeypatch.setattr(data_mod, "scale_pixels", counting)
        rng = np.random.default_rng(11)
        pools = [rng.integers(0, 256, size=(300, 6, 6), dtype=np.uint8) for _ in range(2)]
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1], 10)
        images, rows = image_source(pools)
        views, _ = prediction_streams((images, rows), sched, 10, [2], layout)
        assert sum(scaled) <= 10 * 6 * 6
        # the same draws from images scaled up front give the same views
        again, _ = prediction_streams((images / 255.0, rows), sched, 10, [2], layout)
        for got, want in zip(views, again):
            np.testing.assert_array_equal(got[0], want[0])

    def test_missing_class_rejected(self):
        layout = PatchLayout(4, 4, 2, 2)
        schedule = RegimeSchedule(((0, 1),))
        for images, rows in [
            (np.zeros((3, 4, 4), dtype=np.uint8), (np.arange(3),)),
            (np.zeros((3, 4, 4)), (np.arange(3), np.arange(0))),
        ]:
            with pytest.raises(DataError, match="class 1 has no images"):
                prediction_streams((images, rows), schedule, 5, [0], layout)

    @pytest.mark.parametrize("state", [-1, -2, 2])
    def test_state_outside_the_classes_rejected(self, state):
        # a directly built schedule may hold any integer; a negative one
        # would draw a class from the end of the list
        schedule = RegimeSchedule(((0, 0), (3, state)))
        with pytest.raises(DataError, match=f"schedule state {state} is not a class index"):
            prediction_streams(mean_shift_gaussian_spec(1), schedule, 6, [0])
        if state < 0:
            source = image_source([np.zeros((3, 4, 4), dtype=np.uint8)] * 2)
            with pytest.raises(DataError, match=f"schedule state {state} is not a class index"):
                prediction_streams(source, schedule, 6, [0], PatchLayout(4, 4, 2, 2))


def image_source(pools, seed=0):
    """One image array per class as the ``(images, rows)`` source of
    ``prediction_streams``: the classes' images shuffled together by ``seed``,
    and each class's row indices in that array."""
    stacked = np.concatenate(pools)
    # stacked row i lands at row order[i]
    order = np.random.default_rng(seed).permutation(len(stacked))
    images = np.empty_like(stacked)
    images[order] = stacked
    ends = np.cumsum([len(pool) for pool in pools])
    return images, tuple(order[end - len(pool) : end] for pool, end in zip(pools, ends))


def per_block_stream(source, schedule, length, seed, layout=None):
    """Reference draw: one generator call per (class, agent) block, in the
    order the classes first appear."""
    states = schedule.states(length)
    rng = np.random.default_rng(seed)
    active = list(dict.fromkeys(states.tolist()))
    if isinstance(source, GaussianSceneSpec):
        views = [np.empty((length, source.dimension(k))) for k in range(source.n_agents)]
        for j in active:
            idx = np.flatnonzero(states == j)
            for k in range(source.n_agents):
                views[k][idx] = source.models[k][source.classes[j]].sample(rng, idx.size)
        return views
    images = np.empty((length, layout.height, layout.width))
    for j in active:
        idx = np.flatnonzero(states == j)
        pool = source[j]
        images[idx] = pool[rng.integers(pool.shape[0], size=idx.size)] / 255.0
    return split_patches(images, layout)


class TestPredictionStreams:
    @given(
        dims=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4),
        n_classes=st.sampled_from([2, 3]),
        length=st.integers(1, 25),
        starts=st.lists(st.integers(1, 24), max_size=3),
        n_streams=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_gaussian_batch_equals_per_seed_streams(
        self, dims, n_classes, length, starts, n_streams, seed
    ):
        rng = np.random.default_rng(seed)
        classes = ("b", "a", "c")[:n_classes]
        models = []
        for d in dims:
            per_class = {}
            for c in classes:
                a = rng.normal(size=(d, d))
                per_class[c] = GaussianClassModel(rng.normal(size=d), a @ a.T + d * np.eye(d))
            models.append(per_class)
        spec = GaussianSceneSpec(tuple(models), classes)
        bounds = sorted({0, *starts})
        schedule = RegimeSchedule(tuple((s, int(rng.integers(n_classes))) for s in bounds))
        seeds = rng.integers(0, 2**63, n_streams).tolist()
        batch, states = prediction_streams(spec, schedule, length, seeds)
        assert np.array_equal(states, schedule.states(length))
        for s, seed_s in enumerate(seeds):
            alone, _ = prediction_streams(spec, schedule, length, [seed_s])
            reference = per_block_stream(spec, schedule, length, seed_s)
            for k, d in enumerate(dims):
                assert batch[k].shape == (n_streams, length, d)
                assert np.array_equal(batch[k][s], alone[k][0])
                assert np.array_equal(batch[k][s], reference[k])

    @given(
        grid=st.sampled_from([(1, 1), (2, 2), (2, 3), (3, 2)]),
        length=st.integers(1, 12),
        period=st.integers(1, 6),
        n_streams=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_image_batch_equals_per_seed_streams(self, grid, length, period, n_streams, seed):
        rng = np.random.default_rng(seed)
        pools = [rng.integers(0, 256, size=(9, 7, 8), dtype=np.uint8) for _ in range(3)]
        layout = PatchLayout(7, 8, *grid)
        schedule = periodic_schedule(period, [2, 0, 1], length)
        seeds = rng.integers(0, 2**63, n_streams).tolist()
        source = image_source(pools, seed)
        batch, _ = prediction_streams(source, schedule, length, seeds, layout)
        for s, seed_s in enumerate(seeds):
            alone, _ = prediction_streams(source, schedule, length, [seed_s], layout)
            reference = per_block_stream(pools, schedule, length, seed_s, layout)
            for k in range(layout.n_agents):
                assert batch[k].shape == (n_streams, length, layout.view_dim(k))
                assert np.array_equal(batch[k][s], alone[k][0])
                assert np.array_equal(batch[k][s], reference[k])


class TestIdxFiles:
    def write_idx(self, tmp_path, images, labels):
        img_path = tmp_path / "images.idx"
        lab_path = tmp_path / "labels.idx"
        n, rows, cols = images.shape
        img_path.write_bytes(
            struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
        )
        lab_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.tobytes())
        return img_path, lab_path

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        labels = np.array([0, 1, 1, 0], dtype=np.uint8)
        img_path, lab_path = self.write_idx(tmp_path, images, labels)
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
        # the same pixels in either format reach the agents identically scaled
        rng = np.random.default_rng(12)
        images = rng.integers(0, 256, size=(6, 4, 5), dtype=np.uint8)
        images[0, 0, 0], images[1, 0, 0] = 0, 255
        labels = np.array([0, 1, 1, 0, 1, 0], dtype=np.uint8)
        img_path, _ = self.write_idx(tmp_path, images, labels)
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
        for got, want in zip(csv_views, idx_views):
            assert np.array_equal(got, want)
        assert max(float(v.max()) for v in csv_views) == 1.0

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
        n, height, width = images.shape
        (directory / "images.idx").write_bytes(
            struct.pack(">IIII", 0x00000803, n, height, width) + images.tobytes()
        )
        (directory / "labels.idx").write_bytes(
            struct.pack(">II", 0x00000801, n) + labels.astype(np.uint8).tobytes()
        )
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
    whole image, with class labels 100, 101, ... mapped to ``label_map``."""
    classes = [100 + c for c in range(len(label_map))]
    cfg = image_config("dataset.json", classes=classes, graph={"ring": 1})
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
            pooled, rows = _image_pools(cfg)
            # one index array per class, in class order, each in file order
            assert len(rows) == len(cfg.classes)
            assert pooled.dtype == np.uint8
            for class_rows, raw in zip(rows, label_map):
                assert np.all(np.diff(class_rows) > 0)
                assert np.array_equal(pooled[class_rows], images[labels == raw])
            if fmt == "idx":
                # the mapped file: every row, none copied
                assert isinstance(pooled, np.memmap)
                assert np.array_equal(pooled, images)
            else:
                # the parsed file: only the rows of labels some class uses
                assert np.array_equal(pooled, images[np.isin(labels, label_map)])
            del pooled

    def test_classes_sharing_a_raw_label_share_its_pool(self, tmp_path):
        labels = np.array([0, 1, 0, 2])
        images = np.arange(4 * 6, dtype=np.uint8).reshape(4, 2, 3)
        write_image_files(tmp_path, images, labels, "idx")
        pooled, rows = _image_pools(pooled_config(tmp_path, (2, 3), [0, 0, 2]))
        assert [r.tolist() for r in rows] == [[0, 2], [0, 2], [3]]
        assert np.array_equal(pooled[rows[2]], images[[3]])

    @pytest.mark.parametrize("fmt", ["idx", "csv"])
    def test_pooled_images_are_read_only(self, tmp_path, fmt):
        labels = np.array([0, 1, 0, 1])
        images = np.arange(4 * 6, dtype=np.uint8).reshape(4, 2, 3)
        write_image_files(tmp_path, images, labels, fmt)
        pooled, rows = _image_pools(pooled_config(tmp_path, (2, 3), [0, 1]))
        with pytest.raises(ValueError, match="read-only"):
            pooled[rows[0][0]] = 0
        with pytest.raises(ValueError, match="read-only"):
            pooled[:] += 1
        assert np.array_equal(pooled, images)

    def test_idx_loading_copies_no_body(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 4, 5000)
        images = rng.integers(0, 256, size=(5000, 28, 28), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "idx")
        cfg = pooled_config(tmp_path, (28, 28), [3, 1])
        tracemalloc.start()
        try:
            pooled, rows = _image_pools(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(pooled[rows[0]], images[labels == 3])
        # the labels, one mask and the row indices: no image is held
        assert peak < 0.05 * images.nbytes, (peak, images.nbytes)

    def test_csv_reading_holds_the_kept_rows_once(self, tmp_path):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, 4, 5000)
        images = rng.integers(0, 256, size=(5000, 28, 28), dtype=np.uint8)
        write_image_files(tmp_path, images, labels, "csv")
        cfg = pooled_config(tmp_path, (28, 28), [3, 1])
        tracemalloc.start()
        try:
            pooled, rows = _image_pools(cfg)
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
        spec = one_informative_gaussian_spec()
        a_feats, a_labels = gaussian_training_set(spec, 1, 50, seed=12)
        b_feats, b_labels = gaussian_training_set(spec, 1, 50, seed=12)
        assert a_feats.shape == (100, 2) and np.bincount(a_labels).tolist() == [50, 50]
        np.testing.assert_array_equal(a_feats, b_feats)
        np.testing.assert_array_equal(a_labels, b_labels)
