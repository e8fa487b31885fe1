import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        stream = prediction_streams(spec, RegimeSchedule(((0, 1),)), 25, [0])
        assert set(stream.true_states.tolist()) == {1}
        assert stream.features_per_agent[0][0].shape == (25, 1)

    def test_periodic_square_wave(self):
        spec = mean_shift_gaussian_spec(1)
        sched = periodic_schedule(1000, [1, -1], 4000)
        stream = prediction_streams(spec, sched, 4000, [1])
        states = stream.true_states
        assert np.all(states[:1000] == 1)
        assert np.all(states[1000:2000] == -1)
        assert np.all(states[2000:3000] == 1)
        assert np.all(states[3000:] == -1)

    def test_seed_determinism(self):
        spec = one_informative_gaussian_spec()
        sched = periodic_schedule(10, [1, -1], 30)
        a = prediction_streams(spec, sched, 30, [5])
        b = prediction_streams(spec, sched, 30, [5])
        for va, vb in zip(a.features_per_agent, b.features_per_agent):
            np.testing.assert_array_equal(va[0], vb[0])

    def test_image_source_views(self):
        rng = np.random.default_rng(10)
        pools = {
            0: rng.integers(0, 256, size=(7, 6, 6), dtype=np.uint8),
            1: rng.integers(0, 256, size=(7, 6, 6), dtype=np.uint8),
        }
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1], 10)
        stream = prediction_streams(pools, sched, 10, [2], layout)
        assert len(stream.features_per_agent) == 4
        assert stream.features_per_agent[0][0].shape == (10, 9)
        assert np.all(stream.features_per_agent[0][0] <= 1.0)

    def test_image_stream_scales_only_picked_images(self, monkeypatch):
        import socialml.data as data_mod

        scaled = []
        original = data_mod.scale_pixels

        def counting(images):
            scaled.append(np.asarray(images).size)
            return original(images)

        monkeypatch.setattr(data_mod, "scale_pixels", counting)
        rng = np.random.default_rng(11)
        pools = {c: rng.integers(0, 256, size=(300, 6, 6), dtype=np.uint8) for c in (0, 1)}
        layout = PatchLayout(6, 6, 2, 2)
        sched = periodic_schedule(5, [0, 1], 10)
        stream = prediction_streams(pools, sched, 10, [2], layout)
        assert sum(scaled) <= 10 * 6 * 6
        # the same draws from pools scaled up front give the same views
        prescaled = {c: images / 255.0 for c, images in pools.items()}
        again = prediction_streams(prescaled, sched, 10, [2], layout)
        for got, want in zip(stream.features_per_agent, again.features_per_agent):
            np.testing.assert_array_equal(got[0], want[0])

    def test_missing_class_rejected(self):
        pools = {0: np.zeros((3, 4, 4), dtype=np.uint8)}
        layout = PatchLayout(4, 4, 2, 2)
        with pytest.raises(DataError):
            prediction_streams(pools, RegimeSchedule(((0, 1),)), 5, [0], layout)


def per_block_stream(source, schedule, length, seed, layout=None):
    """Reference draw: one generator call per (class, agent) block, in the
    order the classes first appear."""
    states = schedule.states(length)
    rng = np.random.default_rng(seed)
    active = list(dict.fromkeys(states.tolist()))
    if isinstance(source, GaussianSceneSpec):
        views = [np.empty((length, source.dimension(k))) for k in range(source.n_agents)]
        for label in active:
            idx = np.flatnonzero(states == label)
            for k in range(source.n_agents):
                views[k][idx] = source.models[k][label].sample(rng, idx.size)
        return views
    images = np.empty((length, layout.height, layout.width))
    for label in active:
        idx = np.flatnonzero(states == label)
        pool = source[label]
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
        classes = tuple(range(n_classes))
        models = []
        for d in dims:
            per_class = {}
            for c in classes:
                a = rng.normal(size=(d, d))
                per_class[c] = GaussianClassModel(rng.normal(size=d), a @ a.T + d * np.eye(d))
            models.append(per_class)
        spec = GaussianSceneSpec(tuple(models), classes)
        bounds = sorted({0, *starts})
        schedule = RegimeSchedule(
            tuple((s, classes[int(rng.integers(n_classes))]) for s in bounds)
        )
        seeds = rng.integers(0, 2**63, n_streams).tolist()
        batch = prediction_streams(spec, schedule, length, seeds)
        assert np.array_equal(batch.true_states, schedule.states(length))
        for s, seed_s in enumerate(seeds):
            alone = prediction_streams(spec, schedule, length, [seed_s]).features_per_agent
            reference = per_block_stream(spec, schedule, length, seed_s)
            for k, d in enumerate(dims):
                assert batch.features_per_agent[k].shape == (n_streams, length, d)
                assert np.array_equal(batch.features_per_agent[k][s], alone[k][0])
                assert np.array_equal(batch.features_per_agent[k][s], reference[k])

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
        pools = {c: rng.integers(0, 256, size=(9, 7, 8), dtype=np.uint8) for c in (0, 1, 2)}
        layout = PatchLayout(7, 8, *grid)
        schedule = periodic_schedule(period, [2, 0, 1], length)
        seeds = rng.integers(0, 2**63, n_streams).tolist()
        batch = prediction_streams(pools, schedule, length, seeds, layout)
        for s, seed_s in enumerate(seeds):
            alone = prediction_streams(pools, schedule, length, [seed_s], layout).features_per_agent
            reference = per_block_stream(pools, schedule, length, seed_s, layout)
            for k in range(layout.n_agents):
                assert batch.features_per_agent[k].shape == (n_streams, length, layout.view_dim(k))
                assert np.array_equal(batch.features_per_agent[k][s], alone[k][0])
                assert np.array_equal(batch.features_per_agent[k][s], reference[k])


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
        assert images[0, 0, 0] == 128

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
        a = gaussian_training_set(spec, 1, 50, seed=12)
        b = gaussian_training_set(spec, 1, 50, seed=12)
        assert a.balanced and len(a) == 100
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
