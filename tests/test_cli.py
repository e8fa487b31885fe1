import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import socialml
from socialml import experiments
from socialml.cli import main
from socialml.config import (
    PHASE_STREAM,
    PHASE_TRAIN_MODEL,
    ConfigError,
    load_config,
    validate_config,
)
from socialml.data import GaussianClassModel
from socialml.experiments import (
    _streams,
    _trained_statistics,
    cmd_montecarlo,
    cmd_predict,
    cmd_theory,
    cmd_train,
    montecarlo_chunk,
    replication_chunks,
    shared_scene_training,
    usable_cpus,
)
from socialml.mlp import load_model, train_stack
from socialml.seeds import derived_seeds
from socialml.social import SocialLearningError, run_prediction
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import CONFIGS, write_idx
from test_data import write_image_files
from test_images_end_to_end import image_config, write_idx_dataset


def gaussian_agents(n_agents=4, dim=1, shift=0.6):
    agents = []
    for _ in range(n_agents):
        agents.append(
            {
                "1": {"mean": [shift] * dim, "cov": np.eye(dim).tolist()},
                "-1": {"mean": [-shift] * dim, "cov": np.eye(dim).tolist()},
            }
        )
    return agents


def base_config(**overrides):
    cfg = {
        "seed": 42,
        "classes": [1, -1],
        "engine": "sl",
        "graph": {"ring": 4},
        "data": {"type": "gaussian", "agents": gaussian_agents()},
        "model": {
            "hidden": [4],
            "activation": "tanh",
            "epochs": 3,
            "batch_size": 10,
            "learning_rate": 0.05,
            "repetitions": 2,
        },
        "train_per_class": 20,
        "schedule": {"period": 10},
        "stream_length": 20,
        "montecarlo": {
            "replications": 3,
            "eval_streams": 4,
            "horizon": 12,
            "observe_agent": 0,
        },
        "theory": {"target_risk": 0.2, "beta": 1.0, "complexity_constants": [0.5] * 4,
                   "epsilon": 0.1, "grid_points": 10},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def noisy_image_config(directory, fmt="idx"):
    """A 2x2-agent image scene of classes 1 and -1 over 90 noisy 8x8 images
    written to ``directory`` as ``fmt``; one lit row marks class 1, so
    neither strategy's Monte Carlo error curve is all zeros."""
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 90).astype(np.uint8)
    images = rng.integers(0, 256, (90, 8, 8), dtype=np.uint8)
    images[labels == 1, :1] = 255
    write_image_files(directory, images, labels, fmt)
    cfg = image_config("dataset.json", train_per_class=20, schedule={"period": 3})
    cfg["data"]["label_map"] = {"1": 1, "-1": 2}
    cfg["montecarlo"].update(replications=3, eval_streams=5, horizon=10)
    return cfg


def erring_strategies(lines) -> set:
    """The strategies with a nonzero error rate in ``montecarlo.csv``'s rows."""
    return {line.split(",")[1] for line in lines if float(line.split(",")[2]) > 0}


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        assert cfg.n_agents == 4
        assert cfg.engine == "sl"

    def test_delta_required_iff_adaptive(self):
        with pytest.raises(ConfigError, match="delta"):
            validate_config(base_config(engine="asl"))
        with pytest.raises(ConfigError, match="delta"):
            validate_config(base_config(engine="sl", delta=0.1))
        cfg = validate_config(base_config(engine="asl", delta=0.05))
        assert cfg.delta == 0.05

    def test_missing_file_reference_fails_before_work(self, tmp_path):
        cfg = base_config(
            data={
                "type": "images",
                "manifest": "nope.json",
                "height": 8,
                "width": 8,
                "layout": [2, 2],
            }
        )
        with pytest.raises(ConfigError, match="manifest"):
            validate_config(cfg, str(tmp_path))

    def test_agent_count_must_match_graph(self):
        cfg = base_config(data={"type": "gaussian", "agents": gaussian_agents(3)})
        with pytest.raises(ConfigError, match="agents"):
            validate_config(cfg)

    def test_unknown_engine_and_bad_seed(self):
        with pytest.raises(ConfigError):
            validate_config(base_config(engine="gossip"))
        with pytest.raises(ConfigError):
            validate_config(base_config(seed=-3))

    def test_derived_seeds_are_stable_and_distinct(self):
        (a,) = derived_seeds(42, 1, [(0, 0)])
        assert a == derived_seeds(42, 1, [(0, 0)])[0]
        assert a != derived_seeds(42, 1, [(0, 1)])[0]
        assert a != derived_seeds(42, 2, [(0, 0)])[0]
        assert a != derived_seeds(43, 1, [(0, 0)])[0]

    def test_graph_file_resolved_relative_to_config(self, tmp_path):
        weights = np.full((4, 4), 0.25)
        (tmp_path / "net.json").write_text(json.dumps({"K": 4, "rows": weights.tolist()}))
        cfg_dict = base_config(graph={"file": "net.json"})
        cfg = validate_config(cfg_dict, str(tmp_path))
        np.testing.assert_array_equal(cfg.matrix.weights, weights)
        with pytest.raises(ConfigError, match="not found"):
            validate_config(base_config(graph={"file": "missing.json"}), str(tmp_path))

    def test_adaptive_engine_montecarlo(self, tmp_path):
        cfg_dict = base_config(engine="asl", delta=0.2)
        cfg = validate_config(cfg_dict, str(tmp_path))
        out = tmp_path / "out"
        summary = cmd_montecarlo(cfg, str(out))
        assert "sml" in summary["final_error"]


def _misspelled(block, key, value):
    cfg = base_config()
    (cfg[block] if block else cfg)[key] = value
    return cfg


UNKNOWN_KEY_CASES = [
    ("stream_lenght", _misspelled("", "stream_lenght", 20)),
    ("model.optimiser", _misspelled("model", "optimiser", "adam")),
    ("montecarlo.horizn", _misspelled("montecarlo", "horizn", 12)),
    ("theory.grid_point", _misspelled("theory", "grid_point", 10)),
    ("schedule.state", _misspelled("schedule", "state", [1, -1])),
    ("data.label_map", _misspelled("data", "label_map", {"1": 0, "-1": 1})),
]


class TestUnknownKeys:
    """A key a block does not read exits 1 naming it, instead of leaving
    its field at the default."""

    @pytest.mark.parametrize(
        "field, cfg", UNKNOWN_KEY_CASES, ids=[field for field, _ in UNKNOWN_KEY_CASES]
    )
    def test_unknown_key_exits_1_naming_it(self, tmp_path, capsys, field, cfg):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(path), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = write_config(tmp_path, [base_config()])
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "JSON object" in capsys.readouterr().err


def labelled_config(classes):
    """The base scene with one gaussian block per label of ``classes``."""
    agents = [
        {str(c): {"mean": [0.5 * j], "cov": [[1.0]]} for j, c in enumerate(classes)}
        for _ in range(4)
    ]
    return base_config(classes=classes, data={"type": "gaussian", "agents": agents})


class TestClassLabels:
    @pytest.mark.parametrize(
        "classes",
        [
            [[1], [2], [3]],
            ["a,b", "2", "3"],
            ['a"b', "c"],
            ["a\nb", "c"],
            ["a\rb", "c"],
            [True, False],
            [1.5, 2],
            [None, 1],
        ],
    )
    def test_bad_labels_exit_1_naming_classes(self, tmp_path, capsys, classes):
        path = write_config(tmp_path, labelled_config(classes))
        out = tmp_path / "out"
        assert main(["predict", "--config", str(path), "--out", str(out)]) == 1
        assert "classes" in capsys.readouterr().err
        assert not out.exists()

    def test_string_labels_write_eight_fields(self, tmp_path):
        path = write_config(tmp_path, labelled_config(["a b", "2", "-x"]))
        out = tmp_path / "out"
        assert main(["predict", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) == 20 * 4 * 2
        assert {len(row.split(",")) for row in rows} == {8}
        assert {row.split(",")[3] for row in rows} == {"2", "-x"}
        # the true state is label text too, following the schedule, and each
        # row's correct flag compares the decision's text with it
        fields = [row.split(",") for row in rows]
        assert [f[6] for f in fields[:: 4 * 2]] == ["a b"] * 10 + ["2"] * 10
        assert all(f[7] == str(int(f[5] == f[6])) for f in fields)
        summary = json.loads((out / "summary.json").read_text())
        assert [cycle["state"] for cycle in summary["cycles"]] == ["a b", "2"]

    @pytest.mark.parametrize("classes", [[1, "1", 3], ["-1", -1]])
    def test_mixed_labels_sharing_a_text_exit_1_naming_classes(self, tmp_path, capsys, classes):
        # 1 and "1" would read one data block and write one artifact text
        path = write_config(tmp_path, labelled_config(classes))
        out = tmp_path / "out"
        assert main(["predict", "--config", str(path), "--out", str(out)]) == 1
        assert f"classes must list at least two labels whose texts differ, got {classes!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()


def _theory_override(**entries):
    return {"theory": {**base_config()["theory"], **entries}}


def _image_override(**entries):
    cfg = image_config("dataset.json")
    cfg["data"].update(entries)
    return cfg


NUMBER_CASES = [
    ("theory", {"graph": {"ring": 4.7}}, "graph.ring"),
    ("theory", {"graph": {"grid": [2, 2.5]}}, "graph.grid"),
    ("theory", {"seed": True}, "seed"),
    ("theory", _theory_override(grid_points=12.9), "theory.grid_points"),
    ("theory", _theory_override(sample_counts=[40.7, 40, 40, 40]), "theory.sample_counts"),
    ("theory", _theory_override(epsilon="0.1"), "theory.epsilon"),
    ("theory", _theory_override(beta="x"), "theory.beta"),
    ("theory", _theory_override(beta=float("nan")), "theory.beta"),
    ("theory", _theory_override(beta=True), "theory.beta"),
    ("theory", _theory_override(complexity_constants="x"), "theory.complexity_constants"),
    ("theory", _theory_override(complexity_constants=[float("nan")] * 4),
     "theory.complexity_constants"),
    # out of the range the bounds are defined on: theory's own messages name
    # no field
    ("theory", _theory_override(target_risk=0.9), "theory.target_risk must lie in"),
    ("theory", _theory_override(epsilon=1.0), "theory.epsilon must lie strictly in"),
    ("theory", _theory_override(beta=0.0), "theory.beta must be positive"),
    ("theory", _theory_override(beta=[1.0, 1.0, -1.0, 1.0]), "theory.beta must be positive"),
    ("theory", _theory_override(complexity_constants=[0.5, -0.5, 0.5, 0.5]),
     "theory.complexity_constants must be nonnegative"),
    ("train", _image_override(height=8.0), "data.height"),
    ("train", _image_override(width=8.5), "data.width"),
    ("train", _image_override(layout=[2.0, 2]), "data.layout"),
    ("train", _image_override(label_map=[0, 1]), "data.label_map"),
]


class TestConfigNumbers:
    """Numbers that must be integers exit 1 naming their field instead of
    being truncated; theory numbers that are not finite numbers, or lie
    outside the range the bounds are defined on, exit 1 naming their field
    instead of failing inside the command."""

    @pytest.mark.parametrize(
        "command, overrides, field",
        NUMBER_CASES,
        ids=[field for _, _, field in NUMBER_CASES],
    )
    def test_fractional_number_exits_1_naming_field(
        self, tmp_path, capsys, command, overrides, field
    ):
        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=40)
        cfg = overrides if command == "train" else base_config(**overrides)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "label_map",
        [{"1": 1, "-1": 1}, {"1": -1}],
        ids=["both-mapped", "onto-a-default"],
    )
    def test_two_classes_on_one_raw_label_exit_1(self, tmp_path, capsys, label_map):
        # both classes would draw the same images
        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=40)
        path = write_config(tmp_path, _image_override(label_map=label_map))
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert "data.label_map" in capsys.readouterr().err
        assert not out.exists()


class TestTheoryListLengths:
    """A per-agent theory list of the wrong length exits 1 naming its field,
    before any output is written."""

    @pytest.mark.parametrize("length", [2, 5])
    @pytest.mark.parametrize(
        "field, value",
        [("beta", 1.0), ("sample_counts", 40), ("complexity_constants", 0.5)],
    )
    def test_wrong_length_exits_1_naming_field(self, tmp_path, capsys, field, value, length):
        path = write_config(tmp_path, base_config(**_theory_override(**{field: [value] * length})))
        out = tmp_path / "out"
        assert main(["theory", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"theory.{field}" in err and "one entry per agent (4)" in err
        assert not out.exists()

    def test_one_entry_per_agent_runs(self, tmp_path):
        cfg = base_config(**_theory_override(beta=[1.0, 2.0, 1.0, 2.0], sample_counts=[40] * 4))
        report = cmd_theory(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"))
        assert report["inputs"]["beta"] == [1.0, 2.0, 1.0, 2.0]
        assert report["inputs"]["sample_counts"] == [40] * 4


class TestCmdTrain:
    def test_artifacts_and_trace_shape(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        out = tmp_path / "out"
        result = cmd_train(cfg, str(out))
        assert result["models"] == 4
        # agents x repetitions x epochs rows
        assert result["trace_rows"] == 4 * 2 * 3
        lines = (out / "risk_trace.csv").read_text().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1] == "agent,repetition,epoch,empirical_risk"
        assert len(lines) == 2 + 4 * 2 * 3
        for k in range(4):
            assert (out / "models" / f"agent_{k}.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "risk_trace.csv" in manifest["artifacts"]

    def test_single_agent_toy(self, tmp_path):
        cfg = base_config(
            graph={"ring": 1},
            data={"type": "gaussian", "agents": gaussian_agents(1)},
            **_theory_override(complexity_constants=[0.5]),
        )
        out = tmp_path / "out"
        result = cmd_train(validate_config(cfg, str(tmp_path)), str(out))
        assert result["models"] == 1


    def test_mixed_feature_dims_match_serial_training(self, tmp_path):
        # agents 0/2 see 1-D features and 1/3 see 2-D ones: two stacks, each
        # model equal to a stack of one trained with its derived seed
        agents = [gaussian_agents(1, dim=d)[0] for d in (1, 2, 1, 2)]
        cfg = validate_config(
            base_config(data={"type": "gaussian", "agents": agents}), str(tmp_path)
        )
        out = tmp_path / "out"
        cmd_train(cfg, str(out))
        ((views, labels),) = shared_scene_training(cfg, [0])
        for k in range(4):
            seeds = derived_seeds(cfg.seed, PHASE_TRAIN_MODEL, [(0, k)])
            (alone,), _, _ = train_stack(
                [views[k]], [labels], cfg.arch_by_agent[k], cfg.hyper, seeds
            )
            saved = load_model(out / "models" / f"agent_{k}.json")
            assert saved.architecture.n_features == (1, 2, 1, 2)[k]
            for got, want in zip(saved.weights, alone.weights):
                np.testing.assert_array_equal(got, want)


class TestCmdPredict:
    def test_trajectory_and_summary(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        out = tmp_path / "out"
        summary = cmd_predict(cfg, str(out))
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[1] == "run_id,i,agent,gamma_or_binary,lambda,decision,true_state,correct"
        # one row per (step, agent, component); binary has one component
        assert len(lines) == 2 + 20 * 4
        assert len(summary["cycles"]) == 2
        assert (out / "summary.json").exists()

    def test_zero_length_stream_rejected_in_validation(self, tmp_path):
        cfg = validate_config(base_config(stream_length=0), str(tmp_path))
        with pytest.raises(ConfigError):
            cmd_predict(cfg, str(tmp_path / "out"))

    def test_three_class_trajectory_rows_per_component(self, tmp_path):
        agents = []
        for _ in range(4):
            agents.append(
                {
                    "0": {"mean": [0.8, 0.0], "cov": np.eye(2).tolist()},
                    "1": {"mean": [-0.4, 0.7], "cov": np.eye(2).tolist()},
                    "2": {"mean": [-0.4, -0.7], "cov": np.eye(2).tolist()},
                }
            )
        cfg_dict = base_config(
            classes=[0, 1, 2],
            data={"type": "gaussian", "agents": agents},
            schedule={"period": 5},
            stream_length=15,
        )
        cfg = validate_config(cfg_dict, str(tmp_path))
        out = tmp_path / "out"
        summary = cmd_predict(cfg, str(out))
        lines = (out / "trajectory.csv").read_text().splitlines()
        # one row per (step, agent, non-reference class)
        assert len(lines) == 2 + 15 * 4 * 2
        assert len(summary["cycles"]) == 3
        gammas = {line.split(",")[3] for line in lines[2:]}
        assert gammas == {"1", "2"}

    def test_adaptive_run_crosses_threshold_after_flip(self, tmp_path):
        # informative agents, state flips mid-stream: the observed agent's
        # decision variable changes sign within each cycle
        cfg_dict = base_config(
            engine="asl",
            delta=0.2,
            data={"type": "gaussian", "agents": gaussian_agents(4, 1, 1.0)},
            model={
                "hidden": [4],
                "activation": "tanh",
                "epochs": 10,
                "batch_size": 10,
                "learning_rate": 0.1,
                "repetitions": 1,
            },
            schedule={"period": 40},
            stream_length=80,
        )
        cfg = validate_config(cfg_dict, str(tmp_path))
        out = tmp_path / "out"
        cmd_predict(cfg, str(out))
        lam = {}
        for line in (out / "trajectory.csv").read_text().splitlines()[2:]:
            run_id, i, agent, gamma, value, *_ = line.split(",")
            if agent == "0":
                lam[int(i)] = float(value)
        first = [lam[i] for i in range(40)]
        second = [lam[i] for i in range(40, 80)]
        assert max(first) > 0  # positive while the reference class is active
        assert min(second) < 0  # crosses below after the flip

    @pytest.mark.parametrize("engine", [{"engine": "sl"}, {"engine": "asl", "delta": 0.3}],
                             ids=["sl", "asl"])
    def test_bytes_do_not_depend_on_the_block_steps(self, tmp_path, monkeypatch, engine):
        # 12 steps run as one block, as 6 blocks of 2 and as 4 blocks of 3;
        # segments start on edges of both cuttings (4, 6 and 9), and one
        # holds a single step
        cfg_dict = three_class_config(
            stream_length=12,
            schedule={"segments": [[0, 0], [4, 1], [5, 2], [6, 0], [9, 2]]},
            **engine,
        )
        cfg = validate_config(cfg_dict, str(tmp_path))
        written = []
        for steps in (experiments.FORWARD_BLOCK_ROWS, 2, 3):
            monkeypatch.setattr(experiments, "FORWARD_BLOCK_ROWS", steps)
            out = tmp_path / str(steps)
            summary = cmd_predict(cfg, str(out))
            written.append([(out / n).read_bytes() for n in ("trajectory.csv", "summary.json")])
        assert written[1] == written[0] and written[2] == written[0]
        # decisions go wrong and right in these segments, so a miscounted
        # block would move the summary
        cycles = summary["cycles"]
        assert [c["start"] for c in cycles] == [0, 4, 5, 6, 9]
        assert any(0 < a < 1 for c in cycles for a in c["accuracy_per_agent"])
        assert any(c["adaptation_steps_per_agent"] != [0] * 4 for c in cycles)

    def test_memory_flat_in_stream_length(self, tmp_path):
        def peak(length: int) -> int:
            # summary.json holds a cycle per segment, so the segments are fixed
            schedule = {"segments": [[0, 1], [1500, -1]]}
            raw = base_config(stream_length=length, schedule=schedule)
            cfg = validate_config(raw, str(tmp_path))
            tracemalloc.start()
            try:
                cmd_predict(cfg, str(tmp_path / str(length)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # the first run in a process allocates its one-time caches
        # blocks of 1,024 steps in both: 2 of them, then 8
        short, long = peak(2 * 1024), peak(8 * 1024)
        assert long <= 1.2 * short, (short, long)

    def test_a_failing_block_leaves_nothing(self, tmp_path, monkeypatch):
        calls = []

        def second_block_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SocialLearningError("non-finite statistic value")
            return run_prediction(*args, **kwargs)

        monkeypatch.setattr(experiments, "FORWARD_BLOCK_ROWS", 5)
        monkeypatch.setattr(experiments, "run_prediction", second_block_fails)
        cfg = validate_config(base_config(), str(tmp_path))
        out = tmp_path / "out"
        with pytest.raises(SocialLearningError):
            cmd_predict(cfg, str(out))
        assert len(calls) == 2
        assert not out.exists()


class TestCmdMontecarlo:
    def test_csv_format_and_error_levels(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        out = tmp_path / "out"
        summary = cmd_montecarlo(cfg, str(out))
        lines = (out / "montecarlo.csv").read_text().splitlines()
        assert lines[1] == "i,strategy,error_rate,stderr"
        # horizon steps x two strategies
        assert len(lines) == 2 + 12 * 2
        assert not summary["degenerate_stderr"]

    def test_single_replication_flagged_degenerate(self, tmp_path):
        cfg = base_config()
        cfg["montecarlo"]["replications"] = 1
        out = tmp_path / "out"
        summary = cmd_montecarlo(validate_config(cfg, str(tmp_path)), str(out))
        assert summary["degenerate_stderr"]
        for line in (out / "montecarlo.csv").read_text().splitlines()[2:]:
            assert line.rsplit(",", 1)[1] == "0.0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cmd_montecarlo(cfg, str(out1))
        cmd_montecarlo(cfg, str(out2))
        assert (out1 / "montecarlo.csv").read_bytes() == (out2 / "montecarlo.csv").read_bytes()

    def test_a_run_derives_one_stream_seed_per_replication(self, tmp_path, monkeypatch):
        rows = {}

        def counting(master, phase, index_rows):
            index_rows = list(index_rows)
            rows[phase] = rows.get(phase, 0) + len(index_rows)
            return derived_seeds(master, phase, index_rows)

        monkeypatch.setattr(experiments, "derived_seeds", counting)
        cfg = base_config()
        cfg["montecarlo"].update(replications=3, eval_streams=50)
        cmd_montecarlo(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"))
        assert rows[PHASE_STREAM] == 3

    def test_replication_is_pure_function_of_config_and_index(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        (a,) = montecarlo_chunk(cfg, [1])
        (b,) = montecarlo_chunk(cfg, [1])
        np.testing.assert_array_equal(a["sml"], b["sml"])
        np.testing.assert_array_equal(a["adaboost"], b["adaboost"])


class TestMontecarloValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 0),
            ("horizon", -3),
            ("replications", 2.7),
            ("eval_streams", 3.9),
            ("observe_agent", 0.5),
            ("replications", 0),
            ("replications", True),
            ("observe_agent", 4),
            ("strategies", []),
            ("strategies", "sml"),
            ("strategies", ["sml", "sml"]),
        ],
    )
    def test_bad_field_exits_1_naming_it(self, tmp_path, capsys, field, value):
        cfg = base_config()
        cfg["montecarlo"][field] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert f"montecarlo.{field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "strategies, names",
        [(["sml"], ["agent"]), (["adaboost"], ["AdaBoost round", "agent"])],
    )
    def test_diverged_model_named(self, tmp_path, capsys, strategies, names):
        cfg = base_config()
        cfg["model"]["learning_rate"] = 1e308
        cfg["montecarlo"]["strategies"] = strategies
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["montecarlo", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        # replications train in lockstep: the first to diverge is named
        assert "TrainingDiverged: replication " in err
        assert all(name in err for name in names)
        assert not out.exists()


class TestScheduleValidation:
    @pytest.mark.parametrize("command", ["predict", "montecarlo"])
    @pytest.mark.parametrize(
        "schedule",
        [
            {"segments": [[0, True], [10, -1.0]]},
            {"segments": [[0, 1], [10, -1.0]]},
            {"period": 5, "states": [True, -1]},
            {},
            {"segments": []},
            {"segments": "x"},
            {"segments": [[0, 1, 2]]},
            {"segments": [[0.5, 1]]},
            {"segments": [[5, 1]]},
            {"segments": [[0, 1], [10, -1], [5, 1]]},
            {"period": 0},
            {"period": True},
            {"period": 2.5},
            {"period": 5, "states": []},
            {"period": 5, "states": [1, 2]},
            [[0, 1]],
            {"period": 10, "segments": [[0, -1]]},
            {"segments": [[0, -1]], "states": [-1]},
        ],
    )
    def test_bad_schedule_exits_1_naming_it(self, tmp_path, capsys, command, schedule):
        path = write_config(tmp_path, base_config(schedule=schedule))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "schedule" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", [1, 7, 500])
    @pytest.mark.parametrize("stream_length, horizon", [(20, 12), (12, 45)])
    def test_one_schedule_serves_every_length(self, period, stream_length, horizon):
        # the config builds the schedule once, for no length: each stream
        # reads its own window, and so does one past both lengths
        raw = base_config(schedule={"period": period}, stream_length=stream_length)
        raw["montecarlo"]["horizon"] = horizon
        schedule = validate_config(raw).schedule
        far = max(stream_length, horizon) + period + 1
        for start, stop in ((0, stream_length), (0, horizon), (far, far + 2 * period + 3)):
            track = [(i // period) % 2 for i in range(start, stop)]
            assert schedule.states(stop, start).tolist() == track
            cuts = [start] + [s for s in range(period, stop, period) if s > start]
            assert [span[1:] for span in schedule.spans(stop, start)] == [
                (lo, hi, (lo // period) % 2) for lo, hi in zip(cuts, cuts[1:] + [stop])
            ]

    def test_validation_memory_flat_in_stream_length(self):
        def peak(length: int) -> int:
            raw = base_config(schedule={"period": 1}, stream_length=length)
            tracemalloc.start()
            try:
                validate_config(raw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8_000)  # the first run in a process allocates its one-time caches
        short, long = peak(8_000), peak(80_000)
        assert long <= 1.2 * short, (short, long)


class TestNumericFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("model.repetitions", 2.7),
            ("train_per_class", 10.9),
            ("stream_length", 20.5),
            ("model.epochs", True),
            ("model.epochs", 2.0),
            ("model.batch_size", 2.5),
            ("model.hidden", [4.5]),
            ("model.hidden", [0]),
            ("delta", "x"),
            ("delta", True),
            ("model.learning_rate", "x"),
            ("model.repetitions", "x"),
            ("train_per_class", "x"),
            ("model.hidden", ["a"]),
            ("model.init_scale", "x"),
            ("model.input_bound", "x"),
            ("model.norm_bound", "x"),
            ("model.activation", ["tanh"]),
            ("model.activation", "sigmoid"),
            ("model.activation", None),
            ("model.optimizer", ["adam"]),
            ("model.optimizer", "sgd"),
            ("model.optimizer", 1),
            ("model.learning_rate", float("nan")),
            ("model.learning_rate", float("inf")),
            pytest.param("model.learning_rate", 10**400, id="model.learning_rate-10**400"),
            ("model.init_scale", float("nan")),
            ("model.input_bound", float("nan")),
            ("model.norm_bound", float("inf")),
            # numbers the model records reject
            ("model.learning_rate", -0.1),
            ("model.init_scale", 0),
            ("model.norm_bound", -1),
            ("model.input_bound", 0),
            # below the bias slot's entry 1.0
            ("model.input_bound", 0.5),
            ("schedule.period", 0),
        ],
    )
    def test_bad_value_exits_1_naming_it(self, tmp_path, capsys, field, value):
        cfg = base_config(engine="asl", delta=0.1)
        block, _, key = field.rpartition(".")
        (cfg[block] if block else cfg)[key] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["predict", "--config", str(path), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()


def _gaussian_scene(agents):
    return base_config(data={"type": "gaussian", "agents": agents})


def _gaussian_override(k, label, **entries):
    """The base scene with agent ``k``'s block for class ``label`` updated."""
    agents = gaussian_agents()
    agents[k][label] = {**agents[k][label], **entries}
    return _gaussian_scene(agents)


GAUSSIAN_CASES = [
    ("agents-not-objects", _gaussian_scene([1, 2, 3, 4]), ["data.agents[0]"]),
    ("class-block-not-object", _gaussian_scene([{"1": 5, "-1": 5}] * 4),
     ["data.agents[0]", "class 1"]),
    ("cov-missing", _gaussian_scene([{"1": {"mean": [0.5]}, "-1": {"mean": [-0.5]}}] * 4),
     ["data.agents[0]", "class 1", "cov"]),
    ("mean-not-numeric", _gaussian_override(2, "-1", mean="x"), ["data.agents[2]", "class -1"]),
    ("mean-null", _gaussian_override(1, "-1", mean=None), ["data.agents[1]", "class -1"]),
    ("mean-bool", _gaussian_override(0, "1", mean=[True]), ["data.agents[0]", "class 1", "mean"]),
    ("mean-ragged", _gaussian_override(1, "1", mean=[[0.5], []]), ["data.agents[1]", "class 1"]),
    ("mean-nan", _gaussian_override(0, "-1", mean=[float("nan")]), ["data.agents[0]", "class -1"]),
    ("cov-not-numeric", _gaussian_override(3, "1", cov={"a": 1}), ["data.agents[3]", "class 1"]),
    ("cov-overflow", _gaussian_override(2, "1", cov=[[10**400]]), ["data.agents[2]", "class 1"]),
    # agent 1 sees 2-D features under class 1 and 1-D ones under class -1
    ("dimension-mismatch", _gaussian_override(1, "1", mean=[0.5, 0.5], cov=np.eye(2).tolist()),
     ["data.agents[1]", "class -1", "dimension 1, but class 1 has 2"]),
]


class TestGaussianBlock:
    """A malformed Gaussian block exits 1 naming the agent's entry and the
    class, instead of failing inside the scene's construction."""

    @pytest.mark.parametrize(
        "cfg, fields", [case[1:] for case in GAUSSIAN_CASES], ids=[c[0] for c in GAUSSIAN_CASES]
    )
    def test_bad_block_exits_1_naming_it(self, tmp_path, capsys, cfg, fields):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(field in err for field in fields), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "montecarlo"])
    def test_dimension_mismatch_exits_1_from_every_command(self, tmp_path, capsys, command):
        # the base schedule switches to class -1, whose draws would not fit
        # the models trained on class 1's dimension
        (cfg,) = [case[1] for case in GAUSSIAN_CASES if case[0] == "dimension-mismatch"]
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "data.agents[1]" in capsys.readouterr().err


class TestGraphFile:
    """A graph file that cannot be read as the matrix exits 1 naming it."""

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[[0.5, 0.5], [0.5, 0.5]]",
            '{"K": "x", "rows": []}',
            '{"K": 2, "rows": [["a", "b"], ["c", "d"]]}',
            '{"K": 2, "rows": [[NaN, 0.5], [0.5, 0.5]]}',
        ],
        ids=["not-json", "not-an-object", "bad-size", "rows-not-numeric", "rows-nan"],
    )
    def test_bad_file_exits_1_naming_it(self, tmp_path, capsys, text):
        (tmp_path / "net.json").write_text(text)
        path = write_config(tmp_path, base_config(graph={"file": "net.json"}))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "net.json" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("value", [3, None, ["net.json"]])
    def test_non_string_file_exits_1_naming_it(self, tmp_path, capsys, value):
        path = write_config(tmp_path, base_config(graph={"file": value}))
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        assert "graph.file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [[["a"]], [[True]], [[1.0], [0.5, 0.5]]])
    def test_bad_inline_matrix_exits_1(self, tmp_path, capsys, rows):
        path = write_config(tmp_path, base_config(graph={"matrix": rows}))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "graph.matrix" in capsys.readouterr().err


class TestIdxCounts:
    def test_fewer_labels_than_images_exits_1_naming_both(self, tmp_path, capsys):
        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=40)
        labels = tmp_path / "labels.idx"
        kept = labels.read_bytes()[8 : 8 + 70]
        labels.write_bytes(struct.pack(">II", 0x00000801, 70) + kept)
        path = write_config(tmp_path, image_config("dataset.json"))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "labels.idx" in err and "images.idx" in err, err
        assert "70" in err and "80" in err, err


class TestMontecarloChunks:
    @given(
        seed=st.integers(0, 2**16),
        three_classes=st.booleans(),
        size=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_chunked_curves_equal_single_replications(self, seed, three_classes, size):
        cfg_dict = three_class_config() if three_classes else base_config()
        cfg_dict["seed"] = seed
        cfg_dict["montecarlo"]["replications"] = 4
        cfg = validate_config(cfg_dict)
        chunks = [range(lo, min(lo + size, 4)) for lo in range(0, 4, size)]
        chunked = [res for chunk in chunks for res in montecarlo_chunk(cfg, chunk)]
        for rep, got in enumerate(chunked):
            (want,) = montecarlo_chunk(cfg, [rep])
            assert got.keys() == want.keys()
            for strategy in want:
                assert np.array_equal(got[strategy], want[strategy])

    def test_byte_cap_splits_chunks_and_keeps_bytes(self, tmp_path, monkeypatch):
        import socialml.experiments as experiments

        cfg_dict = base_config()
        cfg_dict["montecarlo"]["replications"] = 5
        cfg = validate_config(cfg_dict)
        # one share of chunks per worker
        assert replication_chunks(cfg, 1) == [[range(0, 5)]]
        assert replication_chunks(cfg, 2) == [[range(0, 3)], [range(3, 5)]]
        cmd_montecarlo(cfg, str(tmp_path / "whole"))
        # 4 agents x 40 rows x (1 feature + bias) x 8 bytes per replication
        monkeypatch.setattr(experiments, "CHUNK_INPUT_BYTES", 2 * 2560 + 1)
        assert replication_chunks(cfg, 1) == [[range(0, 2), range(2, 4), range(4, 5)]]
        assert replication_chunks(cfg, 2) == [[range(0, 2), range(2, 3)], [range(3, 5)]]
        monkeypatch.setattr(experiments, "CHUNK_INPUT_BYTES", 1)
        assert replication_chunks(cfg, 1) == [[range(r, r + 1) for r in range(5)]]
        monkeypatch.setattr(experiments, "CHUNK_INPUT_BYTES", 2 * 2560 + 1)
        cmd_montecarlo(cfg, str(tmp_path / "split"))
        assert (tmp_path / "whole" / "montecarlo.csv").read_bytes() == (
            tmp_path / "split" / "montecarlo.csv"
        ).read_bytes()

    def test_image_mc_replications_share_one_chunk(self, tmp_path):
        # the image_mc benchmark scene: 28x28 images, 2x2 patch agents with
        # one hidden layer of 8, 200 training rows, 3 replications; validation
        # reads the dataset, so each class holds its 100 training images
        write_idx(tmp_path, np.zeros((200, 28, 28)), np.repeat([0, 1], 100))
        (tmp_path / "dataset.json").write_text(
            json.dumps(
                {
                    "format": "idx",
                    "files": {
                        "images": {"path": "images.idx", "sha256": "0" * 64},
                        "labels": {"path": "labels.idx", "sha256": "0" * 64},
                    },
                }
            )
        )
        cfg_dict = image_config("dataset.json", train_per_class=100)
        cfg_dict["data"].update(height=28, width=28)
        cfg_dict["montecarlo"]["replications"] = 3
        cfg = validate_config(cfg_dict, str(tmp_path))
        assert replication_chunks(cfg, 1) == [[range(0, 3)]]

    def test_image_montecarlo_bytes_do_not_depend_on_the_cap(self, tmp_path, monkeypatch):
        import socialml.experiments as experiments

        cfg = validate_config(noisy_image_config(tmp_path), str(tmp_path))
        assert replication_chunks(cfg, 1) == [[range(0, 3)]]
        cmd_montecarlo(cfg, str(tmp_path / "whole"))
        monkeypatch.setattr(experiments, "CHUNK_INPUT_BYTES", 1)
        assert replication_chunks(cfg, 1) == [[range(r, r + 1) for r in range(3)]]
        cmd_montecarlo(cfg, str(tmp_path / "split"))
        rows = (tmp_path / "whole" / "montecarlo.csv").read_text()
        assert (tmp_path / "split" / "montecarlo.csv").read_text() == rows
        # a chunking that moved a replication's draws would move these rows
        assert erring_strategies(rows.splitlines()[2:]) == {"sml", "adaboost"}


class TestCmdTheory:
    def test_report_contents(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        out = tmp_path / "out"
        report = cmd_theory(cfg, str(out))
        assert report["sample_complexity"] >= 1
        assert report["self_consistency"]["ok"]
        grid = (out / "exponent_grid.csv").read_text().splitlines()
        assert grid[1] == "target_risk,exact_exponent,approx_exponent"
        assert len(grid) == 2 + 10
        values = [float(line.split(",")[1]) for line in grid[2:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vacuous_flagged(self, tmp_path):
        cfg = base_config()
        cfg["theory"] = {
            "target_risk": 0.6,
            "beta": 1.0,
            "complexity_constants": [50.0] * 4,
            "epsilon": 0.1,
        }
        report = cmd_theory(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"))
        assert report["vacuous"]
        assert report["pc_lower_bound"] == 0.0

    def test_analytic_beta_from_norm_bounds(self, tmp_path):
        cfg = base_config()
        cfg["model"]["norm_bound"] = 1.0
        cfg["theory"] = {"target_risk": 0.1, "beta": "analytic", "epsilon": 0.1}
        report = cmd_theory(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"))
        assert report["inputs"]["beta_source"] == "analytic-norm-product"
        assert len(report["inputs"]["beta"]) == 4
        assert all(b > 0 for b in report["inputs"]["beta"])
        # complexity constants were derived from the same norm bounds
        assert len(report["inputs"]["complexity_constants"]) == 4

    @pytest.mark.parametrize(
        "theory, message",
        [
            (None, "needs a 'theory' config block"),
            ({"target_risk": 0.1, "beta": "analytic"}, "analytic"),
            ({"target_risk": 0.1}, "complexity_constants"),
        ],
    )
    def test_rejected_inputs_write_nothing(self, tmp_path, capsys, theory, message):
        cfg = base_config()
        if theory is None:
            del cfg["theory"]
        else:
            cfg["theory"] = theory
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["theory", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_three_classes_exit_1_naming_classes(self, tmp_path, capsys):
        # the exponent and the bounds are those of a binary test
        path = write_config(tmp_path, three_class_config())
        out = tmp_path / "out"
        assert main(["theory", "--config", str(path), "--out", str(out)]) == 1
        assert "classes" in capsys.readouterr().err
        assert not out.exists()

    def test_a_fault_in_a_bound_is_a_runtime_failure(self, tmp_path, capsys, monkeypatch):
        # a fault inside the analytic bounds is a bug, not bad input: exit 2
        def faulty(arch):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr("socialml.theory.logit_bound", faulty)
        cfg = base_config()
        cfg["model"]["norm_bound"] = 1.0
        cfg["theory"] = {"target_risk": 0.1, "beta": "analytic", "epsilon": 0.1}
        path = write_config(tmp_path, cfg)
        assert main(["theory", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "runtime failure: ZeroDivisionError" in capsys.readouterr().err

    def test_analytic_beta_requires_norm_bound(self, tmp_path):
        cfg = base_config()
        cfg["theory"] = {"target_risk": 0.1, "beta": "analytic", "epsilon": 0.1}
        with pytest.raises(ConfigError, match="analytic"):
            cmd_theory(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"))


class TestCliEntry:
    def test_train_and_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "risk_trace.csv").exists()

    def test_diverged_training_names_repetition_and_agent(self, tmp_path, capsys):
        cfg = base_config()
        cfg["model"]["learning_rate"] = 1e308
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "TrainingDiverged" in err
        assert "repetition" in err and "agent" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "predict", "montecarlo"])
    def test_no_training_rows_exits_1_writing_nothing(self, tmp_path, capsys, command):
        # a valid config for theory, which needs no training scene
        path = write_config(tmp_path, base_config(train_per_class=0))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert "train_per_class" in capsys.readouterr().err
        assert not out.exists()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(engine="asl"))  # missing delta
        code = main(["predict", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "validation error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", "o"])
        assert code == 1

    def test_seed_override_changes_outputs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
        assert main(["montecarlo", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["montecarlo", "--config", str(path), "--out", str(out2),
                     "--seed-override", "43"]) == 0
        assert main(["montecarlo", "--config", str(path), "--out", str(out3)]) == 0
        base = (out1 / "montecarlo.csv").read_bytes()
        assert base != (out2 / "montecarlo.csv").read_bytes()
        assert base == (out3 / "montecarlo.csv").read_bytes()

    def test_seed_override_validates_and_builds_the_scene_once(self, tmp_path, monkeypatch):
        import socialml.cli
        import socialml.config

        counts = {"validate_config": 0, "GaussianClassModel": 0}
        validate, post_init = validate_config, GaussianClassModel.__post_init__

        def counting_validate(*args, **kwargs):
            counts["validate_config"] += 1
            return validate(*args, **kwargs)

        def counting_post_init(model):
            counts["GaussianClassModel"] += 1
            post_init(model)

        for module in (socialml.cli, socialml.config):
            monkeypatch.setattr(module, "validate_config", counting_validate)
        monkeypatch.setattr(GaussianClassModel, "__post_init__", counting_post_init)
        path = write_config(tmp_path, base_config())
        assert main(["predict", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--seed-override", "43"]) == 0
        # one model per (agent, class): 4 agents, 2 classes
        assert counts == {"validate_config": 1, "GaussianClassModel": 4 * 2}

    def test_calls_in_one_process_parse_independently(self, tmp_path, monkeypatch):
        # the parser is built once; a flag given to one call reaches no other
        import socialml.cli

        seen = []

        def record(cfg, out_dir, threads):
            seen.append((cfg.seed, cfg.montecarlo["replications"], threads))
            return {"replications": 0, "final_error": {}}

        monkeypatch.setattr(socialml.cli, "cmd_montecarlo", record)
        path = write_config(tmp_path, base_config())
        args = ["montecarlo", "--config", str(path), "--out", str(tmp_path / "o")]
        overrides = ["--threads", "2", "--seed-override", "43", "--replications-override", "1"]
        assert main(args + overrides) == 0
        assert main(args) == 0
        assert main(args + ["--seed-override", "44"]) == 0
        reps = base_config()["montecarlo"]["replications"]
        assert seen == [(43, 1, 2), (42, reps, 1), (44, reps, 1)]
        assert socialml.cli._parser() is socialml.cli._parser()

    def test_replications_override(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out),
                     "--replications-override", "1"]) == 0
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["replications"] == 1

    @pytest.mark.parametrize("command", ["train", "predict", "theory"])
    @pytest.mark.parametrize("flag", ["--threads", "--replications-override"])
    def test_montecarlo_flags_rejected_elsewhere(self, tmp_path, command, flag):
        path = write_config(tmp_path, base_config())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--out", str(tmp_path / "o"), flag, "2"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_validate_data_subcommand(self, tmp_path, capsys):
        blob = tmp_path / "x.bin"
        blob.write_bytes(b"abc")
        from socialml.data import file_sha256

        good = tmp_path / "manifest.json"
        good.write_text(
            json.dumps({"files": {"x": {"path": "x.bin", "sha256": file_sha256(blob)}}})
        )
        assert main(["validate-data", "--config", str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"files": {"x": {"path": "x.bin", "sha256": "0" * 64}}}))
        assert main(["validate-data", "--config", str(bad)]) == 1


class TestEndToEndDeterminism:
    def test_train_byte_identical(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        cmd_train(cfg, str(tmp_path / "a"))
        cmd_train(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "risk_trace.csv").read_bytes() == (
            tmp_path / "b" / "risk_trace.csv"
        ).read_bytes()
        for k in range(4):
            assert (tmp_path / "a" / "models" / f"agent_{k}.json").read_bytes() == (
                tmp_path / "b" / "models" / f"agent_{k}.json"
            ).read_bytes()

    def test_predict_byte_identical(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        cmd_predict(cfg, str(tmp_path / "a"))
        cmd_predict(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() == (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()

    def test_sml_only_strategy(self, tmp_path):
        # a strategy run alone writes the rows it writes beside the other, on
        # a Gaussian and an image scene: neither strategy's training or
        # evaluation moves the other's draws
        images = noisy_image_config(tmp_path)
        for scene, cfg_dict in (("gaussian", base_config()), ("images", images)):
            rows = {}
            for strategies in (["sml"], ["adaboost"], ["sml", "adaboost"]):
                cfg_dict["montecarlo"]["strategies"] = strategies
                cfg = validate_config(cfg_dict, str(tmp_path))
                out = tmp_path / scene / "-".join(strategies)
                cmd_montecarlo(cfg, str(out))
                rows[out.name] = (out / "montecarlo.csv").read_text().splitlines()[2:]
            assert all(line.split(",")[1] == "sml" for line in rows["sml"])
            assert len(rows["sml"]) == cfg_dict["montecarlo"]["horizon"]
            for strategy in ("sml", "adaboost"):
                both = [line for line in rows["sml-adaboost"] if f",{strategy}," in line]
                assert both == rows[strategy], (scene, strategy)
            assert erring_strategies(rows["sml-adaboost"]) == {"sml", "adaboost"}, scene


class TestThreadedMontecarlo:
    def test_parallel_matches_serial(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["montecarlo"]["replications"] = 2
        path = write_config(tmp_path, cfg_dict)
        cfg = load_config(path)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        cmd_montecarlo(cfg, str(serial), threads=1)
        cmd_montecarlo(cfg, str(parallel), threads=2)
        assert (serial / "montecarlo.csv").read_bytes() == (
            parallel / "montecarlo.csv"
        ).read_bytes()

    def test_image_parallel_matches_serial(self, tmp_path):
        # an IDX dataset and its CSV twin: the pool's workers read the IDX
        # file by path and the CSV scene's pickled images
        for fmt in ("idx", "csv"):
            directory = tmp_path / fmt
            directory.mkdir()
            cfg = load_config(write_config(directory, noisy_image_config(directory, fmt)))
            serial, parallel = directory / "s", directory / "p"
            cmd_montecarlo(cfg, str(parallel), threads=2)
            cmd_montecarlo(cfg, str(serial), threads=1)
            rows = (serial / "montecarlo.csv").read_text()
            assert (parallel / "montecarlo.csv").read_text() == rows, fmt
            # a pool that drew or trained otherwise would move these rows
            assert erring_strategies(rows.splitlines()[2:]) == {"sml", "adaboost"}


def three_class_config(**overrides):
    agents = [
        {
            "0": {"mean": [0.8, 0.0], "cov": np.eye(2).tolist()},
            "1": {"mean": [-0.4, 0.7], "cov": np.eye(2).tolist()},
            "2": {"mean": [-0.4, -0.7], "cov": np.eye(2).tolist()},
        }
        for _ in range(4)
    ]
    cfg = base_config(
        classes=[0, 1, 2],
        data={"type": "gaussian", "agents": agents},
        schedule={"period": 4},
    )
    cfg["montecarlo"] = {
        "replications": 2,
        "eval_streams": 4,
        "horizon": 12,
        "observe_agent": 0,
        "strategies": ["sml"],
    }
    cfg.update(overrides)
    return cfg


def three_class_image_config(directory):
    """A 2x2-agent image scene of three classes over an IDX dataset written
    to ``directory``."""
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(3, dtype=np.uint8), 30)
    images = rng.integers(0, 256, (labels.size, 8, 8), dtype=np.uint8)
    images[labels == 1, :3] = 255
    images[labels == 2, :, :2] = 0
    write_image_files(directory, images, labels, "idx")
    cfg = image_config("dataset.json", classes=["a", "b", "c"], schedule={"period": 3})
    cfg["data"]["label_map"] = {"a": 0, "b": 1, "c": 2}
    cfg["montecarlo"]["strategies"] = ["sml"]
    return validate_config(cfg, str(directory))


@pytest.fixture(scope="module", params=["gaussian-demo", "three-class-images"])
def trained_scene(request, tmp_path_factory):
    """A config and the statistics of its replication-0 models."""
    if request.param == "gaussian-demo":
        cfg = load_config(CONFIGS / "gaussian_demo.json")
    else:
        cfg = three_class_image_config(tmp_path_factory.mktemp("images"))
    (statistics,) = _trained_statistics(cfg, [0], shared_scene_training(cfg, [0]))
    return cfg, statistics


class TestPredictIsReplicationZero:
    """``predict`` runs a prefix of Monte Carlo replication 0's first stream:
    its models and its stream come from the same seed paths, whatever chunk
    the replication trains in and whatever the two lengths."""

    @pytest.mark.parametrize("short, long, n_streams", [(1, 7, 3), (5, 6, 1), (9, 40, 4)])
    def test_predict_stream_is_a_prefix_of_the_first_stream(
        self, trained_scene, short, long, n_streams
    ):
        cfg, statistics = trained_scene
        ((views, states),) = _streams(cfg, 0, 1, (0, short))
        ((batch, batch_states),) = _streams(cfg, 0, n_streams, (0, long))
        assert states.tolist() == batch_states[:short].tolist()
        for view, rows in zip(views, batch):
            assert np.array_equal(view[0], rows[0, :short])
        n_classes = len(cfg.classes)
        alone = run_prediction(
            cfg.matrix, statistics, [v[0] for v in views], states, n_classes, delta=cfg.delta
        )
        batched = run_prediction(
            cfg.matrix, statistics, batch, batch_states, n_classes, delta=cfg.delta
        )
        assert np.array_equal(alone.picks, batched.picks[0, :short])
        # a one-step stream's statistics come from BLAS's matrix-vector path,
        # so the last bits of its lambda may differ from the batch's
        np.testing.assert_allclose(alone.lam, batched.lam[0, :short], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("reps", [[0], [0, 1, 2]], ids=["alone", "chunk-of-3"])
    @pytest.mark.parametrize("engine", [{"engine": "sl"}, {"engine": "asl", "delta": 0.1}],
                             ids=["sl", "asl"])
    @pytest.mark.parametrize("make", [base_config, three_class_config],
                             ids=["two-classes", "three-classes"])
    def test_sml_error_equals_the_trajectory(self, tmp_path, make, engine, reps):
        cfg_dict = make(**engine)
        # one stream: a batch of several may round a tie differently
        horizon = cfg_dict["stream_length"]
        cfg_dict["montecarlo"].update(
            eval_streams=1, horizon=horizon, observe_agent=2, strategies=["sml"]
        )
        cfg = validate_config(cfg_dict, str(tmp_path))
        cmd_predict(cfg, str(tmp_path))
        observed = str(cfg.montecarlo["observe_agent"])
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
        # one row per (step, agent, lambda component), the same correct flag in each
        correct = {}
        for row in rows:
            _, i, k, *_, flag = row.split(",")
            if k == observed:
                correct[int(i)] = int(flag)
        want = 1.0 - np.array([correct[i] for i in range(horizon)])
        assert montecarlo_chunk(cfg, reps)[0]["sml"].tolist() == want.tolist()


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.fixture
def fake_pool(monkeypatch):
    import concurrent.futures

    FakePool.sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool


class TestMontecarloClasses:
    def test_reference_class_minus_one(self, tmp_path):
        # with -1 as the reference class, lambda >= 0 decides -1, and AdaBoost
        # still takes +1 and -1 as they are; a well separated scene must then
        # be classified, not inverted, by both strategies
        cfg = base_config(
            classes=[-1, 1],
            data={"type": "gaussian", "agents": gaussian_agents(4, 1, 1.0)},
            schedule={"segments": [[0, 1]]},
        )
        cfg["model"].update(epochs=10, learning_rate=0.1)
        cfg["montecarlo"] = {
            "replications": 2,
            "eval_streams": 10,
            "horizon": 20,
            "observe_agent": 0,
            "strategies": ["sml", "adaboost"],
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["final_error"]["sml"] < 0.5
        assert summary["final_error"]["adaboost"] < 0.5

    def test_string_labels_write_the_rows_of_plus_minus_one(self, tmp_path):
        # both strategies run on class indices, so the same scene under two
        # string labels writes the rows it writes under [1, -1]; only the
        # config digest line differs, on a Gaussian and an image scene
        images = noisy_image_config(tmp_path)

        def gaussian(classes):
            agents = [
                {str(label): spec for label, spec in zip(classes, agent.values())}
                for agent in gaussian_agents()
            ]
            return base_config(classes=classes, data={"type": "gaussian", "agents": agents})

        def image(classes):
            label_map = {str(label): raw for label, raw in zip(classes, (1, 2))}
            data = {**images["data"], "label_map": label_map}
            return {**images, "classes": classes, "data": data}

        for scene in (gaussian, image):
            bodies = []
            for classes in ([1, -1], ["p", "m"]):
                cfg = scene(classes)
                cfg["montecarlo"]["strategies"] = ["sml", "adaboost"]
                out = tmp_path / f"{scene.__name__}{classes[0]}"
                path = write_config(tmp_path, cfg)
                assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
                lines = (out / "montecarlo.csv").read_text().splitlines()
                assert lines[0].startswith("# config=")
                bodies.append(lines[1:])
            assert bodies[0] == bodies[1], scene.__name__
            assert {line.split(",")[1] for line in bodies[0][1:]} == {"sml", "adaboost"}
            assert erring_strategies(bodies[0][1:]) == {"sml", "adaboost"}, scene.__name__

    def test_three_class_sml(self, tmp_path):
        path = write_config(tmp_path, three_class_config())
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "montecarlo.csv").read_text().splitlines()[2:]
        assert len(lines) == 12
        grid = 2 * 4  # replications x eval_streams
        for line in lines:
            steps = float(line.split(",")[2]) * grid
            assert steps == pytest.approx(round(steps), abs=1e-9)

    def test_three_class_adaboost_rejected_before_work(self, tmp_path, capsys):
        cfg = three_class_config()
        cfg["montecarlo"]["strategies"] = ["sml", "adaboost"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        assert "classes" in capsys.readouterr().err
        assert not out.exists()


def loaded_after_cli_import(tmp_path, module: str) -> bool:
    """Whether importing the CLI and loading a config loads ``module``, in a
    fresh interpreter."""
    path = write_config(tmp_path, base_config())
    code = (
        "import sys\n"
        "import socialml.cli\n"
        "from socialml.config import load_config\n"
        f"load_config({str(path)!r})\n"
        f"print({module!r} in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(socialml.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return out.stdout.strip() == "True"


def test_package_import_leaves_process_pool_unloaded(tmp_path):
    # only a montecarlo run with --threads above 1 starts a pool
    assert not loaded_after_cli_import(tmp_path, "concurrent.futures.process")


def test_package_import_leaves_theory_unloaded(tmp_path):
    # only the theory command imports it
    assert not loaded_after_cli_import(tmp_path, "socialml.theory")


def test_package_import_leaves_dataclasses_unloaded(tmp_path):
    # the records are built on base.Record, not @dataclass
    assert not loaded_after_cli_import(tmp_path, "dataclasses")


def test_theory_error_in_cmd_theory_exits_1(tmp_path, capsys, monkeypatch):
    import socialml.theory

    def fail(*args):
        raise socialml.theory.TheoryError("injected bound failure")

    monkeypatch.setattr(socialml.theory, "pc_lower_bound", fail)
    path = write_config(tmp_path, base_config())
    assert main(["theory", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "validation error: injected bound failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "module, error, code",
    [
        ("config", "ConfigError", 1),
        ("data", "DataError", 1),
        ("graph", "GraphError", 1),
        ("mlp", "ModelError", 1),
        ("social", "SocialLearningError", 1),
        ("stats", "StatisticError", 1),
        ("theory", "TheoryError", 1),
        ("boosting", "BoostingError", 1),
        ("mlp", "TrainingDiverged", 2),
    ],
)
def test_error_exit_codes(tmp_path, capsys, monkeypatch, module, error, code):
    import importlib

    import socialml.cli

    error_class = getattr(importlib.import_module(f"socialml.{module}"), error)

    def fail(*args):
        raise error_class("injected")

    monkeypatch.setattr(socialml.cli, "cmd_train", fail)
    path = write_config(tmp_path, base_config())
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == code
    prefix = "validation error: " if code == 1 else f"runtime failure: {error}: "
    assert capsys.readouterr().err == prefix + "injected\n"


class TestThreadsFlag:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_below_one_rejected(self, tmp_path, capsys, fake_pool, threads):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        code = main(["montecarlo", "--config", str(path), "--out", str(out),
                     "--threads", threads])
        assert code == 1
        assert "--threads" in capsys.readouterr().err
        assert fake_pool.sizes == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "cpus, reps, sizes", [(2, 3, [2]), (8, 3, [3]), (8, 1, []), (1, 3, [])]
    )
    def test_pool_clamped(self, tmp_path, monkeypatch, fake_pool, cpus, reps, sizes):
        # 64 requested workers become min(64, replications, the cpus this
        # process may run on of the host's 8); one worker runs in-process,
        # without a pool, so a process allowed 1 CPU runs serially
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "process_cpu_count", lambda: cpus, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = base_config()
        cfg["montecarlo"]["replications"] = reps
        cmd_montecarlo(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"), threads=64)
        assert fake_pool.sizes == sizes

    @pytest.mark.parametrize(
        "present, cpus",
        [(("process_cpu_count", "sched_getaffinity"), 1), (("sched_getaffinity",), 2), ((), 8)],
    )
    def test_usable_cpus_sources(self, monkeypatch, present, cpus):
        # the process's own count first, then its affinity mask, then the
        # host's count, on an 8-CPU host
        fakes = {"process_cpu_count": lambda: 1, "sched_getaffinity": lambda pid: {0, 1}}
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for name, fake in fakes.items():
            if name in present:
                monkeypatch.setattr(os, name, fake, raising=False)
            else:
                monkeypatch.delattr(os, name, raising=False)
        assert usable_cpus() == cpus
