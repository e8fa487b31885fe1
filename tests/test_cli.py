import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import socialml
from socialml.cli import main
from socialml.config import (
    PHASE_TRAIN_MODEL,
    ConfigError,
    load_config,
    validate_config,
)
from socialml.data import GaussianClassModel
from socialml.experiments import (
    cmd_montecarlo,
    cmd_predict,
    cmd_theory,
    cmd_train,
    montecarlo_chunk,
    replication_chunks,
    shared_scene_training,
)
from socialml.mlp import load_model, train_stack
from socialml.seeds import derived_seeds
from socialml.social import periodic_schedule
from hypothesis import given, settings
from hypothesis import strategies as st
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
    ("train", _image_override(height=8.0), "data.height"),
    ("train", _image_override(width=8.5), "data.width"),
    ("train", _image_override(layout=[2.0, 2]), "data.layout"),
    ("train", _image_override(label_map=[0, 1]), "data.label_map"),
]


class TestConfigNumbers:
    """Numbers that must be integers exit 1 naming their field instead of
    being truncated; theory numbers that are not finite numbers exit 1
    naming their field instead of failing inside the command."""

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
        views, labels = shared_scene_training(cfg, rep=0)
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
        with np.errstate(all="ignore"):
            code = main(["montecarlo", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        # replications train in lockstep: the first to diverge is named
        assert "TrainingDiverged: replication " in err
        assert all(name in err for name in names)


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
        # the config builds the schedule once, over the longer of the two
        # streams; the shorter one reads a prefix of it
        raw = base_config(schedule={"period": period}, stream_length=stream_length)
        raw["montecarlo"]["horizon"] = horizon
        schedule = validate_config(raw).schedule
        for length in (stream_length, horizon):
            alone = periodic_schedule(period, [0, 1], length)
            assert np.array_equal(schedule.states(length), alone.states(length))
            assert [s for s in schedule.segments if s[0] < length] == list(alone.segments)


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
        # one hidden layer of 8, 200 training rows, 3 replications
        images = np.zeros((4, 28, 28), dtype=np.uint8)
        (tmp_path / "images.idx").write_bytes(
            struct.pack(">IIII", 0x00000803, 4, 28, 28) + images.tobytes()
        )
        (tmp_path / "labels.idx").write_bytes(struct.pack(">II", 0x00000801, 4) + bytes(4))
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

        write_idx_dataset(tmp_path, np.random.default_rng(8), n_per_class=40)
        cfg_dict = image_config("dataset.json")
        cfg_dict["montecarlo"].update(replications=3, eval_streams=6, horizon=12)
        cfg = validate_config(cfg_dict, str(tmp_path))
        assert replication_chunks(cfg, 1) == [[range(0, 3)]]
        cmd_montecarlo(cfg, str(tmp_path / "whole"))
        monkeypatch.setattr(experiments, "CHUNK_INPUT_BYTES", 1)
        assert replication_chunks(cfg, 1) == [[range(r, r + 1) for r in range(3)]]
        cmd_montecarlo(cfg, str(tmp_path / "split"))
        assert (tmp_path / "whole" / "montecarlo.csv").read_bytes() == (
            tmp_path / "split" / "montecarlo.csv"
        ).read_bytes()


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
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "TrainingDiverged" in err
        assert "repetition" in err and "agent" in err

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
        cfg_dict = base_config()
        cfg_dict["montecarlo"]["strategies"] = ["sml"]
        cfg = validate_config(cfg_dict, str(tmp_path))
        out = tmp_path / "out"
        cmd_montecarlo(cfg, str(out))
        lines = (out / "montecarlo.csv").read_text().splitlines()[2:]
        assert all(line.split(",")[1] == "sml" for line in lines)
        assert len(lines) == 12


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
        write_idx_dataset(tmp_path, np.random.default_rng(5), n_per_class=60)
        cfg_dict = image_config("dataset.json")
        cfg_dict["montecarlo"].update(replications=3, eval_streams=5, horizon=10)
        cfg = load_config(write_config(tmp_path, cfg_dict))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        cmd_montecarlo(cfg, str(parallel), threads=2)
        cmd_montecarlo(cfg, str(serial), threads=1)
        assert (serial / "montecarlo.csv").read_bytes() == (
            parallel / "montecarlo.csv"
        ).read_bytes()


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
        ("boosting", "BoostingError", 2),
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

    @pytest.mark.parametrize("cpus, reps, sizes", [(2, 3, [2]), (8, 3, [3]), (8, 1, [])])
    def test_pool_clamped(self, tmp_path, monkeypatch, fake_pool, cpus, reps, sizes):
        # 64 requested workers become min(64, replications, cpu count); one
        # worker runs in-process, without a pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = base_config()
        cfg["montecarlo"]["replications"] = reps
        cmd_montecarlo(validate_config(cfg, str(tmp_path)), str(tmp_path / "out"), threads=64)
        assert fake_pool.sizes == sizes
