"""The CSV artifacts byte for byte against the row-at-a-time reference writer.

The reference below is the package's former writer: one tuple per row and
one formatted cell at a time, floats through ``repr(float(x))``.  The block
writer must give exactly its bytes, and its memory must not grow with the
length of the stream.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from socialml.config import validate_config
from socialml.experiments import (
    TRAJECTORY_BLOCK_ROWS,
    _trajectory_lines,
    _write_csv,
    cmd_montecarlo,
    cmd_theory,
    cmd_train,
    montecarlo_chunk,
    shared_scene_training,
    train_agents,
)
from socialml.social import PredictionRun
from socialml.theory import approx_exponent, exact_exponent
from test_cli import base_config

TRAJECTORY_COLUMNS = (
    "run_id", "i", "agent", "gamma_or_binary", "lambda", "decision", "true_state", "correct"
)
EXTREMES = (0.0, -0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308)


# --- reference writer -------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def reference_lines(rows) -> str:
    return "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def reference_csv(cfg, columns, rows) -> str:
    head = f"# config={cfg.digest[:16]} seed={cfg.seed}\n" + ",".join(columns) + "\n"
    return head + reference_lines(rows)


def reference_trajectory_rows(run, states, classes):
    gammas = [str(g) for g in classes[1:]]
    return (
        (
            0,
            i,
            k,
            gamma,
            float(run.lam[i, k, j]),
            classes[run.picks[i, k]],
            classes[states[i]],
            int(run.correct[i, k]),
        )
        for i in range(run.horizon)
        for k in range(run.lam.shape[1])
        for j, gamma in enumerate(gammas)
    )


# --- trajectory.csv -------------------------------------------------------------


def block_steps(n_agents: int, n_classes: int) -> int:
    return max(1, TRAJECTORY_BLOCK_ROWS // (n_agents * (n_classes - 1)))


def built_run(classes, n_agents: int, horizon: int, seed: int) -> tuple:
    """A run with random picks and lambdas that mix every extreme value in,
    and its true class-index track: ``(run, states)``."""
    rng = np.random.default_rng(seed)
    shape = (horizon, n_agents, len(classes) - 1)
    lam = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    signed = np.array(EXTREMES + tuple(-x for x in EXTREMES))
    flat = lam.reshape(-1)
    flat[: signed.size] = signed[: flat.size]
    pick = rng.random(flat.size) < 0.3
    flat[pick] = rng.choice(signed, int(pick.sum()))
    truth = rng.integers(len(classes), size=horizon)
    picks = rng.integers(len(classes), size=(horizon, n_agents))
    return PredictionRun(lam, picks, picks == truth[:, None]), truth


@st.composite
def runs(draw):
    classes = draw(
        st.sampled_from(
            [
                (1, -1),
                (-1, 1),
                (0, -2, 5),
                (-3, 0, 7),
                ("a", "b", "c"),
                ("a", "5%", "%d"),
                (1, "1", 3),
            ]
        )
    )
    n_agents = draw(st.integers(1, 4))
    block = block_steps(n_agents, len(classes))
    rest = draw(st.integers(1, block - 1)) if block > 1 else 0
    horizon = draw(st.sampled_from([1, max(block - 1, 1), block, block + 1, 3 * block + rest]))
    run, states = built_run(classes, n_agents, horizon, draw(st.integers(0, 2**32 - 1)))
    return run, states, classes


class TestTrajectoryLines:
    @settings(max_examples=40, deadline=None)
    @given(runs())
    def test_equals_reference_rows(self, drawn):
        run, states, classes = drawn
        got = "".join(_trajectory_lines(run, states, classes))
        assert got == reference_lines(reference_trajectory_rows(run, states, classes))

    def test_blocks_hold_a_fixed_number_of_rows(self):
        run, states = built_run((1, 2, 3), 4, 3 * block_steps(4, 3) + 5, seed=0)
        sizes = [block.count("\n") for block in _trajectory_lines(run, states, (1, 2, 3))]
        assert sizes == [TRAJECTORY_BLOCK_ROWS] * 3 + [5 * 4 * 2]

    def test_write_memory_flat_in_stream_length(self, tmp_path):
        cfg = SimpleNamespace(digest="0" * 64, seed=0)

        def peak(horizon: int) -> int:
            run, states = built_run((1, -1), 1, horizon, seed=horizon)
            tracemalloc.start()
            try:
                lines = _trajectory_lines(run, states, (1, -1))
                _write_csv(tmp_path / "trajectory.csv", cfg, TRAJECTORY_COLUMNS, lines)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2_000), peak(32_000)
        assert long <= 1.5 * short, (short, long)


# --- the other CSV artifacts --------------------------------------------------


class TestOtherArtifacts:
    def test_risk_trace(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        cmd_train(cfg, str(tmp_path / "out"))
        scene = shared_scene_training(cfg, rep=0)
        _, risks, _ = train_agents(cfg, range(cfg.repetitions), [scene] * cfg.repetitions)
        rows = [
            (k, rep, epoch, float(risk))
            for rep, row in enumerate(risks)
            for k, trace in enumerate(row)
            for epoch, risk in enumerate(trace)
        ]
        columns = ("agent", "repetition", "epoch", "empirical_risk")
        text = (tmp_path / "out" / "risk_trace.csv").read_text()
        assert text == reference_csv(cfg, columns, rows)

    def test_montecarlo(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        cmd_montecarlo(cfg, str(tmp_path / "out"))
        mc = cfg.montecarlo
        reps = mc["replications"]
        results = [montecarlo_chunk(cfg, [rep])[0] for rep in range(reps)]
        rows = []
        for strategy in sorted(mc["strategies"]):
            table = np.stack([res[strategy] for res in results])
            rate = table.mean(axis=0)
            stderr = table.std(axis=0, ddof=1) / math.sqrt(reps)
            for i in range(mc["horizon"]):
                rows.append((i + 1, strategy, float(rate[i]), float(stderr[i])))
        rows.sort(key=lambda r: (r[0], r[1]))
        columns = ("i", "strategy", "error_rate", "stderr")
        text = (tmp_path / "out" / "montecarlo.csv").read_text()
        assert text == reference_csv(cfg, columns, rows)

    def test_exponent_grid(self, tmp_path):
        cfg = validate_config(base_config(), str(tmp_path))
        cmd_theory(cfg, str(tmp_path / "out"))
        points = cfg.theory["grid_points"]
        rows = []
        for j in range(points):
            r = 0.999 * math.log(2) * j / max(points - 1, 1)
            rows.append((r, exact_exponent(r), approx_exponent(r)))
        columns = ("target_risk", "exact_exponent", "approx_exponent")
        text = (tmp_path / "out" / "exponent_grid.csv").read_text()
        assert text == reference_csv(cfg, columns, rows)
