"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values (run with ``pytest -v -s``)."""

import itertools
import math
import time

import numpy as np

from socialml.config import load_config, read_config, validate_config
from socialml.data import prediction_streams, true_log_ratio
from socialml.experiments import cmd_montecarlo
from socialml.graph import CombinationMatrix, build_averaging_matrix, perron_eigenvector
from socialml.mlp import (
    MLPArchitecture,
    MLPModel,
    TrainingHyperparameters,
    initialize_model,
    reference_logits,
    train_stack,
)
from socialml.social import (
    RegimeSchedule,
    run_prediction,
    sl_step,
)
from socialml.stats import make_debiased_statistic
from socialml.theory import (
    LOG2,
    approx_exponent,
    exact_exponent,
    mlp_rademacher_bound,
    rademacher_monte_carlo,
    self_consistency_check,
)
from helpers import (
    CONFIGS,
    cross_entropy_risk,
    empirical_training_mean,
    gaussian_training_set,
    gradient_check,
    logistic_risk,
    mean_shift_gaussian_spec,
)

RING4 = CombinationMatrix(
    np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.5, 0.0, 0.0, 0.5],
        ]
    )
)


def report(n, name, detail):
    print(f"ACCEPTANCE {n:2d} ({name}): PASS  [{detail}]")


def test_criterion_01_uninformed_risks():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(64, 3))
    gap = abs(logistic_risk(np.zeros(64), feats, np.array([1, -1] * 32)) - math.log(2))
    assert gap < 1e-15

    worst_ce = 0.0
    for m in (2, 3, 5, 10):
        feats = rng.normal(size=(30, 4))
        labels = np.arange(30) % m
        sizes = (5, m)
        zero = MLPModel(
            MLPArchitecture(sizes),
            (np.zeros((m, 5)),),
        )
        worst_ce = max(worst_ce, abs(cross_entropy_risk(zero, feats, labels) - math.log(m)))
    assert worst_ce < 1e-12
    report(1, "uninformed risks", f"log2 gap {gap:.1e}, worst logM gap {worst_ce:.1e}")


def test_criterion_02_exponent_constants():
    start = time.monotonic()
    eps0 = exact_exponent(0.0)
    assert abs(4.0 * eps0 - 0.2812) < 1e-4

    grid = np.linspace(0.0, LOG2 * 0.999, 100)
    worst_residual = 0.0
    for r in grid:
        y = math.exp(4.0 * exact_exponent(r))
        worst_residual = max(worst_residual, abs(math.exp(r) * y**3 - y - 1.0))
    assert worst_residual < 1e-12

    worst_fit = max(
        abs(approx_exponent(r) - exact_exponent(r))
        for r in np.linspace(0.0, 0.95 * LOG2, 200)
    )
    assert worst_fit <= 0.02 * eps0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(
        2,
        "exponent constants",
        f"4*exp(0)={4 * eps0:.5f}, residual {worst_residual:.1e}, "
        f"fit {worst_fit / eps0:.2%} of exp(0), {elapsed:.2f}s",
    )


def test_criterion_03_perron_suite():
    start = time.monotonic()
    pi = perron_eigenvector(RING4)
    assert np.max(np.abs(pi - 0.25)) < 1e-10

    doubly = CombinationMatrix(np.full((5, 5), 0.2))
    assert np.max(np.abs(perron_eigenvector(doubly) - 0.2)) < 1e-10

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 21))
        adj = np.eye(size, dtype=bool)
        order = rng.permutation(size)
        for a, b in zip(order, order[1:]):
            adj[a, b] = adj[b, a] = True
        extra = rng.random((size, size)) < 0.25
        adj |= extra & extra.T
        matrix = build_averaging_matrix(adj)
        values = perron_eigenvector(matrix)
        worst = max(worst, float(np.max(np.abs(matrix.weights @ values - values))))
    assert worst < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, "perron suite", f"worst residual {worst:.1e}, {elapsed:.2f}s")


def test_criterion_04_sl_time_average_limit():
    start = time.monotonic()
    c = np.array([0.0, 0.1, 0.0, 0.0])
    target = float(perron_eigenvector(RING4) @ c)
    lam = np.zeros(4)
    for _ in range(2000):
        lam = sl_step(lam, RING4, c)
    gap = float(np.max(np.abs(lam / 2000 - target)))
    assert gap < 1e-2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(4, "sl time-average limit", f"max |lambda/i - target| = {gap:.2e}")


def test_criterion_05_debias_invariants():
    rng = np.random.default_rng(5)
    hyper = TrainingHyperparameters(epochs=5, batch_size=8, learning_rate=0.05)
    worst_center = 0.0
    worst_reduction = 0.0
    for trial in range(10):
        # binary agent
        feats = rng.normal(size=(60, 2)) + np.repeat([[0.4], [-0.4]], 30, axis=0)
        labels = np.repeat([0, 1], 30)
        (model,), _, _ = train_stack([feats], [labels], MLPArchitecture((3, 6, 2)), hyper, [trial])
        stat = make_debiased_statistic(model, reference_logits(model, feats), labels, (1, -1))
        worst_center = max(worst_center, abs(float(stat.scalar(feats).mean())))

        # the single general-path component must equal the binary path, and
        # its centering constant must equal the plain training mean
        h = rng.normal(size=(25, 2))
        worst_reduction = max(
            worst_reduction,
            float(np.max(np.abs(stat.scalar(h) - stat(h)[:, 0]))),
            abs(stat.train_means[0] - empirical_training_mean(model, feats)),
        )

        # three-class agent
        feats3 = rng.normal(size=(60, 2)) + np.repeat(
            [[0.5, 0.0], [0.0, 0.5], [-0.5, -0.5]], 20, axis=0
        )
        labels3 = np.repeat([0, 1, 2], 20)
        arch3 = MLPArchitecture((3, 6, 3))
        (model3,), _, _ = train_stack([feats3], [labels3], arch3, hyper, [100 + trial])
        stat3 = make_debiased_statistic(
            model3, reference_logits(model3, feats3), labels3, (0, 1, 2)
        )
        values = stat3(feats3)
        for j, cls in enumerate((1, 2)):
            pair = (labels3 == 0) | (labels3 == cls)
            worst_center = max(worst_center, abs(float(values[pair, j].mean())))
    assert worst_center < 1e-10
    assert worst_reduction < 1e-12
    report(
        5,
        "debias invariants",
        f"20 agents, worst centering {worst_center:.1e}, "
        f"reduction gap {worst_reduction:.1e}",
    )


def test_criterion_06_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(6)
    worst = 0.0
    for sizes, n_classes in (((2, 8, 2), 2), ((2, 8, 8, 3), 3)):
        feats = rng.normal(size=(16, sizes[0] - 1))
        labels = np.arange(16) % n_classes
        model = initialize_model(MLPArchitecture(sizes), rng)
        worst = max(worst, gradient_check(model, feats, labels, eps=1e-5))
    assert worst < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(6, "gradient check", f"max relative error {worst:.1e}, {elapsed:.1f}s")


def test_criterion_07_gaussian_scene_growth():
    # Desk-scale variant of the 2-D Gaussian demo, on its config's scene,
    # model and ring: only agent 1 (0-indexed) can tell the classes apart,
    # through a covariance contrast.  The curve averaged over 10 seeded
    # experiments must grow linearly: positive at i=100 and larger at i=200.
    # Per-run counts are reported for reference; at this training budget
    # individual runs stay noisy.
    start = time.monotonic()
    demo = load_config(CONFIGS / "gaussian_demo.json")
    spec = demo.scene
    sched = RegimeSchedule(((0, 0),))  # class +1
    lam100, lam200 = [], []
    # all 40 models train in lockstep, each with the seed it had when trained alone
    datasets = {
        (s, k): gaussian_training_set(spec, k, 100, seed=1000 + 7 * s + k)
        for s in range(10, 20)
        for k in range(4)
    }
    trained, _, logits = train_stack(
        [feats for feats, _ in datasets.values()],
        [labels for _, labels in datasets.values()],
        demo.arch_by_agent[0],
        demo.hyper,
        [2000 + 13 * s + k for s, k in datasets],
    )
    models = dict(zip(datasets, trained))
    train_logits = dict(zip(datasets, logits))
    for s in range(10, 20):
        providers = [
            make_debiased_statistic(
                models[s, k], train_logits[s, k], datasets[s, k][1], (1, -1), agent=k
            )
            for k in range(4)
        ]
        states = sched.states(200)
        views = prediction_streams(spec, states, 1, np.random.default_rng(3000 + s))
        run = run_prediction(demo.matrix, providers, [v[0] for v in views], states, 2)
        lam100.append(float(run.lam[99, 0, 0]))
        lam200.append(float(run.lam[199, 0, 0]))
    mean100 = float(np.mean(lam100))
    mean200 = float(np.mean(lam200))
    per_run = sum(1 for a, b in zip(lam100, lam200) if b > a > 0)
    elapsed = time.monotonic() - start
    assert mean100 > 0.0
    assert mean200 > mean100
    assert elapsed < 120.0
    report(
        7,
        "gaussian scene growth",
        f"mean lam(100)={mean100:.2f} < mean lam(200)={mean200:.2f}, "
        f"per-run growth+positive {per_run}/10, {elapsed:.0f}s",
    )


def test_criterion_08_adaptation_time():
    start = time.monotonic()
    delta, flip, horizon = 0.1, 100, 200
    window = int(5 / delta)  # 50 steps
    spec = mean_shift_gaussian_spec(4, dim=1, shift=1.0)
    providers = [true_log_ratio(spec, k) for k in range(4)]
    sched = RegimeSchedule(((0, 0), (flip, 1)))  # +1, then -1
    recovered = 0
    for seed in range(100):
        states = sched.states(horizon)
        views = prediction_streams(spec, states, 1, np.random.default_rng(seed))
        run = run_prediction(RING4, providers, [v[0] for v in views], states, 2, delta=delta)
        recovered += bool(np.all(run.correct[flip + window :]))
    assert recovered >= 90
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(8, "adaptation time", f"recovered {recovered}/100 within {window} steps, {elapsed:.0f}s")


def _read_curves(path):
    curves = {}
    for line in path.read_text().splitlines()[2:]:
        i, strategy, err, se = line.split(",")
        curves.setdefault(strategy, {})[int(i)] = (float(err), float(se))
    out = {}
    for strategy, table in curves.items():
        steps = sorted(table)
        out[strategy] = (
            np.array([table[i][0] for i in steps]),
            np.array([table[i][1] for i in steps]),
        )
    return out


def test_criterion_09_adaboost_comparison(tmp_path):
    start = time.monotonic()
    raw, _ = read_config(CONFIGS / "boost_comparison.json")
    raw["montecarlo"].update(replications=200, eval_streams=200)
    cfg = validate_config({**raw, "seed": 20240}, str(tmp_path))
    cmd_montecarlo(cfg, str(tmp_path / "out"))
    curves = _read_curves(tmp_path / "out" / "montecarlo.csv")
    sml, _ = curves["sml"]
    ada, ada_se = curves["adaboost"]

    assert sml[49] < ada[49]  # strictly below at i = 50
    flat_gap = float(ada.max() - ada.min())
    tolerance = 3.0 * float(ada_se.mean())
    assert flat_gap < tolerance
    # the sequential strategy improves with time while the one-shot vote
    # cannot: first step comparable, later steps an order of magnitude apart
    assert sml[49] < 0.1 * ada[49]
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    report(
        9,
        "adaboost comparison",
        f"sml(50)={sml[49]:.4f} < ada(50)={ada[49]:.4f}, "
        f"ada range {flat_gap:.4f} < {tolerance:.4f}, {elapsed:.0f}s",
    )


def test_criterion_10_theorem_plumbing():
    start = time.monotonic()
    rng = np.random.default_rng(10)
    for _ in range(100):
        c = rng.uniform(0.1, 5.0)
        risk = rng.uniform(0.0, 0.6) * LOG2
        alpha = rng.uniform(1.0, 3.0)
        beta = rng.uniform(0.5, 5.0)
        epsilon = rng.uniform(0.01, 0.5)
        ok, details = self_consistency_check(c, risk, alpha, beta, epsilon)
        assert ok, details
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(10, "theorem plumbing", f"100 random tuples consistent, {elapsed:.2f}s")


def test_criterion_11_rademacher_suite():
    start = time.monotonic()
    rng = np.random.default_rng(11)

    # singleton family: full enumeration against an independent brute force
    worst = 0.0
    for n in (6, 9, 12):
        feats = rng.normal(size=(n, 1))
        fn = lambda h: np.sin(np.asarray(h)[:, 0]) + 0.3
        est = rademacher_monte_carlo([fn], feats, exact=True)
        values = fn(feats)
        brute = np.mean(
            [
                abs(float(np.dot(signs, values))) / n
                for signs in itertools.product((-1.0, 1.0), repeat=n)
            ]
        )
        worst = max(worst, abs(est.value - brute))
    assert worst < 1e-12

    # norm-feasible families never exceed the analytic bound
    for trial in range(20):
        n0 = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 4))
        b = float(rng.uniform(0.3, 2.0))
        sizes = (n0, *[int(rng.integers(2, 6))] * (depth - 1), 2)
        arch = MLPArchitecture(sizes, norm_bound=b, input_bound=1.0)
        # every input entry, the bias slot's 1 included, lies in [-1, 1]
        feats = rng.uniform(-1.0, 1.0, size=(8, n0 - 1))
        candidates = [
            (lambda m: (lambda h: reference_logits(m, h)[..., 0]))(initialize_model(arch, rng))
            for _ in range(12)
        ]
        est = rademacher_monte_carlo(candidates, feats, exact=True)
        assert est.value <= mlp_rademacher_bound(arch, 8) + 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(
        11,
        "rademacher suite",
        f"enumeration gap {worst:.1e}, 20 bound-dominance trials, {elapsed:.0f}s",
    )


def test_criterion_12_montecarlo_determinism(tmp_path):
    raw, _ = read_config(CONFIGS / "boost_comparison.json")
    raw["montecarlo"].update(replications=4, eval_streams=6)
    cfg = validate_config({**raw, "seed": 77}, str(tmp_path))
    cmd_montecarlo(cfg, str(tmp_path / "a"))
    cmd_montecarlo(cfg, str(tmp_path / "b"))
    a = (tmp_path / "a" / "montecarlo.csv").read_bytes()
    b = (tmp_path / "b" / "montecarlo.csv").read_bytes()
    assert a == b
    report(12, "montecarlo determinism", f"{len(a)} bytes byte-identical")
