"""Derived seeds and generators against numpy's SeedSequence and default_rng."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socialml.config import PHASE_STREAM, PHASE_TRAIN_MODEL, build_gaussian_spec
from socialml.data import ImageSource, PatchLayout, prediction_streams
from socialml.seeds import derived_seeds, generators
from socialml.social import periodic_schedule
from test_cli import loaded_after_cli_import


class TestGoldenValues:
    """Values computed once with numpy's own SeedSequence and default_rng, so
    any change to the seed path fails here and not only in a benchmark hash."""

    @pytest.mark.parametrize(
        "master, seed",
        [
            (0, 16838061934369612291),
            (2024, 1711100639002969163),
            (2**32, 12413470301602311801),
            (2**64 - 1, 4398683833850097370),
        ],
    )
    def test_derived_seed(self, master, seed):
        assert derived_seeds(master, PHASE_STREAM, [(1, 2)]).tolist() == [seed]

    def test_derived_seed_past_the_pool(self):
        # two master words, the phase and three indices: six entropy words
        seeds = derived_seeds(2**64 - 1, PHASE_TRAIN_MODEL, [(5, 3, 9)])
        assert seeds.tolist() == [4178952250248686460]

    def test_a_short_row_derives_the_seed_of_its_zero_padded_row(self):
        # SeedSequence pads its four-word pool with zeros, so a phase must
        # keep one row width: under a one-word master these paths collide
        assert derived_seeds(7, 3, [(5,)]).tolist() == derived_seeds(7, 3, [(5, 0)]).tolist()
        assert derived_seeds(7, 3, [(5,)]).tolist() != derived_seeds(7, 3, [(5, 1)]).tolist()

    def test_prediction_stream_draws(self):
        (seed,) = derived_seeds(42, PHASE_STREAM, [(0,)]).tolist()
        assert seed == 18141372322412330060
        agent = {"1": {"mean": [0.6], "cov": [[1.0]]}, "-1": {"mean": [-0.6], "cov": [[1.0]]}}
        spec = build_gaussian_spec({"type": "gaussian", "agents": [agent, agent]}, (1, -1))
        schedule = periodic_schedule(2, [0, 1])
        # step-major standard_normal draws, one column per agent, shifted by
        # the class means
        gaussian = prediction_streams(spec, schedule.states(4), 1, *generators([seed]))
        assert gaussian[0][0, :, 0].tolist() == [
            -0.0751994713914369, 0.8804795411877423, -1.102276643679537, -0.7604175560517222,
        ]
        assert gaussian[1][0, :, 0].tolist() == [
            0.3688888608584663, 0.3515019056721465, -0.3812732300485046, -2.308431590316573,
        ]
        # integers draws: image i of the pool has every pixel equal to i
        pool = np.repeat(np.arange(200, dtype=np.uint8), 4).reshape(200, 2, 2)
        layout = PatchLayout(2, 2, 1, 2)
        rows = np.arange(200)
        source = ImageSource(pool, (rows, rows), layout)
        images = prediction_streams(source, schedule.states(4), 1, *generators([seed]))
        picks = images[0][0, :, 0]
        assert picks.dtype == np.uint8
        assert picks.tolist() == [97, 139, 101, 178]
        assert (picks / 255.0).tolist() == [97 / 255, 139 / 255, 101 / 255, 178 / 255]


@st.composite
def index_rows(draw):
    width = draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2**32 - 1), min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=6))


SEEDS = st.lists(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=6
)


def same_draws(rng, reference):
    draws = (
        lambda g: g.standard_normal(5),
        lambda g: g.integers(-7, 1000, size=5),
        lambda g: g.uniform(size=5),
        lambda g: g.permutation(12),
    )
    return all(np.array_equal(draw(rng), draw(reference)) for draw in draws)


class TestAgainstNumpy:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**70), st.integers(0, 4), index_rows())
    @example(0, 0, [[0]])
    @example(2**64 - 1, 4, [[2**32 - 1, 0, 2**32 - 1]])
    def test_derived_seeds_equal_seed_sequence(self, master, phase, rows):
        got = derived_seeds(master, phase, rows)
        assert got.dtype == np.uint64
        want = [
            np.random.SeedSequence([master, phase, *row]).generate_state(1, np.uint64)[0]
            for row in rows
        ]
        assert got.tolist() == [int(w) for w in want]
        assert derived_seeds(master, phase, np.array(rows, dtype=np.int64)).tolist() == got.tolist()

    @settings(max_examples=100, deadline=None)
    @given(SEEDS)
    @example([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_generators_equal_default_rng(self, seeds):
        for given_as in (seeds, np.array(seeds, dtype=np.uint64)):
            rngs = generators(given_as)
            assert len(rngs) == len(seeds)
            for rng, seed in zip(rngs, seeds):
                assert same_draws(rng, np.random.default_rng(seed)), seed

    def test_derived_seeds_seed_their_generators(self):
        seeds = derived_seeds(2024, PHASE_STREAM, np.column_stack((np.full(50, 3), np.arange(50))))
        for rng, seed in zip(generators(seeds), seeds.tolist()):
            assert same_draws(rng, np.random.default_rng(seed))


class TestRejection:
    @pytest.mark.parametrize("bad", [-1, True, False, 2**32, 2**64, 1.0, "3", None])
    def test_bad_index_names_the_value(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            derived_seeds(7, 0, [(1, 2), (3, bad)])
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            derived_seeds(7, 0, [(bad,)])

    @pytest.mark.parametrize(
        "rows",
        [np.array([[1, -4]]), np.array([[2**32, 0]], dtype=np.uint64), np.array([[True]]),
         np.array([[0.5]])],
    )
    def test_bad_index_array(self, rows):
        with pytest.raises(ValueError, match="seed index"):
            derived_seeds(7, 0, rows)

    @pytest.mark.parametrize("bad", [-1, True, 2.0])
    def test_bad_master_and_phase(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            derived_seeds(bad, 0, [(1,)])
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            derived_seeds(1, bad, [(1,)])

    @pytest.mark.parametrize("bad", [-1, 2.5, 2**64, True])
    def test_bad_generator_seed(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            generators([3, bad])


def test_package_import_leaves_numpy_random_unloaded(tmp_path):
    assert not loaded_after_cli_import(tmp_path, "numpy.random")
