"""The generator contract is bit-level: these golden values were produced
by an independent C implementation of splitmix64-seeded xoshiro256++ with
(x >> 11) * 2**-53 uniforms and Marsaglia polar normals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothflow import rng as rng_module
from smoothflow.errors import InvalidParameterError
from smoothflow.rng import (
    _BLOCK_WORDS,
    _LANE_BITS,
    _LANE_CROSSOVER,
    Xoshiro256pp,
    _jump,
    _jump_bytes,
    _jump_many,
    _jump_rows,
)

GOLDEN_U64 = {
    42: [
        15021278609987233951,
        5881210131331364753,
        18149643915985481100,
        12933668939759105464,
        14637574242682825331,
    ],
    0: [
        5987356902031041503,
        7051070477665621255,
        6633766593972829180,
        211316841551650330,
        9136120204379184874,
    ],
    123456789: [
        11089759438045651894,
        13995639861960445257,
        7281758979491336257,
        8017807584436681155,
        6565157352319072148,
    ],
}

GOLDEN_UNIFORM = {
    42: [0.81430514512290986, 0.31882104006166112, 0.98389416817748876],
    0: [0.32457526803140668, 0.38223929651167343, 0.35961720764735527],
    123456789: [0.60117706375353608, 0.75870515718311193, 0.39474494525401682],
}

GOLDEN_NORMAL = {
    42: [
        0.98139839007249863,
        -0.56572010467395595,
        1.3403256427520227,
        0.40231287029926083,
        -0.96422050629413836,
    ],
    0: [
        -1.5411826072230725,
        -1.0345790242567108,
        -0.0040411826723575047,
        -0.40962189869308935,
        0.11165681497434186,
    ],
    123456789: [
        0.55847038597817156,
        1.4279834146851944,
        -2.0069552648162778,
        -1.2461359979425366,
        -0.42770276380325223,
    ],
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_U64))
def test_u64_stream_matches_reference(seed):
    rng = Xoshiro256pp(seed)
    assert [rng.next_u64() for _ in range(5)] == GOLDEN_U64[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN_UNIFORM))
def test_uniform_stream_matches_reference(seed):
    rng = Xoshiro256pp(seed)
    for expected in GOLDEN_UNIFORM[seed]:
        assert rng.uniform() == expected


@pytest.mark.parametrize("seed", sorted(GOLDEN_NORMAL))
def test_normal_stream_matches_reference(seed):
    rng = Xoshiro256pp(seed)
    for expected in GOLDEN_NORMAL[seed]:
        assert rng.normal() == expected


def test_uniforms_land_in_unit_interval():
    rng = Xoshiro256pp(7)
    draws = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in draws)


def test_normal_sample_moments():
    rng = Xoshiro256pp(987654321)
    draws = rng.normals(100_000)
    # 5-sigma bands: mean sd ~ 1/sqrt(n), variance sd ~ sqrt(2/n)
    assert abs(float(np.mean(draws))) < 0.02
    assert 0.98 < float(np.var(draws)) < 1.02


def test_normals_fill_row_major():
    a = Xoshiro256pp(5).normals((3, 4))
    b = Xoshiro256pp(5).normals(12).reshape(3, 4)
    assert np.array_equal(a, b)


def test_seed_masks_to_64_bits():
    assert Xoshiro256pp(2**64 + 42).next_u64() == GOLDEN_U64[42][0]


@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("shape", [1, 2, 7, (3, 4), (5, 3), (2, 1, 3)])
def test_normals_equal_repeated_normal(shape, pending):
    # normals inlines the generator step; the draws, their order and the
    # cached spare stay those of normal(). A pending spare comes first.
    a = Xoshiro256pp(2024)
    b = Xoshiro256pp(2024)
    if pending:
        assert a.normal() == b.normal()
    for _ in range(3):
        batch = a.normals(shape)
        singles = np.array([b.normal() for _ in range(batch.size)]).reshape(shape)
        assert batch.tobytes() == singles.tobytes()
    assert a.normal() == b.normal()
    assert a.next_u64() == b.next_u64()


# Sizes around the lane path's edges: the crossover, a block of words and
# a medium build's 70,100 normals.
LANE_SIZES = [
    0,
    1,
    7,
    _LANE_CROSSOVER - 1,
    _LANE_CROSSOVER,
    _LANE_CROSSOVER + 1,
    _BLOCK_WORDS - 1,
    _BLOCK_WORDS,
    _BLOCK_WORDS + 1,
    70_100,
]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.lists(
        st.sampled_from(LANE_SIZES) | st.integers(2, 3 * _LANE_CROSSOVER), min_size=3, max_size=3
    ),
)
@example(1, True, [_LANE_CROSSOVER - 1, _LANE_CROSSOVER, _LANE_CROSSOVER + 1])
@example(7, True, [_BLOCK_WORDS - 1, _BLOCK_WORDS, _BLOCK_WORDS + 1])
@example(2**64 - 1, False, [70_100, 1, 0])
@example(0, True, [0, 1, 7])
def test_lane_draws_equal_repeated_normal(seed, pending, sizes):
    _assert_draws_equal_singles(seed, sizes, pending)


def _assert_draws_equal_singles(seed, sizes, pending=False):
    # Chained calls, the first after a pending spare or not; the state and
    # the spare must match after each.
    a = Xoshiro256pp(seed)
    b = Xoshiro256pp(seed)
    if pending:
        assert a.normal() == b.normal()
    for size in sizes:
        batch = a.normals(size)
        singles = np.array([b.normal() for _ in range(size)])
        assert batch.tobytes() == singles.tobytes()
        assert (a._s, a._spare) == (b._s, b._spare)
    assert a.next_u64() == b.next_u64()
    assert a.normal() == b.normal()


# Every table the lane path builds: a lane's B words, the anchors' 4 B and
# the block's _BLOCK_WORDS (squared up from B), plus small ones.
@pytest.mark.parametrize(
    "bits", [0, 1, 3, _LANE_BITS, _LANE_BITS + 2, _BLOCK_WORDS.bit_length() - 1]
)
def test_jump_table_equals_scalar_steps(bits):
    seed_rng = Xoshiro256pp(bits + 11)
    states = [[seed_rng.next_u64() for _ in range(4)] for _ in range(3)]
    state = states[0]
    rows = _jump_rows(bits)
    jumped = [0, 0, 0, 0]
    for i in range(256):
        if state[i // 64] >> (i % 64) & 1:
            jumped = [w ^ int(r) for w, r in zip(jumped, rows[i])]
    stepped = []
    for start in states:
        scalar = Xoshiro256pp(0)
        scalar._s = list(start)
        for _ in range(1 << bits):
            scalar.next_u64()
        stepped.append(scalar._s)
    assert jumped == stepped[0]
    table = _jump_bytes(rows)
    packed = _jump(table, np.array(state, dtype="<u8"))
    assert [int(w) for w in packed] == stepped[0]
    many = _jump_many(table, np.array(states, dtype="<u8"))
    assert many.tolist() == stepped


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(rng_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rng_module, name, counted)
    return calls


@pytest.mark.parametrize("seed, pending", [(3, False), (4, True), (2**64 - 1, True)])
def test_block_jumps_on_small_blocks_equal_repeated_normal(monkeypatch, seed, pending):
    # 256-word blocks: a few thousand normals run through many full blocks,
    # each started by one jump of the previous block's starts, and end in a
    # short block.
    monkeypatch.setattr(rng_module, "_BLOCK_WORDS", 256)
    jumps = _count_calls(monkeypatch, "_jump_many")
    firsts = _count_calls(monkeypatch, "_first_starts")
    _assert_draws_equal_singles(seed, [3001, 2500], pending)
    assert len(firsts) == 2
    assert sum(len(states) == 256 >> _LANE_BITS for _, states in jumps) >= 20


@pytest.mark.parametrize(
    "block_words, seed, size",
    [
        # A call's only block, short of the 8,192 words, falls short.
        (_BLOCK_WORDS, 2935, 2400),
        # After full blocks of 4,096 words, the short last block falls short.
        (4096, 1500, 9000),
    ],
)
def test_short_block_that_falls_short_restarts_from_its_end(monkeypatch, block_words, seed, size):
    monkeypatch.setattr(rng_module, "_BLOCK_WORDS", block_words)
    firsts = _count_calls(monkeypatch, "_first_starts")
    _assert_draws_equal_singles(seed, [size])
    # The call's first block, and the restart from the short block's end.
    assert len(firsts) == 2


@pytest.mark.parametrize("shape", [True, (3, True), 2.5, -1])
def test_normals_refuses_a_bad_shape_before_drawing(shape):
    rng = Xoshiro256pp(1)
    rng.normal()
    before = (list(rng._s), rng._spare)
    with pytest.raises((TypeError, ValueError)):
        rng.normals(shape)
    assert (rng._s, rng._spare) == before


@pytest.mark.parametrize("seed", [2.7, "5", True, None, np.float64(3.0)])
def test_seed_refuses_non_integers(seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        Xoshiro256pp(seed)


def test_seed_takes_numpy_integers_and_masks_to_64_bits():
    assert Xoshiro256pp(np.uint64(2**64 - 1))._s == Xoshiro256pp(-1)._s
    assert Xoshiro256pp(np.int64(42)).next_u64() == GOLDEN_U64[42][0]
