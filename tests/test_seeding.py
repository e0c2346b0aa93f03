"""Oracles for the block stream kernels `seeding.trial_states` and `fill_rows`.

Each lane function is checked against the scalar code or the numpy routine it
reproduces: SplitMix64 against `splitmix64`/`derive_seed`, the SeedSequence
port against `np.random.SeedSequence(s).generate_state(4, np.uint64)`, the
lane table D_k against `np.random.PCG64.advance`, and whole rows, on both
sides of `LANE_DRAWS`, against `rng_for(...).random(n)`.  The per-row path's
state-word probe is checked against `bitgen.state`.
"""

import ctypes
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoflow.seeding import (
    _LANE_CHUNK,
    MASK64,
    _PCG_MULT,
    _QUARTER_INV,
    LANE_DRAWS,
    _lane_table,
    _pcg64_states,
    _row_generator,
    _state_words,
    derive_seed,
    fill_rows,
    rng_for,
    seed_sequence_state,
    splitmix64,
    splitmix64_lanes,
    tag_hash,
    trial_states,
)

from conftest import trial_uniforms

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _random_u64(count: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64, endpoint=False)


def test_splitmix64_lanes_match_scalar():
    x = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_u64(2000, 1)])
    assert splitmix64_lanes(x).tolist() == [splitmix64(int(v)) for v in x]


def test_splitmix64_lanes_reproduce_derive_seed():
    master, tag = 20260809, "collision-mc"
    base = splitmix64(splitmix64(master) ^ tag_hash(tag))
    idx = np.array([0, 1, 511, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
    seeds = splitmix64_lanes(np.uint64(base) ^ idx)
    assert seeds.tolist() == [derive_seed(master, tag, int(i)) for i in idx]


def test_seed_sequence_state_matches_numpy():
    seeds = np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_u64(20000, 2)])
    # seeds below 2^32 have a single entropy word in numpy; cover many of them
    seeds[5:2000] >>= np.uint64(32)
    expected = np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds])
    np.testing.assert_array_equal(seed_sequence_state(seeds), expected)


@pytest.mark.parametrize("n", [0, 1, 25, LANE_DRAWS, LANE_DRAWS + 1, 4001])
@pytest.mark.parametrize(
    "indices",
    [
        [0, 1, 2, 3],
        [7, 3, 1000, 12, 12],  # non-contiguous, unordered, repeated
        [2**64 - 1, 2**64 - 2, 2**63, 2**63 - 1],
    ],
    ids=["contiguous", "scattered", "near-2^64"],
)
def test_trial_uniforms_rows_match_rng_for(indices, n):
    master, tag = 987654321, "collision-mc"
    got = trial_uniforms(master, tag, np.array(indices, dtype=np.uint64), n)
    assert got.shape == (len(indices), n)
    for row, index in zip(got, indices):
        np.testing.assert_array_equal(row, rng_for(master, tag, index).random(n))


MASK128 = (1 << 128) - 1


def _table(k: int) -> int:
    high, low = _lane_table()
    return (int(high[k - 1]) << 64) | int(low[k - 1])


def test_lane_identity_preconditions():
    # M - 1 = 4 m' with m' odd, so m' has an inverse mod 2^128, and D_k = (M^k - 1) / 4 mod 2^128 for every k in the
    # table: 4 D_k + 1 = M^k mod 2^128, and mod 2^130 too, which pins the two high bits of D_k as well
    quarter = (_PCG_MULT - 1) >> 2
    assert 4 * quarter + 1 == _PCG_MULT and quarter % 2 == 1
    assert quarter * _QUARTER_INV & MASK128 == 1
    for k in range(1, LANE_DRAWS + 1):
        assert (4 * _table(k) + 1) & MASK128 == pow(_PCG_MULT, k, 1 << 128), k
        assert 4 * _table(k) + 1 == pow(_PCG_MULT, k, 1 << 130), k
    assert len(_lane_table()[0]) == LANE_DRAWS


def test_lane_table_matches_pcg64_advance():
    # s_k = s_0 + D_k z with z = 4 s_0 + m'^-1 inc, against numpy's own jump-ahead: a table one step off fails every k
    words = seed_sequence_state(np.concatenate([np.array(EDGE_SEEDS, dtype=np.uint64), _random_u64(3, 3)]))
    lanes = _pcg64_states(words)
    for s_hi, s_lo, i_hi, i_lo in zip(*(x.tolist() for x in lanes)):
        state, inc = (s_hi << 64) | s_lo, (i_hi << 64) | i_lo
        z = (4 * state + _QUARTER_INV * inc) & MASK128
        bitgen, seeded = np.random.PCG64(), {"state": state, "inc": inc}
        for k in [1, 2, 3, 17, LANE_DRAWS - 1, LANE_DRAWS]:
            bitgen.state = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
            advanced = bitgen.advance(k).state["state"]
            assert advanced["inc"] == inc
            assert (state + _table(k) * z) & MASK128 == advanced["state"], k


def test_trial_uniforms_wraps_master_and_index_like_derive_seed():
    # derive_seed masks both to 64 bits; so must the kernel, for int64 index arrays too
    indices = [-1, 0, 2]
    got = trial_uniforms(-5, "x", np.array(indices, dtype=np.int64), 4)
    for row, index in zip(got, indices):
        np.testing.assert_array_equal(row, rng_for(-5, "x", index).random(4))


def test_trial_uniforms_empty_block():
    assert trial_uniforms(1, "x", np.array([], dtype=np.int64), 25).shape == (0, 25)


@pytest.mark.parametrize("n", [25, LANE_DRAWS + 1])
def test_fill_rows_draws_any_row_range_into_a_reused_buffer(n):
    # the sampler seeds a block once, then fills row chunks into the leading rows of one buffer
    master, tag, indices = 42, "collision-mc", np.arange(100, 111)
    lanes, out = trial_states(master, tag, indices), np.full((4, n), np.nan)
    for first in range(0, len(indices), 4):
        part = slice(first, first + 4)
        rows = fill_rows([lane[part] for lane in lanes], out[: len(indices[part])])
        assert np.shares_memory(rows, out)
        for row, index in zip(rows, indices[part]):
            np.testing.assert_array_equal(row, rng_for(master, tag, int(index)).random(n))


def test_interleaved_long_fills_share_one_generator_and_keep_their_streams():
    # fill_rows reuses one per-process PCG64 for rows longer than LANE_DRAWS; each row's state is written in full,
    # so neither another block's fill nor a uint32 left buffered in the generator reaches the next row
    master, tag, n = 7, "collision-mc", LANE_DRAWS + 3
    blocks = {"A": np.arange(0, 5), "B": np.arange(900, 903)}
    for name in ("A", "B", "A"):
        _row_generator()[1].integers(0, 10, dtype=np.uint32)  # leaves has_uint32 set
        indices = blocks[name]
        rows = fill_rows(trial_states(master, tag, indices), np.empty((len(indices), n)))
        for row, index in zip(rows, indices):
            np.testing.assert_array_equal(row, rng_for(master, tag, int(index)).random(n))
    assert _row_generator() is _row_generator()


def test_probe_finds_the_state_words_and_a_write_through_them_reads_back():
    bitgen, generator, (words, slots) = _row_generator()
    # the two layouts of numpy's pcg64_random_t: __uint128_t little-endian, or (high, low) word pairs
    assert slots in {(1, 0, 3, 2), (0, 1, 2, 3)}
    seeded = rng_for(3, "collision-mc", 8)
    state, inc = (seeded.bit_generator.state["state"][key] for key in ("state", "inc"))
    for slot, half in zip(slots, (state >> 64, state & MASK64, inc >> 64, inc & MASK64)):
        words[slot] = half
    assert bitgen.state["state"] == {"state": state, "inc": inc}
    np.testing.assert_array_equal(generator.random(9), seeded.random(9))


def test_probe_refuses_words_that_are_not_the_known_halves():
    # a generator whose state assignment does not reach the words its address points to
    foreign = (ctypes.c_uint64 * 4)(0, 0, 0, 1)
    pointer = ctypes.c_void_p(ctypes.addressof(foreign))
    bitgen = SimpleNamespace(state=None, ctypes=SimpleNamespace(state_address=ctypes.addressof(pointer)))
    with pytest.raises(RuntimeError, match=r"\['0x0', '0x0', '0x0', '0x1'\] are not a permutation"):
        _state_words(bitgen)


@pytest.mark.parametrize("n", [25, LANE_DRAWS])
def test_fill_rows_spans_several_lane_chunks_and_a_partial_one(n):
    # two whole row chunks of the lane kernel and three rows of a third, drawn into the leading rows of a larger buffer
    master, tag = 11, "collision-mc"
    indices = np.arange(2 * (_LANE_CHUNK // n) + 3) * 7 + 5
    out = np.full((len(indices) + 4, n), np.nan)
    rows = fill_rows(trial_states(master, tag, indices), out[: len(indices)])
    assert np.shares_memory(rows, out) and np.isnan(out[len(indices) :]).all()
    for row, index in zip(rows, indices):
        np.testing.assert_array_equal(row, rng_for(master, tag, int(index)).random(n))


_INDEX_ARRAYS = st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=6).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.integers(2**64 - 300, 2**64 - 1), max_size=6).map(lambda xs: np.array(xs, dtype=np.uint64)),
)


@settings(max_examples=60, deadline=None)
@given(
    master=st.integers(-(2**70), 2**70),
    tag=st.text(max_size=12),
    indices=_INDEX_ARRAYS,
    n=st.integers(0, LANE_DRAWS + 1),
)
def test_trial_uniforms_match_rng_for_for_any_seed_tag_and_indices(master, tag, indices, n):
    got = trial_uniforms(master, tag, indices, n)
    assert got.shape == (len(indices), n)
    for row, index in zip(got, indices.tolist()):
        np.testing.assert_array_equal(row, rng_for(master, tag, index).random(n))
