"""Deterministic seed derivation for parallel Monte Carlo.

Every stochastic trial draws from its own stream, seeded by a SplitMix-style
64-bit mix of (master seed, tag hash, trial index).  The mix is part of the
output contract: results are identical for any worker count or trial-block
partition, and independent implementations can reproduce them.

    seed_i = splitmix64(splitmix64(splitmix64(master_seed) ^ tag_hash(tag)) ^ i)

where tag_hash(tag) is the first 8 bytes (big-endian) of SHA-256 of the
UTF-8 tag string.

`trial_states` seeds the streams of a whole block of trials at once:
SplitMix64, numpy's SeedSequence pool hashing and PCG64 seeding run on numpy
lanes, bit for bit as `default_rng(seed_i)` computes them one at a time.
`fill_rows` draws any range of rows into a buffer the caller owns, and
`trial_uniforms` does both.  A stream of at most `LANE_DRAWS` uniforms is
drawn in lanes too: PCG64 is a 128-bit LCG whose multiplier M every stream
shares, so the state after k draws is `M^k state_0 + (1 + M + ... + M^(k-1))
inc (mod 2^128)`, one broadcast multiply-add of the rows' seeded states by
per-k jump constants, followed by numpy's XSL-RR output and double
conversion.  Longer streams assign each row's state to one reused PCG64,
because numpy's native draw is about ten times cheaper per uniform than the
lanes.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for the 64-bit state x."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def tag_hash(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "big")


def derive_seed(master_seed: int, tag: str, index: int) -> int:
    """64-bit stream seed for trial `index` of the task named `tag`."""
    return splitmix64(splitmix64(splitmix64(master_seed & MASK64) ^ tag_hash(tag)) ^ (index & MASK64))


def rng_for(master_seed: int, tag: str, index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(master_seed, tag, index))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): 32-bit hash
# constants, pool size 4.  The hash constant evolves independently of the
# data, so its whole sequence is fixed at import.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
MASK32 = (1 << 32) - 1


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[np.uint32, np.uint32]]:
    """(xor constant, multiplier) of each successive hash step."""
    pairs = []
    const = init
    for _ in range(count):
        nxt = (const * mult) & MASK32
        pairs.append((np.uint32(const), np.uint32(nxt)))
        const = nxt
    return pairs


# 4 hashmix calls fill the pool, 12 more cross-mix it; generate_state(4, uint64) hashes 8 words.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)

# PCG64 (pcg_setseq_128 XSL-RR) default multiplier, as (high, low) 64-bit words.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & MASK64)


def splitmix64_lanes(x: np.ndarray) -> np.ndarray:
    """`splitmix64` applied to every element of a uint64 array (wraparound is native)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash(value: np.ndarray, constants: tuple[np.uint32, np.uint32]) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every uint64 seed s; shape (len, 4).

    The entropy words are [lo32, hi32], zero-padded to the pool size.  numpy
    drops the zero high word of a seed below 2^32, but pads the pool with
    zeros, so the result is the same.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    constants = iter(_MIX_CONSTANTS)
    zero = np.zeros_like(seeds, dtype=np.uint32)
    entropy = [(seeds & np.uint64(MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)]
    pool = [_hash(word, next(constants)) for word in entropy + [zero] * (_POOL_SIZE - len(entropy))]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(constants)))
    words = [_hash(pool[i % _POOL_SIZE], c).astype(np.uint64) for i, c in enumerate(_STATE_CONSTANTS)]
    return np.stack([words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)], axis=-1)


_LO32, _SHIFT32 = np.uint64(MASK32), np.uint64(32)


def _mul64(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products of the broadcast uint64 lanes a and b, as (high, low) words."""
    a0, a1 = a & _LO32, a >> _SHIFT32
    b0, b1 = b & _LO32, b >> _SHIFT32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _SHIFT32) + (p01 & _LO32) + (p10 & _LO32)
    high = p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return high, a * b


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2^128 of broadcast 128-bit lanes given as (high, low) uint64 words."""
    high, low = _mul64(a_lo, b_lo)
    return high + a_lo * b_hi + a_hi * b_lo, low


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _pcg64_states(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 (state_hi, state_lo, inc_hi, inc_lo) seeded from generate_state words.

    numpy passes words (0, 1) as initstate and (2, 3) as initseq, high word
    first, to pcg_setseq_128_srandom_r:
    inc = (initseq << 1) | 1 and state = ((inc + initstate) * MULT + inc) mod 2^128.
    """
    s0, s1, s2, s3 = words.T
    one = np.uint64(1)
    inc_hi, inc_lo = (s2 << one) | (s3 >> np.uint64(63)), (s3 << one) | one
    t_hi, t_lo = _add128(inc_hi, inc_lo, s0, s1)
    state_hi, state_lo = _add128(*_mul128(t_hi, t_lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


# Streams of at most LANE_DRAWS uniforms are drawn in lanes, longer ones by the per-row generator.  Lanes cost about
# 40-60 ns per uniform against about 5 ns for numpy's native draw, but save the per-row state assignment (about 3 us).
# Measured on a 2-core host (numpy 2.4.6, 512-row blocks, interleaved): lanes beat the per-row loop at every n up to 91
# (n = 1: 0.1 vs 3.4 ms; n = 41: 2.0 vs 4.4 ms) and lost at n = 101 (3.9 vs 3.5 ms), so 64 sits on the lane side.
LANE_DRAWS = 64
# Lane elements (rows x draws) per chunk: each uint64 temporary is then 64 KB, which stays in cache and off mmap.
# 8192 was the fastest of 2048..32768 and a whole 512-row block at n = 25..101 on the same host.
_LANE_CHUNK = 8192


@functools.cache
def _jump_constants() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(A_hi, A_lo, S_hi, S_lo) for k = 1..LANE_DRAWS: A_k = M^k and S_k = 1 + M + ... + M^(k-1), mod 2^128.

    A PCG64 state after k steps is A_k state_0 + S_k inc (mod 2^128).  Built
    from Python ints on first use, so importing the module does no work; the
    arrays are shared, so they are read-only.
    """
    mask = (1 << 128) - 1
    a, s, jumps = 1, 0, []
    for _ in range(LANE_DRAWS):
        a, s = (a * _PCG_MULT) & mask, (s * _PCG_MULT + 1) & mask
        jumps.append((a >> 64, a & MASK64, s >> 64, s & MASK64))
    words = np.array(jumps, dtype=np.uint64).T
    words.setflags(write=False)
    return tuple(words)


@functools.cache
def _row_generator() -> tuple[np.random.PCG64, np.random.Generator, dict]:
    """The PCG64 that fill_rows draws long rows from, its Generator, and the state dict it assigns per row.

    Built once per process on first use, as PCG64(0) costs a SeedSequence
    hash; no draw depends on its seed, because every row's state, buffered
    uint32 included, is assigned in full before the row draws.
    """
    bitgen = np.random.PCG64(0)
    state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0}, "has_uint32": 0, "uinteger": 0}
    return bitgen, np.random.Generator(bitgen), state


def _lane_states(state_hi, state_lo, inc_hi, inc_lo, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) words, shape (B, n), of each row's PCG64 state after k = 1..n draws (n <= LANE_DRAWS)."""
    a_hi, a_lo, s_hi, s_lo = (c[:n] for c in _jump_constants())
    advanced = _mul128(state_hi[:, None], state_lo[:, None], a_hi, a_lo)
    return _add128(*advanced, *_mul128(inc_hi[:, None], inc_lo[:, None], s_hi, s_lo))


def trial_states(master_seed: int, tag: str, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded PCG64 lanes (state_hi, state_lo, inc_hi, inc_lo); lane r seeds rng_for(master_seed, tag, indices[r])."""
    base = splitmix64(splitmix64(master_seed & MASK64) ^ tag_hash(tag))
    seeds = splitmix64_lanes(np.uint64(base) ^ np.asarray(indices).astype(np.uint64))
    return _pcg64_states(seed_sequence_state(seeds))


def fill_rows(lanes, out: np.ndarray) -> np.ndarray:
    """Write the first out.shape[1] uniforms of each lane's stream into the matching row of out, and return out.

    Up to LANE_DRAWS uniforms per row are drawn in lanes, in row chunks of
    _LANE_CHUNK elements: numpy steps the state before each output, takes
    XSL-RR of the new state, rotr64(hi ^ lo, hi >> 58), and makes a double as
    (x >> 11) * 2^-53.  Longer rows assign each lane's state to one reused
    PCG64 and draw its uniforms there.
    """
    n = out.shape[1]
    if n <= LANE_DRAWS:
        rows = max(1, _LANE_CHUNK // max(n, 1))
        state_hi, state_lo, inc_hi, inc_lo = lanes
        for start in range(0, len(out), rows):
            part = slice(start, start + rows)
            hi, lo = _lane_states(state_hi[part], state_lo[part], inc_hi[part], inc_lo[part], n)
            x, r = hi ^ lo, hi >> np.uint64(58)
            out[part] = (((x >> r) | (x << (-r & np.uint64(63)))) >> np.uint64(11)) * 2.0**-53
        return out
    bitgen, generator, state = _row_generator()
    inner = state["state"]
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, *(lane.tolist() for lane in lanes)):
        inner["state"] = (s_hi << 64) | s_lo
        inner["inc"] = (i_hi << 64) | i_lo
        bitgen.state = state
        generator.random(out=row)
    return out


def trial_uniforms(master_seed: int, tag: str, indices, n: int) -> np.ndarray:
    """Array of shape (len(indices), n) whose row r is rng_for(master_seed, tag, indices[r]).random(n)."""
    return fill_rows(trial_states(master_seed, tag, indices), np.empty((len(indices), n)))
