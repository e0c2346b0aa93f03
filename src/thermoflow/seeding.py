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
lanes, bit for bit as `default_rng(seed_i)` computes them one at a time.  The
pool is one (4, B) uint32 array, so each hash round is one stacked call.
`fill_rows` draws any range of rows into a buffer the caller owns.

A stream of at most `LANE_DRAWS` uniforms is drawn in lanes too.  PCG64 is a
128-bit LCG s -> M s + inc whose multiplier every stream shares, and
M - 1 = 4 m' with m' odd, so m' is invertible mod 2^128.  With
D_k = (M^k - 1) / 4 and z = 4 s_0 + m'^-1 inc, the state after k draws is

    s_k = M^k s_0 + (1 + M + ... + M^(k-1)) inc = s_0 + D_k z  (mod 2^128),

one 128-bit product of each row's z by a per-column constant, plus s_0.
numpy's XSL-RR output and double conversion then run on the (rows, n)
states in four reused buffers.

Longer streams are drawn natively by one reused PCG64: each row writes its
(state, inc) into the generator's words through `bitgen.ctypes.state_address`
(see `_state_words` for the probe of their order, and LANE_DRAWS for the
measured crossover).
"""

from __future__ import annotations

import ctypes
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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(xor constants, multipliers) of `count` successive hash steps, shape (2, count, 1) so a step stacks on rows."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & MASK32)
    consts = np.array(consts, dtype=np.uint32)
    return np.stack([consts[:-1], consts[1:]])[..., None]


# 4 hashmix calls fill the pool, 12 more cross-mix it; generate_state(4, uint64) hashes 8 words.
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)

# PCG64 (pcg_setseq_128 XSL-RR) default multiplier M, as (high, low) 64-bit words, and the inverse mod 2^128 of
# m' = (M - 1) / 4, which is odd.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & MASK64)
_QUARTER_INV = pow((_PCG_MULT - 1) >> 2, -1, 1 << 128)
_QUARTER_INV_HI, _QUARTER_INV_LO = np.uint64(_QUARTER_INV >> 64), np.uint64(_QUARTER_INV & MASK64)


def splitmix64_lanes(x: np.ndarray) -> np.ndarray:
    """`splitmix64` applied to every element of a uint64 array (wraparound is native)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _hash(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of value under each (xor, mult) step of constants; rows of steps broadcast on value."""
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(_XSHIFT))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


def seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """`SeedSequence(s).generate_state(4, np.uint64)` for every uint64 seed s of a 1-D array; shape (len, 4).

    The entropy words are [lo32, hi32], zero-padded to the pool size.  numpy
    drops the zero high word of a seed below 2^32, but pads the pool with
    zeros, so the result is the same.  The pool is one (4, B) array: the
    four entropy words are hashed in one call, each source word mixes the
    three other words in one (3, B) hash and mix, and the eight output
    words, pool words 0..3 twice, are hashed as one (8, B) array.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & np.uint64(MASK32), seeds >> np.uint64(32)
    pool = _hash(pool, _MIX_CONSTANTS[:, :_POOL_SIZE])
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        first = _POOL_SIZE + len(dst) * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], _MIX_CONSTANTS[:, first : first + len(dst)]))
    words = _hash(np.concatenate([pool, pool]), _STATE_CONSTANTS).astype(np.uint64)
    return (words[0::2] | (words[1::2] << np.uint64(32))).T


_LO32, _SHIFT32 = np.uint64(MASK32), np.uint64(32)


def _mul128(a_hi, a_lo, b_hi, b_lo, hi: np.ndarray, lo: np.ndarray, t: np.ndarray, u: np.ndarray):
    """Write (a * b) mod 2^128 of broadcast 128-bit lanes, as (high, low) uint64 words, into hi and lo.

    t and u are scratch buffers of the same shape.  The high word of
    a_lo * b_lo comes from 32-bit limbs: t = p10 + (p00 >> 32),
    u = p01 + (t & L), mulhi = p11 + (t >> 32) + (u >> 32).
    """
    a0, a1, b0, b1 = a_lo & _LO32, a_lo >> _SHIFT32, b_lo & _LO32, b_lo >> _SHIFT32
    np.multiply(a1, b0, out=t)
    t += np.right_shift(np.multiply(a0, b0, out=lo), _SHIFT32, out=lo)
    np.multiply(a0, b1, out=u)
    u += np.bitwise_and(t, _LO32, out=lo)
    np.multiply(a1, b1, out=hi)
    hi += np.right_shift(t, _SHIFT32, out=t)
    hi += np.right_shift(u, _SHIFT32, out=u)
    hi += np.multiply(a_lo, b_hi, out=t)
    hi += np.multiply(a_hi, b_lo, out=t)
    return hi, np.multiply(a_lo, b_lo, out=lo)


def _product(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """(a * b) mod 2^128 of 1-D uint64 lanes a and 128-bit constants b, into new arrays."""
    return _mul128(a_hi, a_lo, b_hi, b_lo, *np.empty((4, len(a_lo)), dtype=np.uint64))


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
    state_hi, state_lo = _add128(*_product(t_hi, t_lo, _PCG_MULT_HI, _PCG_MULT_LO), inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


# Streams of at most LANE_DRAWS uniforms are drawn in lanes, longer ones by the per-row generator.  Measured on a
# 2-core host (numpy 2.4.6, 512-row blocks, 40 interleaved rounds, medians): lanes cost about 14-20 ns per uniform, the
# per-row path, which writes each row's state through its address, about 1 us per row plus 2.7 ns per uniform.  Lanes
# won at every n up to 64 (n = 41: 0.42 vs 0.57 ms; n = 64: 0.57 vs 0.60 ms, in 31 of 40 rounds) and lost from 72
# (0.68 vs 0.63 ms) to 128 (1.12 vs 0.69 ms).  On the same host under heavier load the per-row path cost twice as much
# and the crossover lay between 80 and 96; 64 is the largest n that lanes won in both, and a 512-row block of 64
# uniforms fills one lane chunk.  These are in-process block timings only: no benchmarked workload draws rows of
# 65-128 uniforms (fig4 at N = 32-63), so no end-to-end run has measured the move from 128.
LANE_DRAWS = 64
# Lane elements (rows x draws) per chunk: the four uint64 buffers then take 1 MB, which stays in L2.  32768 was the
# fastest of 8192..65536 at n = 25..160 on the same host, and holds a whole 512-row block up to n = 64.
_LANE_CHUNK = 32768


@functools.cache
def _lane_table() -> tuple[np.ndarray, np.ndarray]:
    """(high, low) words of D_k = (M^k - 1) / 4 mod 2^128 for k = 1..LANE_DRAWS.

    The state after k draws is s_0 + D_k z with z = 4 s_0 + m'^-1 inc.
    Built from Python ints on first use, so importing the module does no
    work; the arrays are shared, so they are read-only.
    """
    mask, power, table = (1 << 130) - 1, 1, []
    for _ in range(LANE_DRAWS):
        power = (power * _PCG_MULT) & mask  # M^k mod 2^130, so (M^k - 1) / 4 is exact mod 2^128
        d = (power - 1) >> 2
        table.append((d >> 64, d & MASK64))
    words = np.array(table, dtype=np.uint64).T
    words.setflags(write=False)
    return tuple(words)


# A known PCG64 state whose four 64-bit halves (state_hi, state_lo, inc_hi, inc_lo) differ; inc is odd, as for every
# seeded stream.
_PROBE_HALVES = (0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2143658799ABCDEF, 0x3254769810325477)


def _state_words(bitgen: np.random.PCG64) -> tuple[ctypes.Array, tuple[int, int, int, int]]:
    """A view of bitgen's (state, inc) words and the word that holds each of (state_hi, state_lo, inc_hi, inc_lo).

    bitgen.ctypes.state_address points to numpy's pcg64_state, whose first
    member points to the pcg64_random_t {state, inc}.  With __uint128_t on a
    little-endian host its words are (state_lo, state_hi, inc_lo, inc_hi);
    a build without __int128 stores the high word first.  The order is read
    back after assigning a known state through bitgen.state; words that are
    not a permutation of the known halves raise RuntimeError.
    """
    state, inc = (_PROBE_HALVES[0] << 64) | _PROBE_HALVES[1], (_PROBE_HALVES[2] << 64) | _PROBE_HALVES[3]
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    words = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value)
    found = list(words)
    if sorted(found) != sorted(_PROBE_HALVES):
        raise RuntimeError(f"PCG64 state words {[hex(w) for w in found]} are not a permutation of the probe's "
                           f"{[hex(w) for w in _PROBE_HALVES]}")
    return words, tuple(found.index(half) for half in _PROBE_HALVES)


@functools.cache
def _row_generator() -> tuple[np.random.PCG64, np.random.Generator, tuple[ctypes.Array, tuple[int, ...]]]:
    """The PCG64 that fill_rows draws long rows from, its Generator, and its probed state words (see _state_words).

    Built once per process on first use, as PCG64(0) costs a SeedSequence
    hash; no draw depends on its seed, because every row's state and inc are
    written in full before the row draws.  The buffered uint32 is left as it
    is: Generator.random draws its doubles from 64-bit outputs only.
    """
    bitgen = np.random.PCG64(0)
    return bitgen, np.random.Generator(bitgen), _state_words(bitgen)


def trial_states(master_seed: int, tag: str, indices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Seeded PCG64 lanes (state_hi, state_lo, inc_hi, inc_lo); lane r seeds rng_for(master_seed, tag, indices[r])."""
    base = splitmix64(splitmix64(master_seed & MASK64) ^ tag_hash(tag))
    seeds = splitmix64_lanes(np.uint64(base) ^ np.asarray(indices).astype(np.uint64))
    return _pcg64_states(seed_sequence_state(seeds))


def fill_rows(lanes, out: np.ndarray) -> np.ndarray:
    """Write the first out.shape[1] uniforms of each lane's stream into the matching row of out, and return out.

    Up to LANE_DRAWS uniforms per row are drawn in lanes, in row chunks of
    _LANE_CHUNK elements: numpy steps the state before each output, so
    column k - 1 takes s_k = s_0 + D_k z; XSL-RR is rotr64(hi ^ lo, hi >> 58),
    and the double is (x >> 11) * 2^-53.  Longer rows write each lane's
    state into one reused PCG64 (see _row_generator) and draw there.
    """
    n = out.shape[1]
    if n <= LANE_DRAWS:
        s_hi, s_lo, inc_hi, inc_lo = lanes
        d_hi, d_lo = (words[:n] for words in _lane_table())
        z_hi, z_lo = _add128(*_product(inc_hi, inc_lo, _QUARTER_INV_HI, _QUARTER_INV_LO),
                             (s_hi << np.uint64(2)) | (s_lo >> np.uint64(62)), s_lo << np.uint64(2))
        rows = max(1, _LANE_CHUNK // max(n, 1))
        buffers = np.empty((4, min(rows, len(out)), n), dtype=np.uint64)
        carry = np.empty(buffers.shape[1:], dtype=bool)
        for start in range(0, len(out), rows):
            part = slice(start, start + rows)
            m = len(z_lo[part])
            hi, lo, r, x = buffers[:, :m]
            _mul128(z_hi[part, None], z_lo[part, None], d_hi, d_lo, hi, lo, r, x)
            lo += s_lo[part, None]
            hi += s_hi[part, None]
            hi += np.less(lo, s_lo[part, None], out=carry[:m])
            np.right_shift(hi, np.uint64(58), out=r)
            hi ^= lo
            np.right_shift(hi, r, out=x)
            hi <<= np.subtract(np.uint64(64), r, out=r)
            hi |= x
            hi >>= np.uint64(11)
            np.multiply(hi.view(np.int64), 2.0**-53, out=out[part])  # below 2^53, so int64 converts exactly and faster
        return out
    _, generator, (words, (w_s_hi, w_s_lo, w_i_hi, w_i_lo)) = _row_generator()
    for row, s_hi, s_lo, i_hi, i_lo in zip(out, *(lane.tolist() for lane in lanes)):
        words[w_s_hi] = s_hi
        words[w_s_lo] = s_lo
        words[w_i_hi] = i_hi
        words[w_i_lo] = i_lo
        generator.random(out=row)
    return out

