"""Deterministic random number generation for replayable experiments.

Every stochastic component of the lab draws from :class:`Rng`, a pure-Python
xoshiro256** generator seeded through splitmix64.  The algorithm is spelled
out below so that a port in any other language can replay a run bit for bit
from the (seed, config) pair alone.

Seeding (splitmix64, Steele/Lea/Flood):
    state <- seed (mod 2^64)
    repeat 4 times to fill s[0..3]:
        state <- state + 0x9E3779B97F4A7C15
        z <- state
        z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9
        z <- (z xor (z >> 27)) * 0x94D049BB133111EB
        output z xor (z >> 31)

Output step (xoshiro256**, Blackman/Vigna):
    result <- rotl(s1 * 5, 7) * 9
    t <- s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
    s3 <- rotl(s3, 45)

All arithmetic is mod 2^64.  A uniform variate on [0, 1) is the top 53 bits
of the output times 2^-53, which is exactly representable in an IEEE double.

Bulk draws (:meth:`Rng.uniform_block`) give the same stream as repeated
uniform() calls.  From _TABLE_MIN (1,152) draws on, numpy steps blocks of
_BLOCK (128) draws side by side, each block starting _BLOCK steps past the
previous one; the block length only decides how the one stream is cut.
The update is linear over GF(2), so that jump maps a state to the XOR of
the images of its set bits.  The 256 one-bit images (8 KB) are built once
per import, on first use; each call derives its lookup rows from them and
keeps none.

Child streams for parallel trials are derived with :meth:`Rng.split`; the
child seed is ``splitmix64_mix(seed + (index + 1) * 0x9E3779B97F4A7C15)``,
so (master seed, trial index) pins the whole trial.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV53 = 2.0 ** -53
_BLOCK = 128  # draws per block when uniform_block steps blocks side by side
# below this many draws, the fixed cost of stepping the blocks side by side
# (about 0.9 ms: 128 rows of numpy calls, and the call's jump rows) outweighs
# the 0.85 us per next_u64() draw; they cross near 1,100 (2-core Xeon)
_TABLE_MIN = 1152
# from this many blocks on, building 256-entry jump rows (0.85 ms, against
# 0.33 ms for 16-entry ones) pays for one lookup per state byte, not two;
# they cross near 190 blocks (24,000 draws) on the same box
_BYTE_ROWS_MIN = 192
_SHIFT, _ROT, _UNROT = np.uint64(17), np.uint64(45), np.uint64(19)


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """xoshiro256** stream; identical seed gives an identical draw sequence."""

    __slots__ = ("seed", "s0", "s1", "s2", "s3")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        x = self.seed
        state = []
        for _ in range(4):
            x = (x + _GAMMA) & _MASK
            state.append(_mix64(x))
        if not any(state):  # all-zero state would lock the generator
            state[0] = 1
        self.s0, self.s1, self.s2, self.s3 = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self.s0, self.s1, self.s2, self.s3
        x = (s1 * 5) & _MASK
        r = ((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self.s0, self.s1, self.s2 = s0, s1, s2
        self.s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        return r

    def uniform(self) -> float:
        """One uniform variate on [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV53

    def uniform_block(self, n: int) -> np.ndarray:
        """`n` uniforms as a float64 array, same stream as repeated uniform().

        From _TABLE_MIN draws on, whole blocks of _BLOCK draws come from
        `_u64_blocks`; the rest are `next_u64()` calls.  The outputs and the
        final state equal those of n calls to next_u64().  A negative n
        raises ValueError.
        """
        if n < 0:
            raise ValueError(f"uniform_block needs n >= 0, got {n!r}")
        blocks = n // _BLOCK if n >= _TABLE_MIN else 0
        raw = self._u64_blocks(blocks) if blocks else np.empty(0, np.uint64)
        calls = n - blocks * _BLOCK
        if calls:
            next_u64 = self.next_u64
            raw = np.concatenate([raw, np.fromiter(
                (next_u64() for _ in range(calls)), np.uint64, calls)])
        return (raw >> np.uint64(11)).astype(np.float64) * _INV53

    def _u64_blocks(self, blocks: int) -> np.ndarray:
        """`blocks * _BLOCK` raw outputs as uint64, the blocks side by side.

        Each block's start state is _BLOCK steps past the previous one,
        found in Python from this call's `_jump_rows`; numpy then advances
        all blocks together, one generator step per row of the s1 history.
        """
        state = self.s0 | self.s1 << 64 | self.s2 << 128 | self.s3 << 192
        starts = bytearray()
        if blocks < _BYTE_ROWS_MIN:  # two 16-entry rows per state byte
            rows = _jump_rows(4)
            lows, highs = rows[0::2], rows[1::2]
            for _ in range(blocks):
                digits = state.to_bytes(32, "little")
                starts += digits
                state = 0
                for lo, hi, v in zip(lows, highs, digits):
                    state ^= lo[v & 15] ^ hi[v >> 4]
        else:  # one 256-entry row per state byte
            rows = _jump_rows(8)
            for _ in range(blocks):
                digits = state.to_bytes(32, "little")
                starts += digits
                state = 0
                for row, v in zip(rows, digits):
                    state ^= row[v]
        self.s0 = state & _MASK
        self.s1 = state >> 64 & _MASK
        self.s2 = state >> 128 & _MASK
        self.s3 = state >> 192
        lanes = np.frombuffer(starts, dtype="<u8").reshape(blocks, 4)
        lanes = lanes.T.astype(np.uint64, order="C")  # a writable copy
        s1_hist = np.empty((_BLOCK, blocks), dtype=np.uint64)
        _step_lanes(lanes, s1_hist)
        x = s1_hist.T.reshape(-1)
        x *= np.uint64(5)
        out = x << np.uint64(7)
        x >>= np.uint64(57)
        out |= x
        out *= np.uint64(9)
        return out

    def split(self, index: int) -> "Rng":
        """Independent child stream for trial `index` (deterministic)."""
        child_seed = _mix64((self.seed + (index + 1) * _GAMMA) & _MASK)
        return Rng(child_seed)

    def state(self) -> tuple[int, int, int, int]:
        return (self.s0, self.s1, self.s2, self.s3)

    def set_state(self, state: tuple[int, int, int, int]) -> None:
        """Resume the stream from a tuple that `state()` returned: four ints
        in [0, 2^64), not all zero (the all-zero state locks the stream)."""
        if not (isinstance(state, tuple) and len(state) == 4 and any(state)
                and all(type(w) is int and 0 <= w <= _MASK for w in state)):
            raise ValueError(f"not a generator state: {state!r}")
        self.s0, self.s1, self.s2, self.s3 = state


def _step_lanes(lanes: np.ndarray, s1_hist: np.ndarray) -> None:
    """Step the (4, n) uint64 state `lanes` (rows s0..s3) in place once
    per row of `s1_hist`, recording s1 before each step."""
    _, s1, s2, s3 = lanes
    low, high = lanes[:2], lanes[2:]   # (s0, s1) and (s2, s3)
    swapped = lanes[1::-1]             # (s1, s0)
    t = np.empty_like(s1)
    for row in s1_hist:
        row[:] = s1
        np.left_shift(s1, _SHIFT, out=t)
        high ^= low                    # s2 ^= s0; s3 ^= s1
        swapped ^= high                # s1 ^= s2; s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _ROT, out=t)
        s3 >>= _UNROT
        s3 |= t


@functools.cache
def _jump_basis() -> bytes:
    """The images, _BLOCK steps on, of the 256 one-bit states, built once
    per import on first use: image i is the state reached from bit i of
    the 256-bit state (s0 holds bits 0..63) alone, as 32 little-endian
    bytes, 8 KB in all."""
    bit = np.arange(256)
    lanes = np.zeros((4, 256), dtype=np.uint64)
    lanes[bit // 64, bit] = np.left_shift(np.uint64(1),
                                          (bit % 64).astype(np.uint64))
    _step_lanes(lanes, np.empty((_BLOCK, 256), dtype=np.uint64))
    return lanes.T.astype("<u8").tobytes()


def _jump_rows(width: int) -> list:
    """rows[c][v]: the state _BLOCK steps on from the state whose bits
    width*c .. width*c + width - 1 spell v and whose other bits are zero,
    as a 256-bit int, for a width of 4 or 8.

    The state update is linear over GF(2), so any state's image is the XOR
    of its digits' rows, and each row entry the XOR of basis images.  The
    rows are rebuilt per call and never kept.
    """
    basis = _jump_basis()
    images = [int.from_bytes(basis[i:i + 32], "little")
              for i in range(0, len(basis), 32)]
    rows = []
    for c in range(0, 256, width):
        row = [0]
        for image in images[c:c + width]:
            row += [v ^ image for v in row]
        rows.append(row)
    return rows
