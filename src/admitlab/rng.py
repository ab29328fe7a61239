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

Child streams for parallel trials are derived with :meth:`Rng.split`; the
child seed is ``splitmix64_mix(seed + (index + 1) * 0x9E3779B97F4A7C15)``,
so (master seed, trial index) pins the whole trial.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INV53 = 2.0 ** -53
_BLOCK = 256  # draws per block when uniform_block steps blocks side by side
# below this many draws, building the jump rows (about as costly as 5,000
# single steps) outweighs what the side-by-side blocks save
_TABLE_MIN = 8192


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
        found in Python from `_jump_rows`; numpy then advances all blocks
        together, one generator step per row of the s1 history.
        """
        jump = _jump_rows()
        state = self.s0 | self.s1 << 64 | self.s2 << 128 | self.s3 << 192
        starts = bytearray()
        for _ in range(blocks):
            starts += state.to_bytes(32, "little")
            nxt = 0
            for rows in jump:
                nxt ^= rows[state & 255]
                state >>= 8
            state = nxt
        self.s0 = state & _MASK
        self.s1 = state >> 64 & _MASK
        self.s2 = state >> 128 & _MASK
        self.s3 = state >> 192
        lanes = np.frombuffer(starts, dtype="<u8").astype(np.uint64)
        lanes = np.ascontiguousarray(lanes.reshape(blocks, 4).T)
        s1_hist = np.empty((_BLOCK, blocks), dtype=np.uint64)
        _step_lanes(*lanes, s1_hist)
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


def _step_lanes(s0, s1, s2, s3, s1_hist: np.ndarray):
    """Step uint64 state lanes once per row of `s1_hist`, recording s1
    before each step; returns the final lanes."""
    for row in s1_hist:
        row[:] = s1
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
    return s0, s1, s2, s3


def _jump_rows() -> list:
    """rows[c][v]: the state _BLOCK steps on from the state whose byte c is
    v and every other bit zero (s0 holds bits 0..63), as a 256-bit int.

    The state update is linear over GF(2), so any state's image is the XOR
    of its 32 bytes' rows.
    """
    bit = np.arange(256)
    one = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    basis = [np.where(bit // 64 == w, one, np.uint64(0)) for w in range(4)]
    after = _step_lanes(*basis, np.empty((_BLOCK, 256), dtype=np.uint64))
    images = [int(a) | int(b) << 64 | int(c) << 128 | int(d) << 192
              for a, b, c, d in zip(*after)]
    jump = []
    for c in range(32):
        rows = [0] * 256
        for j in range(8):
            lo = 1 << j
            for v in range(lo):
                rows[lo + v] = rows[v] ^ images[8 * c + j]
        jump.append(rows)
    return jump
