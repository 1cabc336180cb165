"""Bit-reproducible random number generation.

The experiment harness promises byte-identical outputs for a fixed seed,
so the generator is pinned down to the exact algorithm rather than
delegating to whatever a library ships:

* state: xoshiro256++ (Blackman/Vigna), seeded by four successive
  outputs of splitmix64 applied to the user seed;
* uniforms: the top 53 bits of each 64-bit word, scaled by 2**-53;
* normals: Marsaglia's polar rejection method, drawing ``u`` before
  ``v`` per attempt, accepting when ``0 < u*u + v*v < 1``, returning
  ``u * f`` first and caching ``v * f`` for the next call.

Any change to these choices is a breaking change to the output format.

Large ``normals`` draws run as jump-ahead lanes: the state step T is
linear over GF(2), so lane ``j`` of a block starts at ``T^(jB)`` of the
block's state, all lanes step together on numpy arrays, and their words
laid end to end are the scalar stream word for word. The polar method
then runs over the block's consecutive word pairs, with the same IEEE
operations and libm's ``log``. The draws, their order, the state after
the call and the cached spare are bit for bit those of drawing the
same normals one at a time.
"""

import functools
import math
import operator

import numpy as np

_MASK = (1 << 64) - 1

# Draws of fewer normals than this take the scalar loop. On a 2-vCPU VM the
# lanes break even at about 770 normals and are 1.25x as fast at 1,024,
# 1.9x at 2,048 and 4x at a medium build's 20,000 and 50,000.
_LANE_CROSSOVER = 1024
# Each lane of a block yields B = 2**_LANE_BITS words, and a block holds at
# most _BLOCK_WORDS words (4,096 polar attempts), so its arrays stay small.
_LANE_BITS = 6
_BLOCK_WORDS = 8192


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _step_lanes(state, steps, words=None):
    """Step every lane of the (4, lanes) uint64 ``state`` ``steps`` times.

    The steps run in place on the arrays, whose adds wrap silently. With
    ``words``, a (lanes, steps) array, column ``k`` receives the lanes'
    outputs of step ``k``.
    """
    s0, s1, s2, s3 = state
    low, high, crossed = state[:2], state[2:], state[3:1:-1]
    t = np.empty_like(s0)
    w = np.empty_like(s0)
    for k in range(steps):
        if words is not None:
            np.add(s0, s3, out=w)
            np.left_shift(w, 23, out=t)
            w >>= 41
            w |= t
            np.add(w, s0, out=words[:, k])
        np.left_shift(s1, 17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        low ^= crossed  # s0 ^= s3, s1 ^= s2
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t


@functools.cache
def _jump_rows(bits):
    """``T^(2^bits)`` as 256 packed rows, a (256, 4) uint64 array.

    Row ``i`` is where the unit state with bit ``i % 64`` of word
    ``i // 64`` set lands after ``2^bits`` steps; by linearity a state
    lands on the XOR of the rows of its set bits.
    """
    unit = np.arange(256)
    lanes = np.zeros((4, 256), dtype=np.uint64)
    lanes[unit // 64, unit] = np.uint64(1) << (unit % 64).astype(np.uint64)
    _step_lanes(lanes, 1 << bits)
    return lanes.T.copy()


def _jump_bytes(rows):
    """The rows XORed per state byte, a (32, 256, 4) uint64 array.

    Entry ``[k, v]`` is the XOR of rows ``8k + i`` over the set bits
    ``i`` of ``v``: one jump is then an XOR of 32 entries, not of up to
    256 rows. At 256 kB the table is built per call and not kept.
    """
    rows = rows.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for i in range(8):
        np.bitwise_xor(table[:, : 1 << i], rows[:, i, None], out=table[:, 1 << i : 2 << i])
    return table


_BYTE_INDEX = np.arange(32)


def _jump(table, state):
    """The state ``table`` (from ``_jump_bytes``) carries ``state`` to.

    ``state`` is a (4,) little-endian uint64 array.
    """
    return np.bitwise_xor.reduce(table[_BYTE_INDEX, state.view(np.uint8)], axis=0)


def _lane_words(table, start, lanes):
    """The next ``lanes * B`` words of the stream from ``start``.

    Returns the words in stream order, the (lanes, 4) array of lane
    starts (lane ``j`` starts ``j B`` words after ``start``, one jump by
    ``table`` after lane ``j - 1``) and the state after the last word.
    """
    starts = np.empty((lanes, 4), dtype="<u8")
    starts[0] = start
    for j in range(1, lanes):
        starts[j] = _jump(table, starts[j - 1])
    state = starts.T.copy()
    words = np.empty((lanes, 1 << _LANE_BITS), dtype=np.uint64)
    _step_lanes(state, 1 << _LANE_BITS, words)
    return words.ravel(), starts, state[:, -1]


def _lane_normals(state, out, i):
    """Fill ``out[i:]`` with polar normals drawn as lanes from ``state``.

    Returns the start of the lane that holds the last word used, the
    number of its words used (fewer than B) and the spare ``v * f``
    (None when the last pair filled two slots).
    """
    table = _jump_bytes(_jump_rows(_LANE_BITS))
    lane_words = 1 << _LANE_BITS
    start = np.array(state, dtype="<u8")
    n = out.size
    while True:
        pairs = (n - i + 1) // 2
        # About pi/4 of the attempts are accepted; the margin makes a
        # further block for the last pairs rare.
        lanes = -(-min(_BLOCK_WORDS, 2 * math.ceil(1.3 * pairs) + 64) // lane_words)
        words, starts, end = _lane_words(table, start, lanes)
        # 2 ((w >> 11) 2^-53) - 1 as the scalar loop forms it: the scalings
        # are exact, so only the subtraction rounds, as it does there.
        words >>= 11
        uv = words.astype(np.float64)
        del words
        uv *= 2.0**-52
        uv -= 1.0
        u, v = uv[0::2], uv[1::2]
        q = u * u
        q += v * v
        accepted = np.flatnonzero((0.0 < q) & (q < 1.0))[:pairs]
        u, v, q = u[accepted], v[accepted], q[accepted]
        del uv
        f = np.fromiter(map(math.log, q.tolist()), np.float64, q.size)
        f *= -2.0
        f /= q
        np.sqrt(f, out=f)
        take = min(2 * accepted.size, n - i)
        np.multiply(u[: take - take // 2], f[: take - take // 2], out=out[i : i + take : 2])
        np.multiply(v[: take // 2], f[: take // 2], out=out[i + 1 : i + take : 2])
        i += take
        if i == n:
            used = 2 * (int(accepted[-1]) + 1)
            lane, r = divmod(used, lane_words)
            spare = float(v[-1] * f[-1]) if take % 2 else None
            return starts[lane] if lane < lanes else end, r, spare
        start = end


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 seeding and a polar normal source."""

    def __init__(self, seed):
        seed = int(seed) & _MASK
        sm = seed
        state = []
        for _ in range(4):
            sm, word = _splitmix64(sm)
            state.append(word)
        self._s = state
        self._spare = None

    def next_u64(self):
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK, 23) + s[0]) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self):
        """One standard normal: the next draw of ``normals``."""
        return float(self.normals(1)[0])

    def normals(self, shape):
        """Array of standard normals, filled in C (row-major) order.

        The same draws as one call per normal, the cached spare
        included. From ``_LANE_CROSSOVER`` normals on they are drawn as
        lanes (see the module docstring); below it the polar method runs
        with ``next_u64`` and ``uniform`` inlined on local state words.
        """
        n = math.prod(shape) if isinstance(shape, (tuple, list)) else operator.index(shape)
        out = np.empty(n)
        i = 0
        spare = self._spare
        if spare is not None and n > 0:
            out[0] = spare
            i = 1
            spare = None
        if n - i >= _LANE_CROSSOVER:
            start, steps, self._spare = _lane_normals(self._s, out, i)
            self._s = [int(w) for w in start]
            for _ in range(steps):
                self.next_u64()
            return out.reshape(shape)
        s0, s1, s2, s3 = self._s
        log, sqrt = math.log, math.sqrt
        mask = _MASK
        scale = 2.0**-53
        while i < n:
            while True:
                w = (s0 + s3) & mask
                u = 2.0 * ((((((w << 23) | (w >> 41)) + s0) & mask) >> 11) * scale) - 1.0
                t = (s1 << 17) & mask
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & mask
                w = (s0 + s3) & mask
                v = 2.0 * ((((((w << 23) | (w >> 41)) + s0) & mask) >> 11) * scale) - 1.0
                t = (s1 << 17) & mask
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & mask
                q = u * u + v * v
                if 0.0 < q < 1.0:
                    break
            f = sqrt(-2.0 * log(q) / q)
            out[i] = u * f
            i += 1
            if i < n:
                out[i] = v * f
                i += 1
            else:
                spare = v * f
        self._s = [s0, s1, s2, s3]
        self._spare = spare
        return out.reshape(shape)


def standard_normal(rng_state):
    """One standard-normal draw, advancing ``rng_state`` in place."""
    return rng_state.normal()
