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

Large ``normals`` draws run as jump-ahead lanes of B = 16 words: the
state step T is linear over GF(2), so lane ``j`` of a block starts at
``T^(jB)`` of the block's state, or at ``T^8192`` of lane ``j``'s
start in a full previous block; all lanes step together on numpy
arrays, and their words laid end to end are the scalar stream word for
word. The polar method then runs over the block's consecutive word
pairs, with the same IEEE operations and libm's ``log``. The draws,
their order, the state after the call and the cached spare are bit for
bit those of drawing the same normals one at a time.
"""

import functools
import math
import operator

import numpy as np

from .errors import InvalidParameterError

_MASK = (1 << 64) - 1

# Draws of fewer normals than this take the scalar loop. On a 2-vCPU VM the
# lanes break even at about 750 normals and are 1.3x as fast at 1,024,
# 2.1x at 2,048 and 5x to 7x at a medium build's 20,000 and 50,000.
_LANE_CROSSOVER = 1024
# Each lane of a block yields B = 2**_LANE_BITS words, and a block holds at
# most _BLOCK_WORDS words (4,096 polar attempts), so its arrays stay small.
_LANE_BITS = 4
_BLOCK_WORDS = 8192


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _step_lanes(state, steps, words=False):
    """Step every lane of the (4, lanes) uint64 ``state`` ``steps`` times.

    The steps run in place on the arrays, whose adds wrap silently. With
    ``words``, returns the (lanes, steps) outputs: row ``j`` holds lane
    ``j``'s, formed at the end from the ``s0`` and ``s3`` of each step.
    """
    s0, s1, s2, s3 = state
    low, high, crossed = state[:2], state[2:], state[3:1:-1]
    kept = np.empty((steps, 2, s0.size), dtype=np.uint64) if words else None
    t = np.empty_like(s0)
    for k in range(steps):
        if words:
            kept[k] = state[::3]
        np.left_shift(s1, 17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        low ^= crossed  # s0 ^= s3, s1 ^= s2
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
    if words:
        w = kept[:, 0] + kept[:, 1]
        return (((w << 23) | (w >> 41)) + kept[:, 0]).T


@functools.cache
def _jump_rows(bits):
    """``T^(2^bits)`` as 256 packed rows, a (256, 4) uint64 array.

    Row ``i`` is where the unit state with bit ``i % 64`` of word
    ``i // 64`` set lands after ``2^bits`` steps; by linearity a state
    lands on the XOR of the rows of its set bits. Past a lane's B steps
    the rows are those of ``T^(2^(bits-1))``, squared.
    """
    if bits > _LANE_BITS:
        rows = _jump_rows(bits - 1)
        return _jump_many(_jump_bytes(rows), rows)
    lanes = np.packbits(np.eye(256, dtype=bool), axis=1, bitorder="little").view("<u8").T.copy()
    _step_lanes(lanes, 1 << bits)
    return lanes.T.copy()


def _jump_bytes(rows):
    """The rows XORed per state byte, a (32, 256, 4) uint64 array.

    Entry ``[k, v]`` is the XOR of rows ``8k + i`` over the set bits
    ``i`` of ``v``, formed from half-byte tables: one jump is an XOR of 32
    entries, not of up to 256 rows. At 256 kB it is built per call, not kept.
    """
    rows = rows.reshape(32, 2, 4, 4)
    half = np.zeros((32, 2, 16, 4), dtype=np.uint64)
    for i in range(4):
        np.bitwise_xor(half[:, :, : 1 << i], rows[:, :, i, None], out=half[:, :, 1 << i : 2 << i])
    return (half[:, 1, :, None] ^ half[:, 0, None]).reshape(32, 256, 4)


_BYTE_OFFSETS = np.arange(0, 32 * 256, 256)


def _jump(table, state):
    """Where ``table`` (from ``_jump_bytes``) carries the (4,) ``<u8`` ``state``."""
    index = _BYTE_OFFSETS + state.view(np.uint8)
    return np.bitwise_xor.reduce(table.reshape(-1, 4).take(index, axis=0), axis=0)


def _jump_many(table, states):
    """``_jump`` of each row of the (n, 4) ``states``: one ``take`` per byte."""
    index = states.astype("<u8", copy=False).view(np.uint8)
    out = table[0].take(index[:, 0], axis=0)
    for k in range(1, 32):
        out ^= table[k].take(index[:, k], axis=0)
    return out


def _first_starts(start, lanes):
    """The (lanes, 4) starts of ``lanes`` lanes from ``start``.

    Anchors 4 B words apart follow one single jump after another; each
    anchor stepped B, 2 B and 3 B words gives the lanes between.
    """
    anchors = np.empty((-(-lanes // 4), 4), dtype="<u8")
    anchors[0] = start
    table = _jump_bytes(_jump_rows(_LANE_BITS + 2))
    for j in range(1, len(anchors)):
        anchors[j] = _jump(table, anchors[j - 1])
    starts = np.repeat(anchors.T[:, None], 4, axis=1)  # (word, lane of anchor, anchor)
    for k in range(1, 4):
        _step_lanes(starts[:, k:], 1 << _LANE_BITS)
    return starts.T.reshape(-1, 4)[:lanes]


def _lane_normals(state, out, i):
    """Fill ``out[i:]`` with polar normals drawn as lanes from ``state``.

    A full block's starts, jumped by ``T^_BLOCK_WORDS`` at once, start the
    next block; a shorter block's end starts it afresh. Returns the start
    of the last word's lane, the number of its words used (fewer than B)
    and the spare ``v * f`` (None when the last pair filled two slots).
    """
    lane_words = 1 << _LANE_BITS
    block = starts = None
    n = out.size
    while True:
        pairs = (n - i + 1) // 2
        # About pi/4 of the attempts are accepted; the margin makes a
        # further block for the last pairs rare.
        lanes = -(-min(_BLOCK_WORDS, 2 * math.ceil(1.3 * pairs) + 64) // lane_words)
        if starts is None:
            starts = _first_starts(state, lanes)
        else:
            if block is None:
                block = _jump_bytes(_jump_rows(_BLOCK_WORDS.bit_length() - 1))
            starts = _jump_many(block, starts[:lanes])
        lane_state = starts.T.copy()
        # 2 ((w >> 11) 2^-53) - 1 as the scalar loop forms it: the scalings
        # are exact, so only the subtraction rounds, as it does there.
        words = _step_lanes(lane_state, lane_words, words=True) >> 11
        uv = words.astype(np.float64, order="C").ravel()
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
            return starts[lane] if lane < lanes else lane_state[:, -1], r, spare
        if lanes < _BLOCK_WORDS // lane_words:
            state, starts = lane_state[:, -1], None


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 seeding and a polar normal source."""

    def __init__(self, seed):
        if isinstance(seed, bool) or not hasattr(seed, "__index__"):
            raise InvalidParameterError(f"seed must be an integer, got {seed!r}")
        sm = operator.index(seed) & _MASK
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
        shaped = np.empty(shape)
        out = shaped.reshape(-1)
        n = out.size
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
            return shaped
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
        return shaped

