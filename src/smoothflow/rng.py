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
"""

import math

import numpy as np

_MASK = (1 << 64) - 1


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


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
        """Standard normal via Marsaglia's polar method."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        while True:
            u = 2.0 * self.uniform() - 1.0
            v = 2.0 * self.uniform() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(s) / s)
        self._spare = v * f
        return u * f

    def normals(self, shape):
        """Array of standard normals, filled in C (row-major) order.

        The same draws as repeated ``normal()`` calls, the cached spare
        included. ``next_u64`` and ``uniform`` are inlined on local state
        words, because this loop is most of what a problem build costs.
        """
        n = int(np.prod(shape))
        out = np.empty(n)
        i = 0
        spare = self._spare
        if spare is not None and n > 0:
            out[0] = spare
            i = 1
            spare = None
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
