"""Root-seed handling, stream splitting and the block-drawn sampler.

All randomness in the package flows from 64-bit root seeds through numpy's
PCG64 generator, which is seedable and platform-independent.  Derived streams
(substrate vs. workload, per-request strategy randomness) are split off the
root via SeedSequence with the extra keys listed below, so every stream is
independent and reproducible:

    (seed, 0)             substrate topology draws
    (seed, 1)             request-stream draws
    (seed, 2, vnr_id)     per-request swarm search
    (seed, 3, vnr_id)     per-request random-baseline draws

The strategies draw through ``draws_from``: a ``Draws`` stream over the same
bit generator that ``rng_from`` wraps, which reads the raw 64-bit outputs in
blocks of ``DRAW_BLOCK`` and derives each value in Python.  It reproduces the
two ``numpy.random.Generator`` calls the strategies make, bit for bit, from
numpy's own algorithms (numpy 2.x, ``distributions.c``):

* ``random()`` is ``next_double``: the top 53 bits of one raw output, times
  2**-53.
* ``integers(n)`` is Lemire's bounded draw over 32-bit words for the range
  n - 1 (``buffered_bounded_lemire_uint32``).  The words come from
  ``next_uint32``, which splits one raw output into its low half, returned
  first, and its high half, carried to the next 32-bit request; doubles and
  raw draws bypass the carry.  ``integers(1)`` consumes nothing.  numpy
  fills ``integers(0, 2, size=k)`` with the same loop, so it equals k
  scalar ``integers(2)`` draws.

A scalar numpy call costs microseconds of dispatch; the stream's costs a
few hundred nanoseconds.  Draws past the last one a caller uses are
fetched but never read, so they change nothing downstream.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

SUBSTRATE_STREAM = 0
WORKLOAD_STREAM = 1
SWARM_STREAM = 2
RANDOM_BASELINE_STREAM = 3

# Raw 64-bit outputs fetched per refill of a Draws stream.
DRAW_BLOCK = 256


def normalize_seed(seed: int) -> int:
    """Map any Python int onto the unsigned 64-bit range SeedSequence needs."""
    return int(seed) & _MASK64


def _bit_generator(seed: int, *keys: int) -> np.random.PCG64:
    entropy = [normalize_seed(seed)] + [normalize_seed(k) for k in keys]
    return np.random.PCG64(np.random.SeedSequence(entropy))


def rng_from(seed: int, *keys: int) -> np.random.Generator:
    """PCG64 generator for the (seed, *keys) stream."""
    return np.random.Generator(_bit_generator(seed, *keys))


def draws_from(seed: int, *keys: int) -> Draws:
    """The (seed, *keys) stream as ``Draws``: the values ``rng_from``'s
    generator gives for the same sequence of ``random()`` and
    ``integers(n)`` calls."""
    return Draws(_bit_generator(seed, *keys))


def derive_seed(seed: int, *keys: int) -> int:
    """A 64-bit child seed for code that wants an int rather than a stream."""
    entropy = [normalize_seed(seed)] + [normalize_seed(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


class Draws:
    """``random()`` and ``integers(n)`` of ``numpy.random.Generator``, bit for
    bit, from blocks of a PCG64 bit generator's raw outputs (see the module
    docstring).  The stream must be the bit generator's only reader."""

    __slots__ = ("_raw", "_buf", "_pos", "_carry")

    def __init__(self, bit_generator: np.random.PCG64):
        self._raw = bit_generator.random_raw
        self._buf: list[int] = []
        self._pos = 0
        self._carry: int | None = None  # high half of the last word split

    def _refill(self) -> int:
        """Fetch the next block and return its first output."""
        self._buf = self._raw(DRAW_BLOCK).tolist()
        self._pos = 1
        return self._buf[0]

    def random(self) -> float:
        """Uniform float in [0, 1), as ``Generator.random()``."""
        # The top 53 bits times 2**-53, written as a literal for speed.
        pos = self._pos
        if pos < len(self._buf):
            self._pos = pos + 1
            return (self._buf[pos] >> 11) * 1.1102230246251565e-16
        return (self._refill() >> 11) * 1.1102230246251565e-16

    def _next32(self) -> int:
        carry = self._carry
        if carry is not None:
            self._carry = None
            return carry
        pos = self._pos
        if pos < len(self._buf):
            self._pos = pos + 1
            x = self._buf[pos]
        else:
            x = self._refill()
        self._carry = x >> 32
        return x & _MASK32

    def integers(self, n: int) -> int:
        """Uniform int in [0, n), as ``Generator.integers(n)``, for n in
        [1, 2**32 - 1]."""
        if not 1 <= n <= _MASK32:
            raise ValueError(f"integers: n must lie in [1, 2**32 - 1], got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if (m & _MASK32) < n:
            # Reject the low words below (2**32 - n) mod n: what is left is
            # a whole number of copies of [0, n).
            threshold = (0x100000000 - n) % n
            while (m & _MASK32) < threshold:
                m = self._next32() * n
        return m >> 32
