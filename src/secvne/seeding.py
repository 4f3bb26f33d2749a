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

Every stream is read through ``draws_from``: a ``Draws`` stream over the
PCG64 bit generator of (seed, *keys), which reads the raw 64-bit outputs in
blocks of ``DRAW_BLOCK`` and derives each value in Python.  ``generate``
and the strategies both draw from it.  It reproduces, bit for bit, the
``numpy.random.Generator`` calls they would make, from numpy's own
algorithms (numpy 2.x, ``distributions.c`` and ``_generator.pyx``):

* ``random()`` is ``next_double``: the top 53 bits of one raw output, times
  2**-53.  ``skip(k)`` consumes k raw outputs, as k ``random()`` calls do,
  for a caller that would not read the values; like them, it leaves the
  carried half word alone.
* ``integers(n)`` for n <= 2**32 - 1 is Lemire's bounded draw over 32-bit
  words for the range n - 1 (``buffered_bounded_lemire_uint32``).  The
  words come from ``next_uint32``, which splits one raw output into its
  low half, returned first, and its high half, carried to the next 32-bit
  request; doubles and raw draws bypass the carry.  ``integers(1)``
  consumes nothing.  numpy fills ``integers(0, 2, size=k)`` with the same
  loop, so it equals k scalar ``integers(2)`` draws.  ``integers(2**32)``
  is one plain ``next_uint32``, and n up to 2**63 takes Lemire's draw over
  whole 64-bit outputs (``bounded_lemire_uint64``).
* ``exponential(scale)`` is numpy's own ziggurat, which reads whole 64-bit
  outputs.  The stream rewinds the bit generator past the block's unread
  outputs (PCG64's ``advance`` by 2**128 minus their count), drops the
  block and lets a ``Generator`` draw the value; the carried half word
  stays with the stream.
* ``choice(pop, k)`` is ``choice(pop, size=k, replace=False)``: Floyd's
  algorithm, then a shuffle.  Floyd's step j, for j in [pop - k, pop),
  draws ``integers(j + 1)`` and takes j itself when the draw repeats.  The
  shuffle then swaps place i with place ``integers(i + 1)`` for i = k - 1
  down to 1.  For pop > 10000 and k > pop // 50 numpy instead shuffles the
  whole population; the stream refuses that range with ValueError rather
  than return values that differ from numpy's.  No config reaches it: the
  one caller, ``generate_vnr_stream``, draws from at most ``MAX_NODE_COUNT``
  domains.

A scalar numpy call costs microseconds of dispatch; the stream's costs a
few hundred nanoseconds.  Draws past the last one a caller uses are
fetched but never read, so they change nothing downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfig

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# The largest bound numpy's int64 ``integers`` accepts, and PCG64's period.
_MAX_BOUND = 1 << 63
_PERIOD = 1 << 128

SUBSTRATE_STREAM = 0
WORKLOAD_STREAM = 1
SWARM_STREAM = 2
RANDOM_BASELINE_STREAM = 3

# Raw 64-bit outputs fetched per refill of a Draws stream.
DRAW_BLOCK = 256


def normalize_seed(seed: int) -> int:
    """Map any Python int onto the unsigned 64-bit range SeedSequence needs."""
    return int(seed) & _MASK64


def check_seed(seed: int, name: str) -> None:
    """InvalidConfig unless ``seed`` lies in [0, 2**64): ``normalize_seed``
    would map a seed outside it onto the stream of one inside it."""
    if not 0 <= seed <= _MASK64:
        raise InvalidConfig(f"{name} must lie in [0, 2**64), got {seed}")


def _bit_generator(seed: int, *keys: int) -> np.random.PCG64:
    entropy = [normalize_seed(seed)] + [normalize_seed(k) for k in keys]
    return np.random.PCG64(np.random.SeedSequence(entropy))


def draws_from(seed: int, *keys: int) -> Draws:
    """The (seed, *keys) stream as ``Draws``: the values a numpy
    ``Generator`` over the same bit generator gives for the same calls."""
    return Draws(_bit_generator(seed, *keys))


def derive_seed(seed: int, *keys: int) -> int:
    """A 64-bit child seed for code that wants an int rather than a stream."""
    entropy = [normalize_seed(seed)] + [normalize_seed(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


class Draws:
    """``random()``, ``integers(n)``, ``exponential(scale)`` and
    ``choice(pop, k)`` of ``numpy.random.Generator``, bit for bit, from
    blocks of a PCG64 bit generator's raw outputs, and ``skip(k)``, k
    ``random()`` calls' worth of outputs unread (see the module docstring).
    The stream must be the bit generator's only reader."""

    __slots__ = ("_bits", "_raw", "_buf", "_pos", "_carry")

    def __init__(self, bit_generator: np.random.PCG64):
        self._bits = bit_generator
        self._raw = bit_generator.random_raw
        self._buf: list[int] = []
        self._pos = 0
        self._carry: int | None = None  # high half of the last word split

    def _refill(self) -> int:
        """Fetch the next block and return its first output."""
        self._buf = self._raw(DRAW_BLOCK).tolist()
        self._pos = 1
        return self._buf[0]

    def _next64(self) -> int:
        pos = self._pos
        if pos < len(self._buf):
            self._pos = pos + 1
            return self._buf[pos]
        return self._refill()

    def random(self) -> float:
        """Uniform float in [0, 1), as ``Generator.random()``."""
        # The top 53 bits times 2**-53, written as a literal for speed.
        pos = self._pos
        if pos < len(self._buf):
            self._pos = pos + 1
            return (self._buf[pos] >> 11) * 1.1102230246251565e-16
        return (self._refill() >> 11) * 1.1102230246251565e-16

    def skip(self, k: int) -> None:
        """Consume ``k`` raw outputs, as k ``random()`` calls would, without
        deriving a value; the carried half word stays."""
        if k < 0:
            raise ValueError(f"skip: k must be non-negative, got {k}")
        pos = self._pos + k
        while pos > len(self._buf):
            pos -= len(self._buf)
            self._buf = self._raw(DRAW_BLOCK).tolist()
        self._pos = pos

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
        [1, 2**63]."""
        if 1 < n <= _MASK32:
            m = self._next32() * n
            if (m & _MASK32) < n:
                # Reject the low words below (2**32 - n) mod n: what is left
                # is a whole number of copies of [0, n).
                threshold = (0x100000000 - n) % n
                while (m & _MASK32) < threshold:
                    m = self._next32() * n
            return m >> 32
        if n == 1:
            return 0
        if n == 0x100000000:
            return self._next32()
        if not 0x100000000 < n <= _MAX_BOUND:
            raise ValueError(f"integers: n must lie in [1, 2**63], got {n}")
        # The same rejection over whole 64-bit words.
        m = self._next64() * n
        if (m & _MASK64) < n:
            threshold = (0x10000000000000000 - n) % n
            while (m & _MASK64) < threshold:
                m = self._next64() * n
        return m >> 64

    def exponential(self, scale: float) -> float:
        """Exponential draw of mean ``scale``, as ``Generator.exponential``.

        numpy's own ziggurat computes it: the bit generator is rewound past
        the block's unread outputs, so it stands where the stream reads
        next, and the block is dropped.  The carried half word stays.
        """
        unread = len(self._buf) - self._pos
        if unread:
            self._bits.advance(_PERIOD - unread)
        self._buf = []
        self._pos = 0
        return float(np.random.Generator(self._bits).exponential(scale))

    def choice(self, pop: int, k: int) -> list[int]:
        """k distinct ints from [0, pop), as ``Generator.choice(pop, size=k,
        replace=False)``."""
        if not 0 <= k <= pop:
            raise ValueError(f"choice: k must lie in [0, pop], got k={k}, pop={pop}")
        if pop > 10000 and k > pop // 50:
            # numpy shuffles the whole population here; the stream does not.
            raise ValueError(f"choice: k > pop // 50 for pop > 10000, got k={k}, pop={pop}")
        # Floyd's algorithm: step j draws from [0, j] and takes j itself on
        # a repeat; then a shuffle of the k picks.
        out = []
        seen = set()
        for j in range(pop - k, pop):
            v = self.integers(j + 1)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        for i in range(k - 1, 0, -1):
            j = self.integers(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
