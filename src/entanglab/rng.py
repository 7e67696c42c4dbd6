"""Deterministic random streams.

A draw is addressed by (master_seed, stream_index). A stream's generator is
numpy's PCG64 seeded through numpy's SeedSequence entropy mixing, so any trial
of any sweep can be reproduced in isolation and trials can run concurrently
without sharing generator state.

Trial streams (`trial_generators`) are derived in blocks of up to 1024
trials by `_trial_seed_words`: numpy's SeedSequence mixes the words a block
shares once per block, and only the trial index is mixed by hand, as an
array, into its pool. Each generator's state is bit-identical to that of
`stream.substream(t).generator()`, and its `spawn` and pickling go through
numpy's own SeedSequence. `_chunks`, the only chunk loop, hands them to
an experiment a chunk at a time, and `_normal_rows` their normals to a
sampler a sub-batch at a time. Bit-exact reproducibility is promised for a
fixed numpy/entanglab installation, not across library versions; the property
test comparing the two derivations fails loudly if numpy's SeedSequence changes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

__all__ = ["SeededStream", "as_generator", "trial_generators"]

# Byte budget of one chunk: its stack of n x n complex matrices and its
# trials' generators (252 trials at n = 1, 204 at n = 4, 112 at n = 9, 3 at
# n = 64), and of each sub-batch `_normal_rows` fills, with its caller's
# buffers (20 induced trials at 9 x 64, 1 at 64 x 192). It bounds a chunk's
# memory at any trial count: the stack's temporaries are a small multiple of
# it (the tracemalloc peak of `separability._is_ppt`, which factors the
# shifted partial transpose in place, is about one stack beyond its input).
_CHUNK_BYTES = 1 << 18

# Most bytes one trial's buffers may take: `_batch_size`, which sizes every
# chunk and sub-batch, refuses a larger trial before anything is allocated.
_TRIAL_BYTES_MAX = 1 << 30

# Bytes a trial's generator holds while its chunk runs: its Generator, PCG64
# and _TrialSeed with its row of seed words trace 792 B (numpy 2.4).
_GENERATOR_BYTES = 1 << 10

# Trials whose seed words are derived at once: 32 KiB of words per block.
_BLOCK = 1024

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants, all arithmetic modulo 2**32.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class SeededStream:
    """Address of one reproducible draw sequence: non-negative integers."""

    master_seed: int
    stream_index: int = 0
    subpath: tuple[int, ...] = field(default=())

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            value = operator.index(getattr(self, name))
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            object.__setattr__(self, name, value)
        subpath = tuple(map(operator.index, self.subpath))
        if any(k < 0 for k in subpath):
            raise ValueError("subpath entries must be non-negative")
        object.__setattr__(self, "subpath", subpath)

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.master_seed, spawn_key=(self.stream_index,) + self.subpath
        )

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_sequence()))

    def stream(self, index: int) -> "SeededStream":
        """Sibling stream `index` under the same master seed."""
        return SeededStream(self.master_seed, index)

    def substream(self, index: int) -> "SeededStream":
        """Child stream for nested loops (e.g. resampling inside a trial)."""
        return SeededStream(self.master_seed, self.stream_index, self.subpath + (index,))


def _words(n: int) -> int:
    """How many 32-bit words SeedSequence splits a non-negative int into."""
    return max(1, -(-n.bit_length() // 32))


def _hasher(const: int, mult: int):
    """SeedSequence's hash with its running constant, which starts at
    `const` and is multiplied by `mult` on every call."""

    def hash_(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hash_


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    value = (_MIX_L * x & _M32) - _MIX_R * y & _M32
    return value ^ value >> 16


def _trial_seed_words(stream: SeededStream, start: int, stop: int) -> np.ndarray:
    """PCG64 seed words of trials start..stop-1 under `stream`: row i is
    `stream.substream(start + i)`'s SeedSequence `.generate_state(4, uint64)`.

    numpy's SeedSequence for `stream` mixes the L words a block shares (the
    master seed padded to the pool size, the stream index and the subpath)
    into its pool, once per block. Trial t's entropy is those words and t, so
    this mixes only t, a uint32 array, into that pool, starting the hash
    constant where mix_entropy's 4L hashes leave it, and hashes the state out
    as generate_state does."""
    if stop > 1 << 32:
        raise ValueError("trial indices must be < 2**32")
    seq = stream._seed_sequence()
    shared = max(_POOL, _words(stream.master_seed)) + sum(map(_words, seq.spawn_key))
    hashmix = _hasher(_INIT_A * pow(_MULT_A, 4 * shared, 1 << 32) & _M32, _MULT_A)
    t = np.arange(start, stop, dtype=np.uint32)
    pool = [_mix(w, hashmix(t)) for w in seq.pool.tolist()]

    hash_state = _hasher(_INIT_B, _MULT_B)
    state = [hash_state(pool[i % _POOL]) for i in range(2 * _POOL)]
    return np.stack(state, axis=-1).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _TrialSeed(ISpawnableSeedSequence):
    """Trial t's SeedSequence under `stream`, holding the words PCG64 seeds
    from. Any other request, `spawn` included, goes to numpy's SeedSequence
    for that address, built on first use."""

    def __init__(self, words: np.ndarray, stream: SeededStream, t: int):
        self.words, self.stream, self.t = words, stream, t
        self._sequence = None

    def _seed_sequence(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = self.stream.substream(self.t)._seed_sequence()
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == len(self.words) and dtype is np.uint64:
            return self.words
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)


def _as_stream(stream) -> SeededStream | np.random.Generator:
    """A SeededStream or a Generator as given; an int master seed as its
    SeededStream."""
    if isinstance(stream, (int, np.integer)):
        return SeededStream(int(stream))
    if isinstance(stream, (SeededStream, np.random.Generator)):
        return stream
    raise TypeError(f"cannot interpret {type(stream).__name__} as a random stream")


def as_generator(stream) -> np.random.Generator:
    """Accept a SeededStream, a Generator, or an int master seed."""
    stream = _as_stream(stream)
    return stream if isinstance(stream, np.random.Generator) else stream.generator()


def trial_generators(stream, trials: int, block: int | None = None):
    """One generator per Monte-Carlo trial.

    SeededStream (or int seed) inputs get an independent substream per trial,
    so trials can be computed in any order or concurrently; trial t's
    generator equals `stream.substream(t).generator()`. A raw Generator is
    reused sequentially. Seed words are derived `block` trials at a time,
    `_BLOCK` unless given.
    """
    stream = _as_stream(stream)
    if isinstance(stream, np.random.Generator):
        for _ in range(trials):
            yield stream
        return
    block = block or _BLOCK
    for start in range(0, trials, block):
        words = _trial_seed_words(stream, start, min(start + block, trials))
        words.flags.writeable = False  # rows are handed out as views
        for t, row in enumerate(words, start):
            yield np.random.Generator(np.random.PCG64(_TrialSeed(row, stream, t)))


def split_stream(stream, parts: int) -> list:
    """Independent sub-sources for the distinct sampling phases of one
    experiment. (An experiment derives its per-trial streams from these,
    never from the parent directly.)"""
    stream = _as_stream(stream)
    if isinstance(stream, np.random.Generator):
        return [stream] * parts
    return [stream.substream(i) for i in range(parts)]


def _batch_size(nbytes: int) -> int:
    """Trials of `nbytes` each that fit into _CHUNK_BYTES, at least one;
    raises if one trial's `nbytes` exceed _TRIAL_BYTES_MAX."""
    if nbytes > _TRIAL_BYTES_MAX:
        raise ValueError(f"one trial needs {nbytes} bytes, over the limit of {_TRIAL_BYTES_MAX}")
    return max(1, _CHUNK_BYTES // nbytes)


def _trial_bytes(n: int, cols: int | None = None) -> int:
    """Bytes a chunk holds per trial: its n x cols complex matrix (cols = n
    unless given) and its generator."""
    return 16 * n * (n if cols is None else cols) + _GENERATOR_BYTES


def _chunks(f, stream, trials: int, n: int, cols: int | None = None):
    """f(gens) over chunks of the trials' generators (from `trial_generators`)
    of as many trials as fit, each with its n x cols complex matrix (n x n
    unless cols is given) and its generator, into _CHUNK_BYTES, at least one:
    an iterator of the results."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    size = _batch_size(_trial_bytes(n, cols))
    # whole chunks per block: a block's words are derived while no chunk is held
    gens = trial_generators(stream, trials, size * max(1, _BLOCK // size))
    return (f(list(islice(gens, size))) for _ in range(0, trials, size))


def _normal_rows(gens: list, shape: tuple, extra: int):
    """The trials' normals a sub-batch at a time: (b, rows) in order, rows[i]
    filled by gens[b + i] with one call into one reused buffer. A sub-batch is
    as many trials as fit their normals (8 prod(shape) bytes each) and `extra`
    bytes each of the caller's buffers into _CHUNK_BYTES, at least one; this
    call refuses a trial over _TRIAL_BYTES_MAX before the caller allocates."""
    size = _batch_size(8 * math.prod(shape) + extra)
    z = np.empty((min(size, len(gens)), *shape))

    def fill(b):
        for row, rng in zip(z, gens[b:b + size]):
            rng.standard_normal(out=row)
        return b, z[:len(gens) - b]

    return map(fill, range(0, len(gens), size))
