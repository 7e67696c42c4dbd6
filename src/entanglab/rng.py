"""Deterministic random streams.

A draw is addressed by (master_seed, stream_index). Stream states are derived
through numpy's SeedSequence entropy mixing, so any trial of any sweep can be
reproduced in isolation and trials can run concurrently without sharing
generator state. Bit-exact reproducibility is promised for a fixed numpy/
entanglab installation, not across library versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import numpy.random  # numpy 2 imports it lazily, which would charge the first draw

__all__ = ["SeededStream", "as_generator"]

# Byte budget of one chunk's stack of n x n complex matrices (about 200 trials
# at n = 9, 4 at n = 64). It bounds a chunk's memory at any trial count; at
# 256 KiB the stack's temporaries stay within the peak of one large draw.
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class SeededStream:
    """Address of one reproducible draw sequence."""

    master_seed: int
    stream_index: int = 0
    subpath: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        key = (self.stream_index,) + tuple(self.subpath)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))

    def stream(self, index: int) -> "SeededStream":
        """Sibling stream `index` under the same master seed."""
        return SeededStream(self.master_seed, int(index))

    def substream(self, index: int) -> "SeededStream":
        """Child stream for nested loops (e.g. resampling inside a trial)."""
        return SeededStream(
            self.master_seed, self.stream_index, self.subpath + (int(index),)
        )


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


def trial_generators(stream, trials: int):
    """One generator per Monte-Carlo trial.

    SeededStream (or int seed) inputs get an independent substream per trial,
    so trials can be computed in any order or concurrently. A raw Generator
    is reused sequentially.
    """
    stream = _as_stream(stream)
    for t in range(trials):
        if isinstance(stream, np.random.Generator):
            yield stream
        else:
            yield stream.substream(t).generator()


def split_stream(stream, parts: int) -> list:
    """Independent sub-sources for the distinct sampling phases of one
    experiment. (An experiment derives its per-trial streams from these,
    never from the parent directly.)"""
    stream = _as_stream(stream)
    if isinstance(stream, np.random.Generator):
        return [stream] * parts
    return [stream.substream(i) for i in range(parts)]


def trial_chunks(stream, trials: int, n: int):
    """The trials' generators, one per trial as from `trial_generators`, in
    chunks of as many trials as fit n x n complex matrices into _CHUNK_BYTES
    (at least one)."""
    size = max(1, _CHUNK_BYTES // (16 * n * n))
    gens = trial_generators(stream, trials)
    while chunk := list(islice(gens, size)):
        yield chunk


def chunk_map(f, stream, trials: int, n: int) -> np.ndarray:
    """f(gens) over the chunks of `trial_chunks`, concatenated: one value
    per trial, evaluated once per stacked chunk."""
    return np.concatenate([f(gens) for gens in trial_chunks(stream, trials, n)])
