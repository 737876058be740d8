"""Deterministic, separated random substreams.

Every run owns one 64-bit seed.  All randomness is drawn from named
substreams derived from that seed, one PCG64 generator per label, so that
consuming draws from one stream never shifts another.  This realizes the
independence requirements between relaxation draws, operator-index draws,
and noise draws by construction: the relaxation sequence of a run is a
function of the seed alone, unchanged when the number or pattern of index
draws changes.

Solvers draw their indices and relaxations ahead of use, in chunks whose
sizes :func:`chunk_sizes` gives, the one chunk schedule of every stream.
Draws never cross streams, so however far ahead a stream is drawn, its
draws stay independent of every other stream's.

Streams are single-owner: a generator returned here must not be shared
between threads.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1

# Fixed label table. New labels get fresh ids; existing ids never change,
# otherwise seeded outputs would silently shift between versions.  Ids 2
# ("weights"), 5 ("validation") and 9 ("audit") are retired and are never
# reused.
_STREAM_IDS = {
    "index": 1,
    "relaxation": 3,
    "noise": 4,
    "ground_truth": 6,
    "blur": 7,
    "observation_noise": 8,
}


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the generator for the named substream of ``seed``."""
    try:
        stream_id = _STREAM_IDS[label]
    except KeyError:
        raise KeyError(f"unknown stream label {label!r}; known: {sorted(_STREAM_IDS)}")
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def chunk_sizes():
    """The sizes of a stream's successive chunks, in draws (a batch of M
    indices is one draw): 16, 32, ..., 1024, then 1024 from there on.

    An index costs about 0.015 us in bulk at 2,560 members, so one first
    chunk of 1024 batches of 16 would cost a short run 0.25 ms for indices
    it never uses.  The schedule moves no draw: ``rng.random(a)`` followed
    by ``rng.random(b)`` gives the bits of ``rng.random(a + b)``, and each
    draw is a function of its own uniforms only.  Every stream of a
    run follows it, so the chunks of its streams line up, draw for draw.
    """
    size = 16
    while True:
        yield size
        size = min(2 * size, 1024)


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a 64-bit run seed from a base seed and identifying components.

    Strings are hashed with crc32 (stable across platforms and Python
    versions); integers are used directly.
    """
    key = []
    for comp in components:
        if isinstance(comp, str):
            key.append(zlib.crc32(comp.encode("utf-8")))
        elif isinstance(comp, (int, np.integer)):
            key.append(int(comp) & _MASK64)
        else:
            raise TypeError(f"seed components must be str or int, got {type(comp)!r}")
    ss = np.random.SeedSequence(entropy=int(base_seed) & _MASK64, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
