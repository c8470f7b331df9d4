"""Deterministic splitting of one master seed into independent RNG streams.

Every randomized routine in this package takes a plain integer seed. When a
single experiment needs many independent streams (replicates, strategy arms,
per-run graph draws), the streams are derived from the master seed plus a
path of labels, so adding one more arm never shifts the draws of another.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U32 = 2**32


def _path_to_ints(path: tuple) -> tuple[int, ...]:
    # Strings are hashed to stable 32-bit words; ints pass through. The
    # spawn key must not depend on the process hash seed.
    out = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            out.append(int(part) % _U32)
        elif isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=4).digest()
            out.append(int.from_bytes(digest, "little"))
        else:
            raise TypeError(f"seed path parts must be int or str, got {type(part)!r}")
    return tuple(out)


def child_sequence(seed: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the stream identified by `path` under `seed`."""
    return np.random.SeedSequence(int(seed), spawn_key=_path_to_ints(path))


def child_seed(seed: int, *path) -> int:
    """A plain integer seed for the stream identified by `path`.

    Useful when the derived seed must be recorded in an output file or
    passed to an API that takes a single integer.
    """
    return int(child_sequence(seed, *path).generate_state(2, np.uint32).view(np.uint64)[0])


def rng_from(seed: int, *path) -> np.random.Generator:
    """Generator seeded from `seed` and an optional label path; with no
    path it draws the words of `np.random.default_rng(seed)`."""
    return np.random.default_rng(child_sequence(seed, *path))
