"""Random graph families and a degree-preserving null model.

All generators are deterministic functions of their parameters plus an
integer seed: the same call always returns the identical edge set. Two
implementations of the Bernoulli family are provided on purpose. `gen_gnp`
skip-samples pair indices with geometric jumps and scales to large sparse
graphs; `gen_erdos_renyi` flips one coin per pair and serves as the
quadratic reference the fast path can be checked against. Both map the
kept pair indices, row-major over the upper triangle, to node pairs the
same way.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import compress
from typing import Optional

import numpy as np

from . import seeding
from .graph import Graph, from_arrays

FAMILIES = (
    "gnp",
    "erdos_renyi",
    "duplication_divergence",
    "barabasi_albert",
    "random_geometric",
)

# The one optional GenSpec parameter each family reads.
_PARAMETER = {"gnp": "p", "erdos_renyi": "p", "duplication_divergence": "p",
              "barabasi_albert": "m", "random_geometric": "radius"}

_ALIASES = {
    **{name: name for name in FAMILIES},
    "g(n,p)": "gnp",
    "erdos-renyi": "erdos_renyi",
    "er": "erdos_renyi",
    "duplication-divergence": "duplication_divergence",
    "dd": "duplication_divergence",
    "barabasi-albert": "barabasi_albert",
    "ba": "barabasi_albert",
    "rgg": "random_geometric",
    "geometric": "random_geometric",
}

# Default target mean degree used to pick a radius for geometric graphs
# when none is given: radius = sqrt(d_target / (n * pi)) in the unit square.
GEOMETRIC_TARGET_DEGREE = 100.0


def as_integer(value, key: str, error: type[ValueError]) -> int:
    """An integer setting: 3 or 3.0, but not a bool, 2.7 or "3", which raise `error`.

    Integers pass through unchanged, so seeds beyond 2**53 stay exact.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{key} must be an integer, got {value!r}")
    return int(value)


def as_number(value, key: str, error: type[ValueError]) -> float:
    """A float setting: 0.4 or 14, but not a bool or "0.4", which raise `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{key} must be a number, got {value!r}")
    return float(value)


def canonical_family(name: str) -> str:
    if not isinstance(name, str):
        raise ValueError(f"graph family must be a name, got {name!r}")
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown graph family {name!r}; known: {', '.join(FAMILIES)}")
    return _ALIASES[key]


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of one random-graph draw.

    Building one reads `n`, `m`, `dim` and `seed` as integers and `p` and
    `radius` as numbers (a bool, 10.5 or "0.3" raises ValueError) and
    checks the family's parameter rules; each `gen_*` checks its arguments
    by building a spec, so the rules are stated only here.
    """
    family: str
    n: int
    p: Optional[float] = None
    m: Optional[int] = None
    radius: Optional[float] = None
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        for name, read in (("n", as_integer), ("p", as_number), ("m", as_integer),
                           ("radius", as_number), ("dim", as_integer), ("seed", as_integer)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, read(getattr(self, name), name, ValueError))
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        fam = self.family
        ignored = [name for name in ("p", "m", "radius")
                   if getattr(self, name) is not None and name != _PARAMETER[fam]]
        if self.dim != 2 and fam != "random_geometric":
            ignored.append("dim")       # dim=2 is the default, so it passes anywhere
        if ignored:
            raise ValueError(f"{fam} takes no {', '.join(ignored)}")
        if fam in ("gnp", "erdos_renyi", "duplication_divergence"):
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError(f"{fam} needs p in [0, 1]")
            if fam == "duplication_divergence" and self.n < 2:
                raise ValueError("duplication_divergence needs n >= 2")
        elif fam == "barabasi_albert":
            if self.m is None or self.m < 1:
                raise ValueError("barabasi_albert needs m >= 1")
            if self.n <= self.m:
                raise ValueError("barabasi_albert needs n > m")
            if 2 * self.m * (self.n - self.m) >= 2**32:
                # Draws would span 2**32 endpoints or more, past the 32-bit
                # rule `gen_barabasi_albert` applies (2**31 edges or more).
                raise ValueError("barabasi_albert needs 2 m (n - m) < 2**32")
        elif fam == "random_geometric":
            if self.radius is not None and not self.radius >= 0:
                raise ValueError("radius must be non-negative")
            if self.dim < 1:
                raise ValueError("dim must be >= 1")
            if self.radius is None and self.dim != 2:
                raise ValueError("default radius is defined for dim=2 only")

    def with_seed(self, seed: int) -> "GenSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        out = {"family": self.family, "n": self.n, "seed": self.seed}
        if self.p is not None:
            out["p"] = self.p
        if self.m is not None:
            out["m"] = self.m
        if self.radius is not None:
            out["radius"] = self.radius
        if self.family == "random_geometric":
            out["dim"] = self.dim
        return out


def generate(spec: GenSpec) -> Graph:
    fam = spec.family
    if fam == "gnp":
        return gen_gnp(spec.n, spec.p, spec.seed)
    if fam == "erdos_renyi":
        return gen_erdos_renyi(spec.n, spec.p, spec.seed)
    if fam == "duplication_divergence":
        return gen_duplication_divergence(spec.n, spec.p, spec.seed)
    if fam == "barabasi_albert":
        return gen_barabasi_albert(spec.n, spec.m, spec.seed)
    return gen_random_geometric(spec.n, radius=spec.radius, seed=spec.seed, dim=spec.dim)


# -- Bernoulli pair models -----------------------------------------------------


def _pair_from_linear(pos: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Upper-triangle pairs enumerated row-major: row i holds n-1-i entries
    # starting at offset i*(n-1) - i*(i-1)/2. `pos` ascends, so one search of
    # the n+1 row offsets counts each row's pairs.
    i_arr = np.arange(n + 1, dtype=np.int64)
    offsets = i_arr * (n - 1) - (i_arr * (i_arr - 1)) // 2
    counts = np.diff(np.searchsorted(pos, offsets))
    i = np.repeat(i_arr[:-1], counts)
    j = np.repeat(offsets[:-1] - i_arr[:-1] - 1, counts)
    np.subtract(pos, j, out=j)
    return i, j


def gen_gnp(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) by skip-sampling: geometric jumps between kept pairs.

    Runtime scales with the number of edges rather than the number of
    candidate pairs, so small p on large n stays cheap.
    """
    GenSpec("gnp", n, p=p, seed=seed)
    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return from_arrays(np.empty(0, np.int64), np.empty(0, np.int64), n=n)
    rng = seeding.rng_from(seed)
    expected = total * p
    chunk = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
    hits = []
    last = -1
    while last < total:
        gaps = rng.geometric(p, size=chunk)
        pos = last + np.cumsum(gaps)
        hits.append(pos)
        last = int(pos[-1])
    pos = np.concatenate(hits)
    pos = pos[pos < total]
    u, v = _pair_from_linear(pos, n)
    return from_arrays(u, v, n=n)


def gen_erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) by one Bernoulli draw per node pair (quadratic reference)."""
    GenSpec("erdos_renyi", n, p=p, seed=seed)
    rng = seeding.rng_from(seed)
    u, v = _pair_from_linear(np.flatnonzero(rng.random(n * (n - 1) // 2) < p), n)
    return from_arrays(u, v, n=n)


# -- growth models -------------------------------------------------------------


def gen_duplication_divergence(n: int, p: float, seed: int = 0) -> Graph:
    """Duplication-divergence growth from a single seed edge.

    Each new node copies a uniformly chosen existing node's neighbor list,
    keeping every copied edge independently with probability p. A copy
    attempt that keeps no edge is discarded and redrawn, so for p > 0 every
    node joins the connected component. With p == 0 retrying can never
    succeed, so new nodes stay isolated.

    The draws are numpy's per-newcomer `rng.integers(t)` and
    `rng.random(len(neighbors))` calls, word for word, read from `_Words`:
    the anchor comes from 32-bit half-words by Lemire's rule, and each
    coin is one whole 64-bit word w, kept when (w >> 11) * 2**-53 < p.
    That holds exactly when w < ceil(p * 2**53) * 2**11, the integer
    comparison made here.
    """
    GenSpec("duplication_divergence", n, p=p, seed=seed)
    words = _Words(seeding.rng_from(seed))
    below = (math.ceil(p * 2**53) << 11).__gt__
    adj: list[list[int]] = [[1], [0]]
    us, vs = [0], [1]
    for t in range(2, n):
        kept: list[int] = []
        if p > 0.0:
            while not kept:
                nbrs = adj[words.integers(t)]
                kept = list(compress(nbrs, map(below, words.words(len(nbrs)))))
        for w in kept:
            adj[w].append(t)
        adj.append(kept)
        us.extend(kept)
        vs.extend([t] * len(kept))
    return from_arrays(np.asarray(us, np.int64), np.asarray(vs, np.int64), n=n)


def gen_barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment growth: each newcomer attaches m edges.

    Starts from m isolated nodes; the first newcomer connects to all of
    them, after which targets are drawn proportionally to degree (repeated
    endpoint sampling with rejection of duplicates). Every newcomer adds
    exactly m edges, so the result has m * (n - m) edges.

    The draws are numpy's `integers(0, len(repeated), size=m - len(chosen))`
    calls, word for word: below 2**32 that call maps each 32-bit half-word
    by Lemire's multiply-and-reject rule (ACM TOMACS 2019). The half-words
    come from `_Words` and are mapped here, a batch of `m - len(chosen)` at
    a time. A batch adds at most one target per half-word, so it never
    overshoots m, and it consumes exactly what the call consumed. `GenSpec`
    keeps `len(repeated)` below 2**32, where this rule holds.
    """
    GenSpec("barabasi_albert", n, m=m, seed=seed)
    words = _Words(seeding.rng_from(seed))
    us, vs = [], []
    repeated: list[int] = []
    targets = list(range(m))
    for t in range(m, n):
        us.extend(targets)
        vs.extend([t] * m)
        repeated.extend(targets)
        repeated.extend([t] * m)
        if t + 1 == n:
            break
        span = len(repeated)
        floor = (2**32 - span) % span       # halves whose low product half is below it are redrawn
        chosen: dict[int, None] = {}
        while len(chosen) < m:
            for half in words.halves(m - len(chosen)):
                x = half * span
                if x & 0xFFFFFFFF >= floor:
                    chosen[repeated[x >> 32]] = None
        targets = list(chosen)
    return from_arrays(np.asarray(us, np.int64), np.asarray(vs, np.int64), n=n)


class _Words:
    """numpy `Generator` draws rebuilt from the raw 64-bit words of its
    PCG64 bit generator, read with `random_raw` 4096 at a time.

    - `integers(t)`: `rng.integers(t)` for 2 <= t < 2**32, one 32-bit
      half-word x at a time mapped to (x * t) >> 32 by Lemire's rule (ACM
      TOMACS 2019), redrawn while the product's low half is below
      (2**32 - t) % t. A word gives its low half first and keeps its high
      half as the spare for the next half-word draw, as PCG64's
      `next_uint32` does.
    - `halves(k)`: the next k half-words themselves, as `integers(0, 2**32,
      size=k, dtype=np.uint32)` draws them.
    - `words(k)`: the next k whole words, the ones `rng.random(k)` maps to
      (w >> 11) * 2**-53. A pending spare stays pending across them, as in
      numpy.

    The buffer is turned into Python ints, as words or as halves, only when
    a draw of that kind first reads it.
    """

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._raw = np.empty(0, np.uint64)
        self._words: Optional[list[int]] = None
        self._halves: Optional[list[int]] = None
        self._pos = 0                       # next unread word of _raw
        self._spare: Optional[int] = None

    def _read(self, k: int) -> None:
        # Keep the unread words and append max(4096, k) new ones.
        self._raw = np.concatenate((self._raw[self._pos:], self._bitgen.random_raw(max(4096, k))))
        self._words = self._halves = None
        self._pos = 0

    def integers(self, t: int) -> int:
        floor = (2**32 - t) % t
        while True:
            half = self._spare
            if half is None:
                if self._pos == len(self._raw):
                    self._read(1)
                if self._words is None:
                    self._words = self._raw.tolist()
                word = self._words[self._pos]
                self._pos += 1
                half, self._spare = word & 0xFFFFFFFF, word >> 32
            else:
                self._spare = None
            x = half * t
            if x & 0xFFFFFFFF >= floor:
                return x >> 32

    def halves(self, k: int) -> list[int]:
        spare = self._spare
        if spare is not None and k:
            self._spare = None
            taken = self.halves(k - 1)
            taken.insert(0, spare)
            return taken
        pos, need = self._pos, (k + 1) // 2
        if pos + need > len(self._raw):
            self._read(need)
            pos = 0
        if self._halves is None:
            split = np.stack((self._raw & 0xFFFFFFFF, self._raw >> 32), axis=1)
            self._halves = split.ravel().tolist()
        self._pos = pos + need
        if k & 1:
            self._spare = self._halves[2 * pos + k]
        return self._halves[2 * pos:2 * pos + k]

    def words(self, k: int) -> list[int]:
        pos = self._pos
        if pos + k > len(self._raw):
            self._read(k)
            pos = 0
        if self._words is None:
            self._words = self._raw.tolist()
        self._pos = pos + k
        return self._words[pos:pos + k]


# -- geometric model -------------------------------------------------------------


def default_geometric_radius(n: int) -> float:
    """Radius giving mean degree near GEOMETRIC_TARGET_DEGREE in the unit square."""
    if n < 1:
        raise ValueError("need n >= 1")
    return math.sqrt(GEOMETRIC_TARGET_DEGREE / (n * math.pi))


def gen_random_geometric(n: int, radius: Optional[float] = None, seed: int = 0,
                         dim: int = 2) -> Graph:
    """Uniform points in the unit cube; edges join pairs within `radius`."""
    GenSpec("random_geometric", n, radius=radius, dim=dim, seed=seed)
    if radius is None:
        radius = default_geometric_radius(max(n, 1))
    rng = seeding.rng_from(seed)
    pts = rng.random((n, dim))
    r2 = radius * radius
    us, vs = [], []
    chunk = max(1, int(2**22 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        d2 = ((pts[start:stop, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        a, b = np.nonzero(d2 <= r2)
        a = a + start
        keep = a < b
        us.append(a[keep])
        vs.append(b[keep])
    u = np.concatenate(us) if us else np.empty(0, np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, np.int64)
    return from_arrays(u, v, n=n)


# -- degree-preserving null model -------------------------------------------------


def degree_preserving_shuffle(g: Graph, n_swaps: Optional[int] = None,
                              seed: int = 0) -> Graph:
    """Randomize edges by repeated double-edge swaps.

    A swap picks two edges (a, b) and (c, d) and rewires them to (a, d) and
    (c, b); proposals creating self loops or duplicate edges are skipped.
    Every node keeps its exact degree. `n_swaps` counts proposals, default
    10 * |E|.
    """
    if g.m < 2:
        raise ValueError("need at least 2 edges to swap")
    if n_swaps is None:
        n_swaps = 10 * g.m
    if n_swaps < 0:
        raise ValueError("n_swaps must be non-negative")
    rng = seeding.rng_from(seed)
    eu, ev = g.edges()
    edges = np.stack([eu, ev], axis=1)
    n = g.n
    present = set((edges[:, 0] * n + edges[:, 1]).tolist())
    m = edges.shape[0]

    done = 0
    while done < n_swaps:
        batch = min(n_swaps - done, 65536)
        e1 = rng.integers(0, m, size=batch)
        e2 = rng.integers(0, m, size=batch)
        flip = rng.integers(0, 2, size=batch)
        for k in range(batch):
            i, j = int(e1[k]), int(e2[k])
            if i == j:
                continue
            a, b = int(edges[i, 0]), int(edges[i, 1])
            c, d = int(edges[j, 0]), int(edges[j, 1])
            if flip[k]:
                c, d = d, c
            # propose (a, d) and (c, b)
            if a == d or c == b:
                continue
            p1 = (a * n + d) if a < d else (d * n + a)
            p2 = (c * n + b) if c < b else (b * n + c)
            if p1 in present or p2 in present:
                continue
            present.discard(a * n + b)
            present.discard((c * n + d) if c < d else (d * n + c))
            present.add(p1)
            present.add(p2)
            edges[i] = (a, d) if a < d else (d, a)
            edges[j] = (c, b) if c < b else (b, c)
        done += batch
    return from_arrays(edges[:, 0], edges[:, 1], n=n, labels=g.labels)
