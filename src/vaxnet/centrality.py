"""Node importance measures: degree, closeness, betweenness, eigenvector.

Scores are plain float arrays indexed by node id. Rankings order nodes by
descending score and break ties by lower node id; scores within 1e-12 of
the largest |score| of each other count as tied, so orderings are total
and do not move with summation noise in the last bits.

Betweenness and closeness share one shortest-path sweep, which yields
distances and path counts together; closeness reads the distances and
betweenness back-propagates dependencies over them (Brandes
accumulation). `compute_many` runs that sweep once when both are asked
for. It sweeps each connected component with an edge as its own
relabelled graph; isolated nodes score 0, and a complete component takes
total distance n - 1 and betweenness 0 at every node without a sweep. A
component of n nodes runs the BFS from a block of b = min(n,
`_BLOCK_ENTRIES` // n) sources at once, one level per step, on
node-major n x b arrays, block after block. Every step, forward and
backward, is the product A @ X: a dense matrix product on dense
components of 512 to 2048 nodes, and otherwise a gather and sum of X's
rows at each node's neighbors, which skips the product's work on zeros.
Gathers step sparse components (2m below 1% of n^2), components whose
dense A would not fit in the budget, and components of fewer than 512
nodes whatever their density: on those small squares OpenBLAS's default
two threads can stall each product (about 16 ms for 300 x 300, against
under 1 ms on one thread). On a gather component each level picks a
sparse step on flat (node, source) pairs when the set it works on, times
the mean degree times `_SPARSE_COST`, is below n x b: it pushes from a
small frontier or from small level coefficients, or pulls into a small
set of targets, the unreached pairs forward and the level below backward
(direction-optimizing BFS). Path counts are integers, so every kernel
gives the same forward bits while the counts stay exact. Backward,
a gather adds each node's neighbors in ascending order for blocks of b
>= 2 sources, and a sparse level adds the same terms in that order, so
it gives the same bits; numpy sums a one-source block's gathered column
pairwise instead, so those blocks, and product components, step densely
throughout. The path counts and the forward frontier run in float32
while each step's sums stay below 2^24, where float32 integers are exact
in any order, and in float64 after that; integers below 2^24 convert to
float64 exactly, so the backward pass reads the same values from either.
Distances run in the smallest signed integer type that holds n - 1
(int16 from 129 to 32768 nodes). Both passes apply a level's mask by
multiplying by it: every entry is finite and >= +0.0, so this gives the
same bits as writing zeros outside the mask. The backward pass holds the
peak: two float64 n x b arrays (dependencies and a level's
coefficients), the path counts (float32, or float64 in a block whose
counts came near 2^24), the distances and one reused one-byte mask, and
it forms each level's product a block of rows at a time. A gather
component takes blocks of `_GATHER_ROWS` rows in one small buffer, for
about 2.9 `_BLOCK_ENTRIES` float64s, 94 MiB, at most (3.4, 110 MiB, with
float64 counts). A product component, a single block of 512 <= n = b <=
2048, takes one block of all n rows, a third float64 n x b array, beside
its dense A: about 4.9 `_BLOCK_ENTRIES` float64s, 156 MiB (5.4, 172 MiB).
The forward pass holds the distances, the path counts, a frontier pair
in their dtype and a one-byte mask, with A built in that dtype; A is
rebuilt in the other dtype, never held in both, and a switch to float64
frees the float32 frontier pair before it allocates the float64 one. It
starts from the level-1 pairs as flat positions (at most 2m int64s),
held only until the first dense step builds the frontier pair.
Eigenvector scores are the dominant eigenvector from
`spectral.lambda_max`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .graph import EmptyGraphError, Graph, sorted_distinct
from .spectral import lambda_max

# The path sweep holds its n x b arrays to this many entries, and builds a
# dense adjacency only if it fits too.
_BLOCK_ENTRIES = 2048 * 2048
# The backward pass of a gathered sweep forms a level's product this many
# rows at a time in one reused buffer (see `_backward`). Blocks of 16 to
# 256 rows stepped in the same time, within noise, on the contact days
# and on 2048-node gather graphs at b = 2048 sources, where one block of
# all n rows was up to 30% slower; 128 rows of 2048 float64s fill 2 MiB,
# one core's L2 on the 2-vCPU Xeon host those timings come from.
_GATHER_ROWS = 128
# The path sweep steps by row gathers on graphs with 2m below this share
# of n^2, and by dense matrix products above it.
_GATHER_DENSITY = 0.01
# It steps by row gathers on graphs of fewer nodes than this whatever their
# density, since multithreaded BLAS can stall on small squares (see `_step`).
_PRODUCT_MIN_NODES = 512
# A level of a gathered sweep steps only on the flat (node, source) pairs of
# its smaller side when their count times the mean degree times this is
# below the n x b pairs of a dense step (see `_side`).
_SPARSE_COST = 16
# Path counts below this are exact integers in float32, in any summation
# order, so the path counts and the forward frontier run in float32 while
# a step stays below it.
_EXACT_F32 = 2**24
# Ranked scores this close, relative to the largest |score|, count as tied.
_TIE = 1e-12


class NonConvergenceError(RuntimeError):
    """Power iteration ran out of iterations before reaching tolerance."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class Metric(str, Enum):
    DEGREE = "degree"
    DEGREE_NORMALIZED = "degree_normalized"
    CLOSENESS = "closeness"
    BETWEENNESS = "betweenness"
    EIGENVECTOR = "eigenvector"

    @classmethod
    def from_name(cls, name: str) -> "Metric":
        if not isinstance(name, str):
            raise ValueError(f"centrality metric must be a name, got {name!r}")
        key = name.strip().lower().replace("-", "_")
        aliases = {
            "degree": cls.DEGREE,
            "dc": cls.DEGREE,
            "degree_normalized": cls.DEGREE_NORMALIZED,
            "closeness": cls.CLOSENESS,
            "cc": cls.CLOSENESS,
            "betweenness": cls.BETWEENNESS,
            "bc": cls.BETWEENNESS,
            "eigenvector": cls.EIGENVECTOR,
            "ec": cls.EIGENVECTOR,
        }
        if key not in aliases:
            raise ValueError(f"unknown centrality metric {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class CentralityScores:
    metric: Metric
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


# -- degree ---------------------------------------------------------------------


def degree_centrality(g: Graph, normalized: bool = False) -> CentralityScores:
    vals = g.degrees.astype(np.float64)
    if normalized:
        vals = vals / (g.n - 1) if g.n > 1 else np.zeros(g.n)
        return CentralityScores(Metric.DEGREE_NORMALIZED, vals)
    return CentralityScores(Metric.DEGREE, vals)


# -- closeness and betweenness -----------------------------------------------------


def _components(g: Graph):
    """Each connected component of `g` with an edge, as its node ids and
    the CSR `indptr` and `indices` of the subgraph on them, relabelled 0..
    in id order. A connected `g` yields its own arrays."""
    rows, starts = g.segments
    # Each node takes its neighbors' least label, then its label's label,
    # until every component carries its least node id.
    label = np.arange(g.n)
    while True:
        low = label.copy()
        low[rows] = np.minimum(low[rows], np.minimum.reduceat(label[g.indices], starts))
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    if g.n > 1 and not label.any():
        yield np.arange(g.n), g.indptr, g.indices
        return
    # Renumber the nodes component by component, in id order within each,
    # so that every component's CSR is one contiguous slice: new row i is
    # old row order[i], and its neighbors' new ids rise with their old ones.
    order = np.argsort(label, kind="stable")
    pos = np.empty(g.n, np.int64)
    pos[order] = np.arange(g.n)
    degrees = g.degrees[order]
    indptr = np.zeros(g.n + 1, np.int64)
    np.cumsum(degrees, out=indptr[1:])
    entry = np.arange(g.indices.size) + np.repeat(g.indptr[order] - indptr[:-1], degrees)
    indices = pos[g.indices[entry]]
    starts = np.flatnonzero(np.diff(label[order], prepend=-1, append=-1))
    for a, b in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if b - a > 1:
            lo, hi = indptr[a], indptr[b]
            yield order[a:b], indptr[a:b + 1] - lo, indices[lo:hi] - a


def _gathers(g: Graph) -> bool:
    """Whether the sweep steps `g` by row gathers rather than by dense
    matrix products (see `_step`)."""
    n = g.n
    return (n < _PRODUCT_MIN_NODES or 2 * g.m < _GATHER_DENSITY * n * n
            or n * n > _BLOCK_ENTRIES)


def _step(g: Graph):
    """Rows start to start + len(out) of the product A @ X for node-major
    X of n rows, written to `out`, as a function of (X, out, start=0), in
    X's dtype.

    Graphs of fewer than `_PRODUCT_MIN_NODES` = 512 nodes, sparse graphs
    (2m below `_GATHER_DENSITY` n^2), and graphs whose dense A would not
    fit in `_BLOCK_ENTRIES` build no adjacency matrix: row v of the
    product is the sum of X's rows at v's neighbors. The node floor keeps
    small squares off multithreaded BLAS, where OpenBLAS's default two
    threads can stall each product (about 16 ms for 300 x 300, against
    under 1 ms on one thread); from 512 nodes on, two threads beat one.
    Other graphs, so only those of 512 to 2048 nodes, use a dense matrix
    product, with A built in X's dtype and rebuilt when that changes, so
    only one copy of A is alive at a time. Integer path counts sum exactly
    in any order, so the forward pass gets the same bits from either
    kernel while they stay exact (see `_forward`); the backward pass sums
    floats in an order set by the kernel, and for the product by BLAS
    blocking.
    """
    if _gathers(g):
        neighbors = np.split(g.indices, g.indptr[1:-1])

        def gather(X, out, start=0):
            for nbrs, row in zip(neighbors[start:start + len(out)], out):
                X.take(nbrs, axis=0).sum(axis=0, out=row)
        return gather
    A = None

    def product(X, out, start=0):
        nonlocal A
        if A is None or A.dtype != X.dtype:
            A = None            # free the old copy before building the new
            A = g.to_dense(X.dtype)
        np.matmul(A[start:start + len(out)], X, out=out)
    return product


def _side(g: Graph, push: int, pull: int, b: int) -> Optional[str]:
    """The sparse step for a level that could push from `push` flat
    positions or pull into `pull` of them: "push" or "pull", whichever set
    is smaller, or None for a dense step over the n x b pairs when the
    smaller set times the mean degree 2m / n times `_SPARSE_COST` is not
    below n b."""
    size = int(min(push, pull))
    if size * 2 * g.m * _SPARSE_COST >= g.n * g.n * b:
        return None
    return "push" if push <= pull else "pull"


def _neighbor_pairs(g: Graph, pos: np.ndarray, b: int):
    """The neighbor expansion of the flat positions pos = v * b + j of a
    node-major n x b array, in chunks (sl, k, q): for each pos[i] with i
    in the slice sl, k holds i - sl.start once per neighbor u of v, in
    ascending order of u, and q holds u * b + j. A chunk ends at a
    position's last neighbor and holds at most max-degree x max(1, b // 8)
    entries beyond its first position's, far below a gather step's own
    (max-degree, b) temporaries."""
    nodes, cols = np.divmod(pos, b)
    deg = g.degrees[nodes]
    ends = np.cumsum(deg)
    limit = int(g.degrees.max()) * max(1, b // 8)
    a = 0
    while a < pos.size:
        z = int(np.searchsorted(ends, ends[a] + limit, "right"))
        d = deg[a:z]
        k = np.repeat(np.arange(z - a), d)
        edge = np.arange(k.size) + np.repeat(g.indptr[nodes[a:z]] - (np.cumsum(d) - d), d)
        yield slice(a, z), k, g.indices[edge] * b + cols[a:z][k]
        a = z


def _push(g: Graph, pos: np.ndarray, vals: np.ndarray, b: int, mask: np.ndarray,
          out: np.ndarray) -> np.ndarray:
    """Add vals[i] into the flat array `out` at each neighbor pair of
    pos[i] where the flat `mask` holds, in the order of `pos`, and return
    the distinct pairs reached, sorted."""
    hit = []
    for sl, k, q in _neighbor_pairs(g, pos, b):
        keep = mask[q]
        hit.append(q[keep])
        np.add.at(out, hit[-1], vals[sl][k[keep]])
    return sorted_distinct(np.concatenate(hit))


def _pull(g: Graph, pos: np.ndarray, b: int, terms) -> np.ndarray:
    """For each flat position pos[i], the sum of `terms` at its neighbor
    pairs, added one after the other in ascending neighbor order."""
    sums = np.empty(pos.size)
    for sl, k, q in _neighbor_pairs(g, pos, b):
        sums[sl] = np.bincount(k, weights=terms(q), minlength=sl.stop - sl.start)
    return sums


def _dist_dtype(n: int) -> np.dtype:
    """The smallest signed integer type that holds the distances of an
    n-node graph, 0 to n - 1: int8 up to n = 128, int16 up to 32768."""
    return np.min_scalar_type(-n)


def _forward(g: Graph, step, s0: int, s1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS from the sources s0..s1-1 of the connected graph `g` at once,
    one level per step.

    Returns distances dist[v, j] (in `_dist_dtype(n)`) and shortest-path
    counts sigma[v, j] from source s0 + j, and the number of pairs at each
    level 0..depth. Column j of the frontier holds the path counts of the nodes
    at the current level from s0 + j, so one step both finds the next
    level and counts the paths into it. Level 1 is read off the sources'
    CSR rows as flat positions v * b + j, and the frontier array is first
    built at the first dense step, which then frees the positions (at most
    2m int64). A pair is unreached while its sigma is 0; every step adds 1
    to dist at the pairs unreached before it, so a pair reached at level L
    ends at dist L. Every pair is reachable, so the loop ends when none is
    left unreached.

    A dense step runs `step` on the n x b frontier, keeps the result only
    at unreached pairs and updates sigma and the unreached mask
    everywhere. On a gather graph (see `_gathers`) a step is sparse when
    `_side` finds it cheaper, and works on flat (node, source) positions.
    It pushes each frontier pair's count to its unreached neighbor pairs
    while the frontier is the smaller set, and otherwise pulls into each
    unreached pair the sum of its neighbor pairs' sigma: those are at the
    frontier or unreached, where sigma is 0. It sets sigma and the mask
    only at the pairs it reaches. A pull adds 1 to dist only at its
    targets; a push adds the unreached mask to dist, one pass over the
    array as in a dense step. Sparse steps hold the frontier only at
    its positions, and a dense step after them rebuilds the array.

    sigma and the frontier array run in float32 while a step's sums stay
    below `_EXACT_F32` = 2^24: each is a sum of at most max-degree
    frontier counts, and every integer partial sum below 2^24 is exact in
    float32 in any order. Before any step that could pass that bound,
    dense, push or pull, sigma moves to float64, since a sparse step
    writes sigma directly, and the frontier array with it; the float32
    pair is freed before the float64 one is allocated. Exact counts have
    the same bits in either dtype, and float64 holds the float32 ones
    exactly, so every step gives the same values. The frontier is masked
    by multiplying it by the unreached mask: the counts are finite and
    non-negative, so x * 1 = x and x * 0 = +0.0, the same bits as writing
    0.0 outside the mask.

    n x b arrays held during a dense step: dist (one or two bytes an entry
    below 32769 nodes), sigma, the frontier and the next one in sigma's
    dtype (one allocation), and the one-byte mask: 1.875 float64s a pair
    in float32, 3.375 in float64.
    """
    n, b = g.n, s1 - s0
    lo, hi = g.indptr[s0], g.indptr[s1]
    # The frontier as flat positions, starting with the level-1 pairs; None
    # whenever it is held only as the array F.
    front = g.indices[lo:hi] * b + np.repeat(np.arange(b), g.degrees[s0:s1])
    F = nxt = None
    diag = (np.arange(s0, s1), np.arange(b))
    dist = np.ones((n, b), _dist_dtype(n))
    dist[diag] = 0
    sigma = np.zeros((n, b), np.float32)
    sigma.ravel()[front] = 1.0
    sigma[diag] = 1.0
    max_degree = int(g.degrees.max())
    unreached = sigma == 0
    sparse = _gathers(g)
    sizes = [b, int(hi - lo)]
    left = n * b - b - sizes[1]
    while left:
        side = _side(g, sizes[-1], left, b) if sparse else None
        if sigma.dtype == np.float32:
            top = sigma.ravel()[front].max() if F is None else F.max()
            if float(top) * max_degree >= _EXACT_F32:
                sigma = sigma.astype(np.float64)
                if F is not None and side is None:
                    # Free the float32 pair before allocating the float64 one.
                    F, nxt = F.astype(np.float64), None
                    nxt = np.empty((n, b))
        if side is None:
            if F is None:
                F, nxt = np.zeros((2, n, b), sigma.dtype)
                F.ravel()[front] = sigma.ravel()[front]
            step(F, nxt)
            F, nxt = nxt, F
            F *= unreached
            dist += unreached
            sigma += F
            np.equal(sigma, 0, out=unreached)
            new, front = left - np.count_nonzero(unreached), None
        else:
            if front is None and side == "push":
                front = np.flatnonzero(F)
            F = nxt = None
            if side == "push":
                dist += unreached
                front = _push(g, front, sigma.ravel()[front], b, unreached.ravel(),
                              sigma.ravel())
            else:
                targets = np.flatnonzero(unreached)
                counts = _pull(g, targets, b, sigma.ravel().take)
                dist.ravel()[targets] += 1
                front = targets[counts > 0]
                sigma.ravel()[front] = counts[counts > 0]
            unreached.ravel()[front] = False
            new = front.size
        sizes.append(new)
        left -= new
    return dist, sigma, np.array(sizes)


def _backward(g: Graph, step, dist: np.ndarray, sigma: np.ndarray,
              sizes: np.ndarray) -> np.ndarray:
    """Each node's dependency summed over the sources of a `_forward`
    block, by back-propagating over its levels (Brandes accumulation);
    `sizes` counts the block's pairs at each level.

    A dense level applies its masks by multiplication in place: the
    coefficients (1 + delta) / sigma are kept at the level's nodes by
    `coef *= on`. Then `on` moves to the level below, and the product
    A @ coef is formed one block of rows at a time, each block scaled by
    sigma, masked by `on` and added into delta at its rows while it is
    still in cache. A gather graph takes blocks of `_GATHER_ROWS` rows in
    one reused buffer; a product graph takes one block of all n rows, a
    single matrix product. coef is complete before any row of delta
    changes, and every entry gets the same row sum and the same three
    elementwise operations as from a whole n x b product, so the block
    size changes no bit. Every entry is finite and >= +0.0 (sigma >= 1),
    so x * 1 = x, x * 0 = +0.0 and d + 0.0 = d: the same bits as copying
    0.0 outside the mask and adding only inside it. `on` is one reused
    mask; every level leaves it at the level below, the next level's own.

    On a gather graph with b >= 2 sources a level is sparse when `_side`
    finds it cheaper. It pushes each level-lvl pair's coefficient to its
    neighbor pairs at level lvl - 1, or pulls into each pair at level
    lvl - 1 its neighbor pairs' masked coefficients, and writes delta only
    there. A gather adds each row's terms in ascending neighbor order,
    zeros included, and zeros add exactly, so a sparse level keeps every
    bit when it adds the same terms in that order: `np.bincount` over
    each target's neighbors in turn for a pull, `np.add.at` over the
    level's positions in ascending order for a push. With b = 1 numpy
    sums each gathered (degree, 1) column pairwise, not in order, so every
    level is dense; so is every level of a product graph, whose sums
    follow BLAS.

    delta, the coefficients and the product blocks are float64 whatever
    sigma's dtype: a float32 sigma holds exact integers, which convert to
    float64 exactly, so `(delta + 1) / sigma` and the block times sigma
    keep their bits. n x b arrays held during a step: dist, sigma, delta,
    the coefficients and the one-byte mask, 2.875 float64s a pair with a
    float32 sigma and int16 dist, plus the block buffer: `_GATHER_ROWS`
    x b float64s on a gather graph, and on a product graph a whole n x b
    array, 3.875 in all.
    """
    n, b = dist.shape
    delta = np.zeros(dist.shape)
    coef = np.empty(dist.shape)
    gathers = _gathers(g)
    rows = _GATHER_ROWS if gathers else n
    T = np.empty((min(rows, n), b))
    depth = sizes.size - 1
    on = np.equal(dist, depth)
    sparse = b >= 2 and gathers
    # Level 1 would only feed each source's own delta, which does not count.
    for lvl in range(depth, 1, -1):
        side = _side(g, sizes[lvl], sizes[lvl - 1], b) if sparse else None
        if side is None:
            np.add(delta, 1.0, out=coef)
            coef /= sigma
            coef *= on
            np.equal(dist, lvl - 1, out=on)
            for lo in range(0, n, rows):
                block = T[:min(rows, n - lo)]
                hi = lo + len(block)
                step(coef, block, lo)
                block *= sigma[lo:hi]
                block *= on[lo:hi]
                delta[lo:hi] += block
        elif side == "push":
            level = np.flatnonzero(on)
            coefs = (delta.ravel()[level] + 1.0) / sigma.ravel()[level]
            np.equal(dist, lvl - 1, out=on)
            below = _push(g, level, coefs, b, on.ravel(), delta.ravel())
            delta.ravel()[below] *= sigma.ravel()[below]
        else:
            np.equal(dist, lvl - 1, out=on)
            below = np.flatnonzero(on)
            # Each neighbor pair's coefficient, +0.0 off level lvl as in `coef`.
            sums = _pull(g, below, b, lambda q: ((delta.ravel()[q] + 1.0) / sigma.ravel()[q]
                                                 * (dist.ravel()[q] == lvl)))
            delta.ravel()[below] = sums * sigma.ravel()[below]
    return delta.sum(axis=1)


def _sweep(g: Graph, betweenness: bool) -> tuple[np.ndarray, np.ndarray]:
    """Total distance from each node of the connected graph `g`, and its
    betweenness (zeros unless asked for), sweeping the sources in blocks
    of at most `_BLOCK_ENTRIES` // n."""
    n = g.n
    b = max(1, min(n, _BLOCK_ENTRIES // n))
    step = _step(g)
    totals, bc = np.empty(n), np.zeros(n)
    for s0 in range(0, n, b):
        s1 = min(s0 + b, n)
        dist, sigma, sizes = _forward(g, step, s0, s1)
        totals[s0:s1] = dist.sum(axis=0)
        if betweenness:
            bc += _backward(g, step, dist, sigma, sizes)
        del dist, sigma
    return totals, bc / 2.0


def _path_values(g: Graph, closeness: bool, betweenness: bool
                 ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Closeness and betweenness values of `g`, None where not asked for,
    from one shortest-path sweep per component with an edge. A complete
    component (2m = n(n - 1)) needs none: each node is at distance 1 from
    the n - 1 others and on no shortest path between two of them, the
    sweep's own totals and zero betweenness, and no `Graph` is built for it."""
    n = g.n
    if closeness and n < 2:
        raise ValueError("closeness needs at least 2 nodes")
    reach, totals, bc = np.zeros(n), np.zeros(n), np.zeros(n)
    for nodes, indptr, indices in _components(g):
        size = nodes.size
        reach[nodes] = size - 1
        if indices.size == size * (size - 1):
            totals[nodes] = size - 1
        else:
            sub = g if size == n else Graph(size, indptr, indices)
            totals[nodes], bc[nodes] = _sweep(sub, betweenness)
    cc = None
    if closeness:
        cc = np.zeros(n)
        pos = totals > 0
        cc[pos] = (reach[pos] / totals[pos]) * (reach[pos] / (n - 1))
    return cc, (bc if betweenness else None)


def closeness_centrality(g: Graph) -> CentralityScores:
    """Harmonic-free closeness with a component-size correction.

    For node v reaching r_v other nodes at total distance D_v:
    C(v) = (r_v / D_v) * (r_v / (n - 1)). The second factor scales scores
    of small components down so they do not dominate the ranking. Isolated
    nodes score 0.
    """
    return CentralityScores(Metric.CLOSENESS, _path_values(g, True, False)[0])


def betweenness_centrality(g: Graph, normalized: bool = False) -> CentralityScores:
    """Shortest-path betweenness: share of geodesics passing through a node.

    Path counts are accumulated as floats, which is exact for the counts
    arising at these graph sizes. Unordered pair contributions are halved
    once at the end. The normalized variant divides by (n-1)(n-2)/2.
    """
    bc = _path_values(g, False, True)[1]
    if normalized:
        pairs = (g.n - 1) * (g.n - 2) / 2.0
        bc = bc / pairs if pairs > 0 else np.zeros(g.n)
    return CentralityScores(Metric.BETWEENNESS, bc)


# -- eigenvector ------------------------------------------------------------------


def eigenvector_centrality(g: Graph, tol: float = 1e-10,
                           max_iter: int = 10_000) -> CentralityScores:
    """Dominant-eigenvector scores: the iterate `spectral.lambda_max` stops on.

    The solver's identity shift keeps the iteration from oscillating on
    bipartite graphs. Scores are non-negative and L2-normalized. On
    disconnected graphs mass concentrates on the spectrally dominant
    component(s). Convergence is the solver's residual rule,
    ||A x - lambda x||_inf / max(1, lambda) < tol.
    """
    if g.n == 0 or g.m == 0:
        raise EmptyGraphError("eigenvector centrality needs at least one edge")
    res = lambda_max(g, tol=tol, max_iter=max_iter)
    if not res.converged:
        raise NonConvergenceError(res.iterations, res.residual)
    return CentralityScores(Metric.EIGENVECTOR, res.vector)


# -- dispatch and ranking ------------------------------------------------------------


def compute_many(g: Graph, metrics) -> dict[Metric, CentralityScores]:
    """Scores of `g` under each of `metrics`, keyed by metric.

    Closeness and betweenness asked for together share one shortest-path
    sweep; every other metric is scored on its own.
    """
    metrics = tuple(metrics)
    out: dict[Metric, CentralityScores] = {}
    for metric in metrics:
        if metric in out:
            continue
        if metric in (Metric.DEGREE, Metric.DEGREE_NORMALIZED):
            out[metric] = degree_centrality(g, normalized=metric is Metric.DEGREE_NORMALIZED)
        elif metric in (Metric.CLOSENESS, Metric.BETWEENNESS):
            cc, bc = _path_values(g, Metric.CLOSENESS in metrics,
                                  Metric.BETWEENNESS in metrics)
            for m, vals in ((Metric.CLOSENESS, cc), (Metric.BETWEENNESS, bc)):
                if vals is not None:
                    out[m] = CentralityScores(m, vals)
        elif metric is Metric.EIGENVECTOR:
            out[metric] = eigenvector_centrality(g)
        else:
            raise ValueError(f"unknown metric {metric!r}")
    return out


def compute(g: Graph, metric: Metric) -> CentralityScores:
    return compute_many(g, (metric,))[metric]


def ranking(scores: CentralityScores) -> np.ndarray:
    """All node ids ordered by descending score, ties by lower id.

    Scores count as tied when each is within `_TIE` times the largest
    |score| of the next in descending order, so summation noise in the
    last bits does not order nodes whose exact scores are equal.
    """
    vals = scores.values
    order = np.lexsort((np.arange(vals.size), -vals))
    drops = -np.diff(vals[order], prepend=vals[order[:1]])
    tier = np.cumsum(drops > _TIE * np.abs(vals).max(initial=0.0))
    return order[np.lexsort((order, tier))]


def top_k(scores: CentralityScores, k: int) -> np.ndarray:
    """The first k node ids of `ranking(scores)`."""
    if k < 0 or k > scores.values.size:
        raise ValueError(f"k={k} out of range for {scores.values.size} nodes")
    return ranking(scores)[:k]
