"""Independent reference implementations used to check the package.

Everything here recomputes results by a different route than the library:
eigenvalues via cyclic Jacobi rotations on the dense matrix, betweenness by
explicitly enumerating every geodesic, closeness from a hand-rolled BFS
table, the dense all-sources sweep with boolean-mask gathers and scatters,
the sweep's backward pass with `where=`-masked copies and adds, the t
distribution by numerical quadrature of its density, SIR runs
by an event loop that queues every transmission, SIR final sizes by
enumerating bond-percolation outcomes, the herd search by plain
bisection, geometric graphs by testing every pair of points, and the
power iteration with a fresh array for every operation, preferential
attachment by batched `rng.integers` calls, duplication-divergence by
per-newcomer `rng.integers` and `rng.random` calls, the CSR build by
`np.unique` over endpoint rows, node deletion by boolean masks over a
per-entry row array, and contact files by judging every text line in
turn. Slow and simple on purpose.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque

import numpy as np


# -- dense eigenvalues by Jacobi rotation sweeps --------------------------------


def jacobi_eigenvalues(A, tol: float = 1e-12, max_sweeps: int = 200) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    A = np.array(A, dtype=np.float64, copy=True)
    n = A.shape[0]
    if n == 0:
        return np.empty(0)
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, (A * A).sum() - (np.diag(A) ** 2).sum()))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
    return np.sort(np.diag(A))


def jacobi_lambda_max(A) -> float:
    vals = jacobi_eigenvalues(A)
    return float(vals[-1]) if vals.size else 0.0


# -- shortest-path tables and geodesic enumeration -------------------------------


def adjacency_sets(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def bfs_dists(adj: list[set[int]], s: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def all_pairs_dists(adj: list[set[int]]) -> list[list[int]]:
    return [bfs_dists(adj, s) for s in range(len(adj))]


def enumerate_geodesics(adj: list[set[int]], s: int, t: int,
                        dist: list[int]) -> list[tuple[int, ...]]:
    """Every shortest s-t path, found by walking predecessors back from t."""
    if dist[t] < 0:
        return []
    paths = []

    def back(v, acc):
        if v == s:
            paths.append(tuple(reversed(acc + [s])))
            return
        for u in adj[v]:
            if dist[u] == dist[v] - 1:
                back(u, acc + [v])

    back(t, [])
    return paths


def brute_betweenness(n: int, edges) -> np.ndarray:
    """Betweenness by full geodesic enumeration; use only for small n."""
    adj = adjacency_sets(n, edges)
    bc = np.zeros(n)
    for s in range(n):
        dist = bfs_dists(adj, s)
        for t in range(s + 1, n):
            paths = enumerate_geodesics(adj, s, t, dist)
            if not paths:
                continue
            share = 1.0 / len(paths)
            for path in paths:
                for v in path[1:-1]:
                    bc[v] += share
    return bc


def brute_closeness(n: int, edges) -> np.ndarray:
    """Range-corrected closeness from the BFS distance table."""
    adj = adjacency_sets(n, edges)
    out = np.zeros(n)
    if n < 2:
        return out
    for v in range(n):
        dist = bfs_dists(adj, v)
        reach = [d for u, d in enumerate(dist) if u != v and d > 0]
        if not reach:
            continue
        r = len(reach)
        out[v] = (r / sum(reach)) * (r / (n - 1))
    return out


def brute_degree(n: int, edges) -> np.ndarray:
    adj = adjacency_sets(n, edges)
    return np.array([len(a) for a in adj], dtype=np.float64)


# -- random small test graphs -------------------------------------------------------


def random_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    """Plain double-loop Bernoulli edges, independent of any library code."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                out.append((i, j))
    return out


def dense_from_edges(n: int, edges) -> np.ndarray:
    A = np.zeros((n, n))
    for u, v in edges:
        if u != v:
            A[u, v] = A[v, u] = 1.0
    return A


# -- dense all-sources sweep with boolean masks ----------------------------------------


def mask_sweep_dense(A: np.ndarray):
    """Distances, path counts, deepest level, betweenness and closeness sums
    of the dense adjacency `A`, by boolean-mask gathers and scatters.

    The same products as the library's dense sweep, masked the other way:
    the frontier starts at eye(n), the forward loop stops only on an empty
    level, and each backward level gathers its entries and scatters the
    results. Returns (dist, sigma, depth, betweenness, reach, totals).
    """
    n = len(A)
    dist = np.full((n, n), -1, np.int32)
    np.fill_diagonal(dist, 0)
    sigma = np.eye(n)
    F = np.eye(n)
    depth = 0
    while True:
        W = F @ A
        new = (W > 0) & (dist < 0)
        if not new.any():
            break
        depth += 1
        dist[new] = depth
        F = np.where(new, W, 0.0)
        sigma += F
    delta = np.zeros((n, n))
    for lvl in range(depth, 1, -1):
        on_l = dist == lvl
        coef = np.zeros((n, n))
        coef[on_l] = (1.0 + delta[on_l]) / sigma[on_l]
        T = coef @ A
        T *= sigma
        on_prev = dist == lvl - 1
        delta[on_prev] += T[on_prev]
    reach = (dist > 0).sum(axis=1).astype(np.float64)
    totals = np.where(dist > 0, dist, 0).sum(axis=1).astype(np.float64)
    return dist, sigma, depth, delta.sum(axis=0) / 2.0, reach, totals


def masked_backward(step, dist: np.ndarray, sigma: np.ndarray, depth: int) -> np.ndarray:
    """`centrality._backward` with its masks applied by `where=`: zero the
    coefficients off the level by a masked copy, and add the back-propagated
    dependencies only at the level below. Takes the same arguments, runs
    the same products in the same order, and returns each node's
    dependency summed over the block's sources, in float64 whatever
    sigma's dtype."""
    delta = np.zeros(sigma.shape)
    coef = np.empty(sigma.shape)
    T = np.empty(sigma.shape)
    for lvl in range(depth, 1, -1):
        np.add(delta, 1.0, out=coef)
        coef /= sigma
        np.copyto(coef, 0.0, where=dist != lvl)
        step(coef, T)
        T *= sigma
        np.add(delta, T, out=delta, where=dist == lvl - 1)
    return delta.sum(axis=1)


# -- Student's t by quadrature --------------------------------------------------------


def t_cdf_quadrature(t: float, df: int) -> float:
    """CDF of Student's t integrated numerically from the density."""
    from scipy.integrate import quad

    norm = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) \
        / math.sqrt(df * math.pi)

    def density(x):
        return norm * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    if t <= 0:
        val, _ = quad(density, -np.inf, t)
        return val
    val, _ = quad(density, -np.inf, 0.0)
    val2, _ = quad(density, 0.0, t)
    return val + val2


# -- SIR: push-everything event loop and exact bond-percolation final sizes ------------


def reference_simulate(g, params, interventions=(), seed: int = 0):
    """SIR run that queues every transmission delay inside the infectious window.

    Same random stream, plans and sampling as `vaxnet.sirsim.simulate`, but
    without its earliest-pending bookkeeping: every drawn transmission is
    pushed and superseded ones are discarded as stale when they pop.
    `meta` carries the same keys, counted the same way.
    """
    from vaxnet import seeding
    from vaxnet.centrality import compute, ranking
    from vaxnet.sirsim import SirTrajectory, _grid

    S, I, R, V = 0, 1, 2, 3
    n = g.n
    rng = seeding.rng_from(seed, "run")
    state = np.zeros(n, dtype=np.uint8)
    inf_time = np.full(n, np.nan)
    rec_time = np.full(n, np.nan)
    warnings = []
    counts = [n, 0, 0, 0]
    ev_times, ev_counts = [], []
    heap = []
    seq = itertools.count()
    tally = {"pushes": 0, "stale_pops": 0, "events": 0}

    def infect(u, t):
        counts[state[u]] -= 1
        state[u] = I
        counts[I] += 1
        inf_time[u] = t
        heapq.heappush(heap, (t + params.recovery_days, next(seq), "recover", u))
        if params.tau > 0.0:
            nbrs = g.neighbors(u)
            sus = nbrs[state[nbrs] == S]
            if sus.size:
                delays = rng.exponential(1.0 / params.tau, size=sus.size)
                inside = delays < params.recovery_days
                for w, dt in zip(sus[inside].tolist(), delays[inside].tolist()):
                    heapq.heappush(heap, (t + dt, next(seq), "transmit", w))
                    tally["pushes"] += 1

    plans = []
    for idx, iv in enumerate(interventions):
        if iv.time > params.t_max:
            warnings.append(f"intervention {idx} at t={iv.time} beyond horizon; skipped")
            plans.append(np.empty(0, np.int64))
            continue
        if iv.strategy == "topk":
            plans.append(ranking(compute(g, iv.metric)))
        else:
            plans.append(seeding.rng_from(seed, "intervention", idx).permutation(n))
        heapq.heappush(heap, (iv.time, next(seq), "intervene", idx))

    for u in rng.choice(n, size=params.initial_infected, replace=False).tolist():
        infect(u, 0.0)
    ev_times.append(0.0)
    ev_counts.append(tuple(counts))

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        if t > params.t_max:
            break
        if kind == "recover":
            counts[I] -= 1
            state[payload] = R
            counts[R] += 1
            rec_time[payload] = t
        elif kind == "transmit":
            if state[payload] != S:
                tally["stale_pops"] += 1
                continue
            infect(payload, t)
        else:
            iv = interventions[payload]
            hit = 0
            for node in plans[payload].tolist():
                if hit == iv.k:
                    break
                if state[node] == S:
                    counts[S] -= 1
                    state[node] = V
                    counts[V] += 1
                    hit += 1
            if hit < iv.k:
                warnings.append(
                    f"intervention {payload} wanted {iv.k} but only {hit} susceptible")
        tally["events"] += 1
        ev_times.append(t)
        ev_counts.append(tuple(counts))

    grid = _grid(params, interventions)
    pos = np.clip(np.searchsorted(np.asarray(ev_times), grid, side="right") - 1,
                  0, len(ev_times) - 1)
    rows = np.asarray(ev_counts, dtype=np.float64)[pos]
    meta = {"seed": int(seed), "warnings": warnings, "infection_time": inf_time,
            "recovery_time": rec_time, **tally}
    return SirTrajectory(grid, rows[:, S], rows[:, I], rows[:, R], rows[:, V], n, meta)


def percolation_final_sizes(n: int, edges, transmissibility: float) -> np.ndarray:
    """Exact P(final size = s), s = 0..n, of SIR from one uniform random seed.

    With a fixed infectious period every edge transmits independently with
    the same probability T, so the set ever infected is the seed's cluster
    in bond percolation (Kenah & Robins, PRE 76, 2007). Enumerates all
    2^m edge subsets and averages the cluster size law over seeds.
    """
    dist = np.zeros(n + 1)
    m = len(edges)
    for mask in range(1 << m):
        kept = [e for b, e in enumerate(edges) if mask >> b & 1]
        weight = transmissibility ** len(kept) * (1.0 - transmissibility) ** (m - len(kept))
        adj = adjacency_sets(n, kept)
        for s in range(n):
            size = sum(1 for d in bfs_dists(adj, s) if d >= 0)
            dist[size] += weight / n
    return dist


# -- geometric graphs from every pair of points ----------------------------------------


def all_pairs_geometric(n: int, radius: float, seed: int = 0, dim: int = 2):
    """`gen_random_geometric(n, radius, seed, dim)` by testing all n^2 pairs.

    Draws the same points and applies the same pair test, written apart
    from the generator so that a pruned pair search can be checked against
    it.
    """
    from vaxnet import seeding
    from vaxnet.graph import from_arrays

    pts = seeding.rng_from(seed).random((n, dim))
    us, vs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    chunk = max(1, 2**22 // max(n, 1))
    for start in range(0, n, chunk):
        d2 = ((pts[start:start + chunk, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        a, b = np.nonzero(d2 <= radius * radius)
        a = a + start
        us.append(a[a < b])
        vs.append(b[a < b])
    return from_arrays(np.concatenate(us), np.concatenate(vs), n=n)


# -- power iteration, one new array per operation ---------------------------------


def reduceat_matvec(g, x: np.ndarray) -> np.ndarray:
    """A @ x by `np.add.reduceat` over the CSR rows, finding the non-empty
    rows and their starts anew on every call."""
    out = np.zeros(g.n)
    if g.indices.size == 0:
        return out
    rows = np.flatnonzero(np.diff(g.indptr))
    out[rows] = np.add.reduceat(x[g.indices], g.indptr[rows])
    return out


def power_iteration(g, tol: float = 1e-9, max_iter: int = 50_000):
    """(lambda, iterations, residual, converged, vector) of the shifted power
    iteration on A + I, from the same start vector as `spectral.lambda_max`,
    with every product, residual and update in a new array."""
    if g.n == 0 or g.m == 0:
        return 0.0, 0, 0.0, True, np.zeros(g.n)
    v = 1.0 + 1e-9 * (np.arange(g.n) % 13)
    v = v / np.linalg.norm(v)
    lam = 0.0
    resid = math.inf
    for it in range(1, max_iter + 1):
        y = reduceat_matvec(g, v)
        lam = float(v @ y)
        resid = float(np.max(np.abs(y - lam * v))) / max(1.0, lam)
        if resid < tol:
            return lam, it, resid, True, v
        w = y + v
        v = w / np.linalg.norm(w)
    return lam, max_iter, resid, False, v


# -- herd search by plain bisection ------------------------------------------------


def bisect_smallest_k(mean_after, n: int, target: float) -> int:
    """Least k in [0, n] with mean_after(k) <= target, for a mean_after that
    does not increase with k, by halving [lo, hi]; k = n is never called."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if mean_after(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- preferential attachment by batched integer draws ----------------------------


def batched_barabasi_albert(n: int, m: int, seed: int = 0):
    """The edges of `gen_barabasi_albert(n, m, seed)` as (u, v) arrays, each
    round of duplicate redraws made by one `rng.integers` call."""
    rng = np.random.default_rng(int(seed))
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
        chosen: dict[int, None] = {}
        while len(chosen) < m:
            draw = rng.integers(0, len(repeated), size=m - len(chosen))
            for idx in draw.tolist():
                if len(chosen) < m:
                    chosen.setdefault(repeated[idx], None)
        targets = list(chosen)
    return np.asarray(us, np.int64), np.asarray(vs, np.int64)


# -- duplication-divergence by per-newcomer numpy calls ---------------------------


def per_call_duplication_divergence(n: int, p: float, seed: int = 0):
    """The edges of `gen_duplication_divergence(n, p, seed)` as (u, v)
    arrays, each anchor drawn by one `rng.integers(t)` call and its coins by
    one `rng.random(k)` call."""
    rng = np.random.default_rng(int(seed))
    adj: list[list[int]] = [[1], [0]]
    us, vs = [0], [1]
    for t in range(2, n):
        kept: list[int] = []
        if p > 0.0:
            while not kept:
                anchor = int(rng.integers(t))
                nbrs = adj[anchor]
                coins = rng.random(len(nbrs))
                kept = [w for w, c in zip(nbrs, coins) if c < p]
        for w in kept:
            adj[w].append(t)
        adj.append(kept)
        us.extend(kept)
        vs.extend([t] * len(kept))
    return np.asarray(us, np.int64), np.asarray(vs, np.int64)


# -- CSR from unique endpoint rows -----------------------------------------------------


def unique_csr(u, v, n: int):
    """`from_arrays(u, v, n=n)`'s indptr and indices, from `np.unique` over
    the (row, column) pairs of both orientations with self loops removed."""
    u = np.asarray(u, np.int64)
    v = np.asarray(v, np.int64)
    pairs = np.concatenate([np.stack([u, v], axis=1), np.stack([v, u], axis=1)])
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=indptr[1:])
    return indptr, pairs[:, 1]


# -- node deletion by boolean masks -------------------------------------------------


def mask_delete_nodes(g, victims):
    """`delete_nodes(g, victims)` as (n, indptr, indices, labels), from a
    per-entry row array masked at both ends."""
    victims = np.asarray(victims, dtype=np.int64).ravel()
    keep = np.ones(g.n, dtype=bool)
    keep[victims] = False
    new_id = np.cumsum(keep) - 1
    old_ids = np.flatnonzero(keep).tolist()
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    mask = keep[rows] & keep[g.indices]
    new_rows = new_id[rows[mask]]
    new_cols = new_id[g.indices[mask]]
    indptr = np.zeros(len(old_ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_rows, minlength=len(old_ids)), out=indptr[1:])
    labels = old_ids if g.labels is None else [g.labels[i] for i in old_ids]
    return len(old_ids), indptr, new_cols, tuple(labels)


# -- contact files one text line at a time -------------------------------------------


def parse_lines(path, columns: int):
    """`parse_contacts(path, columns)` by reading and judging every text
    line in turn, warning per malformed line."""
    from vaxnet.ingest import ParseResult, ZeroRecordsError

    flat: list[int] = []
    warnings: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != columns:
                warnings.append(f"line {line_no}: expected {columns} fields, got {len(parts)}")
                continue
            try:
                nums = [int(p) for p in parts]
            except ValueError:
                warnings.append(f"line {line_no}: non-integer field")
                continue
            if columns == 3:
                ts, a, b = nums
            else:
                ts, (a, b) = 0, nums
            if not (-2**63 <= ts < 2**63 and -2**63 <= a < 2**63 and -2**63 <= b < 2**63):
                warnings.append(f"line {line_no}: field outside the int64 range")
                continue
            if a == b:
                warnings.append(f"line {line_no}: self contact {a}")
                continue
            flat += (ts, a, b)
    if not flat:
        detail = "; ".join(warnings[:3]) if warnings else "file held no contact lines"
        raise ZeroRecordsError(f"{path}: no valid contact records ({detail})")
    return ParseResult(np.array(flat, np.int64).reshape(-1, 3), warnings, str(path))
