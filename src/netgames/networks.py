"""Network generation and topology measurement.

All generators return connected simple graphs over nodes 0..n-1 and are
deterministic for a given seed. Edge lists are stored sorted with u < v so
that downstream iteration order is reproducible.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class InfeasibleDegree(ValueError):
    """No simple connected k-regular graph exists for these parameters."""


class InvalidParameter(ValueError):
    """Generator or measurement parameters out of range."""


class EmptyGraph(ValueError):
    """Operation requires at least one edge."""


class TargetUnreachable(RuntimeError):
    """Rewiring ran out of steps far from the requested assortativity."""

    def __init__(self, msg: str, network: "Network | None" = None, achieved_rho: float | None = None):
        super().__init__(msg)
        self.network = network
        self.achieved_rho = achieved_rho


class Network:
    """Undirected simple graph over node indices 0..n-1."""

    def __init__(self, n: int, edges) -> None:
        self.n = int(n)
        if self.n < 1:
            raise ValueError("need at least one node")
        arr = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        arr = arr.reshape(-1, 2)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
        arr.sort(axis=1)
        # one int64 key u * n + v per edge orders the pairs as (u, v) does, for
        # n < 3e9; the sorted edges are read back from the sorted keys
        key = arr[:, 0] * self.n
        key += arr[:, 1]
        key.sort()
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edges are not allowed")
        np.divmod(key, self.n, out=(arr[:, 0], arr[:, 1]))
        self.edges = arr
        self.degrees = np.bincount(arr.ravel(), minlength=self.n)
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        # engine's per-network edge-round arrays and work buffers, made by
        # the first Population on this network and shared by every later one
        self._edge_arrays: tuple | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def mean_degree(self) -> float:
        return float(self.degrees.mean())

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency as (indptr, neighbors, edge_ids) arrays."""
        if self._csr is None:
            e = self.edges
            src = np.concatenate([e[:, 0], e[:, 1]])
            dst = np.concatenate([e[:, 1], e[:, 0]])
            eid = np.tile(np.arange(len(e), dtype=np.int64), 2)
            order = np.argsort(src, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(src, minlength=self.n), out=indptr[1:])
            self._csr = (indptr, dst[order], eid[order])
        return self._csr

    def is_connected(self) -> bool:
        indptr, nbr, _ = self.csr()
        flat, cut = nbr.tolist(), indptr.tolist()
        return _reaches([flat[cut[u] : cut[u + 1]] for u in range(self.n)], self.n, 0)


def _reaches(neighbours, n: int, start: int, goal: int | None = None) -> bool:
    """Whether ``start`` reaches ``goal``, or all n nodes, over ``neighbours[u]``.

    Without a goal it is one breadth-first search from ``start``. With a goal
    (not ``start``) a frontier grows from each end, the smaller one level at
    a time; it answers True when the two touch and False when either empties,
    so a search from inside a small piece stops after that piece.
    """
    side = bytearray(n)  # 0 unseen, else the mark of the end that found it
    side[start] = 1
    front, other, mark, count = [start], [goal], 1, 1
    if goal is not None:
        side[goal] = 2
    while front:
        level = []
        for u in front:
            for v in neighbours[u]:
                seen = side[v]
                if not seen:
                    side[v] = mark
                    level.append(v)
                elif seen != mark:
                    return True
        count += len(level)
        front = level
        if goal is not None and len(front) > len(other):
            front, other, mark = other, front, 3 - mark
    return goal is None and count == n


def complete_graph(n: int) -> Network:
    """The complete graph on n nodes."""
    if n < 1:
        raise InvalidParameter("need n >= 1")
    return Network(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _has_suitable(stubs: np.ndarray, edge_set: set[tuple[int, int]]) -> bool:
    nodes = sorted(set(int(s) for s in stubs))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if (u, v) not in edge_set:
                return True
    return False


def _pair_stubs(n: int, k: int, rng: np.random.Generator) -> set[tuple[int, int]] | None:
    """One attempt at matching stubs into a simple k-regular edge set."""
    edges: set[tuple[int, int]] = set()
    stubs = np.repeat(np.arange(n), k)
    while len(stubs):
        rng.shuffle(stubs)
        leftover: list[int] = []
        for i in range(0, len(stubs), 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add((u, v))
        if len(leftover) == len(stubs) and not _has_suitable(stubs, edges):
            return None  # dead end: every remaining pairing is a self-loop or duplicate
        stubs = np.array(leftover, dtype=np.int64)
    return edges


def regular_random(n: int, k: int, seed: int) -> Network:
    """Connected random k-regular graph via stub pairing with repair and retry."""
    if n < 2 or k < 1 or k >= n or (n * k) % 2 != 0:
        raise InfeasibleDegree(
            f"cannot build a connected simple {k}-regular graph on {n} nodes"
        )
    rng = np.random.default_rng(seed)
    while True:
        edges = _pair_stubs(n, k, rng)
        if edges is None:
            continue
        g = Network(n, edges)
        if g.is_connected():
            return g


# arriving nodes whose first m picks are drawn in one call; a block also spans
# at most as many nodes as are already there, since picks collide often while
# the graph is small and a collision discards the rest of its block
_BA_BLOCK = 1024


def barabasi_albert(n: int, m: int, seed: int) -> Network:
    """Preferential-attachment graph grown from a complete seed on max(m, 2) nodes.

    Each arriving node attaches m edges to distinct existing nodes chosen with
    probability proportional to their current degree: it draws uniform
    positions in ``repeated``, one entry per edge endpoint so far, until m
    distinct nodes are named.

    The first m picks of up to ``_BA_BLOCK`` arriving nodes come from one
    ``rng.integers(0, highs)`` call, node w's high being ``len(repeated)``
    when w arrives; on PCG64 these are exactly the numbers of one scalar call
    per pick. When a node's m picks name fewer than m distinct nodes, the
    generator state saved before the block is restored, the block's draws are
    replayed up to that node, its further picks are drawn one at a time and a
    new block starts after it, so the graph is the one-call-per-pick graph.
    """
    if m < 1 or m >= n:
        raise InvalidParameter(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    s = max(m, 2)
    # the seed's edges, flattened; then per arriving node its m sorted targets
    # followed by m copies of itself, so each m-target row pairs with a node row
    repeated = [u for i in range(s) for j in range(i + 1, s) for u in (i, j)]
    v = s
    while v < n:
        count = min(_BA_BLOCK, n - v, v)
        start = len(repeated)
        highs = np.repeat(np.arange(start, start + 2 * m * count, 2 * m), m)
        saved = rng.bit_generator.state
        picks = rng.integers(0, highs).tolist()
        for k in range(count):
            chosen = {repeated[i] for i in picks[k * m : (k + 1) * m]}
            replay = len(chosen) < m
            if replay:
                rng.bit_generator.state = saved
                rng.integers(0, highs[: (k + 1) * m])
                while len(chosen) < m:
                    chosen.add(repeated[int(rng.integers(len(repeated)))])
            repeated.extend(sorted(chosen))
            repeated.extend([v + k] * m)
            if replay:
                break
        v += k + 1
    ends = np.array(repeated, dtype=np.int64)
    grown = ends[s * (s - 1) :].reshape(-1, 2, m).transpose(0, 2, 1)
    return Network(n, np.concatenate([ends[: s * (s - 1)].reshape(-1, 2), grown.reshape(-1, 2)]))


@dataclass(frozen=True)
class DegreeMixing:
    """Remaining-degree mixing of an undirected graph."""

    rho: float


def _mixing(g: Network) -> tuple[int, Callable[[int], float]]:
    """S = sum over edges of (k_u - 1)(k_v - 1), and rho as a function of S.

    rho = (S/|E| - mu^2) / sigma^2, with mu and sigma^2 the mean and variance
    of the remaining degree k - 1 over the 2|E| edge ends; it is 0 for regular
    graphs, where sigma = 0. Degree-preserving swaps change only S, an exact
    integer, so a walk that updates S gets the rho of its graph bit for bit.
    """
    k = g.degrees.astype(np.int64)
    num_e = g.num_edges
    ends = 2 * num_e
    mu = int(k @ (k - 1)) / ends
    var = int(k @ (k - 1) ** 2) / ends - mu * mu
    rem = k - 1
    s = int(rem[g.edges[:, 0]] @ rem[g.edges[:, 1]])

    def rho(s: int) -> float:
        return 0.0 if var <= 0.0 else (s / num_e - mu * mu) / var

    return s, rho


def assortativity(g: Network) -> DegreeMixing:
    """Degree assortativity rho over remaining degrees (see ``_mixing``)."""
    if g.num_edges == 0:
        raise EmptyGraph("assortativity needs at least one edge")
    s, rho = _mixing(g)
    return DegreeMixing(rho=rho(s))


def _relink(adj: list[set[int]], drop, add) -> None:
    """Remove the edges in ``drop`` from adjacency sets, then insert ``add``."""
    for u, v in drop:
        adj[u].discard(v)
        adj[v].discard(u)
    for u, v in add:
        adj[u].add(v)
        adj[v].add(u)


def rewire_to_assortativity(
    g: Network,
    target_rho: float,
    *,
    tol: float,
    max_steps: int,
    seed: int,
) -> tuple[Network, float]:
    """Push assortativity toward a target with degree-preserving double-edge swaps.

    Each proposal picks two disjoint edges and keeps the endpoint rewiring that
    moves rho strictly closer to the target, provided the graph stays simple
    and connected. Stops once |rho - target| <= tol; after max_steps proposals
    the graph is returned if within 2*tol, otherwise TargetUnreachable is
    raised (with the best graph attached, so the caller may still accept it).

    ``g`` must be connected. Then a swap of a-b and c-d keeps it connected
    exactly when a still reaches b: each piece left by removing the two edges
    holds one of a, b, c, d, and each new edge joins a or b to c or d.
    """
    if not -1.0 <= target_rho <= 1.0:
        raise InvalidParameter(f"target rho {target_rho} outside [-1, 1]")
    if g.num_edges < 2:
        raise EmptyGraph("rewiring needs at least two edges")
    if not g.is_connected():
        raise InvalidParameter("rewiring needs a connected graph")
    num_e = g.num_edges
    s_sum, rho_of = _mixing(g)
    if np.all(g.degrees == g.degrees[0]):
        # regular degree sequence: rho is 0 by convention and swaps cannot move it
        if abs(0.0 - target_rho) <= tol:
            return g, 0.0
        raise TargetUnreachable(
            f"regular degree sequence pins rho at 0, target was {target_rho}",
            network=g,
            achieved_rho=0.0,
        )

    rem = (g.degrees - 1).tolist()
    edges = g.edges.tolist()
    cur = rho_of(s_sum)
    if abs(cur - target_rho) <= tol:
        return g, cur
    adj: list[set[int]] = [set() for _ in range(g.n)]
    _relink(adj, (), edges)
    rng = np.random.default_rng(seed)
    steps = 0
    plateau_p = 0.05  # occasional gap-neutral swaps keep the greedy walk from jamming
    while abs(cur - target_rho) > tol and steps < max_steps:
        steps += 1
        i = int(rng.integers(num_e))
        j = int(rng.integers(num_e))
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        if len({a, b, c, d}) < 4:
            continue
        old = rem[a] * rem[b] + rem[c] * rem[d]
        variants = (
            ((a, c), (b, d), rem[a] * rem[c] + rem[b] * rem[d]),
            ((a, d), (b, c), rem[a] * rem[d] + rem[b] * rem[c]),
        )
        best = None
        best_gap = abs(cur - target_rho)
        plateau = None
        for e1, e2, new in variants:
            new_gap = abs(rho_of(s_sum - old + new) - target_rho)
            if new_gap > best_gap:
                continue
            (p1, q1), (p2, q2) = e1, e2
            if q1 in adj[p1] or q2 in adj[p2]:
                continue
            if new_gap < best_gap:
                best = (e1, e2, new)
                best_gap = new_gap
            elif plateau is None:
                plateau = (e1, e2, new)
        if best is None and plateau is not None and rng.random() < plateau_p:
            best = plateau
        if best is None:
            continue
        removed = ((a, b), (c, d))
        (p1, q1), (p2, q2) = added = best[:2]
        # apply tentatively, revert if the swap disconnects the graph
        _relink(adj, removed, added)
        if not _reaches(adj, g.n, a, b):
            _relink(adj, added, removed)
            continue
        edges[i] = (p1, q1) if p1 < q1 else (q1, p1)
        edges[j] = (p2, q2) if p2 < q2 else (q2, p2)
        s_sum = s_sum - old + best[2]
        cur = rho_of(s_sum)

    result = Network(g.n, edges)
    if abs(cur - target_rho) <= 2.0 * tol:
        return result, cur
    raise TargetUnreachable(
        f"after {max_steps} proposals rho={cur:.4f}, target {target_rho} (tol {tol})",
        network=result,
        achieved_rho=cur,
    )


def degree_stats(g: Network) -> np.ndarray:
    """Degree histogram rows (degree, count), for the degrees that occur."""
    counts = np.bincount(g.degrees)
    degs = np.nonzero(counts)[0]
    return np.column_stack([degs, counts[degs]])


def hub_order(g: Network, seed: int) -> np.ndarray:
    """Nodes sorted by degree descending, ties broken by a seeded shuffle.

    Makes "top fraction of nodes by degree" well defined on degree plateaus.
    """
    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(g.n)
    # one int64 key per node, unique since the tiebreak is a permutation, so a
    # single argsort gives the (degree descending, tiebreak) order, for n < 3e9
    key = g.degrees.max() - g.degrees
    key *= g.n
    key += tiebreak
    return np.argsort(key)


def fit_power_law(degrees, counts) -> tuple[float, float]:
    """Count-weighted least-squares log-log fit of a degree histogram.

    Returns (gamma, pearson_r) for counts ~ degree^-gamma over the bins with
    positive degree and count. Each bin is weighted by its count: a Poisson
    count's log has variance ~1/count, so unweighted fits let the sparse
    1-2 node tail bins flatten the slope. pearson_r is the weighted Pearson
    correlation of log degree and log count.
    """
    d = np.asarray(degrees, dtype=float)
    c = np.asarray(counts, dtype=float)
    mask = (d > 0) & (c > 0)
    if mask.sum() < 2:
        raise InvalidParameter("need at least two positive histogram bins")
    x = np.log(d[mask])
    y = np.log(c[mask])
    for name, v in (("degree", x), ("count", y)):
        if v.min() == v.max():
            raise InvalidParameter(f"no spread in log {name}s: every bin has the same {name}")
    w = c[mask] / c[mask].sum()
    dx = x - w @ x
    dy = y - w @ y
    sxy = float(w @ (dx * dy))
    sxx = float(w @ (dx * dx))
    syy = float(w @ (dy * dy))
    return -sxy / sxx, sxy / float(np.sqrt(sxx * syy))


@contextmanager
def _written_whole(path):
    """Write ``<path>.tmp``, then rename it to ``path``; on error remove it."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_edgelist(g: Network, path) -> None:
    """One "u v" pair per line, 0-indexed, each undirected edge listed once."""
    with _written_whole(path) as fh:
        fh.writelines(f"{u} {v}\n" for u, v in g.edges)


def read_edgelist(path, n: int | None = None) -> Network:
    """Inverse of :func:`write_edgelist`; n defaults to max index + 1.

    A line that is not two node indices, a self-loop, an endpoint >= n and
    the second listing of an edge (in either orientation) raise ValueError
    naming the file and line.
    """
    first_line: dict[tuple[int, int], int] = {}  # each edge as (low, high)
    for num, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pair = line.split()
        if len(pair) != 2 or not all(t.isdecimal() for t in pair):
            raise ValueError(f"{path} line {num}: need two non-negative node indices, got {line!r}")
        u, v = int(pair[0]), int(pair[1])
        key = (u, v) if u < v else (v, u)
        if u == v:
            raise ValueError(f"{path} line {num}: self-loop at node {u}")
        if n is not None and key[1] >= n:
            raise ValueError(f"{path} line {num}: endpoint {key[1]} out of range for n={n}")
        if key in first_line:
            raise ValueError(
                f"{path} line {num}: duplicate edge {u} {v} (first listed on line {first_line[key]})"
            )
        first_line[key] = num
    if not first_line and n is None:
        raise EmptyGraph(f"no edges in {path}")
    if n is None:
        n = max(v for _, v in first_line) + 1
    return Network(n, list(first_line))


def write_degree_histogram(g: Network, path) -> None:
    """CSV with columns degree,count."""
    rows = ["degree,count"] + [f"{int(d)},{int(c)}" for d, c in degree_stats(g)]
    with _written_whole(path) as fh:
        fh.write("\n".join(rows) + "\n")
