"""Network generation and topology measurement.

All generators return connected simple graphs over nodes 0..n-1 and are
deterministic for a given seed. Edge lists are stored sorted with u < v so
that downstream iteration order is reproducible.
"""

from __future__ import annotations

from collections import deque
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
        arr.sort(axis=1)
        arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(arr[:, 0] == arr[:, 1]):
                raise ValueError("self-loops are not allowed")
            if np.any(np.all(arr[1:] == arr[:-1], axis=1)):
                raise ValueError("duplicate edges are not allowed")
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
    """Breadth-first search from ``start`` over ``neighbours[u]`` (nodes 0..n-1).

    With a ``goal`` (not ``start``) it answers whether the goal is reached,
    stopping as soon as it is; without one, whether all n nodes are.
    """
    seen = bytearray(n)
    seen[start] = 1
    queue = deque([start])
    count = 1
    while queue:
        for v in neighbours[queue.popleft()]:
            if not seen[v]:
                if v == goal:
                    return True
                seen[v] = 1
                count += 1
                queue.append(v)
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


def barabasi_albert(n: int, m: int, seed: int) -> Network:
    """Preferential-attachment graph grown from a complete seed on max(m, 2) nodes.

    Each arriving node attaches m edges to distinct existing nodes chosen with
    probability proportional to their current degree.
    """
    if m < 1 or m >= n:
        raise InvalidParameter(f"need 1 <= m < n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    s = max(m, 2)
    edges = [(i, j) for i in range(s) for j in range(i + 1, s)]
    repeated = [node for e in edges for node in e]  # one entry per edge endpoint
    for v in range(s, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        chosen = sorted(targets)
        for t in chosen:
            edges.append((t, v))
        repeated.extend(chosen)
        repeated.extend([v] * m)
    return Network(n, edges)


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
    ends = 2 * g.num_edges
    mu = int(k @ (k - 1)) / ends
    var = int(k @ (k - 1) ** 2) / ends - mu * mu
    rem = k - 1
    s = int(rem[g.edges[:, 0]] @ rem[g.edges[:, 1]])

    def rho(s: int) -> float:
        return 0.0 if var <= 0.0 else (s / g.num_edges - mu * mu) / var

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
    edges = [(int(u), int(v)) for u, v in g.edges]
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
    return np.lexsort((tiebreak, -g.degrees))


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
    """Inverse of :func:`write_edgelist`; n defaults to max index + 1."""
    edges = []
    for num, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pair = line.split()
        if len(pair) != 2 or not all(t.isdecimal() for t in pair):
            raise ValueError(f"{path} line {num}: need two non-negative node indices, got {line!r}")
        edges.append((int(pair[0]), int(pair[1])))
    if not edges and n is None:
        raise EmptyGraph(f"no edges in {path}")
    if n is None:
        n = max(max(u, v) for u, v in edges) + 1
    return Network(n, edges)


def write_degree_histogram(g: Network, path) -> None:
    """CSV with columns degree,count."""
    rows = ["degree,count"] + [f"{int(d)},{int(c)}" for d, c in degree_stats(g)]
    with _written_whole(path) as fh:
        fh.write("\n".join(rows) + "\n")
