"""Long-run expected payoffs for ordered pairs of memory-one strategies.

Two memory-one strategies playing each other form a Markov chain over the four
joint outcomes (CC, CD, DC, DD from the first player's perspective). The
long-run per-round payoff is the time-average occupancy of that chain dotted
with the per-state payoffs. Deterministic strategies can make the chain
reducible or periodic, so the occupancy is computed as the Cesaro limit from
the uniform distribution over the four states, which matches a first round of
unconditioned fair coin flips in the simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategies import PERSPECTIVE_SWAP, MemoryOneStrategy, PayoffMatrix


@dataclass(frozen=True, eq=False)
class PairChain:
    """4x4 row-stochastic transition matrix over joint outcomes."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ValueError("transition entries must lie in [0, 1]")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition rows must sum to 1")


@dataclass(frozen=True)
class ExpectedPayoffPair:
    """Long-run mean per-round payoffs for an ordered pair (A, B)."""

    e_ab: float
    e_ba: float


def pair_transition(a: MemoryOneStrategy, b: MemoryOneStrategy) -> np.ndarray:
    """5x5 transition matrix of one edge's memory, A's perspective.

    States 0-3 are the joint outcomes; state 4 is an edge not yet played,
    whose opening round is a fair coin for both players and which no round
    leads back to.
    """
    pa = np.array([*a.probs, 0.5])
    pb = np.array([*(b.probs[o] for o in PERSPECTIVE_SWAP), 0.5])
    m = np.zeros((5, 5))
    m[:, 0] = pa * pb
    m[:, 1] = pa * (1.0 - pb)
    m[:, 2] = (1.0 - pa) * pb
    m[:, 3] = (1.0 - pa) * (1.0 - pb)
    return m


def build_chain(a: MemoryOneStrategy, b: MemoryOneStrategy) -> PairChain:
    """Transition matrix for A playing B, rows and columns in A's perspective."""
    return PairChain(pair_transition(a, b)[:4, :4].copy())


def _recurrent_classes(P: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Closed communicating classes and the remaining transient states."""
    n = P.shape[0]
    reach = (np.eye(n, dtype=bool) | (P > 0.0)).astype(np.int64)
    for _ in range(2):  # squaring twice covers all paths of length <= 4
        reach = (reach @ reach) > 0
        reach = reach.astype(np.int64)
    reach = reach > 0
    comm = reach & reach.T
    seen: set[int] = set()
    classes: list[list[int]] = []
    for i in range(n):
        if i in seen:
            continue
        members = [j for j in range(n) if comm[i, j]]
        seen.update(members)
        classes.append(members)
    recurrent = []
    transient: list[int] = []
    for c in classes:
        inside = np.zeros(n, dtype=bool)
        inside[c] = True
        if np.any(P[c][:, ~inside] > 0.0):
            transient.extend(c)
        else:
            recurrent.append(c)
    return recurrent, sorted(transient)


def _class_stationary(Pc: np.ndarray) -> np.ndarray:
    k = Pc.shape[0]
    if k == 1:
        return np.ones(1)
    a = Pc.T - np.eye(k)
    a[-1, :] = 1.0
    b = np.zeros(k)
    b[-1] = 1.0
    return np.linalg.solve(a, b)


def limit_distribution(chain: PairChain, initial: np.ndarray | None = None) -> np.ndarray:
    """Time-average state occupancy, starting from ``initial`` (default uniform).

    Exact for reducible and periodic chains: transient mass is routed to each
    closed class by absorption probabilities, then spread with that class's
    stationary vector. A chain within float resolution of splitting into more
    classes can make those solves singular or inexact; that raises ValueError
    rather than return a vector that is not a distribution.
    """
    P = chain.matrix
    n = P.shape[0]
    mu = np.full(n, 1.0 / n) if initial is None else np.asarray(initial, dtype=float)
    if mu.shape != (n,) or np.any(mu < 0.0) or abs(mu.sum() - 1.0) > 1e-9:
        raise ValueError("initial must be a probability vector over the four states")
    recurrent, transient = _recurrent_classes(P)
    weights = np.array([mu[c].sum() for c in recurrent])
    out = np.zeros(n)
    try:
        if transient:
            q = P[np.ix_(transient, transient)]
            b = np.column_stack([P[transient][:, c].sum(axis=1) for c in recurrent])
            h = np.linalg.solve(np.eye(len(transient)) - q, b)
            weights = weights + mu[transient] @ h
        for w, c in zip(weights, recurrent):
            out[np.array(c)] = w * _class_stationary(P[np.ix_(c, c)])
    except np.linalg.LinAlgError:
        out[:] = np.nan  # fails the check below
    if not (abs(out.sum() - 1.0) <= 1e-9 and out.min() >= -1e-12):
        raise ValueError("the chain is too close to decomposable for its solve")
    return out


def expected_payoffs(
    a: MemoryOneStrategy, b: MemoryOneStrategy, m: PayoffMatrix
) -> ExpectedPayoffPair:
    """Analytic long-run mean per-round payoffs for the ordered pair (A, B)."""
    occ = limit_distribution(build_chain(a, b))
    pay_a, pay_b = m.outcome_payoffs
    return ExpectedPayoffPair(float(occ @ pay_a), float(occ @ pay_b))


def monte_carlo_payoffs(
    a: MemoryOneStrategy,
    b: MemoryOneStrategy,
    m: PayoffMatrix,
    rounds: int,
    seed: int,
) -> ExpectedPayoffPair:
    """Simulation cross-check of :func:`expected_payoffs`.

    The round budget is split evenly over the four initial outcomes so the
    estimate targets the same uniform-initial-state time average as the
    analytic computation, which matters for reducible (deterministic) pairs.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    pa = a.probs
    pb = tuple(b.probs[o] for o in PERSPECTIVE_SWAP)  # indexed by A's state label
    ra, rb = m.outcome_payoffs.tolist()
    total_a = 0.0
    total_b = 0.0
    base, extra = divmod(rounds, 4)
    for start in range(4):
        todo = base + (1 if start < extra else 0)
        state = start
        done = 0
        while done < todo:
            block = min(todo - done, 1 << 15)
            u = rng.random(2 * block)
            for i in range(block):
                ca = u[2 * i] < pa[state]
                cb = u[2 * i + 1] < pb[state]
                state = (0 if ca else 2) + (0 if cb else 1)
                total_a += ra[state]
                total_b += rb[state]
            done += block
    return ExpectedPayoffPair(total_a / rounds, total_b / rounds)
