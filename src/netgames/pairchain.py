"""Long-run expected payoffs for ordered pairs of memory-one strategies.

Two memory-one strategies playing each other form a Markov chain over the four
joint outcomes (CC, CD, DC, DD from the first player's perspective):
``pair_transition(a, b)[:4, :4]``. The long-run per-round payoff is the
time-average occupancy of that chain dotted with the per-state payoffs.
Deterministic strategies can make the chain reducible or periodic, so the
occupancy is computed as the Cesaro limit from the uniform distribution over
the four states, which matches a first round of unconditioned fair coin flips
in the simulation engine.

The occupancy comes from Grassmann-Taksar-Heyman state elimination (Oper. Res.
33, 1107, 1985) in exact rational arithmetic on the float entries. It reads only
off-diagonal entries and never subtracts, so transitions of 1e-300 next to
1 - 1e-17 still decide the limit, and every valid pair has an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .strategies import PERSPECTIVE_SWAP, MemoryOneStrategy, PayoffMatrix


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


def _censor(F: list[list[Fraction]], order: list[int], kept: list[int]) -> list[Fraction]:
    """Eliminate the states in ``order`` one at a time, keeping ``kept`` (GTH).

    Each elimination of k folds the paths through k into the rows of the
    states still live, so ``F`` ends as the chain censored to ``kept``; row
    k keeps its entries to the states live when it went, and column k the
    entries from them. Returns each eliminated state's exit mass s_k, the
    sum of its off-diagonal entries to those states. Diagonals are never read.
    """
    live = [*kept, *order]
    exits = []
    for k in order:
        live.remove(k)
        s = sum(F[k][j] for j in live)
        exits.append(s)
        for i in live:
            if F[i][k]:
                f = F[i][k] / s
                for j in live:
                    F[i][j] += f * F[k][j]
    return exits


def limit_distribution(P: np.ndarray) -> np.ndarray:
    """Time-average state occupancy of the 4x4 chain ``P``, from the uniform start.

    ``P`` is ``pair_transition(a, b)[:4, :4]``; any other shape raises
    ValueError. The elimination is exact on the float entries, and each
    occupancy is rounded once, so there is no failure path for a valid pair.
    Transient states are censored first, their initial mass carried into the
    closed classes; each closed class is then censored to one state and its
    stationary vector back-substituted, scaled by the mass the class holds.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (4, 4):
        raise ValueError(f"expected a 4x4 transition matrix, got shape {P.shape}")
    recurrent, transient = _recurrent_classes(P)
    # row 4 holds the start mass, like pair_transition's unplayed state: no
    # row leads to it, so it is never eliminated and gathers the absorbed mass
    F = [[Fraction(x) for x in row] + [Fraction(0)] for row in P.tolist()]
    F.append([Fraction(1, 4)] * 4 + [Fraction(0)])
    _censor(F, transient, [4, *(i for c in recurrent for i in c)])
    out = np.zeros(4)
    for c in recurrent:
        order = c[:0:-1]
        exits = _censor(F, order, c[:1])
        pi = {c[0]: Fraction(1)}
        for k, s in zip(reversed(order), reversed(exits)):
            pi[k] = sum(pi[i] * F[i][k] for i in pi) / s
        scale = sum(F[4][i] for i in c) / sum(pi.values())
        for i, w in pi.items():
            out[i] = float(w * scale)
    return out


def expected_payoffs(
    a: MemoryOneStrategy, b: MemoryOneStrategy, m: PayoffMatrix
) -> ExpectedPayoffPair:
    """Analytic long-run mean per-round payoffs for the ordered pair (A, B)."""
    occ = limit_distribution(pair_transition(a, b)[:4, :4])
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
