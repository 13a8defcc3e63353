"""Payoff matrices and memory-one strategies for the iterated prisoner's dilemma."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

_FEAS_TOL = 1e-9  # float dust allowed at the [0, 1] boundaries before rejecting


class InfeasibleZD(ValueError):
    """The requested (p1, p4) pair forces p2 or p3 outside [0, 1]."""


class UnknownStrategy(KeyError):
    """Name not present in the strategy catalog."""


class Outcome(IntEnum):
    """Joint outcome of one round, seen from the focal player (focal letter first)."""

    CC = 0
    CD = 1
    DC = 2
    DD = 3


# PERSPECTIVE_SWAP[o] is outcome o seen by the other player: CD <-> DC
PERSPECTIVE_SWAP: tuple[Outcome, ...] = (Outcome.CC, Outcome.DC, Outcome.CD, Outcome.DD)


@dataclass(frozen=True)
class PayoffMatrix:
    """The four PD payoffs: temptation, reward, punishment, sucker.

    Finite payoffs in the strict dilemma ordering t > r > p > s are enforced
    on construction.
    """

    t: float
    r: float
    p: float
    s: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.as_tuple()).all() and self.t > self.r > self.p > self.s):
            raise ValueError(
                f"payoffs must be finite and satisfy t > r > p > s, got "
                f"({self.t}, {self.r}, {self.p}, {self.s})"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.t, self.r, self.p, self.s)

    @cached_property
    def outcome_payoffs(self) -> np.ndarray:
        """Read-only (2, 4) payoffs per outcome, columns in Outcome order.

        Row 0 is the focal player's payoff and row 1 the opponent's, for the
        outcome as the focal player sees it.
        """
        focal = np.array([self.r, self.s, self.t, self.p])
        table = np.stack([focal, focal[list(PERSPECTIVE_SWAP)]])
        table.flags.writeable = False
        return table


DEFAULT_MATRIX = PayoffMatrix(t=5.0, r=3.0, p=1.0, s=0.0)


@dataclass(frozen=True)
class MemoryOneStrategy:
    """Cooperation probabilities conditioned on the previous joint outcome.

    p1..p4 are the probabilities of cooperating after CC, CD, DC and DD
    respectively, always from this player's own perspective.
    """

    p1: float
    p2: float
    p3: float
    p4: float
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "p3", "p4"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


def _snap_unit(x: float) -> float | None:
    if -_FEAS_TOL <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + _FEAS_TOL:
        return 1.0
    if 0.0 <= x <= 1.0:
        return x
    return None


def zd_complete(
    p1: float, p4: float, m: PayoffMatrix = DEFAULT_MATRIX, label: str = ""
) -> MemoryOneStrategy:
    """Complete (p1, p4) into a full zero-determinant strategy.

    p2 and p3 are forced once p1, p4 and the payoff matrix are chosen:

        p2 = (p1 (t - p) - (1 + p4)(t - r)) / (r - p)
        p3 = ((1 - p1)(p - s) + p4 (r - s)) / (r - p)

    Combinations whose forced values leave [0, 1] are rejected rather than
    clamped, so an invalid strategy can never silently enter a simulation.
    """
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p4 <= 1.0):
        raise ValueError(f"p1={p1} and p4={p4} must lie in [0, 1]")
    p2 = (p1 * (m.t - m.p) - (1.0 + p4) * (m.t - m.r)) / (m.r - m.p)
    p3 = ((1.0 - p1) * (m.p - m.s) + p4 * (m.r - m.s)) / (m.r - m.p)
    p2s = _snap_unit(p2)
    p3s = _snap_unit(p3)
    if p2s is None or p3s is None:
        raise InfeasibleZD(
            f"(p1={p1}, p4={p4}) forces p2={p2:.6g}, p3={p3:.6g} with matrix {m.as_tuple()}"
        )
    return MemoryOneStrategy(p1, p2s, p3s, p4, label=label or f"zd({p1:g},{p4:g})")


def zd_pinned_payoff(p1: float, p4: float, m: PayoffMatrix = DEFAULT_MATRIX) -> float:
    """Per-round payoff any opponent is pinned to against the (p1, p4) strategy.

    Equals ((1 - p1) p + p4 r) / (1 - p1 + p4); undefined when p1 = 1, p4 = 0
    (tit-for-tat, which pins nothing).
    """
    denom = 1.0 - p1 + p4
    if denom == 0.0:
        raise ValueError("opponent payoff is not pinned when 1 - p1 + p4 = 0")
    return ((1.0 - p1) * m.p + p4 * m.r) / denom


def round_payoffs(o: Outcome, m: PayoffMatrix) -> tuple[float, float]:
    """Per-round payoffs (focal, opponent) for a joint outcome."""
    focal, opponent = m.outcome_payoffs[:, Outcome(o)]
    return float(focal), float(opponent)


CATALOG: dict[str, MemoryOneStrategy] = {
    "pavlov": MemoryOneStrategy(1.0, 0.0, 0.0, 1.0, label="pavlov"),
    "general_cooperator": MemoryOneStrategy(0.935, 0.229, 0.266, 0.42, label="general_cooperator"),
    "cooperator": MemoryOneStrategy(1.0, 1.0, 1.0, 1.0, label="cooperator"),
    "defector": MemoryOneStrategy(0.0, 0.0, 0.0, 0.0, label="defector"),
    "tit_for_tat": MemoryOneStrategy(1.0, 1.0, 0.0, 0.0, label="tit_for_tat"),
    "zd_default": zd_complete(0.99, 0.01, DEFAULT_MATRIX, label="zd_default"),
}

CATALOG_NAMES: tuple[str, ...] = tuple(sorted(CATALOG))


def named_strategy(name: str) -> MemoryOneStrategy:
    """Look up a strategy from the catalog by name."""
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownStrategy(
            f"unknown strategy {name!r}; known: {', '.join(CATALOG_NAMES)}"
        ) from None
