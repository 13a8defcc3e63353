"""Evolutionary update processes applied after each round of play.

Two processes are provided. Death-birth replacement removes a uniformly
random node each event and replaces its strategy with that of a neighbor
drawn proportionally to fitness (payoff over degree); the replaced node keeps
its edges but restarts with zero payoff and blank pair memories. The
stochastic adoption process instead marks a uniformly random node and lets it
copy a random neighbor's strategy with probability proportional to their
payoff gap, normalized by the larger degree and by the expected-payoff spread
of the two competing strategies.

Both processes compare payoffs accumulated within the current time-step (one
round against every neighbor), the scale the adoption normalizer k_> * D is
built for. Letting payoffs pile up across the whole run instead makes long-
lived nodes unbeatable regardless of how their strategy is doing, which
freezes both processes short of the extinction outcomes they should reach;
see the run() loop, which clears payoffs before each step's round of play.

run() is :func:`run_replicates` of one population, and run_replicates()
advances several in lockstep: each step it plays every live replicate's
round, then runs each replicate's events from that replicate's own stream,
so a replicate's record is bit-identical to a run() of it alone. Rounds are
played one of two ways, chosen by input size (see :func:`uses_on_demand`).
The dense path plays every edge every step with ``engine.play_step``: one
call for all live replicates, on their ``engine.Lockstep``, which is laid
out again without a replicate once it is extinct. The on-demand path, which
takes one replicate, plays an edge only when an event, a sample or a
strategy change reads it (``engine.on_demand``), and settles once per
step: an adoption event settles its two nodes, and run() draws a
death-birth step's deaths first and settles every edge they read in one
``engine.settle_around`` before the events run in draw order. On BA(20000,
2) at replacement rate 0.001 (20 deaths) that step costs ~0.5 ms instead of
the dense ~1.1 ms; see the table at ON_DEMAND_EDGES_PER_STEP. Both paths
are deterministic for a seed, but they consume the seed's stream
differently, so the same seed gives a different (equally distributed) run
on each. On PCG64 one array draw of k deaths gives the numbers of k scalar
draws, so an on-demand step with one death draws the same stream as one
``moran_event(pop, rng)`` call.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    IsolatedNode,
    Lockstep,
    Population,
    _round_half_up,
    class_mean_degrees,
    on_demand,
    play_step,
    reset_node,
    set_strategy,
    settle,
    settle_around,
    tick,
)
from .networks import _written_whole
from .pairchain import expected_payoffs
from .strategies import MemoryOneStrategy, PayoffMatrix

_TIE_TOL = 1e-9  # expected-payoff gaps below this count as a tie
# run() takes the on-demand path when this, plus the |E| edges each sample
# settles spread over the steps between samples, is below |E|: a step's one
# settle, whatever its number of events, costs about a dense round over this
# many edges. Per-step run() cost, dense -> on demand, sampling every 100
# steps, on a 2-core host (µs): adoption on BA m=1 at |E| 299: 39 -> 47,
# 599: 46 -> 41, 2499: 73 -> 47, 19999: 480 -> 72; death-birth at rate
# 0.001 on 8-regular graphs (one death a step) at |E| 400: 36 -> 62, 1000:
# 60 -> 76, 4000: 91 -> 84; on BA m=2 at |E| 1997: 96 -> 76, 2997: 103 ->
# 82, 9997: 219 -> 127, 39997 (20 deaths): 1099 -> 507; at rate 0.01 on BA
# m=2, |E| 1997: 237 -> 287, 39997: 4529 -> 4211; at rate 0.05, |E| 39997:
# 17319 -> 16780. Break-even lies between ~700 edges (BA m=2) and ~3600
# (8-regular); 2500 keeps every reduced preset (at most 800 edges) dense,
# and every full-profile preset on the path it took when this was charged
# per event.
ON_DEMAND_EDGES_PER_STEP = 2500


@dataclass(frozen=True)
class MoranConfig:
    """Death-birth process parameters: fraction of the population replaced per step."""

    replacement_rate: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.replacement_rate <= 1.0:
            raise ValueError(f"replacement_rate={self.replacement_rate} outside (0, 1]")

    def events_per_step(self, n: int) -> int:
        return max(1, _round_half_up(self.replacement_rate * n))


@dataclass(frozen=True)
class AdoptionConfig:
    """Adoption-probability normalization for one competing strategy pair."""

    normalizer: float  # |E(A,B) - E(B,A)| of the two competing strategies
    fallback_normalizer: float  # t - s, used when the expected payoffs tie

    def __post_init__(self) -> None:
        if self.normalizer < 0.0:
            raise ValueError("normalizer must be non-negative")
        if self.fallback_normalizer <= 0.0:
            raise ValueError("fallback normalizer must be positive")

    @property
    def effective_normalizer(self) -> float:
        if self.normalizer > _TIE_TOL:
            return self.normalizer
        return self.fallback_normalizer

    @classmethod
    def for_pair(
        cls, a: MemoryOneStrategy, b: MemoryOneStrategy, m: PayoffMatrix
    ) -> "AdoptionConfig":
        e = expected_payoffs(a, b, m)
        return cls(normalizer=abs(e.e_ab - e.e_ba), fallback_normalizer=m.t - m.s)


def _neighbors(pop: Population, x: int) -> np.ndarray:
    """x's row of the CSR neighbour array; an isolated x raises IsolatedNode."""
    indptr, nbr, _ = pop.net.csr()
    lo, hi = indptr[x], indptr[x + 1]
    if hi == lo:
        raise IsolatedNode(f"node {x} has no neighbors")
    return nbr[lo:hi]


def _select_neighbor(pop: Population, x: int, rng: np.random.Generator) -> int:
    """Neighbor of x drawn proportionally to fitness; uniform if all fitness is 0.

    A node's fitness is its payoff divided by its degree, computed here only.
    The neighbors' edges must be settled already.
    """
    nbrs = _neighbors(pop, x)
    w = np.maximum(pop.pay[nbrs] / pop.net.degrees[nbrs], 0.0)
    tot = w.sum()
    if tot <= 0.0:
        return int(nbrs[rng.integers(len(nbrs))])
    # array methods, not np.cumsum / np.searchsorted: same numbers, without
    # the Python wrappers those add to every call
    c = w.cumsum()
    idx = int(c.searchsorted(rng.random() * tot, side="right"))
    if idx >= len(nbrs):
        idx = len(nbrs) - 1
    return int(nbrs[idx])


def moran_event(
    pop: Population, rng: np.random.Generator, x: int | None = None
) -> tuple[int, int]:
    """One death-birth event; returns (replaced node, parent neighbor).

    Without ``x`` the event draws the node to replace and settles the edges
    it reads. With ``x`` the caller has drawn it and settled those edges
    (see :func:`netgames.engine.settle_around`), as run() does for all of a
    step's deaths at once on the on-demand path.
    """
    if x is None:
        x = int(rng.integers(pop.n))
        settle_around(pop, [x])
    y = _select_neighbor(pop, x, rng)
    set_strategy(pop, x, int(pop.strat[y]))
    reset_node(pop, x)
    return x, y


def adoption_probability(
    pay_x: float, pay_y: float, deg_x: int, deg_y: int, normalizer: float
) -> float:
    """Probability that x copies y's strategy, clamped into [0, 1].

    max{0, (P_y - P_x) / (k_> * D)} where k_> is the larger of the two degrees
    and D the configured normalizer; gaps larger than the scale clamp to 1.
    """
    p = (pay_y - pay_x) / (max(deg_x, deg_y) * normalizer)
    return min(1.0, max(0.0, p))


def adoption_event(
    pop: Population, cfg: AdoptionConfig, rng: np.random.Generator
) -> tuple[int, int, bool]:
    """One strategy-adoption event; returns (marked node, neighbor, adopted?).

    The comparison neighbor is drawn uniformly. A payoff-weighted draw lets a
    single rich node capture every comparison in its neighborhood, which walls
    off pockets of the losing strategy indefinitely; the uniform draw keeps
    the update local and lets the payoff gap alone decide.
    """
    x = int(rng.integers(pop.n))
    nbrs = _neighbors(pop, x)
    y = int(nbrs[rng.integers(len(nbrs))])
    settle(pop, (x, y))
    p = adoption_probability(
        float(pop.pay[x]),
        float(pop.pay[y]),
        int(pop.net.degrees[x]),
        int(pop.net.degrees[y]),
        cfg.effective_normalizer,
    )
    adopted = bool(rng.random() < p)
    if adopted:
        set_strategy(pop, x, int(pop.strat[y]))
        reset_node(pop, x)
    return x, y, adopted


def uses_on_demand(num_edges: int, sample_every: int) -> bool:
    """Whether run() plays edges on demand rather than all every step.

    Each step settles once, whatever its number of events, and each sample
    settles every edge, so it is charged |E| edges per sample.
    """
    return ON_DEMAND_EDGES_PER_STEP + num_edges / sample_every < num_edges


@dataclass
class RunRecord:
    """Sampled strategy-fraction series plus summary statistics of one run."""

    run_id: int
    seed: int
    steps: int
    sample_every: int
    label_a: str
    label_b: str
    sample_steps: np.ndarray = field(repr=False, default=None)
    frac_a: np.ndarray = field(repr=False, default=None)
    frac_b: np.ndarray = field(repr=False, default=None)
    mean_pay_a: np.ndarray = field(repr=False, default=None)
    mean_pay_b: np.ndarray = field(repr=False, default=None)
    final_fraction_a: float = float("nan")
    extinct_at: int | None = None
    class_mean_deg_a: float = float("nan")
    class_mean_deg_b: float = float("nan")
    mean_degree: float = float("nan")
    target_rho: float | None = None
    achieved_rho: float | None = None


def run(
    pop: Population,
    process: str,
    steps: int,
    m: PayoffMatrix,
    cfg: MoranConfig | AdoptionConfig,
    seed: int,
    sample_every: int = 100,
    run_id: int = 0,
    focal_index: int = 0,
) -> RunRecord:
    """Alternate play and evolution for ``steps`` time-steps.

    Each step clears all payoffs, plays one round on every edge, then applies
    the configured number of evolution events (replacement_rate-many for the
    death-birth process, one for adoption), so the payoffs the update rules
    compare are this step's accumulation over each node's neighbors. Pair
    memories persist across steps. When :func:`uses_on_demand` says so, the
    rounds are instead played only for the edges the events and samples
    read, which gives the same process in distribution but not the same
    draws; either way the population is left fully played up to the last
    step. Strategy fractions are sampled every ``sample_every`` steps; once
    either strategy is extinct the run stops and the remaining samples are
    padded with the absorbing fractions (payoff columns are padded with nan,
    since they are no longer simulated).
    ``focal_index`` says which strategy-table entry is reported as "a".
    This is :func:`run_replicates` of one population.
    """
    return run_replicates(
        [pop], process, steps, m, cfg, [seed], [run_id], sample_every, focal_index
    )[0]


class _Replicate:
    """One population's stream, samples and extinction step in the run loop."""

    def __init__(self, pop: Population, seed: int, events: int, k_samples: int) -> None:
        self.pop = pop
        self.rng = np.random.default_rng(seed)
        self.events = events  # death-birth events per step
        # fraction a, fraction b, mean payoff a, mean payoff b per sample
        self.samples = np.empty((4, k_samples))
        self.class_mean_degrees = class_mean_degrees(pop)
        self.extinct_at: int | None = None

    def record(self, k: int, focal_index: int) -> None:
        pop = self.pop
        settle(pop)
        n = pop.n
        ca = int(pop.counts[focal_index])
        cb = n - ca
        mask = pop.strat == focal_index
        self.samples[:, k] = (
            ca / n,
            cb / n,
            pop.pay[mask].mean() if ca else float("nan"),
            pop.pay[~mask].mean() if cb else float("nan"),
        )


def run_replicates(
    pops,
    process: str,
    steps: int,
    m: PayoffMatrix,
    cfg: MoranConfig | AdoptionConfig,
    seeds,
    run_ids,
    sample_every: int = 100,
    focal_index: int = 0,
) -> list[RunRecord]:
    """:func:`run` of each population, all advanced together step by step.

    Population i runs with seed ``seeds[i]`` and is reported as
    ``run_ids[i]``. On the dense path the live populations'
    rounds are one :func:`netgames.engine.play_step` on their
    :class:`netgames.engine.Lockstep`, laid out again from the live ones
    whenever one goes extinct; each still draws from its own stream in the
    order it would alone, so its record is bit-identical to that of
    :func:`run` on it alone. The on-demand path takes one population.
    """
    pops = list(pops)
    seeds = list(seeds)
    run_ids = list(run_ids)
    if not pops or len(seeds) != len(pops) or len(run_ids) != len(pops):
        raise ValueError("need at least one population, each with one seed and one run id")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if sample_every < 1:
        raise ValueError(f"sample_every={sample_every} must be >= 1")
    if any(len(pop.strategies) != 2 for pop in pops):
        raise ValueError("run expects a two-strategy table")
    if process == "moran":
        if not isinstance(cfg, MoranConfig):
            raise TypeError("moran process needs a MoranConfig")
    elif process == "adoption":
        if not isinstance(cfg, AdoptionConfig):
            raise TypeError("adoption process needs an AdoptionConfig")
    else:
        raise ValueError(f"unknown process {process!r}")
    if focal_index not in (0, 1):
        raise ValueError("focal_index must be 0 or 1")
    lazy = any(uses_on_demand(pop.net.num_edges, sample_every) for pop in pops)
    if lazy and len(pops) > 1:
        raise ValueError("the on-demand path runs one population at a time")
    other = 1 - focal_index

    sample_steps = np.arange(0, steps + 1, sample_every)
    if sample_steps[-1] != steps:
        sample_steps = np.append(sample_steps, steps)
    k_samples = len(sample_steps)
    reps = [
        _Replicate(pop, seed, cfg.events_per_step(pop.n) if process == "moran" else 1, k_samples)
        for pop, seed in zip(pops, seeds)
    ]

    with on_demand(pops[0], m, reps[0].rng) if lazy else nullcontext():
        live = []
        for rep in reps:
            rep.record(0, focal_index)
            if rep.pop.counts[focal_index] == 0 or rep.pop.counts[other] == 0:
                rep.extinct_at = 0
            else:
                live.append(rep)
        if len(live) > 1:
            union = source = Lockstep((r.pop, r.rng) for r in live)
        elif live:
            union, source = live[0].pop, live[0].rng
        next_k = 1
        for t in range(1, steps + 1 if live else 1):
            if lazy:
                tick(union)
            else:
                union.pay[:] = 0.0
                play_step(union, m, source)
            sample = next_k < k_samples and t == sample_steps[next_k]
            dropped = False
            for rep in live:
                pop, rng = rep.pop, rep.rng
                if process != "moran":
                    adoption_event(pop, cfg, rng)
                elif lazy:
                    # deaths are uniform and independent of the payoffs, so
                    # drawing them first and settling every edge they read
                    # at once leaves the process unchanged
                    deaths = rng.integers(pop.n, size=rep.events)
                    settle_around(pop, deaths)
                    for x in deaths.tolist():
                        moran_event(pop, rng, x)
                else:
                    for _ in range(rep.events):
                        moran_event(pop, rng)
                if sample:
                    rep.record(next_k, focal_index)
                if pop.counts[focal_index] == 0 or pop.counts[other] == 0:
                    rep.extinct_at = t
                    dropped = True
            if sample:
                next_k += 1
            if dropped:
                live = [rep for rep in live if rep.extinct_at is None]
                if len(live) > 1:
                    union.keep((r.pop, r.rng) for r in live)
                elif live:
                    # the last one plays alone, on its views of the lockstep's
                    # arrays, which nothing else writes any more
                    union, source = live[0].pop, live[0].rng
                else:
                    break

    records = []
    for rep, seed, run_id in zip(reps, seeds, run_ids):
        frac_a, frac_b, pay_a, pay_b = rep.samples
        if rep.extinct_at is not None:
            # samples after the extinction step hold the absorbing state
            k = int(np.searchsorted(sample_steps, rep.extinct_at, side="right"))
            absorbed = 1.0 if rep.pop.counts[focal_index] else 0.0
            frac_a[k:] = absorbed
            frac_b[k:] = 1.0 - absorbed
            pay_a[k:] = float("nan")
            pay_b[k:] = float("nan")
        records.append(
            RunRecord(
                run_id=run_id,
                seed=seed,
                steps=steps,
                sample_every=sample_every,
                label_a=rep.pop.strategies[focal_index].label,
                label_b=rep.pop.strategies[other].label,
                sample_steps=sample_steps,
                frac_a=frac_a,
                frac_b=frac_b,
                mean_pay_a=pay_a,
                mean_pay_b=pay_b,
                final_fraction_a=float(frac_a[-1]),
                extinct_at=rep.extinct_at,
                class_mean_deg_a=rep.class_mean_degrees[focal_index],
                class_mean_deg_b=rep.class_mean_degrees[other],
                mean_degree=rep.pop.net.mean_degree,
            )
        )
    return records


def write_run_csv(rec: RunRecord, path) -> None:
    """Time-series CSV: run_id, step, fraction_a, fraction_b, mean_payoff_a, mean_payoff_b."""
    with _written_whole(path) as fh:
        w = csv.writer(fh)
        w.writerow(
            ["run_id", "step", "fraction_a", "fraction_b", "mean_payoff_a", "mean_payoff_b"]
        )
        for i, step in enumerate(rec.sample_steps):
            w.writerow(
                [
                    rec.run_id,
                    int(step),
                    repr(float(rec.frac_a[i])),
                    repr(float(rec.frac_b[i])),
                    repr(float(rec.mean_pay_a[i])),
                    repr(float(rec.mean_pay_b[i])),
                ]
            )
