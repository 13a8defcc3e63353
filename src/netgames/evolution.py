"""Evolutionary update processes applied after each round of play.

Two processes are provided. Death-birth replacement removes a uniformly
random node each event and replaces its strategy with that of a neighbor
drawn proportionally to fitness (payoff over degree); the replaced node keeps
its edges but restarts with zero payoff and blank pair memories. Each death
draws one uniform u for its parent: the neighbour whose cumulative fitness
interval holds u times the total or, when every neighbour's fitness is 0,
neighbour floor(u * degree), so the number of draws never depends on the
payoffs. The
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
advances several of one node count in lockstep: each step it plays every
live replicate's round, then runs each replicate's events from that
replicate's own stream, so a replicate's record is bit-identical to a
run() of it alone. No node is isolated: ``engine.Population`` refuses
one. Rounds are played one of two ways, chosen by input size (see
:func:`uses_on_demand`). The dense path plays every edge every step with
``engine.play_step``: one call for all live replicates, on their
``engine.Lockstep``, the population on their networks' union. Once a
replicate is extinct, the members get their own arrays back, and a new
lockstep is built from the survivors.
While more than ``engine._FEW_NODES`` replicates are live, a step's events
run as one vectorised pass over all of the lockstep's members per event
(:func:`_replace_rows`, :func:`_adopt_members`), each replicate still
drawing from its own stream in the order of its own events; fewer run one
event at a time. The on-demand path, which takes one replicate, plays an
edge only when an event, a sample or a strategy change reads it
(``engine.on_demand``), and settles once per step: an adoption event
settles its two nodes, and run() draws a death-birth step's deaths first
and hands them to one :func:`moran_event` call, which settles every edge
they read in one ``engine.settle_around`` and runs a vectorised pass for
each run of deaths that do not interact, with the same effect and draws
as one event per death in draw order. On BA(20000, 2) at replacement rate
0.001 (20 deaths) that step costs ~0.32 ms instead of the dense ~1.1 ms;
see the table at ON_DEMAND_EDGES_PER_STEP. Both paths are deterministic
for a seed, but they consume the seed's stream differently, so the same
seed gives a different (equally distributed) run on each. On PCG64 one
array draw of k deaths gives the numbers of k scalar draws, so an
on-demand step with one death draws the same stream as one
``moran_event(pop, rng)`` call.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    _FEW_NODES,
    Lockstep,
    Population,
    _round_half_up,
    _rows,
    _write_back,
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
# 599: 46 -> 41, 2499: 73 -> 47, 19999: 480 -> 72. Death-birth, measured
# again once a step's events ran batched (on a host whose speed drifted by
# up to ~30% between runs): at rate 0.001 on 8-regular graphs (one death a
# step) at |E| 400: 47 -> 96, 1000: 68 -> 102, 4000: 121 -> 91; on BA m=2
# at |E| 1997: 92 -> 96, 2997 (2 deaths): 129 -> 92, 9997 (5): 257 -> 135,
# 39997 (20): 1137 -> 320; at rate 0.01 on BA m=2, |E| 1997: 179 -> 231,
# 39997: 4799 -> 1537; at rate 0.05, |E| 39997: 16635 -> 5375. Break-even
# lies between ~700 edges (BA m=2) and ~3600 (8-regular); 2500 keeps every
# reduced preset (at most 800 edges) dense, and every full-profile preset
# on the path it took when this was charged per event.
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
    """x's row of the CSR neighbour array, never empty (see ``engine.Population``)."""
    indptr, nbr, _ = pop.net.csr()
    return nbr[indptr[x] : indptr[x + 1]]


def _fitness(pay: np.ndarray, degrees: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Fitness of ``nodes``: payoff divided by degree, floored at 0; defined here only."""
    return np.maximum(pay[nodes] / degrees[nodes], 0.0)


def _select_neighbor(pop: Population, x: int, rng: np.random.Generator) -> int:
    """Neighbor of x drawn proportionally to fitness by one uniform u.

    If every neighbour's fitness is 0 the same u picks neighbour
    floor(u * degree), uniformly. The total fitness is the last cumulative
    weight, not a separate sum: numpy's pairwise ``sum`` can differ from the
    sequential sum in the last bits, and :func:`_replace_rows` takes each
    row's total from a row-wise cumsum. The neighbors' edges must be
    settled already.
    """
    nbrs = _neighbors(pop, x)
    # array methods, not np.cumsum / np.searchsorted: same numbers, without
    # the Python wrappers those add to every call
    c = _fitness(pop.pay, pop.net.degrees, nbrs).cumsum()
    tot = c[-1]
    u = rng.random()
    if tot <= 0.0:
        return int(nbrs[int(u * len(nbrs))])
    idx = int(c.searchsorted(u * tot, side="right"))
    if idx >= len(nbrs):
        idx = len(nbrs) - 1
    return int(nbrs[idx])


def moran_event(
    pop: Population, rng: np.random.Generator, x: np.ndarray | None = None
) -> tuple:
    """Death-birth events; returns (replaced node, parent neighbor).

    Without ``x`` one event draws the node to replace, settles the edges it
    reads and draws its parent's one uniform (see :func:`_select_neighbor`).
    With ``x``, an array of a step's deaths drawn by the caller, as run()
    passes on the on-demand path, every edge they read is settled at once,
    and the result is (deaths, parents) as arrays, bit-identical in every
    effect to one event per death in draw order: each death still draws one
    uniform, in order. Up to ``engine._FEW_NODES`` deaths run one at a time,
    more as :func:`_replace_all`, whose fixed cost only more deaths repay.
    """
    if x is None:
        # integers(0, n): the numbers of integers(n), ~1 µs a call sooner (numpy 2.4)
        x = int(rng.integers(0, pop.n))
        settle_around(pop, [x])
        return x, _replace(pop, rng, x)
    deaths = np.asarray(x, dtype=np.intp)
    if len(deaths) > _FEW_NODES:
        return deaths, _replace_all(pop, rng, deaths)
    settle_around(pop, deaths)
    return deaths, np.array([_replace(pop, rng, v) for v in deaths.tolist()], dtype=np.intp)


def _replace(pop: Population, rng: np.random.Generator, x: int) -> int:
    """Replace settled node x by a copy of a fitness-drawn neighbour; returns it."""
    y = _select_neighbor(pop, x, rng)
    set_strategy(pop, x, int(pop.strat[y]))
    reset_node(pop, x)
    return y


def _replace_rows(pop, x, u, pos, deg, nb, eid, slot=0) -> np.ndarray:
    """:func:`_replace` of distinct settled nodes ``x``, whose events cannot interact.

    Node i's parent is drawn by its uniform ``u[i]`` as
    :func:`_select_neighbor` draws it; returns the parents. ``pos``, ``deg``
    and ``nb`` are x's CSR positions, row lengths (none 0: a population has
    no isolated node) and neighbours, and ``pop`` and ``slot`` go to
    :func:`_write_back`. The rows of neighbour fitness are zero-padded to
    one width, which leaves each row's cumsum bit-equal to the one
    :func:`_select_neighbor` takes of it, and a row's count of cumulative
    weights <= u * total is the index that searches for, capped at the
    row's last entry.
    """
    width = deg.max()
    c = np.zeros((len(deg), width))
    c[np.arange(width) < deg[:, None]] = _fitness(pop.pay, pop.net.degrees, nb)
    c.cumsum(axis=1, out=c)
    tot = c[:, -1]
    col = np.minimum((c <= (u * tot)[:, None]).sum(axis=1), deg - 1)
    zero = tot <= 0.0
    if zero.any():
        col[zero] = u[zero] * deg[zero]  # floor(u * degree)
    y = nb[deg.cumsum() - deg + col]
    _write_back(pop, x, pop.strat[y], pos, deg, eid, slot)
    return y


def _replace_all(pop: Population, rng: np.random.Generator, deaths: np.ndarray) -> np.ndarray:
    """:func:`_replace` of each death in draw order; returns the parents.

    First settles every edge the deaths read, in one
    :func:`netgames.engine.settle_around` on their CSR rows (a no-op on the
    dense path), and then draws every death's uniform in one ``rng.random``
    (on PCG64 the numbers of one draw per death). The deaths then go in
    runs. A run ends before a death that equals or neighbours an earlier
    death of the run, so no event of a run reads what an earlier one wrote
    (a replaced node's payoff and strategy), and each run is one
    :func:`_replace_rows`. The conflicts are found once per step, by one
    scan of the deaths' rows against a set of the run's deaths, so the work
    grows with the step's deaths and their edges, not with their square.
    """
    indptr, nbr, eid = pop.net.csr()
    pos, deg = _rows(indptr, deaths)
    settle_around(pop, deaths, pos)
    u = rng.random(len(deaths))
    nb = nbr[pos]
    ends = deg.cumsum()
    starts = ends - deg
    bounds, run, rows = [0], set(), nb.tolist()
    for i, (x, lo, hi) in enumerate(zip(deaths.tolist(), starts.tolist(), ends.tolist())):
        if x in run or not run.isdisjoint(rows[lo:hi]):
            bounds.append(i)
            run = set()
        run.add(x)
    bounds.append(len(deaths))
    parents = np.empty(len(deaths), dtype=nbr.dtype)
    for s, e in zip(bounds, bounds[1:]):
        lo, hi = starts[s], ends[e - 1]
        parents[s:e] = _replace_rows(
            pop, deaths[s:e], u[s:e], pos[lo:hi], deg[s:e], nb[lo:hi], eid
        )
    return parents


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
    x = int(rng.integers(0, pop.n))
    nbrs = _neighbors(pop, x)
    y = int(nbrs[rng.integers(0, len(nbrs))])
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


def _adopt_members(lock: Lockstep, rngs: list, x: np.ndarray, cfg: AdoptionConfig) -> None:
    """One adoption event of each of the lockstep's members, member i's at ``x[i]``.

    One pass over the lockstep's union, bit-identical in every effect to
    :func:`adoption_event` on each member alone: member i, whose marked node
    ``x[i]`` (in union numbering) the caller drew from ``rngs[i]``, then
    draws its neighbour's index and its acceptance uniform, and the members'
    events, on disjoint graphs, cannot read each other's writes. No member
    has an isolated node: ``engine.Population`` refuses one.
    """
    indptr, nbr, eid = lock.net.csr()
    degrees = lock.net.degrees
    deg = degrees[x].tolist()
    y = nbr[indptr[x] + [rng.integers(0, d) for rng, d in zip(rngs, deg)]]
    normalizer = cfg.effective_normalizer
    adopted = [
        rng.random() < adoption_probability(*args, normalizer)
        for rng, *args in zip(
            rngs, lock.pay[x].tolist(), lock.pay[y].tolist(), deg, degrees[y].tolist()
        )
    ]
    if any(adopted):
        at = np.flatnonzero(adopted)
        x, y = x[at], y[at]
        pos, count = _rows(indptr, x)
        _write_back(lock, x, lock.strat[y], pos, count, eid, lock.slots[at])


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
    """One population's stream, and its RunRecord, which the run loop fills in place."""

    def __init__(
        self, pop: Population, focal_index: int, run_id, seed, steps, sample_every, sample_steps
    ) -> None:
        self.pop = pop
        self.rng = np.random.default_rng(seed)
        self.focal_index = focal_index
        a, b = focal_index, 1 - focal_index
        labels = [s.label for s in pop.strategies]
        degrees = class_mean_degrees(pop)
        # fraction a, fraction b, mean payoff a, mean payoff b per sample
        samples = np.empty((4, len(sample_steps)))
        self.rec = RunRecord(
            run_id, seed, steps, sample_every, labels[a], labels[b], sample_steps, *samples,
            class_mean_deg_a=degrees[a], class_mean_deg_b=degrees[b],
            mean_degree=pop.net.mean_degree,
        )

    def record(self, k: int) -> None:
        pop, rec = self.pop, self.rec
        settle(pop)
        n = pop.n
        ca = int(pop.counts[self.focal_index])
        cb = n - ca
        mask = pop.strat == self.focal_index
        rec.frac_a[k], rec.frac_b[k] = ca / n, cb / n
        rec.mean_pay_a[k] = pop.pay[mask].mean() if ca else float("nan")
        rec.mean_pay_b[k] = pop.pay[~mask].mean() if cb else float("nan")


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
    ``run_ids[i]``; each population may be passed once. All share one node
    count, so one number of events per step. Each population's record is
    built before step 1 and filled in place. On the dense path the live
    populations' rounds are one ``engine.play_step`` on their
    ``engine.Lockstep``. Whenever one goes extinct, that lockstep gives its
    members their own arrays back and is dropped, and a new one is built
    from the live ones. While more than ``engine._FEW_NODES`` are
    live, their events are one pass over all of them per event. Each still
    draws from its own stream in the order it would alone, so its record is
    bit-identical to that of :func:`run` on it alone. The on-demand path
    takes one population.
    """
    pops = list(pops)
    seeds = list(seeds)
    run_ids = list(run_ids)
    if not pops or len(seeds) != len(pops) or len(run_ids) != len(pops):
        raise ValueError("need at least one population, each with one seed and one run id")
    if len({id(pop) for pop in pops}) < len(pops):
        raise ValueError("a population is passed more than once; each replicate needs its own")
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
    n = pops[0].n
    for i, pop in enumerate(pops):  # checked once: no network changes during a run
        if pop.n != n:
            raise ValueError(f"replicates need one node count: population {i} has {pop.n}, not {n}")
    lazy = any(uses_on_demand(pop.net.num_edges, sample_every) for pop in pops)
    if lazy and len(pops) > 1:
        raise ValueError("the on-demand path runs one population at a time")

    sample_steps = np.arange(0, steps + 1, sample_every)
    if sample_steps[-1] != steps:
        sample_steps = np.append(sample_steps, steps)
    reps = [
        _Replicate(pop, focal_index, run_id, seed, steps, sample_every, sample_steps)
        for pop, seed, run_id in zip(pops, seeds, run_ids)
    ]
    events = cfg.events_per_step(n) if process == "moran" else 1

    with on_demand(pops[0], m, reps[0].rng) if lazy else nullcontext():
        live = []
        for rep in reps:
            rep.record(0)
            if not rep.pop.counts.all():
                rep.rec.extinct_at = 0
            else:
                live.append(rep)
        union = None
        next_k = 1
        for t in range(1, steps + 1 if live else 1):
            if union is None:  # the first step, or the first after an extinction
                if len(live) > 1:
                    union = source = Lockstep((r.pop, r.rng) for r in live)
                else:
                    union, source = live[0].pop, live[0].rng
                rngs = [r.rng for r in live] if len(live) > _FEW_NODES else []
            if lazy:
                tick(union)
            else:
                union.pay[:] = 0.0
                play_step(union, m, source)
            if rngs:  # more than _FEW_NODES live: one pass over all per event
                indptr, nbr, eid = union.net.csr()
                for _ in range(events):
                    # each member's uniform node, its event's first draw;
                    # members' graphs are disjoint, so their events cannot
                    # read each other's writes
                    x = union.first + [rng.integers(0, n) for rng in rngs]
                    if process == "moran":
                        pos, deg = _rows(indptr, x)
                        u = np.array([rng.random() for rng in rngs])
                        _replace_rows(union, x, u, pos, deg, nbr[pos], eid, union.slots)
                    else:
                        _adopt_members(union, rngs, x, cfg)
            else:
                for rep in live:
                    pop, rng = rep.pop, rep.rng
                    if process != "moran":
                        adoption_event(pop, cfg, rng)
                    elif lazy:
                        # deaths are uniform and independent of the payoffs,
                        # so drawing them first and settling every edge they
                        # read at once leaves the process unchanged
                        moran_event(pop, rng, rng.integers(n, size=events))
                    else:
                        for _ in range(events):
                            moran_event(pop, rng)
            if next_k < len(sample_steps) and t == sample_steps[next_k]:
                for rep in live:
                    rep.record(next_k)
                next_k += 1
            # the live replicates' class counts lie side by side in the
            # lockstep's array (or the last one's own): a zero is an extinction
            if union.counts.all():
                continue
            for rep in live:
                if not rep.pop.counts.all():
                    rep.rec.extinct_at = t
            live = [rep for rep in live if rep.rec.extinct_at is None]
            if not live:
                break
            # some replicate lives on, so this was a lockstep: its members get
            # their own arrays back, and it goes, with its CSR, before the
            # next one is built
            union.release()
            union = source = indptr = nbr = eid = None

    for rep in reps:
        rec = rep.rec
        if rec.extinct_at is not None:
            # samples after the extinction step hold the absorbing state
            k = int(np.searchsorted(sample_steps, rec.extinct_at, side="right"))
            absorbed = 1.0 if rep.pop.counts[focal_index] else 0.0
            rec.frac_a[k:] = absorbed
            rec.frac_b[k:] = 1.0 - absorbed
            rec.mean_pay_a[k:] = float("nan")
            rec.mean_pay_b[k:] = float("nan")
        rec.final_fraction_a = float(rec.frac_a[-1])
    return [rep.rec for rep in reps]


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
