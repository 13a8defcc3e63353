"""Population state and the per-edge game round.

Every time-step each edge plays exactly one prisoner's dilemma round: both
endpoints cooperate with their strategy's probability conditioned on that
edge's remembered last outcome, payoffs accumulate on both endpoints, and the
memory is updated. An edge that has never been played yet gets an
unconditioned first move: both endpoints cooperate with probability 1/2,
independent of strategy. Edge memory is stored from the lower-indexed
endpoint's perspective.

The round reuses work buffers kept on the Network, so it allocates nothing
|E|-sized per call; populations sharing a network must therefore not play
their rounds concurrently. A :class:`Lockstep` is the population on the
disjoint union of several populations' networks, whose arrays its members
view, so one round of it plays all of theirs; each member draws from its
own stream, in the order its own round would, so every member ends
bit-equal to a round of its own.

Between strategy changes and resets each edge's memory is a Markov chain,
``pairchain.pair_transition`` of its endpoints' strategies. The on-demand
path (see :func:`on_demand`) uses that to play an edge only when something
reads it: an edge last played g steps ago jumps straight to this step's
outcome with one draw from row ``mem`` of P^g. The dense :func:`play_step`
stays the reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .networks import Network, hub_order
from .pairchain import pair_transition
from .strategies import PERSPECTIVE_SWAP, MemoryOneStrategy, PayoffMatrix

UNPLAYED = 4  # edge-memory sentinel beyond the four outcome states
_STATES = UNPLAYED + 1
# pair codes (a * k + b) * _STATES + memory must fit the int16 code array
_MAX_STRATEGIES = 80
# on the on-demand path no edge falls more than this many steps behind the
# clock: the jump table holds P^0 .. P^_MAX_GAP, and the clock settles every
# edge once the last full settle is this far back (at most 255: see _OnDemand)
_MAX_GAP = 128


class IsolatedNode(ValueError):
    """Fitness is undefined for a node with no neighbors."""


class Population:
    """Mutable per-run state: strategy index, cumulative payoff, pair memory.

    Change a node's strategy only through :func:`set_strategy`, which also
    keeps the per-edge pair codes the round looks its probabilities up by.
    """

    def __init__(self, net: Network, strategies, strat: np.ndarray) -> None:
        strategies = tuple(strategies)
        if not strategies:
            raise ValueError("strategy table must be non-empty")
        if len(strategies) > _MAX_STRATEGIES:
            raise ValueError(f"at most {_MAX_STRATEGIES} strategies per table")
        strat = np.asarray(strat, dtype=np.int64)
        if strat.shape != (net.n,):
            raise ValueError("need one strategy index per node")
        if strat.min() < 0 or strat.max() >= len(strategies):
            raise ValueError("strategy index out of range")
        self.net = net
        self.strategies: tuple[MemoryOneStrategy, ...] = strategies
        self.strat = strat
        self.pay = np.zeros(net.n)
        self.mem = np.full(net.num_edges, UNPLAYED, dtype=np.int8)
        self.counts = np.bincount(strat, minlength=len(strategies))
        self.clock = 0  # current step; advanced by tick() on the on-demand path
        self._on_demand: _OnDemand | None = None
        if net._edge_arrays is None:
            net._edge_arrays = _edge_arrays(net)
        self._eu, self._ev, is_lower, self._buffers = net._edge_arrays
        # cooperation probability of either endpoint, indexed by pair code +
        # edge memory; the v side's table reads memory from u's perspective
        k = len(strategies)
        coop = np.array([[*s.probs, 0.5] for s in strategies])
        swap = [*PERSPECTIVE_SWAP, UNPLAYED]
        self._coop_u = np.broadcast_to(coop[:, None, :], (k, k, _STATES)).ravel()
        self._coop_v = np.broadcast_to(coop[None, :, swap], (k, k, _STATES)).ravel()
        # pair code (strat[u] * k + strat[v]) * _STATES per edge, in int16 throughout
        self._code = (strat * k).astype(np.int16)[self._eu]
        self._code += strat.astype(np.int16)[self._ev]
        self._code *= _STATES
        # code change per unit change of a CSR entry's node's strategy
        self._code_step = np.where(is_lower, np.int16(k * _STATES), np.int16(_STATES))

    @property
    def n(self) -> int:
        return self.net.n


def _edge_arrays(net: Network) -> tuple:
    """Per-network arrays of the edge round, shared by its populations.

    The endpoint columns, whether each CSR entry's node is its edge's lower
    endpoint, and the round's |E|-sized work buffers.
    """
    indptr, nbr, _ = net.csr()
    owner = np.repeat(np.arange(net.n, dtype=np.int32), np.diff(indptr))
    e = net.num_edges
    return (
        np.ascontiguousarray(net.edges[:, 0]),
        np.ascontiguousarray(net.edges[:, 1]),
        owner < nbr,
        (
            np.empty(2 * e),  # uniform draws: all u sides, then all v sides
            np.empty(e),  # probabilities, then payoffs, of one side
            np.empty(2 * e, dtype=bool),  # cooperate? u sides, then v sides
            np.empty(e, dtype=np.intp),  # table index, then outcome
        ),
    )


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def init_random(
    net: Network,
    strat_a: MemoryOneStrategy,
    strat_b: MemoryOneStrategy,
    fraction_a: float,
    seed: int,
) -> Population:
    """Assign strategy A to round(fraction_a * n) nodes chosen uniformly at random."""
    if not 0.0 <= fraction_a <= 1.0:
        raise ValueError(f"fraction_a={fraction_a} outside [0, 1]")
    rng = np.random.default_rng(seed)
    n_a = _round_half_up(fraction_a * net.n)
    strat = np.ones(net.n, dtype=np.int64)
    strat[rng.permutation(net.n)[:n_a]] = 0
    return Population(net, (strat_a, strat_b), strat)


def init_hubs(
    net: Network,
    strat_hub: MemoryOneStrategy,
    strat_rest: MemoryOneStrategy,
    fraction_hub: float,
    seed: int,
) -> Population:
    """Assign the hub strategy to the top round(fraction_hub * n) nodes by degree.

    Degree ties are broken by a seeded shuffle (see networks.hub_order), so the
    cut is well defined on degree plateaus. Per-class mean degrees can be read
    off afterwards with :func:`class_mean_degrees`.
    """
    if not 0.0 <= fraction_hub <= 1.0:
        raise ValueError(f"fraction_hub={fraction_hub} outside [0, 1]")
    order = hub_order(net, seed)
    n_hub = _round_half_up(fraction_hub * net.n)
    strat = np.ones(net.n, dtype=np.int64)
    strat[order[:n_hub]] = 0
    return Population(net, (strat_hub, strat_rest), strat)


def class_mean_degrees(pop: Population) -> list[float]:
    """Mean degree of each strategy class; nan for extinct classes."""
    out = []
    for idx in range(len(pop.strategies)):
        mask = pop.strat == idx
        out.append(float(pop.net.degrees[mask].mean()) if mask.any() else float("nan"))
    return out


def play_step(pop: Population | Lockstep, m: PayoffMatrix, rng) -> None:
    """Play one round on every edge, in place.

    Draw order is fixed (all lower-endpoint draws, then all higher-endpoint
    draws, in sorted edge order) so runs are bit-reproducible for a seed.
    Every |E|-sized intermediate lives in the network's reused buffers (a
    :class:`Lockstep`'s union network's). A lockstep is passed as its own
    ``rng``.
    """
    mem = pop.mem
    num_e = len(mem)
    draws, prob, coop, idx = pop._buffers
    coop_u, coop_v = coop[:num_e], coop[num_e:]
    np.add(pop._code, mem, out=idx)
    rng.random(out=draws)
    # mode="clip" lets take write straight into out; the indices are in range.
    # The array method gives np.take's numbers without its Python wrapper
    pop._coop_u.take(idx, out=prob, mode="clip")
    np.less(draws[:num_e], prob, out=coop_u)
    pop._coop_v.take(idx, out=prob, mode="clip")
    np.less(draws[num_e:], prob, out=coop_v)
    # 0..3 outcome from the lower endpoint's perspective: 3 - 2 c_u - c_v
    cu, cv = coop_u.view(np.int8), coop_v.view(np.int8)
    np.add(cu, cu, out=mem)
    np.add(mem, cv, out=mem)
    np.subtract(3, mem, out=mem)
    np.copyto(idx, mem)
    pay_u, pay_v = m.outcome_payoffs
    pay_u.take(idx, out=prob, mode="clip")
    pop.pay += np.bincount(pop._eu, weights=prob, minlength=pop.n)
    pay_v.take(idx, out=prob, mode="clip")
    pop.pay += np.bincount(pop._ev, weights=prob, minlength=pop.n)


class Lockstep(Population):
    """Dense populations' rounds played as one, by a population on their networks' union.

    Pass it to :func:`play_step` as both the population and the stream to
    play every member's round in one call. Member i's nodes follow those of
    the members before it, from offset ``first[i]``; the union's sorted edges
    and its CSR rows are then each member's own, offset, so its edges keep
    their order and the round adds each node's payoffs in the order a round
    of the member alone does. :meth:`random` fills each member's
    lower-endpoint draws, then its higher-endpoint draws, from that member's
    own stream; on PCG64 the two give the numbers of the one draw of 2|E| a
    round of the member alone makes. So each member's ``mem`` and ``pay``
    end bit-equal to those of its own :func:`play_step` from the same stream
    state.

    While a population is a member, its ``pay``, ``mem``, pair codes and
    ``strat`` are views into the lockstep's arrays, and its ``counts`` the k
    slots of the lockstep's from ``slots[i] = i * k``. Its network and
    stream stay its own, so evolution events and samples run on the member
    unchanged, or, in ``evolution``'s passes over members of one node count,
    on all at once through the union's ``net`` and :func:`_write_back` at
    ``slots``. So :func:`set_strategy` and :func:`reset_node` go to a
    member, never to the lockstep itself. :meth:`release` gives the members
    their own arrays back before the lockstep is dropped.
    """

    def __init__(self, members) -> None:
        """``members``: (population, generator) pairs sharing one strategy table."""
        members = list(members)
        pops = [pop for pop, _ in members]
        if any(pop.strategies != pops[0].strategies for pop in pops):
            raise ValueError("lockstep members must share one strategy table")
        self.first = np.cumsum([0] + [pop.n for pop in pops[:-1]])
        union = Network(
            sum(pop.n for pop in pops),
            np.concatenate([pop.net.edges + f for pop, f in zip(pops, self.first.tolist())]),
        )
        super().__init__(union, pops[0].strategies, np.concatenate([pop.strat for pop in pops]))
        self.counts = np.concatenate([pop.counts for pop in pops])
        k = len(self.strategies)
        self.slots = np.arange(0, len(pops) * k, k)
        self._pops, self._slices = pops, []
        e = 0
        for (pop, rng), n, c in zip(members, self.first.tolist(), self.slots.tolist()):
            hi = e + pop.net.num_edges
            self.pay[n : n + pop.n] = pop.pay
            self.mem[e:hi] = pop.mem
            pop.pay, pop.mem, pop._code = self.pay[n : n + pop.n], self.mem[e:hi], self._code[e:hi]
            pop.strat, pop.counts = self.strat[n : n + pop.n], self.counts[c : c + k]
            self._slices.append((rng, e, hi))
            e = hi

    def release(self) -> None:
        """Give every member its own copies of its arrays back."""
        for pop in self._pops:
            for name in ("pay", "mem", "_code", "strat", "counts"):
                setattr(pop, name, getattr(pop, name).copy())

    def random(self, out: np.ndarray) -> None:
        """Fill ``out``, the round's draws, from each member's own stream."""
        e = len(out) // 2
        for rng, lo, hi in self._slices:
            rng.random(out=out[lo:hi])
            rng.random(out=out[e + lo : e + hi])


def reset_node(pop: Population, node: int) -> None:
    """Zero the node's payoff and forget all of its pair memories.

    The strategy is left unchanged; neighbors are unaffected.
    """
    if pop._on_demand is not None:  # skips a no-op call on the dense path
        settle(pop, (node,))
    pop.pay[node] = 0.0
    indptr, _, eid = pop.net.csr()
    pop.mem[eid[indptr[node] : indptr[node + 1]]] = UNPLAYED


def set_strategy(pop: Population, node: int, strategy_index: int) -> None:
    """Reassign a node's strategy, keeping the class counts and pair codes current."""
    old = int(pop.strat[node])
    if old != strategy_index:
        if pop._on_demand is not None:
            settle(pop, (node,))
        pop.counts[old] -= 1
        pop.counts[strategy_index] += 1
        pop.strat[node] = strategy_index
        indptr, _, eid = pop.net.csr()
        lo, hi = indptr[node], indptr[node + 1]
        pop._code[eid[lo:hi]] += (strategy_index - old) * pop._code_step[lo:hi]


def _write_back(pop, x, new, pos, deg, eid, slot=0) -> None:
    """:func:`set_strategy` of distinct settled nodes ``x`` to ``new``, then :func:`reset_node`.

    ``pop`` is a population, or a :class:`Lockstep` with ``slot`` its
    ``slots`` of x's members; ``pos`` and ``deg`` are x's CSR positions and
    row lengths (:func:`_rows`) in the CSR whose edge ids are ``eid``.
    """
    old = pop.strat[x]
    size = len(pop.counts)
    pop.counts += np.bincount(slot + new, minlength=size)
    pop.counts -= np.bincount(slot + old, minlength=size)
    pop.strat[x] = new
    edges = eid[pos]
    pop._code[edges] += (new - old).astype(np.int16).repeat(deg) * pop._code_step[pos]
    pop.pay[x] = 0.0
    pop.mem[edges] = UNPLAYED


class _OnDemand:
    """On-demand state of one population: its stream, clock marks and jump table.

    ``full`` is the last step every edge was played, and ``settled[e]`` the
    last step edge e was, counted from ``full`` (so it fits a byte).
    ``marked[v]`` equal to the current lag (clock - full) says every edge of
    node v is settled this step (settle marks its nodes, settle_around its
    centres), so settling v alone can return at once; any other value says
    nothing. ``paid`` lists what the next tick zeroes, the node arrays paid
    since the last tick (``slice(None)`` for all, on entry and after a full
    settle), so a node's payoff is the sum over its edges played this step.
    """

    def __init__(self, pop: Population, m: PayoffMatrix, rng: np.random.Generator) -> None:
        self.rng = rng
        self.pay_u, self.pay_v = m.outcome_payoffs
        self.settled = np.zeros(pop.net.num_edges, dtype=np.uint8)
        self.marked = np.zeros(pop.n, dtype=np.uint8)
        self.full = pop.clock
        self.paid: list = [slice(None)]
        self.rows = len(pop.strategies) ** 2 * _STATES
        self.jump = _jump_table(pop.strategies)


@lru_cache(maxsize=4)
def _jump_table(strategies: tuple[MemoryOneStrategy, ...]) -> np.ndarray:
    """Cumulative rows of P^g, g = 0.._MAX_GAP, for every pair code and memory.

    Column g * k*k*5 + code + mem of the (4, ...) result holds the first four
    cumulative probabilities of row mem of P^g for that pair; the outcome of
    a uniform u is the number of them <= u. Each row is divided by its total,
    so rows that cannot reach UNPLAYED end in exactly 1.
    """
    k = len(strategies)
    rows = k * k * _STATES
    chain = np.stack([pair_transition(a, b) for a in strategies for b in strategies])
    table = np.empty((UNPLAYED, (_MAX_GAP + 1) * rows))
    power = np.broadcast_to(np.eye(_STATES), chain.shape)
    for g in range(_MAX_GAP + 1):
        cum = np.cumsum(power, axis=-1)
        cum = cum[..., :UNPLAYED] / cum[..., UNPLAYED:]
        table[:, g * rows : (g + 1) * rows] = cum.reshape(rows, UNPLAYED).T
        # a broadcast product, not matmul: BLAS kernels would add ~0.3 MB of
        # resident code pages to a run that otherwise never touches them
        power = (power[..., :, :, None] * chain[:, None, :, :]).sum(axis=-2)
    table.flags.writeable = False  # shared by every run of this strategy table
    return table


@contextmanager
def on_demand(pop: Population, m: PayoffMatrix, rng: np.random.Generator):
    """Play the population's edges only when read, for the ``with`` block.

    Inside, advance time with :func:`tick` instead of :func:`play_step`, and
    call :func:`settle` on the nodes whose payoffs or memories are about to
    be read, or :func:`settle_around` on the nodes whose neighbours' payoffs
    are. :func:`set_strategy`, :func:`reset_node` and the evolution events
    do so themselves; run() settles around all of a death-birth step's
    deaths at once and passes the step's events all of them. Rounds and
    jumps draw from ``rng``.
    Leaving the block settles every edge, so ``mem`` and ``pay`` then hold
    the last step's round just as after :func:`play_step`.
    """
    pop._on_demand = _OnDemand(pop, m, rng)
    try:
        yield pop
        settle(pop)
    finally:
        pop._on_demand = None


def tick(pop: Population) -> None:
    """Start the next step on the on-demand path.

    Settles every edge first when one could otherwise fall more than
    _MAX_GAP steps behind, which bounds the jump table.
    """
    od = pop._on_demand
    if pop.clock - od.full >= _MAX_GAP:
        settle(pop)
    for nodes in od.paid:
        pop.pay[nodes] = 0.0
    od.paid.clear()
    pop.clock += 1


def settle(pop: Population, nodes=None) -> None:
    """Bring edges up to the clock: every edge, or every edge of ``nodes``.

    Each edge not yet played this step draws this step's outcome from row
    ``mem`` of P^g, g being the steps since it was last played, and adds the
    round's payoffs to both endpoints. The draws go to the edges in id
    order. Settling one node that was settled, alone or with others or by
    :func:`settle_around`, earlier in the step returns at once, which keeps
    the settles in :func:`set_strategy` and :func:`reset_node` cheap. A
    no-op on the dense path, where :func:`play_step` has already played
    every edge.
    """
    od = pop._on_demand
    if od is None:
        return
    if nodes is None:
        _settle_all(pop, od)
        return
    lag = pop.clock - od.full
    if len(nodes) == 1 and od.marked[nodes[0]] == lag:
        return
    od.marked[np.asarray(nodes, dtype=np.intp)] = lag
    indptr, _, eid = pop.net.csr()
    # an edge between two of the nodes is listed twice; sorting pairs the
    # copies up (np.unique would import numpy.ma, +0.7 MB resident)
    e = _gather(eid, indptr, nodes)
    e.sort()
    keep = od.settled[e] < lag
    keep[1:] &= e[1:] != e[:-1]
    e = e[keep]
    if len(e) == 0:
        return
    row = np.subtract(lag, od.settled[e], dtype=np.intp)
    row *= od.rows
    row += pop._code[e]
    row += pop.mem[e]
    out = (od.jump[:, row] <= od.rng.random(len(e))).sum(axis=0)
    pop.mem[e] = out
    od.settled[e] = lag
    eu, ev = pop._eu[e], pop._ev[e]
    np.add.at(pop.pay, eu, od.pay_u[out])
    np.add.at(pop.pay, ev, od.pay_v[out])
    od.paid += (eu, ev)


def settle_around(pop: Population, centres, pos=None) -> None:
    """Settle every edge an event at any of ``centres`` reads, in one settle.

    That is every edge of every neighbour of a centre, which includes the
    centres' own edges. Afterwards a settle of any centre or neighbour alone
    returns at once until the clock moves. ``pos``, the centres' CSR
    positions from :func:`_rows`, spares a caller that has them computing
    them again. A no-op on the dense path.
    """
    od = pop._on_demand
    if od is None:
        return
    indptr, nbr, _ = pop.net.csr()
    settle(pop, _gather(nbr, indptr, centres) if pos is None else nbr[pos])
    od.marked[centres] = pop.clock - od.full


# Up to this many nodes are handled one at a time, more in one vectorised
# pass whose fixed cost only more nodes repay: CSR rows gathered here, a
# death-birth step's events (evolution.moran_event), and the events of the
# live replicates of a lockstep, one node each (evolution.run_replicates).
# On BA(20000, 2), 2 nodes cost ~5 µs by slices and ~10 µs vectorised, 4 to
# 8 nodes about the same either way, and the 68 neighbours of one 20-death
# step ~78 µs by slices and ~16 µs vectorised. The events of 2 deaths cost
# ~30 µs one at a time and ~65 µs batched, of 6 to 8 deaths about the same
# either way, and of 20 deaths ~370 µs one at a time and ~130 µs batched.
# Per replicate-step of a whole run on n = 200 (2-core host whose speed
# drifted ~40% between runs; µs, one at a time -> one pass): death-birth on
# BA m=2 breaks even near 5 live replicates (4: 21.4 -> 23.8, 8: 17.8 ->
# 15.5, 16: 20.9 -> 14.9), adoption on BA m=1 near 10 (4: 17.1 -> 21.1,
# 8: 16.2 -> 18.1, 10: 14.4 -> 13.7, 12: 15.3 -> 14.3).
_FEW_NODES = 8


def _gather(values: np.ndarray, indptr: np.ndarray, nodes) -> np.ndarray:
    """``values[indptr[v] : indptr[v + 1]]`` for each v in ``nodes``, concatenated."""
    if len(nodes) <= _FEW_NODES:
        return np.concatenate([values[:0], *(values[indptr[v] : indptr[v + 1]] for v in nodes)])
    return values[_rows(indptr, np.asarray(nodes))[0]]


def _rows(indptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR positions of the rows of ``nodes``, concatenated, and each row's length."""
    lo = indptr[nodes]
    count = indptr[nodes + 1] - lo
    # position i of the result is lo[j] + (i - start of node j's run)
    pos = (lo - count.cumsum() + count).repeat(count)
    pos += np.arange(len(pos))
    return pos, count


def _settle_all(pop: Population, od: _OnDemand) -> None:
    """Every edge up to the clock, in the network's round buffers."""
    lag = pop.clock - od.full
    if lag == 0:
        return
    played = np.flatnonzero(od.settled == lag)  # by events this step; left as is
    mem = pop.mem
    num_e = len(mem)
    draws, prob, coop, idx = pop._buffers
    u, below = draws[:num_e], coop[:num_e]
    np.subtract(lag, od.settled, out=idx, dtype=np.intp)  # g = 0 reads P^0, keeps mem
    idx *= od.rows
    idx += pop._code
    idx += mem
    od.rng.random(out=u)
    mem[:] = 0
    for cum in od.jump:
        cum.take(idx, out=prob, mode="clip")
        np.less_equal(prob, u, out=below)
        np.add(mem, below.view(np.int8), out=mem)
    np.copyto(idx, mem)
    od.pay_u.take(idx, out=prob, mode="clip")
    prob[played] = 0.0
    pop.pay += np.bincount(pop._eu, weights=prob, minlength=pop.n)
    od.pay_v.take(idx, out=prob, mode="clip")
    prob[played] = 0.0
    pop.pay += np.bincount(pop._ev, weights=prob, minlength=pop.n)
    od.settled[:] = 0
    od.marked[:] = 0
    od.full = pop.clock
    od.paid.append(slice(None))
