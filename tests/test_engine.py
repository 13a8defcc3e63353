import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from netgames.engine import (
    UNPLAYED,
    IsolatedNode,
    Lockstep,
    Population,
    class_mean_degrees,
    init_hubs,
    init_random,
    on_demand,
    play_step,
    reset_node,
    set_strategy,
    settle,
    settle_around,
    tick,
)
import netgames.engine as engine
from netgames.experiments import derive_seed
from netgames.networks import Network, barabasi_albert, regular_random
from netgames.pairchain import expected_payoffs, pair_transition
from netgames.strategies import (
    CATALOG,
    CATALOG_NAMES,
    DEFAULT_MATRIX,
    Outcome,
    named_strategy,
    round_payoffs,
)

from conftest import connected_graphs, memory_one_strategies, payoff_matrices

M = DEFAULT_MATRIX
ZD = named_strategy("zd_default")
PAVLOV = named_strategy("pavlov")
COOPERATOR = named_strategy("cooperator")
DEFECTOR = named_strategy("defector")


def two_node_pop(a, b):
    net = Network(2, [(0, 1)])
    return Population(net, (a, b), np.array([0, 1]))


class TestInit:
    def test_random_exact_count(self):
        net = regular_random(1000, 8, seed=1)
        pop = init_random(net, ZD, PAVLOV, 0.6, seed=2)
        assert int((pop.strat == 0).sum()) == 600
        assert pop.counts.tolist() == [600, 400]
        assert np.all(pop.pay == 0.0)
        assert np.all(pop.mem == UNPLAYED)

    @pytest.mark.parametrize("frac,expected", [(0.0, 0), (1.0, 50)])
    def test_random_homogeneous(self, frac, expected):
        net = regular_random(50, 4, seed=3)
        pop = init_random(net, ZD, PAVLOV, frac, seed=4)
        assert int((pop.strat == 0).sum()) == expected

    def test_random_is_seeded(self):
        net = regular_random(100, 4, seed=5)
        a = init_random(net, ZD, PAVLOV, 0.5, seed=6)
        b = init_random(net, ZD, PAVLOV, 0.5, seed=6)
        c = init_random(net, ZD, PAVLOV, 0.5, seed=7)
        assert np.array_equal(a.strat, b.strat)
        assert not np.array_equal(a.strat, c.strat)

    def test_hubs_on_star(self):
        net = Network(5, [(0, i) for i in range(1, 5)])
        pop = init_hubs(net, ZD, PAVLOV, 1 / 5, seed=8)
        assert pop.strat[0] == 0
        assert np.all(pop.strat[1:] == 1)

    def test_hubs_class_degree_ordering(self):
        net = barabasi_albert(1000, 1, seed=9)
        pop = init_hubs(net, ZD, PAVLOV, 0.6, seed=10)
        deg_hub, deg_rest = class_mean_degrees(pop)
        assert deg_hub > deg_rest

    def test_fraction_out_of_range(self):
        net = regular_random(10, 2, seed=11)
        with pytest.raises(ValueError):
            init_random(net, ZD, PAVLOV, 1.5, seed=1)
        with pytest.raises(ValueError):
            init_hubs(net, ZD, PAVLOV, -0.1, seed=1)


class TestPlayStep:
    def test_first_round_is_unconditioned(self):
        # fresh memory plays a fair coin regardless of strategy: over many
        # seeded first steps all four outcomes appear roughly uniformly
        counts = np.zeros(4)
        for seed in range(400):
            pop = two_node_pop(COOPERATOR, COOPERATOR)
            play_step(pop, M, np.random.default_rng(seed))
            counts[pop.mem[0]] += 1
        assert counts.min() > 60  # each ~100 expected

    def test_cooperators_settle_into_mutual_cooperation(self):
        pop = two_node_pop(COOPERATOR, COOPERATOR)
        rng = np.random.default_rng(12)
        play_step(pop, M, rng)  # unconditioned first round
        before = pop.pay.copy()
        play_step(pop, M, rng)
        assert pop.mem[0] == Outcome.CC
        assert np.allclose(pop.pay - before, [M.r, M.r])

    def test_defector_population_earns_punishment_rate(self):
        net = regular_random(30, 4, seed=13)
        pop = Population(net, (DEFECTOR,), np.zeros(30, dtype=int))
        rng = np.random.default_rng(14)
        play_step(pop, M, rng)  # coin-flip round
        for _ in range(3):
            before = pop.pay.copy()
            play_step(pop, M, rng)
            assert np.allclose(pop.pay - before, M.p * net.degrees)

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25)
    def test_per_edge_conservation(self, net, seed):
        # each edge contributes exactly one outcome's payoff pair per step
        strategies = (ZD, PAVLOV)
        rng = np.random.default_rng(seed)
        pop = Population(net, strategies, rng.integers(0, 2, size=net.n))
        before = pop.pay.copy()
        play_step(pop, M, rng)
        delta = pop.pay - before
        expect = np.zeros(net.n)
        for eid, (u, v) in enumerate(net.edges):
            mine, theirs = round_payoffs(Outcome(int(pop.mem[eid])), M)
            expect[u] += mine
            expect[v] += theirs
        assert np.array_equal(delta, expect)

    def test_seed_determinism(self):
        net = regular_random(60, 4, seed=15)
        pops = []
        for _ in range(2):
            pop = init_random(net, ZD, PAVLOV, 0.5, seed=16)
            rng = np.random.default_rng(17)
            for _ in range(50):
                play_step(pop, M, rng)
            pops.append(pop)
        assert np.array_equal(pops[0].pay, pops[1].pay)
        assert np.array_equal(pops[0].mem, pops[1].mem)

    def test_single_edge_long_run_matches_pinned_payoff(self):
        pop = two_node_pop(ZD, PAVLOV)
        rng = np.random.default_rng(18)
        steps = 150_000
        for _ in range(steps):
            play_step(pop, M, rng)
        assert abs(pop.pay[1] / steps - 2.0) < 0.05  # opponent pinned by the zd side

    def test_all_catalog_pairs_match_analytic_payoffs(self):
        # many disjoint edges = independent chains, started from a balanced mix
        # of the four outcomes (the analytic computation's uniform start);
        # per-round class means must agree with it within 0.05. Stratifying the
        # starts matters: for deterministic pairs the start decides the whole
        # trajectory, so a random first round would not average out over time.
        names = CATALOG_NAMES
        copies, steps = 200, 3000
        net = Network(2 * copies, [(2 * i, 2 * i + 1) for i in range(copies)])
        for i, na in enumerate(names):
            for j in range(i, len(names)):
                nb = names[j]
                a, b = CATALOG[na], CATALOG[nb]
                strat = np.tile([0, 1], copies)
                pop = Population(net, (a, b), strat)
                pop.mem[:] = np.tile([0, 1, 2, 3], copies // 4)
                rng = np.random.default_rng(derive_seed(i, j))
                for _ in range(steps):
                    play_step(pop, M, rng)
                got_a = pop.pay[strat == 0].sum() / (copies * steps)
                got_b = pop.pay[strat == 1].sum() / (copies * steps)
                want = expected_payoffs(a, b, M)
                assert abs(got_a - want.e_ab) < 0.05, (na, nb)
                assert abs(got_b - want.e_ba) < 0.05, (na, nb)


_REF_SWAP = np.array([0, 2, 1, 3, 4], dtype=np.int8)


def dense_round_reference(pop, m, rng):
    """The edge round as first written, with fresh temporaries every call.

    The buffered play_step must match it bit for bit: same draws, same
    memories, same payoff sums.
    """
    eu, ev, mem = pop.net.edges[:, 0], pop.net.edges[:, 1], pop.mem
    coop = np.array([[s.p1, s.p2, s.p3, s.p4, 0.5] for s in pop.strategies])
    pu = coop[pop.strat[eu], mem]
    pv = coop[pop.strat[ev], _REF_SWAP[mem]]
    num_e = len(mem)
    cu = rng.random(num_e) < pu
    cv = rng.random(num_e) < pv
    new = 2 * (~cu) + (~cv)  # 0..3 outcome from the lower endpoint's perspective
    pay_u = np.array([m.r, m.s, m.t, m.p])[new]
    pay_v = np.array([m.r, m.t, m.s, m.p])[new]
    pop.pay += np.bincount(eu, weights=pay_u, minlength=pop.n)
    pop.pay += np.bincount(ev, weights=pay_v, minlength=pop.n)
    mem[:] = new


class TestReferenceEquivalence:
    @given(
        connected_graphs(),
        # catalog entries add deterministic 0/1 cooperation probabilities
        st.lists(
            st.one_of(memory_one_strategies(), st.sampled_from(sorted(CATALOG.values(), key=str))),
            min_size=1,
            max_size=3,
        ),
        payoff_matrices(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40)
    def test_matches_dense_reference_through_strategy_changes(self, net, table, m, seed):
        k = len(table)
        events = np.random.default_rng(seed)
        strat = events.integers(0, k, size=net.n)
        pop = Population(net, table, strat)
        ref = Population(net, table, strat.copy())
        rng_pop = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        for _ in range(60):
            play_step(pop, m, rng_pop)
            dense_round_reference(ref, m, rng_ref)
            assert np.array_equal(pop.mem, ref.mem)
            assert np.array_equal(pop.pay, ref.pay)
            for _ in range(int(events.integers(0, 4))):
                node, new = int(events.integers(net.n)), int(events.integers(k))
                reset = events.random() < 0.5
                for p in (pop, ref):
                    set_strategy(p, node, new)
                    if reset:
                        reset_node(p, node)
            if events.random() < 0.1:
                pop.pay[:] = 0.0
                ref.pay[:] = 0.0
        assert np.array_equal(pop.counts, ref.counts)

    def test_populations_sharing_a_network_do_not_interfere(self):
        net = barabasi_albert(300, 2, seed=21)
        alone = [init_random(net, ZD, PAVLOV, 0.5, seed=s) for s in (22, 23)]
        for pop, seed in zip(alone, (24, 25)):
            rng = np.random.default_rng(seed)
            for _ in range(30):
                play_step(pop, M, rng)
        shared = [init_random(net, ZD, PAVLOV, 0.5, seed=s) for s in (22, 23)]
        rngs = [np.random.default_rng(s) for s in (24, 25)]
        for _ in range(30):
            for pop, rng in zip(shared, rngs):
                play_step(pop, M, rng)
        for a, b in zip(alone, shared):
            assert np.array_equal(a.mem, b.mem)
            assert np.array_equal(a.pay, b.pay)


class TestLockstep:
    @pytest.mark.parametrize("e", [1, 7, 199, 800])
    def test_two_draws_give_the_numbers_of_one(self, e):
        # a lockstep fills a member's u and v draws by two calls; a round of
        # the member alone fills them by one
        split, whole = np.random.default_rng(31), np.random.default_rng(31)
        out = np.empty(2 * e)
        split.random(out=out[:e])
        split.random(out=out[e:])
        assert out.tobytes() == whole.random(2 * e).tobytes()
        assert split.bit_generator.state == whole.bit_generator.state

    def _members(self):
        nets = [barabasi_albert(50, 1, seed=32), regular_random(40, 4, seed=33),
                barabasi_albert(60, 2, seed=34)]
        return [init_random(net, ZD, PAVLOV, 0.5, seed=35 + i) for i, net in enumerate(nets)]

    def test_round_matches_solo_rounds(self):
        solo, members = self._members(), self._members()
        solo_rngs = [np.random.default_rng(40 + i) for i in range(3)]
        rngs = [np.random.default_rng(40 + i) for i in range(3)]
        lockstep = Lockstep(zip(members, rngs))
        events = np.random.default_rng(41)
        for step in range(40):
            if step == 20:  # drop the middle member: the rest move up
                dropped = members[1]
                lockstep.release()
                lockstep = Lockstep([(members[0], rngs[0]), (members[2], rngs[2])])
                kept_pay, kept_mem = dropped.pay.copy(), dropped.mem.copy()
            live = [0, 2] if step >= 20 else [0, 1, 2]
            lockstep.pay[:] = 0.0
            play_step(lockstep, M, lockstep)
            for i in live:
                solo[i].pay[:] = 0.0
                play_step(solo[i], M, solo_rngs[i])
                assert members[i].mem.tobytes() == solo[i].mem.tobytes()
                assert members[i].pay.tobytes() == solo[i].pay.tobytes()
                assert rngs[i].bit_generator.state == solo_rngs[i].bit_generator.state
                # an event on a member writes through its views
                node = int(events.integers(solo[i].n))
                for pop in (solo[i], members[i]):
                    set_strategy(pop, node, 1 - int(pop.strat[node]))
                    reset_node(pop, node)
        # the dropped member kept its own copies, untouched by later rounds
        assert dropped.pay.tobytes() == kept_pay.tobytes()
        assert dropped.mem.tobytes() == kept_mem.tobytes()
        assert lockstep.net.num_edges == members[0].net.num_edges + members[2].net.num_edges

    def test_union_rows_are_each_members_offset(self):
        members = self._members()
        lockstep = Lockstep((pop, np.random.default_rng(45)) for pop in members)
        indptr, nbr, eid = lockstep.net.csr()
        first_edge = 0
        for pop, first in zip(members, lockstep.first.tolist()):
            p_indptr, p_nbr, p_eid = pop.net.csr()
            lo, hi = indptr[first], indptr[first + pop.n]
            assert (indptr[first : first + pop.n + 1] - lo).tolist() == p_indptr.tolist()
            assert (nbr[lo:hi] - first).tolist() == p_nbr.tolist()
            assert (eid[lo:hi] - first_edge).tolist() == p_eid.tolist()
            first_edge += pop.net.num_edges
        assert first_edge == lockstep.net.num_edges

    def test_members_need_one_strategy_table(self):
        net = barabasi_albert(30, 1, seed=42)
        pops = [init_random(net, ZD, PAVLOV, 0.5, seed=43), init_random(net, PAVLOV, ZD, 0.5, seed=43)]
        with pytest.raises(ValueError, match="strategy table"):
            Lockstep((pop, np.random.default_rng(44)) for pop in pops)


# chi-square 0.999 quantiles by degrees of freedom: each check wrongly fails
# a correct sampler with probability 0.001 (alpha)
_CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467}


def assert_drawn_from(states, row):
    """The states are a sample of the distribution ``row`` over the 5 states."""
    counts = np.bincount(states, minlength=len(row))
    assert np.all(counts[row == 0] == 0), (counts, row)
    live = row > 0
    if live.sum() > 1:
        expected = len(states) * row[live]
        stat = float(((counts[live] - expected) ** 2 / expected).sum())
        assert stat < _CHI2_999[int(live.sum()) - 1], (counts, row)


class TestOnDemand:
    # pairs: mixed stochastic, periodic deterministic (TFT-TFT swaps CD and DC,
    # Pavlov-defector alternates CD and DD), and one reducible to CC
    @pytest.mark.parametrize("na,nb", [
        ("zd_default", "pavlov"),
        ("tit_for_tat", "tit_for_tat"),
        ("pavlov", "defector"),
        ("general_cooperator", "tit_for_tat"),
    ])
    @pytest.mark.parametrize("start", [0, 1, 2, 3, UNPLAYED])
    @pytest.mark.parametrize("gap", [1, 3, 128, 301])
    def test_jump_outcome_follows_power_row(self, na, nb, start, gap):
        # disjoint edges are independent chains; half are settled through their
        # nodes, the other half by the full settle on leaving the block. Gap 301
        # passes the jump table's end, so the clock settles on its way there.
        a, b = CATALOG[na], CATALOG[nb]
        copies = 4000
        net = Network(2 * copies, [(2 * i, 2 * i + 1) for i in range(copies)])
        pop = Population(net, (a, b), np.tile([0, 1], copies))
        pop.mem[:] = start
        half = copies // 2
        rng = np.random.default_rng(derive_seed(CATALOG_NAMES.index(na), start, gap))
        with on_demand(pop, M, rng):
            for _ in range(gap):
                tick(pop)
            settle(pop, np.arange(0, copies, 2))
        row = np.linalg.matrix_power(pair_transition(a, b), gap)[start]
        assert_drawn_from(pop.mem[:half], row)
        assert_drawn_from(pop.mem[half:], row)
        pay_u, pay_v = M.outcome_payoffs
        assert np.array_equal(pop.pay[0::2], pay_u[pop.mem])
        assert np.array_equal(pop.pay[1::2], pay_v[pop.mem])

    def test_strategy_change_and_reset_settle_the_old_rounds_first(self):
        pop = two_node_pop(COOPERATOR, DEFECTOR)
        pop.mem[:] = Outcome.CC
        with on_demand(pop, M, np.random.default_rng(26)):
            for _ in range(5):
                tick(pop)
            set_strategy(pop, 1, 0)  # step 5 is still played cooperator vs defector
            assert pop.mem[0] == Outcome.CD
            assert pop.pay.tolist() == [0.0, 5.0]
            for _ in range(5):
                tick(pop)
            reset_node(pop, 0)
            assert pop.mem[0] == UNPLAYED
            assert pop.pay.tolist() == [0.0, 3.0]
            tick(pop)
        assert pop.mem[0] != UNPLAYED  # leaving the block played step 11

    def test_edges_shared_by_settled_nodes_play_once(self):
        net = Network(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        pop = Population(net, (COOPERATOR,), np.zeros(4, dtype=int))
        pop.mem[:] = Outcome.CC
        with on_demand(pop, M, np.random.default_rng(30)):
            tick(pop)
            settle(pop, (0, 1, 2))
            assert pop.pay.tolist() == [6.0, 6.0, 9.0, 3.0]

    def test_a_lone_settle_draws_like_a_settle_of_many(self):
        # node 2 has lower and higher neighbours, and leaf 4 adds no edge of
        # its own, so both settles play the same edges from the same stream
        net = Network(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)])
        after = []
        for nodes in ((2,), (2, 4)):
            pop = Population(net, (ZD, PAVLOV), np.array([0, 1, 0, 1, 1]))
            pop.mem[:] = [0, 1, 2, 3, UNPLAYED]
            rng = np.random.default_rng(35)
            with on_demand(pop, M, rng):
                for _ in range(3):
                    tick(pop)
                settle(pop, nodes)
                after.append((pop.mem.tolist(), pop.pay.tolist(), rng.bit_generator.state))
        assert after[0] == after[1]

    @given(connected_graphs(), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_marked_nodes_have_every_edge_settled(self, net, seed):
        # the mark lets a lone settle return at once, so it must never claim
        # an edge is settled that is not, through ticks, full settles,
        # strategy changes and resets; settle_around covers every edge of
        # every neighbour of its centres
        events = np.random.default_rng(seed)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=seed + 1)
        indptr, nbr, eid = net.csr()
        with on_demand(pop, M, np.random.default_rng(seed + 2)):
            od = pop._on_demand
            for _ in range(300):
                lag = pop.clock - od.full
                op = int(events.integers(6))
                nodes = events.integers(net.n, size=int(events.integers(1, 12)))
                if op == 0:
                    tick(pop)
                elif op == 1:
                    settle(pop, nodes)
                elif op == 2:
                    settle(pop, (int(nodes[0]),))
                elif op == 3:
                    settle_around(pop, nodes)
                    for x in nodes:
                        for v in nbr[indptr[x] : indptr[x + 1]]:
                            assert np.all(od.settled[eid[indptr[v] : indptr[v + 1]]] == lag)
                elif op == 4:
                    set_strategy(pop, int(nodes[0]), int(events.integers(2)))
                else:
                    reset_node(pop, int(nodes[0]))
                if events.random() < 0.02:
                    settle(pop)
                lag = pop.clock - od.full
                for v in np.flatnonzero(od.marked == lag):
                    assert np.all(od.settled[eid[indptr[v] : indptr[v + 1]]] == lag)

    def test_settle_around_leaves_nothing_for_the_event_to_play(self):
        net = barabasi_albert(200, 2, seed=31)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=32)
        rng = np.random.default_rng(33)
        with on_demand(pop, M, rng):
            for _ in range(3):
                tick(pop)
            deaths = np.array([0, 5, 17, 5])
            settle_around(pop, deaths)
            state = rng.bit_generator.state
            for x in deaths.tolist():
                set_strategy(pop, x, 1 - int(pop.strat[x]))
                reset_node(pop, x)
            assert rng.bit_generator.state == state
            tick(pop)
            set_strategy(pop, 0, 1 - int(pop.strat[0]))  # the clock moved: plays
            assert rng.bit_generator.state != state

    @pytest.mark.parametrize("size", [0, 1, 2, 8, 9, 40, 300])
    def test_gather_by_slices_and_vectorised_agree(self, monkeypatch, size):
        net = barabasi_albert(300, 2, seed=34)
        indptr, nbr, eid = net.csr()
        nodes = np.random.default_rng(size).integers(net.n, size=size)  # repeats too
        got = []
        for few in (0, 10_000):
            monkeypatch.setattr(engine, "_FEW_NODES", few)
            got.append(engine._gather(eid, indptr, nodes))
        expected = np.concatenate([eid[indptr[v] : indptr[v + 1]] for v in nodes] or [eid[:0]])
        for g in got:
            assert g.dtype == eid.dtype
            assert np.array_equal(g, expected)

    def test_settle_around_is_a_noop_on_the_dense_path(self):
        net = barabasi_albert(50, 2, seed=27)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=28)
        rng = np.random.default_rng(29)
        play_step(pop, M, rng)
        mem, pay, state = pop.mem.copy(), pop.pay.copy(), rng.bit_generator.state
        settle_around(pop, np.array([0, 1, 2]))
        assert np.array_equal(pop.mem, mem)
        assert np.array_equal(pop.pay, pay)
        assert rng.bit_generator.state == state

    def test_settle_is_a_noop_on_the_dense_path(self):
        net = barabasi_albert(50, 2, seed=27)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=28)
        rng = np.random.default_rng(29)
        play_step(pop, M, rng)
        mem, pay, state = pop.mem.copy(), pop.pay.copy(), rng.bit_generator.state
        settle(pop)
        settle(pop, (0, 1, 2))
        assert np.array_equal(pop.mem, mem)
        assert np.array_equal(pop.pay, pay)
        assert rng.bit_generator.state == state


class TestFitnessAndReset:
    def test_isolated_node_rejected(self):
        # refused where the population is built, so no event can draw it
        net = Network(3, [(0, 1)])
        with pytest.raises(IsolatedNode, match="^node 2 has no neighbors$"):
            Population(net, (ZD,), np.zeros(3, dtype=int))

    def test_isolated_node_rejected_on_demand(self):
        # both initialisers build through Population, so no run, dense or
        # on demand, can start with a node that has nothing to settle
        net = Network(3, [(0, 1)])
        with pytest.raises(IsolatedNode, match="^node 2 has no neighbors$"):
            init_random(net, ZD, PAVLOV, 0.5, seed=0)
        with pytest.raises(IsolatedNode, match="^node 2 has no neighbors$"):
            init_hubs(net, ZD, PAVLOV, 0.5, seed=0)

    def test_reset_clears_payoff_and_incident_memory_only(self):
        net = Network(4, [(0, 1), (1, 2), (2, 3)])
        pop = Population(net, (COOPERATOR,), np.zeros(4, dtype=int))
        rng = np.random.default_rng(20)
        play_step(pop, M, rng)
        play_step(pop, M, rng)
        neighbor_pay = pop.pay[[0, 2, 3]].copy()
        far_memory = pop.mem[2]
        reset_node(pop, 1)
        assert pop.pay[1] == 0.0
        assert np.array_equal(pop.pay[[0, 2, 3]], neighbor_pay)
        assert pop.mem[0] == UNPLAYED and pop.mem[1] == UNPLAYED
        assert pop.mem[2] == far_memory

    def test_set_strategy_updates_counts(self):
        pop = two_node_pop(ZD, PAVLOV)
        set_strategy(pop, 1, 0)
        assert pop.counts.tolist() == [2, 0]
        set_strategy(pop, 1, 0)  # no-op
        assert pop.counts.tolist() == [2, 0]

