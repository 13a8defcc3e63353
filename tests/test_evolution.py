import errno
import itertools
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import netgames.evolution as evolution
import netgames.engine as engine
from netgames import experiments, networks
from netgames.engine import (
    UNPLAYED,
    IsolatedNode,
    Population,
    init_random,
    on_demand,
    play_step,
    settle_around,
    tick,
)
from netgames.evolution import (
    AdoptionConfig,
    MoranConfig,
    adoption_event,
    adoption_probability,
    moran_event,
    run,
    run_replicates,
    uses_on_demand,
    write_run_csv,
    _select_neighbor,
)
from netgames.networks import Network, barabasi_albert, complete_graph, regular_random
from netgames.strategies import DEFAULT_MATRIX, PayoffMatrix, named_strategy

from conftest import connected_graphs

M = DEFAULT_MATRIX
ZD = named_strategy("zd_default")
PAVLOV = named_strategy("pavlov")
COOPERATOR = named_strategy("cooperator")
DEFECTOR = named_strategy("defector")

D_ZD_PAVLOV = 5.0 / 11.0  # |E(zd, pavlov) - E(pavlov, zd)| = 27/11 - 22/11


@st.composite
def death_steps(draw):
    """A connected graph, tree or star, a step's deaths on it, and a seed.

    Each death is a uniform node, a repeat of an earlier death, a neighbour
    of one, or the top hub, so steps hold every conflict batching must see.
    """
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    shape = draw(st.sampled_from(("graph", "tree", "star")))
    if shape == "graph":
        net = draw(connected_graphs(min_n=2))
    else:
        n = draw(st.integers(min_value=2, max_value=20))
        net = Network(n, [(0 if shape == "star" else int(rng.integers(v)), v) for v in range(1, n)])
    indptr, nbr, _ = net.csr()
    deaths = [int(rng.integers(net.n))]
    for _ in range(int(rng.integers(1, 3 * net.n))):
        kind = rng.integers(4)
        x = deaths[int(rng.integers(len(deaths)))]
        if kind == 0:
            x = int(rng.integers(net.n))
        elif kind == 1:
            x = int(nbr[rng.integers(indptr[x], indptr[x + 1])])
        elif kind == 2:
            x = int(net.degrees.argmax())
        deaths.append(x)
    return net, np.array(deaths), seed


class TestConfigs:
    def test_moran_events_per_step(self):
        assert MoranConfig(0.001).events_per_step(1000) == 1
        assert MoranConfig(0.01).events_per_step(1000) == 10
        assert MoranConfig(0.001).events_per_step(200) == 1  # floor of one event

    def test_moran_rate_validated(self):
        with pytest.raises(ValueError):
            MoranConfig(0.0)
        with pytest.raises(ValueError):
            MoranConfig(1.5)

    def test_adoption_normalizer_for_zd_pavlov(self):
        cfg = AdoptionConfig.for_pair(ZD, PAVLOV, M)
        assert cfg.normalizer == pytest.approx(D_ZD_PAVLOV, abs=1e-12)
        assert cfg.effective_normalizer == pytest.approx(D_ZD_PAVLOV, abs=1e-12)
        assert cfg.fallback_normalizer == 5.0

    def test_tied_pair_uses_fallback(self):
        # tft-vs-pavlov expected payoffs tie exactly, so t - s takes over
        cfg = AdoptionConfig.for_pair(named_strategy("tit_for_tat"), PAVLOV, M)
        assert cfg.effective_normalizer == 5.0

    def test_self_pair_uses_fallback(self):
        cfg = AdoptionConfig.for_pair(PAVLOV, PAVLOV, M)
        assert cfg.effective_normalizer == 5.0


class TestAdoptionProbability:
    def test_large_gap_clamps_to_one(self):
        # unclamped value would be 6 / (3 * 5/11) = 4.4
        assert adoption_probability(4.0, 10.0, 3, 2, D_ZD_PAVLOV) == 1.0

    def test_graded_value(self):
        p = adoption_probability(4.0, 5.0, 3, 2, D_ZD_PAVLOV)
        assert p == pytest.approx(1.0 / (3 * D_ZD_PAVLOV))

    def test_zero_when_not_richer(self):
        assert adoption_probability(10.0, 10.0, 3, 2, D_ZD_PAVLOV) == 0.0
        assert adoption_probability(11.0, 10.0, 3, 2, D_ZD_PAVLOV) == 0.0

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0.01, max_value=10),
    )
    def test_always_a_probability(self, px, py, kx, ky, d):
        assert 0.0 <= adoption_probability(px, py, kx, ky, d) <= 1.0


class TestMoranEvent:
    def test_homogeneous_census_unchanged(self):
        net = regular_random(30, 4, seed=1)
        pop = init_random(net, ZD, PAVLOV, 1.0, seed=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            moran_event(pop, rng)
        assert pop.counts.tolist() == [30, 0]

    def test_replaced_node_copies_neighbor_and_resets(self):
        net = Network(2, [(0, 1)])
        pop = Population(net, (ZD, PAVLOV), np.array([0, 1]))
        pop.pay[:] = [3.0, 9.0]
        rng = np.random.default_rng(4)
        x, y = moran_event(pop, rng)
        assert {x, y} == {0, 1}
        assert pop.strat[x] == pop.strat[y]
        assert pop.pay[x] == 0.0

    def test_zero_fitness_falls_back_to_uniform(self):
        net = Network(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        pop = Population(net, (ZD,), np.zeros(5, dtype=int))
        rng = np.random.default_rng(5)
        picks = np.array([_select_neighbor(pop, 0, rng) for _ in range(2000)])
        counts = np.bincount(picks, minlength=5)[1:]
        assert counts.min() > 400  # ~500 each under uniform choice

    def test_selection_proportional_to_payoff_over_degree(self):
        net = Network(3, [(0, 1), (0, 2), (1, 2)])
        pop = Population(net, (ZD,), np.zeros(3, dtype=int))
        pop.pay[:] = [0.0, 30.0, 10.0]
        rng = np.random.default_rng(6)
        picks = np.array([_select_neighbor(pop, 0, rng) for _ in range(3000)])
        share = (picks == 1).mean()
        assert 0.7 < share < 0.8  # 30 vs 10 at equal degree: expect 3/4

    def test_topology_untouched(self):
        net = regular_random(20, 4, seed=7)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=8)
        edges_before = net.edges.copy()
        rng = np.random.default_rng(9)
        for _ in range(100):
            moran_event(pop, rng)
        assert np.array_equal(net.edges, edges_before)

    def test_batched_death_reads_earlier_death_payoff_and_strategy(self):
        # cooperators 1, 2, 4, 5 and defectors 0, 3 under fixed outcomes:
        # death 0 copies 2 (1 and 5 earn nothing); death 1 then sees 0 at
        # payoff 0, not its old 15, and copies 3; death 5, whose only
        # neighbour is 0, copies 0's new strategy. Reading 0's old payoff
        # would make death 1 copy 0 half the time, so 20 streams catch it.
        net = Network(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4)])
        deaths = [0, 1, 5]
        for seed, lazy in itertools.product(range(20), (False, True)):
            pop = Population(net, (COOPERATOR, DEFECTOR), np.array([1, 0, 0, 1, 0, 0]))
            pop.mem[:] = 0  # played before, so every move is fixed
            rng = np.random.default_rng(seed)
            with on_demand(pop, M, rng) if lazy else nullcontext():
                if lazy:
                    tick(pop)
                    settle_around(pop, np.array(deaths))
                else:
                    play_step(pop, M, rng)
                assert pop.pay.tolist() == [15.0, 0.0, 3.0, 5.0, 3.0, 0.0]
                picks = [(x, evolution._replace(pop, rng, x)) for x in deaths]
                assert picks == [(0, 2), (1, 3), (5, 0)], lazy
                assert pop.strat.tolist() == [0, 1, 0, 1, 0, 0], lazy

    def test_batched_death_draws_match_scalar_draws(self):
        # run() draws a step's deaths as one array on the on-demand path, and
        # a batch of deaths draws its parents' uniforms as one array; on
        # PCG64 each gives the numbers and end state of one draw per death,
        # so a one-death step draws what the per-event loop draws
        for seed in range(200):
            for n, k in ((30, 6), (1000, 1), (20_000, 20)):
                batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                assert batched.integers(n, size=k).tolist() == [
                    int(scalar.integers(n)) for _ in range(k)
                ]
                assert batched.bit_generator.state == scalar.bit_generator.state
                assert batched.random(k).tolist() == [scalar.random() for _ in range(k)]
                assert batched.bit_generator.state == scalar.bit_generator.state

    @given(death_steps(), st.booleans())
    @settings(max_examples=150)
    def test_batched_step_equals_one_event_per_death(self, step, lazy):
        # duplicates, neighbouring deaths, hubs and zero-fitness
        # neighbourhoods (a leaf whose hub died earlier in the step sees a
        # freshly reset payoff of 0) must leave every array and the stream
        # as one event per death in draw order leaves them
        net, deaths, seed = step
        after = []
        for batched in (False, True):
            pop = init_random(net, ZD, PAVLOV, 0.5, seed=seed)
            fill = np.random.default_rng(seed)
            pop.pay[:] = fill.normal(2.0, 3.0, net.n)  # some negative: fitness 0
            pop.pay[fill.random(net.n) < fill.choice([0.0, 0.5, 0.9, 1.0])] = 0.0
            pop.mem[:] = fill.integers(0, UNPLAYED + 1, net.num_edges)
            rng = np.random.default_rng(seed + 1)
            with on_demand(pop, M, rng) if lazy else nullcontext():
                if lazy:
                    tick(pop)
                    settle_around(pop, deaths)
                if batched:  # the batch itself, whatever the number of deaths
                    parents = evolution._replace_all(pop, rng, deaths).tolist()
                else:
                    parents = [evolution._replace(pop, rng, int(x)) for x in deaths]
                after.append((
                    parents, pop.strat.tolist(), pop.counts.tolist(), pop.pay.tobytes(),
                    pop.mem.tobytes(), pop._code.tobytes(), rng.bit_generator.state,
                ))
        assert after[0] == after[1]

    def test_batch_with_an_isolated_death_raises(self):
        # refused where the population is built, before any batch could draw it
        net = Network(4, [(0, 1), (1, 2)])
        with pytest.raises(IsolatedNode, match="^node 3 has no neighbors$"):
            Population(net, (ZD, PAVLOV), np.array([0, 1, 0, 1]))

    def test_batch_leaves_the_deaths_neighbourhoods_settled(self):
        net = barabasi_albert(300, 2, seed=70)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=71)
        rng = np.random.default_rng(72)
        indptr, nbr, eid = net.csr()
        with on_demand(pop, M, rng):
            od = pop._on_demand
            for _ in range(20):
                tick(pop)
                deaths = rng.integers(net.n, size=30)
                settle_around(pop, deaths)
                x, parents = moran_event(pop, rng, deaths)
                assert x.tolist() == deaths.tolist() and len(parents) == len(deaths)
                lag = pop.clock - od.full
                for v in engine._gather(nbr, indptr, deaths).tolist():
                    assert np.all(od.settled[eid[indptr[v] : indptr[v + 1]]] == lag)


class TestAdoptionEvent:
    def test_never_adopts_from_poorer_neighbor(self):
        net = Network(2, [(0, 1)])
        cfg = AdoptionConfig.for_pair(ZD, PAVLOV, M)
        rng = np.random.default_rng(10)
        for _ in range(200):
            pop = Population(net, (ZD, PAVLOV), np.array([0, 1]))
            pop.pay[:] = [10.0, 1.0]
            x, y, adopted = adoption_event(pop, cfg, rng)
            if x == 0:
                assert not adopted  # neighbor is poorer
                assert pop.strat[0] == 0

    def test_huge_gap_forces_adoption_and_reset(self):
        net = Network(2, [(0, 1)])
        cfg = AdoptionConfig.for_pair(COOPERATOR, DEFECTOR, M)
        rng = np.random.default_rng(11)
        adopted_any = False
        for _ in range(50):
            pop = Population(net, (COOPERATOR, DEFECTOR), np.array([0, 1]))
            pop.pay[:] = [0.0, 100.0]
            pop.mem[:] = 0
            x, y, adopted = adoption_event(pop, cfg, rng)
            if x == 0:
                adopted_any = True
                assert adopted and pop.strat[0] == 1
                assert pop.pay[0] == 0.0
                assert pop.mem[0] == 4  # incident memory forgotten
        assert adopted_any

    def test_extinction_is_absorbing(self):
        net = regular_random(20, 4, seed=12)
        pop = init_random(net, ZD, PAVLOV, 1.0, seed=13)
        cfg = AdoptionConfig.for_pair(ZD, PAVLOV, M)
        rng = np.random.default_rng(14)
        for _ in range(300):
            play_step(pop, M, rng)
            adoption_event(pop, cfg, rng)
        assert pop.counts.tolist() == [20, 0]


class TestRun:
    def test_steps_guard(self):
        net = regular_random(10, 2, seed=15)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=16)
        with pytest.raises(ValueError):
            run(pop, "moran", 0, M, MoranConfig(), seed=1)

    @pytest.mark.parametrize("sample_every", [0, -5])
    def test_sample_every_guard(self, sample_every):
        net = regular_random(10, 2, seed=15)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=16)
        with pytest.raises(ValueError, match="sample_every"):
            run(pop, "moran", 10, M, MoranConfig(), seed=1, sample_every=sample_every)

    def test_unknown_process(self):
        net = regular_random(10, 2, seed=15)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=16)
        with pytest.raises(ValueError):
            run(pop, "replicator", 10, M, MoranConfig(), seed=1)

    def test_mismatched_config(self):
        net = regular_random(10, 2, seed=15)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=16)
        with pytest.raises(TypeError):
            run(pop, "adoption", 10, M, MoranConfig(), seed=1)

    def test_homogeneous_start_is_flat(self):
        net = regular_random(20, 4, seed=17)
        pop = init_random(net, ZD, PAVLOV, 1.0, seed=18)
        rec = run(pop, "moran", 500, M, MoranConfig(), seed=19, sample_every=100)
        assert np.all(rec.frac_a == 1.0)
        assert rec.extinct_at == 0
        assert rec.final_fraction_a == 1.0

    def test_series_shape_and_final(self):
        net = regular_random(30, 4, seed=20)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=21)
        rec = run(pop, "moran", 250, M, MoranConfig(), seed=22, sample_every=100)
        assert rec.sample_steps.tolist() == [0, 100, 200, 250]
        assert len(rec.frac_a) == 4
        assert rec.final_fraction_a == rec.frac_a[-1]
        assert np.allclose(rec.frac_a + rec.frac_b, 1.0)

    def test_extinction_padding(self):
        # two nodes, one edge: extinction happens within a few adoption events
        net = Network(2, [(0, 1)])
        pop = Population(net, (COOPERATOR, DEFECTOR), np.array([0, 1]))
        cfg = AdoptionConfig.for_pair(COOPERATOR, DEFECTOR, M)
        rec = run(pop, "adoption", 2000, M, cfg, seed=23, sample_every=500)
        assert rec.extinct_at is not None
        assert rec.final_fraction_a in (0.0, 1.0)
        k = np.searchsorted(rec.sample_steps, rec.extinct_at, side="right")
        assert np.all(rec.frac_a[k:] == rec.final_fraction_a)
        assert np.all(np.isnan(rec.mean_pay_a[k:]) | (rec.frac_a[k:] > 0))

    def test_focal_index_flips_reporting(self):
        net = regular_random(20, 4, seed=24)
        pop = init_random(net, ZD, PAVLOV, 0.3, seed=25)
        rec = run(pop, "moran", 10, M, MoranConfig(), seed=26, focal_index=1)
        assert rec.label_a == "pavlov"
        assert rec.frac_a[0] == pytest.approx(0.7)

    def test_seed_determinism(self):
        recs = []
        for _ in range(2):
            net = regular_random(40, 4, seed=27)
            pop = init_random(net, ZD, PAVLOV, 0.5, seed=28)
            recs.append(run(pop, "adoption", 400, M,
                            AdoptionConfig.for_pair(ZD, PAVLOV, M), seed=29))
        assert np.array_equal(recs[0].frac_a, recs[1].frac_a)
        assert np.array_equal(
            np.nan_to_num(recs[0].mean_pay_a), np.nan_to_num(recs[1].mean_pay_a)
        )

    def test_csv_schema(self, tmp_path):
        net = regular_random(20, 4, seed=30)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=31)
        rec = run(pop, "moran", 100, M, MoranConfig(), seed=32, sample_every=50)
        path = tmp_path / "run.csv"
        write_run_csv(rec, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run_id,step,fraction_a,fraction_b,mean_payoff_a,mean_payoff_b"
        assert len(lines) == 1 + len(rec.sample_steps)

    def test_run_file_is_written_whole_or_not_at_all(self, tmp_path):
        # a good write leaves the run file alone; a record whose third row
        # cannot be formatted makes the writer fail midway, and then neither
        # the run file nor its temporary copy remains
        net = regular_random(20, 4, seed=30)
        pop = init_random(net, ZD, PAVLOV, 0.5, seed=31)
        rec = run(pop, "moran", 100, M, MoranConfig(), seed=32, sample_every=50)
        write_run_csv(rec, tmp_path / "good.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["good.csv"]
        rec.frac_a = rec.frac_a.astype(object)
        rec.frac_a[2] = "not a number"
        with pytest.raises(ValueError):
            write_run_csv(rec, tmp_path / "run.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["good.csv"]

        # every output writer, on a disk that fills up halfway through its
        # first write: the file it was writing is not left behind either
        rec.frac_a = rec.frac_b.copy()
        scenario = experiments.Scenario(name="whole")
        result = experiments.SweepResult(
            scenario=scenario, records=[rec], final_fractions=[0.5], mean_final=0.5,
            std_final=0.0, groups=[], correlation=None, out_dir=tmp_path,
        )
        writers = {
            "run.csv": lambda path: write_run_csv(rec, path),
            "aggregate.csv": lambda path: experiments._write_aggregate(path, [rec], [0.5], 1),
            "meta.txt": lambda path: experiments._write_meta(path, result),
            "network.edges": lambda path: networks.write_edgelist(net, path),
            "hist.csv": lambda path: networks.write_degree_histogram(net, path),
        }

        class DiskFull:
            def __init__(self, *args, **kwargs):
                self._fh = open(*args, **kwargs)

            def write(self, text):
                self._fh.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        for name, write in writers.items():
            good = tmp_path / "good" / name
            good.parent.mkdir(exist_ok=True)
            write(good)
            full = tmp_path / "full"
            full.mkdir(exist_ok=True)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(networks, "open", DiskFull, raising=False)
                with pytest.raises(OSError):
                    write(full / name)
            assert list(full.iterdir()) == [], name
        assert sorted(p.name for p in (tmp_path / "good").iterdir()) == sorted(writers)


class TestRunReplicates:
    def _pops(self, size):
        nets = [regular_random(30, 4, seed=50), barabasi_albert(30, 2, seed=51),
                regular_random(30, 4, seed=50), barabasi_albert(30, 1, seed=52)]
        return [init_random(nets[i % 4], ZD, PAVLOV, 0.5, seed=53 + i) for i in range(size)]

    # 4 replicates run their events one at a time; 12, more than
    # engine._FEW_NODES, in one pass over their lockstep until 4 are extinct
    @pytest.mark.parametrize("process,size", [
        pytest.param("moran", 4, id="moran"),
        pytest.param("adoption", 4, id="adoption"),
        pytest.param("moran", 12, id="moran-12"),
        pytest.param("adoption", 12, id="adoption-12"),
    ])
    def test_records_match_runs_alone(self, process, size):
        # replicates die at different steps, so a new lockstep is built
        # from the survivors mid-run
        cfg = MoranConfig(0.1) if process == "moran" else AdoptionConfig.for_pair(ZD, PAVLOV, M)
        seeds = range(60, 60 + size)
        alone = [run(pop, process, 600, M, cfg, seed, 50, run_id)
                 for run_id, (pop, seed) in enumerate(zip(self._pops(size), seeds))]
        pops = self._pops(size)
        together = run_replicates(pops, process, 600, M, cfg, seeds, range(size), 50)
        assert len({r.extinct_at for r in alone}) > 2
        for a, b, pop in zip(alone, together, pops):
            for name, x in vars(a).items():
                y = getattr(b, name)
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes(), name
                else:
                    assert x == y or (x != x and y != y), name

    def test_on_demand_path_takes_one_population(self, monkeypatch):
        monkeypatch.setattr(evolution, "ON_DEMAND_EDGES_PER_STEP", 0)
        with pytest.raises(ValueError, match="one population"):
            run_replicates(self._pops(4), "moran", 10, M, MoranConfig(), [1, 2, 3, 4], range(4))

    @pytest.mark.parametrize("case", ["passed-twice", "node-counts", "isolated-node"])
    def test_a_population_passed_twice_is_refused(self, case):
        pop = init_random(barabasi_albert(50, 2, seed=54), ZD, PAVLOV, 0.5, seed=55)
        if case == "passed-twice":
            # both entries would be one lockstep member's views, written twice a step
            other, error, match = pop, ValueError, "more than once"
        elif case == "node-counts":
            other = init_random(barabasi_albert(40, 2, seed=56), ZD, PAVLOV, 0.5, seed=57)
            error, match = ValueError, "node count: population 1 has 40, not 50"
        else:
            # refused where the population is built, so it never reaches a run
            net = Network(50, [(v, v + 1) for v in range(30)])
            with pytest.raises(IsolatedNode, match="^node 31 has no neighbors$"):
                init_random(net, ZD, PAVLOV, 1.0, seed=57)
            return
        with pytest.raises(error, match=match):
            run_replicates([pop, other], "moran", 300, M, MoranConfig(0.1), [5, 6], [0, 1])


class TestMemberPass:
    # More than engine._FEW_NODES live dense replicates run a step's events
    # as one pass over their lockstep. Three graph shapes on 30 nodes, 3
    # deaths a step each at rate 0.1. A negative sucker's payoff
    # lets a whole neighbourhood have fitness 0, whose parent is neighbour
    # floor(u * degree) of the one uniform u every death draws.
    NEG = PayoffMatrix(t=4.0, r=2.0, p=0.0, s=-1.0)

    def _pops(self, lonely=False):
        nets = [regular_random(30, 4, seed=80), barabasi_albert(30, 2, seed=81),
                barabasi_albert(30, 1, seed=82)]
        pops = [init_random(nets[i % 3], ZD, PAVLOV, 0.5, seed=83 + i) for i in range(12)]
        if lonely:  # the last member, a path but for nodes 6 to 9, which have no neighbours
            net = Network(30, [(v, v + 1) for v in [*range(5), *range(10, 29)]])
            pops[-1] = Population(net, (ZD, PAVLOV), np.arange(30) % 2)
        return pops

    def _cfg(self, process):
        if process == "moran":
            return MoranConfig(0.1)
        return AdoptionConfig.for_pair(ZD, PAVLOV, self.NEG)

    @pytest.mark.parametrize("process", ["moran", "adoption"])
    def test_pass_leaves_every_replicate_as_run_alone(self, monkeypatch, process):
        made = []  # each run's replicates, for their streams
        init = evolution._Replicate.__init__

        def keep(rep, *args):
            init(rep, *args)
            made.append(rep)

        monkeypatch.setattr(evolution._Replicate, "__init__", keep)
        seeds = range(90, 102)
        cfg = self._cfg(process)
        alone_pops = self._pops()
        alone = [run(pop, process, 400, self.NEG, cfg, seed, 20, i)
                 for i, (pop, seed) in enumerate(zip(alone_pops, seeds))]
        alone_rngs = [rep.rng for rep in made]
        made.clear()

        calls = {"pass": 0, "zero rows": 0, "one at a time": 0}
        member_pass = evolution._replace_rows if process == "moran" else evolution._adopt_members
        one_event = evolution.moran_event if process == "moran" else evolution.adoption_event

        def count_pass(*args):
            calls["pass"] += 1
            if process == "moran":  # rows whose neighbours all have fitness 0
                pop, _, _, _, deg, nb = args[:6]
                live = evolution._fitness(pop.pay, pop.net.degrees, nb) > 0.0
                calls["zero rows"] += int((~np.logical_or.reduceat(live, deg.cumsum() - deg)).sum())
            return member_pass(*args)

        def count_event(*args):
            calls["one at a time"] += 1
            return one_event(*args)

        monkeypatch.setattr(evolution, member_pass.__name__, count_pass)
        monkeypatch.setattr(evolution, one_event.__name__, count_event)
        pops = self._pops()
        together = run_replicates(pops, process, 400, self.NEG, cfg, seeds, range(12), 20)

        # staggered extinctions: the pass runs until the fourth, events one
        # at a time after it, and at least one replicate outlives both
        extinct = sorted(r.extinct_at for r in together if r.extinct_at is not None)
        assert len(set(extinct)) == len(extinct) >= 4
        assert calls["pass"] and calls["one at a time"]
        if process == "moran":
            assert calls["zero rows"]
        for a, b in zip(alone, together):
            for name, x in vars(a).items():
                y = getattr(b, name)
                if isinstance(x, np.ndarray):
                    assert x.tobytes() == y.tobytes(), name
                else:
                    assert x == y or (x != x and y != y), name
        for a, b, ra, rb in zip(alone_pops, pops, alone_rngs, [rep.rng for rep in made]):
            for name in ("strat", "counts", "pay", "mem", "_code"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
            assert ra.bit_generator.state == rb.bit_generator.state

    @pytest.mark.parametrize("process", ["moran", "adoption"])
    def test_isolated_node_named_by_its_members_index(self, process):
        # the lonely member, last of 12, is refused where it is built, so no
        # run of the 12 starts: its node is named by its own index, not by
        # its index in a lockstep of the members
        seeds = range(90, 102)
        with pytest.raises(IsolatedNode, match="^node 6 has no neighbors$") as refused:
            run_replicates(
                self._pops(lonely=True), process, 400, self.NEG, self._cfg(process), seeds, range(12)
            )
        assert refused.traceback[-1].frame.code.raw is Population.__init__.__code__


class TestNeutralDrift:
    def test_single_mutant_fixation_smoke(self):
        # neutral twin strategies on a small complete graph: the mutant lineage
        # should fix occasionally, at a rate loosely around 1/n
        n, trials = 12, 400
        net = complete_graph(n)
        twin_a, twin_b = DEFECTOR, named_strategy("defector")
        fixed = 0
        for trial in range(trials):
            strat = np.zeros(n, dtype=int)
            strat[0] = 1
            pop = Population(net, (twin_a, twin_b), strat)
            rng = np.random.default_rng(1000 + trial)
            for _ in range(20_000):
                pop.pay[:] = 0.0
                play_step(pop, M, rng)
                moran_event(pop, rng)
                if pop.counts[1] == 0 or pop.counts[0] == 0:
                    break
            fixed += pop.counts[1] == n
        rate = fixed / trials
        assert 0.02 < rate < 0.18  # 1/12 = 0.083 with generous slack


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: largest gap between the ECDFs."""
    grid = np.union1d(a, b)
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def ks_critical(n: int, m: int) -> float:
    """Asymptotic two-sample KS critical value at alpha = 0.01.

    Conservative for the discrete samples compared here (fractions over n,
    step counts), so each comparison wrongly fails with probability <= 0.01.
    """
    return 1.628 * np.sqrt((n + m) / (n * m))


def outcomes(monkeypatch, lazy, process, net, steps, seeds, rate=0.05, rival=PAVLOV, m=M):
    """Final fraction and extinction step (steps + 1 if none) of seeded runs."""
    monkeypatch.setattr(evolution, "ON_DEMAND_EDGES_PER_STEP", 0 if lazy else net.num_edges)
    assert uses_on_demand(net.num_edges, 50) is lazy
    if process == "moran":
        cfg = MoranConfig(rate)
    else:
        cfg = AdoptionConfig.for_pair(ZD, rival, m)
    final, extinct = [], []
    for s in seeds:
        pop = init_random(net, ZD, rival, 0.6, seed=experiments.derive_seed(s, 1))
        rec = run(pop, process, steps, m, cfg, experiments.derive_seed(s, 2), sample_every=50)
        final.append(rec.final_fraction_a)
        extinct.append(steps + 1 if rec.extinct_at is None else rec.extinct_at)
    return np.array(final), np.array(extinct)


def _select_by_integers(pop, x, rng):
    """:func:`_select_neighbor`, but a zero-fitness row draws integers(degree).

    A row with some fitness draws the fitness uniform as the program does;
    a row without draws a second kind of number in the uniform's place.
    """
    nbrs = evolution._neighbors(pop, x)
    c = evolution._fitness(pop.pay, pop.net.degrees, nbrs).cumsum()
    tot = c[-1]
    if tot <= 0.0:
        return int(nbrs[rng.integers(0, len(nbrs))])
    idx = int(c.searchsorted(rng.random() * tot, side="right"))
    if idx >= len(nbrs):
        idx = len(nbrs) - 1
    return int(nbrs[idx])


class TestZeroFitnessParent:
    # a death whose neighbours all have fitness 0 copies neighbour
    # floor(u * degree) of the one uniform u every death draws; a separate
    # integers(degree) draw samples the same process with other numbers, so
    # dense solo runs under each rule, on disjoint seeds, must give outcome
    # distributions that agree (KS, alpha = 0.01)
    def test_outcome_distributions_match_a_separate_integer_draw(self, monkeypatch):
        # a negative sucker's payoff and defectors that earn 0 among
        # themselves make whole neighbourhoods of fitness 0; on BA(30, 2)
        # each such row has at least two neighbours to choose from
        net = barabasi_albert(30, 2, seed=40)
        m = TestMemberPass.NEG
        count = {}

        def counted(select):
            def select_and_count(pop, x, rng):
                fit = evolution._fitness(pop.pay, pop.net.degrees, evolution._neighbors(pop, x))
                count["deaths"] += 1
                count["zero rows"] += not fit.any()
                return select(pop, x, rng)
            return select_and_count

        results = []
        for select, seeds in ((_select_neighbor, range(300)), (_select_by_integers, range(300, 600))):
            count.update({"deaths": 0, "zero rows": 0})
            monkeypatch.setattr(evolution, "_select_neighbor", counted(select))
            results.append(outcomes(monkeypatch, False, "moran", net, 150, seeds, 0.05, DEFECTOR, m))
            # 4,594 and 5,129 of ~78,000 deaths (6%): enough for the rule to matter
            assert count["zero rows"] > 3000, (select.__name__, count)
        for d, z in zip(*results):
            assert len(np.unique(d)) > 10  # spread enough for the test to bite
            assert ks_statistic(d, z) < ks_critical(len(d), len(z))


class TestOnDemandPath:
    # run() on and off the on-demand path: same process, different draws, so
    # the outcome distributions over 300 seeds must agree (KS, alpha = 0.01)
    # rate 0.05 on 30 nodes is 2 deaths per step, 0.2 is 6, often neighbours
    @pytest.mark.parametrize("process,m,steps,rate", [
        pytest.param("adoption", 1, 200, None, id="adoption-1-200"),
        pytest.param("moran", 2, 150, 0.05, id="moran-2-150"),
        pytest.param("moran", 2, 60, 0.2, id="moran-2-60-0.2"),
    ])
    def test_outcome_distributions_match_dense(self, monkeypatch, process, m, steps, rate):
        net = barabasi_albert(30, m, seed=40)
        seeds = range(300)
        dense = outcomes(monkeypatch, False, process, net, steps, seeds, rate)
        lazy = outcomes(monkeypatch, True, process, net, steps, seeds, rate)
        for d, z in zip(dense, lazy):
            assert len(np.unique(d)) > 10  # spread enough for the test to bite
            assert ks_statistic(d, z) < ks_critical(len(d), len(z))

    def test_every_death_reads_settled_payoffs(self, monkeypatch):
        # gadgets d - x - c: defectors d and x, and a cooperator c whose only
        # neighbour is x. Moves are fixed, so c earns nothing and the first
        # step's one death copies a defector wherever it falls. A death that
        # read this step's payoffs before they were played would see all
        # zeros, and at x copy c half the time.
        g = 10
        net = Network(3 * g, [(3 * i + 1, 3 * i + j) for i in range(g) for j in (0, 2)])
        strat = np.tile([1, 1, 0], g)
        for lazy in (False, True):
            monkeypatch.setattr(evolution, "ON_DEMAND_EDGES_PER_STEP", 0 if lazy else net.num_edges)
            assert uses_on_demand(net.num_edges, 2) is lazy
            for seed in range(50):
                pop = Population(net, (COOPERATOR, DEFECTOR), strat.copy())
                pop.mem[:] = 0  # played before, so every move is fixed
                run(pop, "moran", 1, M, MoranConfig(), seed=seed, sample_every=2)
                assert np.all(pop.strat[strat == 1] == 1), (lazy, seed)

    @pytest.mark.parametrize("rate", [0.01, 0.1, 1.0])
    def test_batched_steps_give_the_records_of_one_event_per_death(self, monkeypatch, rate):
        # run() hands moran_event a step's deaths at once, which it settles
        # around; the same run with one settle around them and one call per
        # death must give the same record and final population
        net = barabasi_albert(2000, 2, seed=44)
        assert uses_on_demand(net.num_edges, 5)
        batched = moran_event

        def one_by_one(pop, rng, x=None):
            settle_around(pop, x)
            for d in np.atleast_1d(x).tolist():
                evolution._replace(pop, rng, d)

        after = []
        for event in (one_by_one, batched):
            monkeypatch.setattr(evolution, "moran_event", event)
            pop = init_random(net, ZD, PAVLOV, 0.5, seed=45)
            rec = run(pop, "moran", 6, M, MoranConfig(rate), seed=46, sample_every=5)
            after.append(([getattr(rec, f).tobytes() for f in ("frac_a", "mean_pay_a", "mean_pay_b")],
                          pop.strat.tobytes(), pop.pay.tobytes(), pop.mem.tobytes()))
        assert after[0] == after[1]

    def test_run_returns_with_every_edge_settled(self, monkeypatch):
        # extinction ends the run between samples, so only run's own final
        # settle plays the last step; every node whose edges were not reset
        # then holds the payoffs of that step's outcomes
        monkeypatch.setattr(evolution, "ON_DEMAND_EDGES_PER_STEP", 0)
        net = barabasi_albert(40, 1, seed=41)
        pop = init_random(net, COOPERATOR, DEFECTOR, 0.5, seed=42)
        cfg = AdoptionConfig.for_pair(COOPERATOR, DEFECTOR, M)
        rec = run(pop, "adoption", 100_000, M, cfg, seed=43, sample_every=100_000)
        assert rec.extinct_at is not None and rec.extinct_at % 100_000 != 0
        assert pop.clock == rec.extinct_at and pop._on_demand is None
        indptr, _, eid = net.csr()
        pay_u, pay_v = M.outcome_payoffs
        checked = 0
        for v in range(net.n):
            e = eid[indptr[v] : indptr[v + 1]]
            if np.any(pop.mem[e] == UNPLAYED):
                continue
            own = np.where(net.edges[e, 0] == v, pay_u[pop.mem[e]], pay_v[pop.mem[e]])
            assert pop.pay[v] == pytest.approx(own.sum())
            checked += 1
        assert checked > net.n // 2

    def test_every_reduced_preset_takes_the_dense_path(self):
        for name in experiments.PRESET_NAMES:
            s = experiments.reduced_profile(experiments.preset(name))
            net, _ = experiments._build_network(s, 0, None, 0)  # rewiring keeps |E|
            assert not uses_on_demand(net.num_edges, s.sample_every), name

    def test_full_profile_presets_keep_their_paths(self):
        # one death a step at n = 1000, so charging a settle per step instead
        # of per event moves none of them: the 8-regular presets (|E| = 4000)
        # play on demand, the BA ones (|E| < 2000) densely
        lazy = set()
        for name in experiments.PRESET_NAMES:
            s = experiments.preset(name)
            net, _ = experiments._build_network(s, 0, None, 0)  # rewiring keeps |E|
            if uses_on_demand(net.num_edges, s.sample_every):
                lazy.add(name)
        assert lazy == {
            "fig1_wellmixed_moran",
            "fig1_wellmixed_moran_04",
            "fig3_wellmixed_adoption",
        }

    def test_path_choice_by_size(self):
        # the benchmark's scale runs: adoption on BA(20000, 1), death-birth
        # with 20 events per step on BA(20000, 2), both sampling every 100
        assert uses_on_demand(19_999, 100)
        assert uses_on_demand(39_997, 100)
        # a sample settles every edge: sampling every step pays that each step
        assert not uses_on_demand(19_999, 1)
        assert uses_on_demand(19_999, 2)
