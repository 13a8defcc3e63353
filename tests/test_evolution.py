import errno
import itertools
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import netgames.evolution as evolution
from netgames import experiments, networks
from netgames.engine import (
    UNPLAYED,
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
from netgames.strategies import DEFAULT_MATRIX, named_strategy

M = DEFAULT_MATRIX
ZD = named_strategy("zd_default")
PAVLOV = named_strategy("pavlov")
COOPERATOR = named_strategy("cooperator")
DEFECTOR = named_strategy("defector")

D_ZD_PAVLOV = 5.0 / 11.0  # |E(zd, pavlov) - E(pavlov, zd)| = 27/11 - 22/11


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
                picks = [moran_event(pop, rng, x) for x in deaths]
                assert picks == [(0, 2), (1, 3), (5, 0)], lazy
                assert pop.strat.tolist() == [0, 1, 0, 1, 0, 0], lazy

    def test_batched_death_draws_match_scalar_draws(self):
        # run() draws a step's deaths as one array on the on-demand path; on
        # PCG64 that gives the numbers and end state of one draw per death,
        # so a one-death step draws what the per-event loop draws
        for seed in range(200):
            for n, k in ((30, 6), (1000, 1), (20_000, 20)):
                batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                assert batched.integers(n, size=k).tolist() == [
                    int(scalar.integers(n)) for _ in range(k)
                ]
                assert batched.bit_generator.state == scalar.bit_generator.state


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
    def _pops(self):
        nets = [regular_random(30, 4, seed=50), barabasi_albert(24, 2, seed=51),
                regular_random(30, 4, seed=50), barabasi_albert(40, 1, seed=52)]
        return [init_random(net, ZD, PAVLOV, 0.5, seed=53 + i) for i, net in enumerate(nets)]

    @pytest.mark.parametrize("process", ["moran", "adoption"])
    def test_records_match_runs_alone(self, process):
        # networks of different sizes; replicates die at different steps,
        # so the lockstep is laid out again mid-run
        cfg = MoranConfig(0.1) if process == "moran" else AdoptionConfig.for_pair(ZD, PAVLOV, M)
        seeds = [60, 61, 62, 63]
        alone = [run(pop, process, 600, M, cfg, seed, 50, run_id)
                 for run_id, (pop, seed) in enumerate(zip(self._pops(), seeds))]
        pops = self._pops()
        together = run_replicates(pops, process, 600, M, cfg, seeds, range(4), 50)
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
            run_replicates(self._pops(), "moran", 10, M, MoranConfig(), [1, 2, 3, 4], range(4))


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


def outcomes(monkeypatch, lazy, process, net, steps, seeds, rate=0.05):
    """Final fraction and extinction step (steps + 1 if none) of seeded runs."""
    monkeypatch.setattr(evolution, "ON_DEMAND_EDGES_PER_STEP", 0 if lazy else net.num_edges)
    assert uses_on_demand(net.num_edges, 50) is lazy
    if process == "moran":
        cfg = MoranConfig(rate)
    else:
        cfg = AdoptionConfig.for_pair(ZD, PAVLOV, M)
    final, extinct = [], []
    for s in seeds:
        pop = init_random(net, ZD, PAVLOV, 0.6, seed=experiments.derive_seed(s, 1))
        rec = run(pop, process, steps, M, cfg, experiments.derive_seed(s, 2), sample_every=50)
        final.append(rec.final_fraction_a)
        extinct.append(steps + 1 if rec.extinct_at is None else rec.extinct_at)
    return np.array(final), np.array(extinct)


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
