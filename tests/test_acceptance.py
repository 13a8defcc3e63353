"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Runs at a reduced desk profile by default (n=200, 30k steps per run). Set
NETGAMES_ACCEPT_PROFILE=full for the headline scale (n=1000, 150k steps;
about 7 minutes on two cores). NETGAMES_ACCEPT_PARALLEL sets worker
processes (default 2).
"""

import os

import numpy as np
import pytest

from netgames.engine import Population, init_random, play_step
from netgames.evolution import (
    AdoptionConfig,
    MoranConfig,
    adoption_probability,
    moran_event,
)
from netgames.experiments import correlate, preset, reduced_profile, run_scenario
from netgames.networks import (
    Network,
    assortativity,
    barabasi_albert,
    complete_graph,
    regular_random,
    rewire_to_assortativity,
)
from netgames.pairchain import expected_payoffs, monte_carlo_payoffs
from netgames.strategies import (
    CATALOG,
    DEFAULT_MATRIX,
    MemoryOneStrategy,
    named_strategy,
    zd_complete,
    zd_pinned_payoff,
)

FULL = os.environ.get("NETGAMES_ACCEPT_PROFILE", "reduced") == "full"
PARALLEL = int(os.environ.get("NETGAMES_ACCEPT_PARALLEL", "2"))
M = DEFAULT_MATRIX
ZD = named_strategy("zd_default")
PAVLOV = named_strategy("pavlov")


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {cid}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def _scenario(name: str):
    s = preset(name)
    return s if FULL else reduced_profile(s)


def _finals(name: str, out_dir) -> np.ndarray:
    result = run_scenario(_scenario(name), parallelism=PARALLEL, out_dir=out_dir)
    return np.array(result.final_fractions)


def test_criterion_1_zd_construction():
    zd = zd_complete(0.99, 0.01, M)
    err = max(
        abs(zd.p1 - 0.99), abs(zd.p2 - 0.97), abs(zd.p3 - 0.02), abs(zd.p4 - 0.01)
    )
    _report("1", err < 1e-12, f"zd_complete(0.99, 0.01) -> (0.99, 0.97, 0.02, 0.01), max err {err:.2e}")


def test_criterion_2_extortion_identity():
    pinned = zd_pinned_payoff(0.99, 0.01, M)
    rng = np.random.default_rng(424242)
    worst = 0.0
    for i in range(20):
        opp = MemoryOneStrategy(*rng.random(4), label=f"rand{i}")
        analytic = expected_payoffs(opp, ZD, M).e_ab
        simulated = monte_carlo_payoffs(opp, ZD, M, 1_000_000, seed=900 + i).e_ab
        worst = max(worst, abs(analytic - pinned), abs(simulated - pinned))
    _report(
        "2",
        worst <= 0.05 and abs(pinned - 2.0) < 1e-12,
        f"20 random opponents pinned to {pinned} against zd_default, worst gap {worst:.4f}",
    )


def test_criterion_3_oracle_equivalence():
    names = sorted(CATALOG)
    worst = 0.0
    worst_pair = None
    for i, na in enumerate(names):
        for nb in names[i:]:
            a, b = CATALOG[na], CATALOG[nb]
            want = expected_payoffs(a, b, M)
            # the near-deterministic zd pairs mix over hundreds of rounds, so a
            # 1e6-round mean carries ~0.01 of seed noise against the 0.02 bound
            got = monte_carlo_payoffs(a, b, M, 1_000_000, seed=31000 + 31 * i + ord(nb[0]))
            gap = max(abs(want.e_ab - got.e_ab), abs(want.e_ba - got.e_ba))
            if gap > worst:
                worst, worst_pair = gap, (na, nb)
    _report(
        "3",
        worst <= 0.02,
        f"analytic vs 1e6-round simulation over all 21 catalog pairs, worst gap {worst:.4f} at {worst_pair}",
    )


def test_criterion_4_neutral_moran_fixation():
    n, trials = 50, 2500
    net = complete_graph(n)
    twin = MemoryOneStrategy(0.0, 0.0, 0.0, 0.0, label="defector_twin")
    fixed = 0
    for trial in range(trials):
        strat = np.zeros(n, dtype=int)
        strat[0] = 1
        pop = Population(net, (named_strategy("defector"), twin), strat)
        rng = np.random.default_rng(50_000 + trial)
        for _ in range(60_000):
            pop.pay[:] = 0.0
            play_step(pop, M, rng)
            moran_event(pop, rng)
            if pop.counts[1] == 0 or pop.counts[0] == 0:
                break
        else:
            raise AssertionError("trial did not absorb")
        fixed += pop.counts[1] == n
    rate = fixed / trials
    rel = abs(rate - 1 / n) / (1 / n)
    _report(
        "4",
        rel <= 0.30,
        f"neutral mutant on K50 fixed in {fixed}/{trials} = {rate:.4f} (target 0.02 +- 30%)",
    )


def test_criterion_5_wellmixed_moran_extinction(tmp_path):
    lines = []
    ok = True
    for name in ("fig1_wellmixed_moran", "fig1_wellmixed_moran_04"):
        finals = _finals(name, tmp_path / name)
        extinct = float(np.mean(finals == 0.0))
        ok &= extinct >= 0.9
        lines.append(f"{name}: extinct {extinct:.0%} of {len(finals)}")
    _report("5", ok, "; ".join(lines))


def test_criterion_6_scalefree_moran_extinction(tmp_path):
    lines = []
    ok = True
    for name in ("fig2_sf_moran", "fig2_sf_moran_hubs"):
        finals = _finals(name, tmp_path / name)
        extinct = float(np.mean(finals == 0.0))
        ok &= extinct >= 0.9
        lines.append(f"{name}: extinct {extinct:.0%} of {len(finals)}")
    _report("6", ok, "; ".join(lines))


def test_criterion_7_wellmixed_adoption_extinction(tmp_path):
    finals = _finals("fig3_wellmixed_adoption", tmp_path / "fig3")
    extinct = float(np.mean(finals == 0.0))
    _report("7", extinct >= 0.9, f"fig3_wellmixed_adoption: extinct {extinct:.0%} of {len(finals)}")


def test_criterion_8_scalefree_adoption_survival(tmp_path):
    finals = _finals("fig4a_sf_adoption_random", tmp_path / "fig4a")
    survive = float(np.mean(finals > 0.0))
    mean = float(np.mean(finals))
    _report(
        "8",
        survive >= 0.7 and 0.0 < mean < 0.5,
        f"fig4a_sf_adoption_random: survival {survive:.0%}, mean final {mean:.3f}",
    )


def test_criterion_9_hub_initialization(tmp_path):
    finals_zd_hubs = _finals("fig4b_sf_adoption_hubs", tmp_path / "fig4b")
    mean_hubs = float(np.mean(finals_zd_hubs))
    finals_pav_hubs = _finals("fig4b_sf_adoption_hubs_pavlov", tmp_path / "fig4b_pav")
    extinct = float(np.mean(finals_pav_hubs == 0.0))
    _report(
        "9",
        mean_hubs > 0.5 and extinct >= 0.9,
        f"zd-hubs mean final {mean_hubs:.3f} (> 0.5); pavlov-hubs zd extinct {extinct:.0%}",
    )


def test_criterion_10_hub_advantage_other_strategies(tmp_path):
    lines = []
    ok = True
    for short in ("fig5_gc", "fig5_coop", "fig6_defector", "fig6_tft"):
        hubs = float(np.mean(_finals(short, tmp_path / short)))
        rand = float(np.mean(_finals(f"{short}_random", tmp_path / f"{short}_random")))
        ok &= hubs > rand
        lines.append(f"{short}: hubs {hubs:.3f} vs random {rand:.3f}")
    _report("10", ok, "; ".join(lines))


def test_criterion_11_assortativity_sweep(tmp_path):
    result = run_scenario(
        _scenario("fig7_assortativity_sweep"), parallelism=PARALLEL, out_dir=tmp_path / "fig7"
    )
    threshold = -0.5 if FULL else -0.4
    points = [(g.achieved_rho, g.mean_final) for g in result.groups]
    _report(
        "11",
        result.correlation is not None and result.correlation <= threshold,
        f"pearson(achieved rho, mean final) = {result.correlation:.3f} over "
        f"{[(round(x, 3), round(y, 3)) for x, y in points]} (threshold {threshold})",
    )


def test_criterion_12_property_bundle():
    checks = []

    g = barabasi_albert(300, 2, seed=3)
    rew, rho = rewire_to_assortativity(g, -0.25, tol=0.05, max_steps=200_000, seed=4)
    checks.append(("degree preservation under rewiring", np.array_equal(rew.degrees, g.degrees)))
    checks.append(("rewired graph connected", rew.is_connected()))

    star = Network(10, [(0, i) for i in range(1, 10)])
    checks.append(("star assortativity = -1", abs(assortativity(star).rho + 1) < 1e-12))
    checks.append(("rho within [-1, 1]", -1 <= assortativity(g).rho <= 1))

    reg = regular_random(100, 8, seed=5)
    checks.append(("generators connected", reg.is_connected() and g.is_connected()))

    pop = init_random(reg, ZD, PAVLOV, 0.5, seed=6)
    rng = np.random.default_rng(7)
    before = pop.pay.sum()
    play_step(pop, M, rng)
    total = pop.pay.sum() - before
    edge_sums = np.array([M.r + M.r, M.s + M.t, M.t + M.s, M.p + M.p])
    checks.append(
        ("payoff conservation per edge-round",
         abs(total - edge_sums[pop.mem].sum()) < 1e-9)
    )

    probs = [
        adoption_probability(px, py, kx, ky, 0.3)
        for px, py, kx, ky in ((0, 10, 1, 2), (10, 0, 1, 2), (5, 5.2, 8, 8))
    ]
    checks.append(("adoption probability in [0,1]", all(0 <= p <= 1 for p in probs)))

    pop2 = init_random(reg, ZD, PAVLOV, 1.0, seed=8)
    cfg = AdoptionConfig.for_pair(ZD, PAVLOV, M)
    rng2 = np.random.default_rng(9)
    from netgames.evolution import adoption_event

    for _ in range(200):
        pop2.pay[:] = 0.0
        play_step(pop2, M, rng2)
        adoption_event(pop2, cfg, rng2)
    checks.append(("extinction absorbing", pop2.counts.tolist() == [100, 0]))

    def one_run(seed):
        pop = init_random(reg, ZD, PAVLOV, 0.5, seed=11)
        from netgames.evolution import run

        return run(pop, "moran", 300, M, MoranConfig(), seed=seed, sample_every=100)

    r1, r2 = one_run(12), one_run(12)
    checks.append(("seed determinism", np.array_equal(r1.frac_a, r2.frac_a)))

    failed = [name for name, ok in checks if not ok]
    _report("12", not failed, f"{len(checks)} property checks" + (f"; failed: {failed}" if failed else ""))
