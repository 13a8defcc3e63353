"""The four benchmark workloads, built only from netgames' public functions.

Each workload derives every input from one seed, which takes the place of
the preset's ``base_seed``; run, network and rewiring seeds then follow
``netgames.experiments``: replicate r uses ``base_seed + r``, its population
``derive_seed(seed_r, 11)``, its dynamics ``derive_seed(seed_r, 22)``, the
network ``derive_seed(base_seed, 101, group, rep)`` and rewiring attempt a
``derive_seed(base_seed, 202, group, rep, a)``.

A workload is driven as a closed loop: ``op(i)`` runs operation i and
returns what the output checks need; ``work_of`` says how many units of
work (time-steps or instances) it did; ``check`` lists what is wrong with
it. Operations are grouped into rounds of ``round_size``, the workload's
repeating unit, and ``rate`` gives one round's units of work per second.
Functions are looked up through their modules at call time, so the tracer's
patches are seen.
"""

from __future__ import annotations

import csv
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import netgames.engine as engine
import netgames.evolution as evolution
import netgames.experiments as experiments
import netgames.networks as networks
from netgames.strategies import named_strategy

REWIRE_ATTEMPTS = 4  # as many seeded attempts as experiments makes per instance


def _init_population(s, net, seed_r: int):
    """Population and update-rule config of one replicate, as experiments builds them."""
    a, b = named_strategy(s.strategy_a), named_strategy(s.strategy_b)
    init_seed = experiments.derive_seed(seed_r, 11)
    if s.init == "random":
        pop = engine.init_random(net, a, b, s.fraction_a, init_seed)
    else:  # every hub preset used here puts strategy a on the hubs
        pop = engine.init_hubs(net, a, b, s.fraction_a, init_seed)
    if s.process == "moran":
        cfg = evolution.MoranConfig(s.replacement_rate)
    else:
        cfg = evolution.AdoptionConfig.for_pair(a, b, s.matrix)
    return pop, cfg


def _generate(s, gen_seed: int):
    if s.family == "regular":
        return networks.regular_random(s.n, s.degree, gen_seed)
    return networks.barabasi_albert(s.n, s.ba_m, gen_seed)


def _steps_executed(rec) -> int:
    return rec.steps if rec.extinct_at is None else rec.extinct_at


def check_record(rec, n: int) -> list[str]:
    """Fractions are counts over n summing to 1; payoffs are finite while simulated."""
    bad = []
    tag = f"replicate {rec.run_id}"
    if not np.allclose(rec.frac_a + rec.frac_b, 1.0, rtol=0.0, atol=1e-12):
        bad.append(f"{tag}: fractions do not sum to 1")
    counts = rec.frac_a * n
    if not np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-6):
        bad.append(f"{tag}: fraction_a is not a count over n={n}")
    live = rec.sample_steps <= _steps_executed(rec)
    for frac, pay, side in ((rec.frac_a, rec.mean_pay_a, "a"), (rec.frac_b, rec.mean_pay_b, "b")):
        if not np.all(np.isfinite(pay[live & (frac > 0)])):
            bad.append(f"{tag}: non-finite mean payoff of class {side}")
    return bad


def check_population(pop, rec) -> list[str]:
    """Class counts equal the bincount of the strategies; payoffs are finite."""
    bad = check_record(rec, pop.n)
    if not np.array_equal(pop.counts, np.bincount(pop.strat, minlength=len(pop.strategies))):
        bad.append(f"replicate {rec.run_id}: class counts differ from the strategy bincount")
    if not np.all(np.isfinite(pop.pay)):
        bad.append(f"replicate {rec.run_id}: non-finite node payoff")
    return bad


def records_equal(r1, r2) -> bool:
    """Field-by-field equality of two run records, nan equal to nan."""
    for name in vars(r1):
        x, y = getattr(r1, name), getattr(r2, name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif x != y and not (isinstance(x, float) and isinstance(y, float) and x != x and y != y):
            return False
    return True


class Workload:
    """Defaults: a round is one operation, counted as one replicate."""

    round_size = 1

    def replicates_of(self, out) -> int:
        return 1

    def rate(self, outs, times: list[float]) -> float:
        return sum(self.work_of(o) for o in outs) / sum(times)


class ScaleWorkload(Workload):
    """Fixed-horizon replicates of one preset on one shared n=20,000 network.

    No replicate goes extinct within the horizon, so every operation does the
    same number of time-steps and the figure depends on the engine alone.
    """

    unit = "time-step"

    def __init__(self, name: str, preset: str, seed: int, n: int, horizon: int):
        self.name = name
        self.scenario = replace(experiments.preset(preset), n=n, steps=horizon, base_seed=seed)
        self.net = None

    def setup(self) -> None:
        s = self.scenario
        self.net = _generate(s, experiments.derive_seed(s.base_seed, 101, 0, 0))
        self.net.csr()
        _init_population(s, self.net, s.base_seed)

    def replicate(self, r: int, steps: int):
        s = self.scenario
        seed_r = s.base_seed + r
        pop, cfg = _init_population(s, self.net, seed_r)
        rec = evolution.run(
            pop, s.process, steps, s.matrix, cfg, experiments.derive_seed(seed_r, 22),
            sample_every=s.sample_every, run_id=r,
        )
        return pop, rec

    def op(self, i: int):
        return self.replicate(i, self.scenario.steps)

    def work_of(self, out) -> int:
        return _steps_executed(out[1])

    def check(self, out) -> list[str]:
        return check_population(*out)

    def repeat_check(self) -> list[str]:
        _, first = self.replicate(0, 20)
        _, second = self.replicate(0, 20)
        return [] if records_equal(first, second) else ["repeated short replicate differs"]

    def inputs(self) -> dict[str, np.ndarray]:
        pop, _ = _init_population(self.scenario, self.net, self.scenario.base_seed)
        return {"edges": self.net.edges, "strat": pop.strat}


DESK_PRESETS = ("fig1_wellmixed_moran", "fig2_sf_moran", "fig4b_sf_adoption_hubs")


class DeskWorkload(Workload):
    """Reduced profiles of three presets, each through run_scenario to disk.

    Operation i is one scenario call, scenario i % 3 of pass i // 3, and a
    round is one pass. Pass p uses base seed ``seed + p * replicates``,
    continuing the replicate-seed sequence. A round's rate is taken at a
    fixed mix, an equal number of steps from each scenario: extinction times
    move with the seed, and a mix that moved with them would move the rate,
    since the scenarios' per-step costs differ.
    """

    unit = "time-step"

    def __init__(self, seed: int, out_root: Path, n: int = 200, steps: int = 30_000,
                 replicates: int | None = None):
        self.name = "desk_scenarios"
        self.seed = seed
        self.out_root = Path(out_root)
        self.scenarios = []
        for name in DESK_PRESETS:
            s = experiments.reduced_profile(experiments.preset(name), n=n, steps=steps)
            if replicates is not None:
                s = replace(s, replicates=replicates)
            self.scenarios.append(s)
        self.round_size = len(self.scenarios)

    def _scenario(self, i: int):
        s = self.scenarios[i % self.round_size]
        return replace(s, base_seed=self.seed + i // self.round_size * s.replicates)

    def setup(self) -> None:
        self.out_root.mkdir(parents=True, exist_ok=True)
        for k in range(self.round_size):
            s = self._scenario(k)
            net = _generate(s, experiments.derive_seed(s.base_seed, 101, 0, 0))
            _init_population(s, net, s.base_seed)

    def op(self, i: int):
        s = self._scenario(i)
        out = Path(tempfile.mkdtemp(prefix=f"{s.name}-", dir=self.out_root))
        return experiments.run_scenario(s, parallelism=1, out_dir=out)

    def work_of(self, res) -> int:
        return sum(_steps_executed(r) for r in res.records)

    def replicates_of(self, res) -> int:
        return len(res.records)

    def rate(self, outs, times: list[float]) -> float:
        per_step = [t / self.work_of(res) for res, t in zip(outs, times)]
        return len(per_step) / sum(per_step)

    def check(self, res) -> list[str]:
        try:
            return _check_scenario_output(res)
        finally:
            shutil.rmtree(res.out_dir, ignore_errors=True)

    def repeat_check(self) -> list[str]:
        s = replace(self.scenarios[1], replicates=1, steps=500, base_seed=self.seed)
        dirs = [Path(tempfile.mkdtemp(prefix="repeat-", dir=self.out_root)) for _ in range(2)]
        try:
            for d in dirs:
                experiments.run_scenario(s, parallelism=1, out_dir=d)
            files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
            same = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes() for f in files)
            return [] if same else ["repeated short replicate wrote different files"]
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)

    def inputs(self) -> dict[str, np.ndarray]:
        s = self._scenario(0)
        net = _generate(s, experiments.derive_seed(s.base_seed, 101, 0, 0))
        pop, _ = _init_population(s, net, s.base_seed)
        return {"edges": net.edges, "strat": pop.strat}


def _check_scenario_output(res) -> list[str]:
    """Run CSVs parse and end on the final fractions aggregate.csv reports."""
    s, out = res.scenario, res.out_dir
    bad = [msg for rec in res.records for msg in check_record(rec, s.n)]
    with open(out / "aggregate.csv", newline="") as fh:
        agg = {int(row["run_id"]): float(row["final_fraction_a"]) for row in csv.DictReader(fh)}
    if sorted(agg) != [r.run_id for r in res.records]:
        bad.append(f"{s.name}: aggregate.csv rows do not match the replicates")
    for rec in res.records:
        with open(out / "runs" / f"run_{rec.run_id:04d}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        try:
            steps = [int(row["step"]) for row in rows]
            fracs = [float(row["fraction_a"]) for row in rows]
            [float(row[k]) for row in rows for k in ("fraction_b", "mean_payoff_a", "mean_payoff_b")]
        except (KeyError, TypeError, ValueError) as exc:
            bad.append(f"{s.name} run {rec.run_id}: unparsable run CSV ({exc})")
            continue
        if steps != [int(t) for t in rec.sample_steps]:
            bad.append(f"{s.name} run {rec.run_id}: run CSV has the wrong sample steps")
        elif fracs[-1] != agg.get(rec.run_id):
            bad.append(f"{s.name} run {rec.run_id}: final fraction differs from aggregate.csv")
    return bad


class SweepWorkload(Workload):
    """Network preparation of the reduced assortativity sweep, without dynamics.

    Operation i is one instance: replicate i // len(targets) of the group of
    target i % len(targets), a BA(200, 2) graph rewired toward that target
    with the preset's tol and max_steps and up to four seeded attempts. The
    timed targets are the preset's non-positive ones; see README.md for why
    the positive targets are left out. A round is one replicate, an instance
    at each target.
    """

    unit = "instance"

    def __init__(self, seed: int):
        s = experiments.reduced_profile(experiments.preset("fig7_assortativity_sweep"))
        self.name = "sweep_rewire"
        self.scenario = replace(s, base_seed=seed)
        self.groups = [(g, t) for g, t in enumerate(s.rho_targets) if t <= 0.0]
        self.round_size = len(self.groups)

    def setup(self) -> None:
        g, _ = self.groups[0]
        _generate(self.scenario, experiments.derive_seed(self.scenario.base_seed, 101, g, 0))

    def source(self, i: int):
        g, target = self.groups[i % len(self.groups)]
        rep = i // len(self.groups)
        s = self.scenario
        return g, target, rep, _generate(s, experiments.derive_seed(s.base_seed, 101, g, rep))

    def op(self, i: int):
        g, target, rep, net = self.source(i)
        s = self.scenario
        for attempt in range(REWIRE_ATTEMPTS):
            try:
                new, rho = networks.rewire_to_assortativity(
                    net, target, tol=s.rho_tol, max_steps=s.rewire_max_steps,
                    seed=experiments.derive_seed(s.base_seed, 202, g, rep, attempt),
                )
            except networks.TargetUnreachable:
                continue
            return net, new, rho, target
        raise networks.TargetUnreachable(f"instance {i}: target {target} unreachable")

    def work_of(self, out) -> int:
        return 1

    def check(self, out) -> list[str]:
        src, new, rho, target = out
        bad = []
        e = new.edges
        simple = bool(np.all(e[:, 0] < e[:, 1])) and len(np.unique(e, axis=0)) == len(e)
        if not simple:
            bad.append("rewired network is not simple")
        if not new.is_connected():
            bad.append("rewired network is disconnected")
        if not np.array_equal(new.degrees, src.degrees):
            bad.append("rewiring changed the degree sequence")
        measured = networks.assortativity(new).rho
        if abs(measured - rho) > 1e-9:
            bad.append(f"reported rho {rho} differs from measured {measured}")
        if abs(measured - target) > 2.0 * self.scenario.rho_tol:
            bad.append(f"rho {measured} is more than 2*tol from target {target}")
        return bad

    def repeat_check(self) -> list[str]:
        _, a, rho_a, _ = self.op(0)
        _, b, rho_b, _ = self.op(0)
        same = rho_a == rho_b and np.array_equal(a.edges, b.edges)
        return [] if same else ["repeated rewiring gave a different network"]

    def inputs(self) -> dict[str, np.ndarray]:
        return {"edges": self.source(0)[3].edges}


WORKLOADS = ("scale_adoption", "scale_moran", "desk_scenarios", "sweep_rewire")


def make(name: str, seed: int, out_root: Path, small: bool = False):
    """Workload object by name; ``small`` shrinks inputs for the benchmark's own tests."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    n = 200 if small else 20_000
    if name == "scale_adoption":
        return ScaleWorkload(name, "fig4b_sf_adoption_hubs", seed, n=n, horizon=50 if small else 500)
    if name == "scale_moran":
        return ScaleWorkload(name, "fig2_sf_moran", seed, n=n, horizon=50 if small else 100)
    if name == "desk_scenarios":
        if small:
            return DeskWorkload(seed, out_root, n=60, steps=300, replicates=2)
        return DeskWorkload(seed, out_root)
    if name == "sweep_rewire":
        return SweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
