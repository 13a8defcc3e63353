"""Experiment harness: scenario presets, replicated runs, aggregation.

A Scenario fully determines an experiment: network family and parameters,
competing strategy pair, initial placement, evolutionary process, step count,
replicate count and base seed. Replicate r runs with seed base_seed + r.

Plain scenarios generate one network, shared by all replicates, which differ
in strategy placement and dynamics. Assortativity sweeps instead draw a fresh
rewired network for every replicate: at desk scale a single instance's quirks
would otherwise dominate the per-target means the sweep correlates. Replicate
0 of each target is built first as its representative and must reach the
target within 2*rho_tol, so an unreachable target raises TargetUnreachable
before anything is written. Each draw gets one rewiring walk: a later
replicate whose draw cannot reach the target (in a small BA graph the big
hubs' degrees can cap rho below a positive target, and a fresh walk on the
same draw ends at the same rho) keeps the graph its walk ended on;
aggregate.csv records its target_rho and the achieved_rho it really has,
and the sweep correlates achieved rho.

Outputs land in one directory per scenario:

    runs/run_NNNN.csv   per-replicate fraction/payoff time series
    aggregate.csv       one summary row per replicate
    network*.edges      the shared network (plain scenarios) or one
                        representative per sweep target; "u v" per line
    meta.txt            every resolved parameter (reloadable as a config) plus
                        result.* summary keys

Everything written is deterministic for a given scenario, so rerunning a
scenario reproduces its output files byte for byte. Each file is written
whole or not at all, and stale run and network files are removed first.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .engine import init_hubs, init_random
from .evolution import (
    AdoptionConfig,
    MoranConfig,
    RunRecord,
    run_replicates,
    uses_on_demand,
    write_run_csv,
)
from .networks import (
    Network,
    TargetUnreachable,
    _written_whole,
    assortativity,
    barabasi_albert,
    complete_graph,
    regular_random,
    rewire_to_assortativity,
    write_edgelist,
)
from .strategies import CATALOG, CATALOG_NAMES, PayoffMatrix, named_strategy


class UnknownPreset(KeyError):
    """Name not present in the preset table."""


class DegenerateInput(ValueError):
    """Correlation is undefined for fewer than two points or zero variance."""


@dataclass(frozen=True)
class Scenario:
    """Fully explicit parameter set for one experiment."""

    name: str
    family: str = "ba"  # "ba" | "regular" | "complete"
    n: int = 1000
    degree: int = 8  # regular family only
    ba_m: int = 1  # ba family only
    rho_targets: tuple[float, ...] = ()  # two or more turn the scenario into a sweep
    rho_tol: float = 0.025
    rewire_max_steps: int = 400_000
    strategy_a: str = "zd_default"
    strategy_b: str = "pavlov"
    init: str = "random"  # "random" | "hubs"
    hub_strategy: str = "a"  # which side starts on the hubs when init="hubs"
    fraction_a: float = 0.6
    process: str = "moran"  # "moran" | "adoption"
    replacement_rate: float = 0.001
    steps: int = 150_000
    sample_every: int = 100
    replicates: int = 20
    base_seed: int = 1000
    payoff_t: float = 5.0
    payoff_r: float = 3.0
    payoff_p: float = 1.0
    payoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("ba", "regular", "complete"):
            raise ValueError(f"unknown network family {self.family!r}")
        if self.init not in ("random", "hubs"):
            raise ValueError(f"unknown initializer {self.init!r}")
        if self.hub_strategy not in ("a", "b"):
            raise ValueError(f"hub_strategy must be 'a' or 'b', got {self.hub_strategy!r}")
        for side in ("strategy_a", "strategy_b"):
            if getattr(self, side) not in CATALOG:
                raise ValueError(
                    f"{side}={getattr(self, side)!r} is not a known strategy; "
                    f"known: {', '.join(CATALOG_NAMES)}"
                )
        if self.process not in ("moran", "adoption"):
            raise ValueError(f"unknown process {self.process!r}")
        if not 0.0 <= self.fraction_a <= 1.0:
            raise ValueError("fraction_a outside [0, 1]")
        if self.replicates < 1 or self.steps < 1:
            raise ValueError("replicates and steps must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed={self.base_seed} must be >= 0")
        if self.sample_every < 1:
            raise ValueError(f"sample_every={self.sample_every} must be >= 1")
        if not self.rho_tol > 0.0:
            raise ValueError(f"rho_tol={self.rho_tol} must be > 0")
        if self.rewire_max_steps < 1:
            raise ValueError(f"rewire_max_steps={self.rewire_max_steps} must be >= 1")
        MoranConfig(self.replacement_rate)  # checks replacement_rate
        if len(self.rho_targets) == 1:
            raise ValueError(
                f"rho_targets={self.rho_targets!r} holds one target; a sweep "
                "correlates at least two"
            )
        if self.rho_targets and self.family != "ba":
            raise ValueError(f"rho_targets needs the ba family, not {self.family!r}")
        try:
            self.matrix  # PayoffMatrix enforces t > r > p > s
        except ValueError as exc:
            raise ValueError(f"payoff_t, payoff_r, payoff_p, payoff_s: {exc}") from None

    @property
    def matrix(self) -> PayoffMatrix:
        return PayoffMatrix(self.payoff_t, self.payoff_r, self.payoff_p, self.payoff_s)


def reduced_profile(s: Scenario, n: int = 200, steps: int = 30_000) -> Scenario:
    """Desk-scale variant of a scenario with the same qualitative behavior."""
    return replace(s, n=n, steps=steps)


def _presets() -> dict[str, Scenario]:
    zd_pav = dict(strategy_a="zd_default", strategy_b="pavlov")
    sf_adopt = dict(family="ba", ba_m=1, process="adoption", **zd_pav)
    table = {
        "fig1_wellmixed_moran": Scenario(
            name="fig1_wellmixed_moran",
            family="regular",
            degree=8,
            init="random",
            fraction_a=0.6,
            process="moran",
            base_seed=1100,
            **zd_pav,
        ),
        "fig1_wellmixed_moran_04": Scenario(
            name="fig1_wellmixed_moran_04",
            family="regular",
            degree=8,
            init="random",
            fraction_a=0.4,
            process="moran",
            base_seed=1150,
            **zd_pav,
        ),
        # m=2 here: death-birth drift on m=1 trees is close to neutral, which
        # blurs the replacement process's selection pressure at desk scale
        "fig2_sf_moran": Scenario(
            name="fig2_sf_moran",
            family="ba",
            ba_m=2,
            init="random",
            fraction_a=0.6,
            process="moran",
            base_seed=1200,
            **zd_pav,
        ),
        "fig2_sf_moran_hubs": Scenario(
            name="fig2_sf_moran_hubs",
            family="ba",
            ba_m=2,
            init="hubs",
            hub_strategy="a",
            fraction_a=0.6,
            process="moran",
            base_seed=1250,
            **zd_pav,
        ),
        "fig3_wellmixed_adoption": Scenario(
            name="fig3_wellmixed_adoption",
            family="regular",
            degree=8,
            init="random",
            fraction_a=0.6,
            process="adoption",
            base_seed=1300,
            **zd_pav,
        ),
        "fig4a_sf_adoption_random": Scenario(
            name="fig4a_sf_adoption_random",
            init="random",
            fraction_a=0.6,
            base_seed=1400,
            **sf_adopt,
        ),
        "fig4b_sf_adoption_hubs": Scenario(
            name="fig4b_sf_adoption_hubs",
            init="hubs",
            hub_strategy="a",
            fraction_a=0.6,
            base_seed=1450,
            **sf_adopt,
        ),
        "fig4b_sf_adoption_hubs_pavlov": Scenario(
            name="fig4b_sf_adoption_hubs_pavlov",
            init="hubs",
            hub_strategy="b",
            fraction_a=0.4,
            base_seed=1475,
            **sf_adopt,
        ),
        # m=2 so the rewiring has cycles to work with (trees cannot reach
        # positive assortativity while staying connected); the loose tolerance
        # accepts instances within 2*tol, and a replicate whose draw cannot
        # get that close (at n=200 some draws cap rho at 0.015-0.19) keeps
        # the graph its walk ended on instead of aborting the sweep
        "fig7_assortativity_sweep": Scenario(
            name="fig7_assortativity_sweep",
            family="ba",
            ba_m=2,
            rho_targets=(-0.3, -0.15, 0.0, 0.15, 0.3),
            rho_tol=0.05,
            rewire_max_steps=500_000,
            init="random",
            fraction_a=0.6,
            process="adoption",
            replicates=40,
            base_seed=1700,
            **zd_pav,
        ),
    }
    # hub strategy against Pavlov: (figure, strategy, short name, base seed);
    # each also gets a random-placement twin seeded 25 later
    for fig, name, short, seed in (
        ("fig5", "general_cooperator", "gc", 1500),
        ("fig5", "cooperator", "coop", 1550),
        ("fig6", "defector", "defector", 1600),
        ("fig6", "tit_for_tat", "tft", 1650),
    ):
        table[f"{fig}_{short}"] = Scenario(
            name=f"{fig}_{short}",
            family="ba",
            ba_m=1,
            strategy_a=name,
            strategy_b="pavlov",
            init="hubs",
            hub_strategy="a",
            fraction_a=0.6,
            process="adoption",
            base_seed=seed,
        )
        table[f"{fig}_{short}_random"] = Scenario(
            name=f"{fig}_{short}_random",
            family="ba",
            ba_m=1,
            strategy_a=name,
            strategy_b="pavlov",
            init="random",
            fraction_a=0.6,
            process="adoption",
            base_seed=seed + 25,
        )
    return table


PRESETS: dict[str, Scenario] = _presets()
PRESET_NAMES: tuple[str, ...] = tuple(sorted(PRESETS))


def preset(name: str) -> Scenario:
    """Look up a fully specified scenario preset by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; see list-presets for the known names"
        ) from None


def correlate(points) -> float:
    """Pearson correlation coefficient of a sequence of (x, y) pairs."""
    pts = list(points)
    if len(pts) < 2:
        raise DegenerateInput("need at least two points")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    sx = float(x.std())
    sy = float(y.std())
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance in x or y")
    r = float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))
    return min(1.0, max(-1.0, r))  # keep float dust inside the bound


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from non-negative integer parts."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


# ----------------------------------------------------------------------------
# scenario <-> flat key = value mapping


def scenario_to_mapping(s: Scenario) -> dict[str, str]:
    out: dict[str, str] = {}
    for f in fields(Scenario):
        v = getattr(s, f.name)
        if f.name == "rho_targets":
            out[f.name] = ",".join(repr(float(t)) for t in v)
        else:
            out[f.name] = repr(v) if isinstance(v, float) else str(v)
    return out


def scenario_from_mapping(mapping: dict[str, str]) -> Scenario:
    """Inverse of :func:`scenario_to_mapping`.

    Each value is parsed as the type of its field's default; ``name``, which
    has no default, stays a string.
    """
    defaults = {f.name: f.default for f in fields(Scenario)}
    kwargs: dict[str, object] = {}
    for key, raw in mapping.items():
        if key not in defaults:
            raise ValueError(f"unknown scenario key {key!r}")
        kind = type(defaults[key])
        try:
            if kind is tuple:
                kwargs[key] = tuple(float(t) for t in raw.split(",") if t.strip())
            else:
                kwargs[key] = kind(raw) if kind in (int, float) else raw
        except ValueError:
            raise ValueError(f"cannot parse {key}={raw!r}") from None
    if "name" not in kwargs:
        raise ValueError("config must define a name")
    return Scenario(**kwargs)


def load_config(path) -> Scenario:
    """Parse a flat "key = value" config file into a Scenario.

    Blank lines and #-comments are skipped, as are result.* keys, so a
    previously written meta.txt is itself a valid config. Any other key that
    names no scenario field raises ValueError, so a typo cannot fall back to
    a default. A line without ``=`` and a key's second line raise ValueError
    naming the file and line (and, for a repeat, the key's first line).
    """
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for num, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path} line {num}: not a key = value line: {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(
                f"{path} line {num}: {key!r} set again (first set on line {first_line[key]})"
            )
        first_line[key] = num
        if not key.startswith("result."):
            mapping[key] = value.strip()
    return scenario_from_mapping(mapping)


# ----------------------------------------------------------------------------
# execution

@dataclass
class GroupResult:
    """Per-network aggregate (one group per assortativity target, else one)."""

    index: int
    target_rho: float | None
    achieved_rho: float
    mean_degree: float
    mean_final: float


@dataclass
class SweepResult:
    """Aggregate over all replicates of a scenario."""

    scenario: Scenario
    records: list[RunRecord]
    final_fractions: list[float]
    mean_final: float
    std_final: float
    groups: list[GroupResult]
    correlation: float | None
    out_dir: Path


def _build_network(
    s: Scenario, group: int, target: float | None, rep: int
) -> tuple[Network, float]:
    # plain scenarios share one network (rep pinned to 0 by the caller);
    # sweep replicates each get their own instance and rewiring stream
    gen_seed = derive_seed(s.base_seed, 101, group, rep)
    if s.family == "regular":
        net = regular_random(s.n, s.degree, gen_seed)
    elif s.family == "complete":
        net = complete_graph(s.n)
    else:
        net = barabasi_albert(s.n, s.ba_m, gen_seed)
    if target is None:
        return net, assortativity(net).rho
    return rewire_to_assortativity(
        net, target, tol=s.rho_tol, max_steps=s.rewire_max_steps,
        seed=derive_seed(s.base_seed, 202, group, rep, 0),
    )


def _execute_batch(s: Scenario, runs_dir: Path, tasks) -> list[RunRecord]:
    """Run a batch of replicates together and write their run files.

    Each task is (network, group, target, achieved rho, run index); a sweep
    replicate after the first of its target has no network yet and builds
    its own draw here.
    """
    a = named_strategy(s.strategy_a)
    b = named_strategy(s.strategy_b)
    pops, dyn_seeds, run_ids, placed = [], [], [], []
    focal = 1 if s.init == "hubs" and s.hub_strategy == "b" else 0
    for net, group, target, achieved_rho, run_index in tasks:
        if net is None:
            try:
                net, achieved_rho = _build_network(
                    s, group, target, run_index - group * s.replicates
                )
            except TargetUnreachable as exc:
                # replicate 0 reached this target, so the target is sound and
                # only this draw falls short: keep the graph its walk ended on
                net, achieved_rho = exc.network, exc.achieved_rho
        seed = s.base_seed + run_index
        init_seed = derive_seed(seed, 11)
        if s.init == "random":
            pops.append(init_random(net, a, b, s.fraction_a, init_seed))
        elif focal == 0:
            pops.append(init_hubs(net, a, b, s.fraction_a, init_seed))
        else:
            pops.append(init_hubs(net, b, a, 1.0 - s.fraction_a, init_seed))
        dyn_seeds.append(derive_seed(seed, 22))
        run_ids.append(run_index)
        placed.append((target, achieved_rho))
    if s.process == "moran":
        cfg: MoranConfig | AdoptionConfig = MoranConfig(s.replacement_rate)
    else:
        cfg = AdoptionConfig.for_pair(a, b, s.matrix)
    records = run_replicates(
        pops,
        s.process,
        s.steps,
        s.matrix,
        cfg,
        dyn_seeds,
        run_ids,
        sample_every=s.sample_every,
        focal_index=focal,
    )
    for rec, (target, achieved_rho) in zip(records, placed):
        rec.seed = s.base_seed + rec.run_id  # the replicate seed, not the dynamics seed
        rec.target_rho = target
        rec.achieved_rho = achieved_rho
        write_run_csv(rec, runs_dir / f"run_{rec.run_id:04d}.csv")
    return records


# dense replicates run in batches of at most this many edges in all. A
# replicate-step costs no less in a bigger batch, but each extinction
# rebuilds the lockstep, so a batch of M pays O(M^2 * |E|) in rebuilds.
# zd_default vs Pavlov, 2-core host: per replicate-step (µs), adoption on
# BA(200, 2) 12.3-15.9, 12.9-15.3, 12.8-13.8 at 50, 100, 200 members; on
# BA(1000, 2) adoption 36.8-38.9 -> 40.4-43.0, death-birth 37.9-59.3 ->
# 37.2-42.9 from 10 to 100; a build plus release() of 20, 50, 100, 200
# BA(200, 2) members 1.2, 3.1-3.6, 6.1-6.9, 13-17 ms
_LOCKSTEP_EDGES = 20_000


def _batch_size(s: Scenario, num_edges: int, replicates: int, parallelism: int) -> int:
    """Replicates per batch: within _LOCKSTEP_EDGES, and enough batches for every worker.

    A replicate on the on-demand path runs alone.
    """
    if uses_on_demand(num_edges, s.sample_every):
        return 1
    per_worker = -(-replicates // parallelism)
    return max(1, min(_LOCKSTEP_EDGES // num_edges, per_worker))


def read_final_fraction(run_csv) -> float:
    """Final strategy-a fraction, read back from a persisted run CSV."""
    with open(run_csv, newline="") as fh:
        last = None
        for last in csv.DictReader(fh):
            pass
    if last is None:
        raise ValueError(f"empty run file {run_csv}")
    return float(last["fraction_a"])


def _remove_stale(directory: Path, pattern: str, keep=()) -> None:
    for path in directory.glob(pattern):
        if path.name not in keep:
            path.unlink()


def write_networks(s: Scenario, out_dir) -> list[tuple[Path, Network, float]]:
    """Build a scenario's networks, then write them into ``out_dir`` as a run does.

    Returns (path, network, rho) per file, rho as aggregate.csv records it.
    """
    targets = s.rho_targets or (None,)
    built = [_build_network(s, gi, target, rep=0) for gi, target in enumerate(targets)]
    names = [f"network_{gi:02d}.edges" for gi in range(len(s.rho_targets))] or ["network.edges"]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_stale(out, "network*.edges", keep=names)
    for name, (net, _) in zip(names, built):
        write_edgelist(net, out / name)
    return [(out / name, net, rho) for name, (net, rho) in zip(names, built)]


def run_scenario(s: Scenario, out_dir, parallelism: int = 1) -> SweepResult:
    """Execute all replicates of a scenario and persist + aggregate the results.

    Aggregate statistics are recomputed from the per-run CSV files after all
    workers finish, so the persisted files are the source of truth.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism={parallelism} must be >= 1")
    targets: tuple[float | None, ...] = s.rho_targets or (None,)
    files = write_networks(s, out_dir)
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)
    tasks = []
    for gi, (target, (_, net, rho)) in enumerate(zip(targets, files)):
        for rep in range(s.replicates):
            tasks.append((net, gi, target, rho, gi * s.replicates + rep))
            if s.rho_targets:  # later sweep replicates build their own draws
                net, rho = None, float("nan")
    _remove_stale(runs_dir, "run_*.csv", keep={f"run_{i:04d}.csv" for i in range(len(tasks))})
    _remove_stale(runs_dir, "*.csv.tmp")

    # every replicate has |E| edges: rewiring keeps the degree sequence.
    # Batches take every k-th replicate, so a sweep's costly draws, which
    # gather at its extreme targets, spread over all of them
    size = _batch_size(s, files[0][1].num_edges, len(tasks), parallelism)
    k = -(-len(tasks) // size)
    batches = [tasks[i::k] for i in range(k)]
    args = ([s] * k, [runs_dir] * k, batches)
    if parallelism > 1:
        # imported here: it is a sixth of the time ``import netgames`` takes
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            done = list(pool.map(_execute_batch, *args))
    else:
        done = list(map(_execute_batch, *args))
    records = sorted((rec for batch in done for rec in batch), key=lambda r: r.run_id)

    # aggregate from the persisted per-run files, not the in-memory records
    finals = [read_final_fraction(runs_dir / f"run_{r.run_id:04d}.csv") for r in records]

    groups: list[GroupResult] = []
    for gi, target in enumerate(targets):
        sl = slice(gi * s.replicates, (gi + 1) * s.replicates)
        grp_finals = finals[sl]
        grp_records = records[sl]
        groups.append(
            GroupResult(
                index=gi,
                target_rho=target,
                achieved_rho=float(np.mean([r.achieved_rho for r in grp_records])),
                mean_degree=float(np.mean([r.mean_degree for r in grp_records])),
                mean_final=float(np.mean(grp_finals)),
            )
        )
    correlation: float | None = None
    if s.rho_targets:
        correlation = correlate([(g.achieved_rho, g.mean_final) for g in groups])

    _write_aggregate(out / "aggregate.csv", records, finals, s.replicates)
    result = SweepResult(
        scenario=s,
        records=records,
        final_fractions=finals,
        mean_final=float(np.mean(finals)),
        std_final=float(np.std(finals)),
        groups=groups,
        correlation=correlation,
        out_dir=out,
    )
    _write_meta(out / "meta.txt", result)
    return result


def _write_aggregate(
    path, records: list[RunRecord], finals: list[float], replicates: int
) -> None:
    with _written_whole(path) as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "run_id", "seed", "group", "target_rho", "achieved_rho",
                "mean_degree", "class_mean_deg_a", "class_mean_deg_b",
                "extinct_at", "final_fraction_a", "final_fraction_b",
            ]
        )
        for rec, final in zip(records, finals):
            w.writerow(
                [
                    rec.run_id,
                    rec.seed,
                    rec.run_id // replicates,
                    "" if rec.target_rho is None else repr(float(rec.target_rho)),
                    "" if rec.achieved_rho is None else repr(float(rec.achieved_rho)),
                    repr(float(rec.mean_degree)),
                    repr(float(rec.class_mean_deg_a)),
                    repr(float(rec.class_mean_deg_b)),
                    "" if rec.extinct_at is None else rec.extinct_at,
                    repr(float(final)),
                    repr(float(1.0 - final)),
                ]
            )


def _write_meta(path, result: SweepResult) -> None:
    lines = [f"{k} = {v}" for k, v in scenario_to_mapping(result.scenario).items()]
    lines.append(f"result.mean_final_fraction_a = {result.mean_final!r}")
    lines.append(f"result.std_final_fraction_a = {result.std_final!r}")
    if result.correlation is not None:
        lines.append(f"result.correlation_rho_vs_final = {result.correlation!r}")
    for g in result.groups:
        prefix = f"result.group_{g.index}"
        if g.target_rho is not None:
            lines.append(f"{prefix}.target_rho = {g.target_rho!r}")
        lines.append(f"{prefix}.achieved_rho = {g.achieved_rho!r}")
        lines.append(f"{prefix}.mean_degree = {g.mean_degree!r}")
        lines.append(f"{prefix}.mean_final_fraction_a = {g.mean_final!r}")
    with _written_whole(path) as fh:
        fh.write("\n".join(lines) + "\n")
