"""Command-line interface: run scenarios, write their networks, measure networks.

``run`` and ``netgen`` take a preset or config plus ``--set key=value``."""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import networks
from .experiments import (
    PRESET_NAMES,
    Scenario,
    UnknownPreset,
    correlate,
    load_config,
    preset,
    run_scenario,
    scenario_from_mapping,
    scenario_to_mapping,
    write_networks,
)

_KNOWN_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    OSError,
    networks.TargetUnreachable,
)


def _cmd_list_presets(args) -> int:
    for name in PRESET_NAMES:
        s = preset(name)
        net = {"ba": f"ba(m={s.ba_m})", "regular": f"regular(k={s.degree})",
               "complete": "complete"}[s.family]
        sweep = f" sweep({len(s.rho_targets)} targets)" if s.rho_targets else ""
        print(
            f"{name}: {s.strategy_a} vs {s.strategy_b}, {net} n={s.n}, "
            f"{s.init} init {s.fraction_a:g}, {s.process}, {s.steps} steps, "
            f"{s.replicates} replicates{sweep}"
        )
    return 0


def _resolve_scenario(args) -> Scenario:
    if args.target in PRESET_NAMES:
        s = preset(args.target)
    elif Path(args.target).exists():
        s = load_config(args.target)
    else:
        raise UnknownPreset(f"{args.target!r} is neither a preset nor a config file")
    mapping = scenario_to_mapping(s)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        mapping[key.strip()] = value.strip()
    return scenario_from_mapping(mapping)


def _cmd_run(args) -> int:
    s = _resolve_scenario(args)
    out = Path(args.out) if args.out else Path("out") / s.name
    result = run_scenario(s, parallelism=args.parallel, out_dir=out)
    print(f"scenario {s.name}: {len(result.final_fractions)} runs -> {out}")
    print(
        f"final fraction of {s.strategy_a}: mean {result.mean_final:.4f}, "
        f"std {result.std_final:.4f}"
    )
    for g in result.groups:
        if g.target_rho is not None:
            print(
                f"  group {g.index}: target_rho {g.target_rho:+.3f} "
                f"achieved {g.achieved_rho:+.4f} mean_final {g.mean_final:.4f}"
            )
    if result.correlation is not None:
        print(f"pearson(rho, final fraction) = {result.correlation:.4f}")
    return 0


def _cmd_netgen(args) -> int:
    for path, g, rho in write_networks(_resolve_scenario(args), args.out):
        print(
            f"wrote {path}: n={g.n} edges={g.num_edges} "
            f"mean_degree={g.mean_degree:.4f} rho={rho!r}"
        )
    return 0


def _cmd_measure(args) -> int:
    g = networks.read_edgelist(args.edges, n=args.n)
    mix = networks.assortativity(g)
    print(f"n = {g.n}")
    print(f"edges = {g.num_edges}")
    print(f"mean_degree = {g.mean_degree!r}")
    print(f"rho = {mix.rho!r}")
    if args.fit:
        hist = networks.degree_stats(g)
        gamma, r = networks.fit_power_law(hist[:, 0], hist[:, 1])
        print(f"powerlaw_gamma = {gamma!r}")
        print(f"powerlaw_pearson_r = {r!r}")
    if args.hist:
        networks.write_degree_histogram(g, args.hist)
        print(f"wrote histogram to {args.hist}")
    return 0


def _cmd_correlate(args) -> int:
    points = []
    header_allowed = True  # only the first non-comment row may be a header
    with open(args.csv, newline="") as fh:
        rows = csv.reader(fh)
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            try:
                point = (float(row[0]), float(row[1]))
            except (ValueError, IndexError):
                point = None
            if point is None and header_allowed:
                header_allowed = False
                continue
            header_allowed = False
            if point is None or not all(map(math.isfinite, point)):
                raise ValueError(
                    f"{args.csv} line {rows.line_num}: need two finite numbers, got {row!r}"
                )
            points.append(point)
    r = correlate(points)
    print(f"pearson_r = {r!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgames",
        description="Evolution of memory-one prisoner's dilemma strategies on networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="show all scenario presets").set_defaults(
        func=_cmd_list_presets
    )

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("target", help="preset name or path to a key = value config")
    scenario.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override any scenario field; may repeat",
    )

    p_run = sub.add_parser("run", parents=[scenario], help="run a preset or a config file")
    p_run.add_argument("--out", default=None, help="output directory (default out/<name>)")
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("netgen", parents=[scenario], help="write a scenario's network files")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=_cmd_netgen)

    p_meas = sub.add_parser("measure", help="measure a network edge list")
    p_meas.add_argument("edges")
    p_meas.add_argument("--n", type=int, default=None, help="node count if larger than max index + 1")
    p_meas.add_argument("--hist", default=None, help="write degree histogram CSV here")
    p_meas.add_argument("--fit", action="store_true", help="report a power-law fit")
    p_meas.set_defaults(func=_cmd_measure)

    p_corr = sub.add_parser("correlate", help="Pearson correlation of a 2-column CSV")
    p_corr.add_argument("csv")
    p_corr.set_defaults(func=_cmd_correlate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
