import csv
import importlib.util
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import netgames.experiments as experiments
from netgames.cli import build_parser, main
from netgames.experiments import (
    PRESET_NAMES,
    PRESETS,
    DegenerateInput,
    Scenario,
    UnknownPreset,
    correlate,
    derive_seed,
    load_config,
    preset,
    read_final_fraction,
    reduced_profile,
    run_scenario,
    scenario_from_mapping,
    scenario_to_mapping,
)
from netgames.networks import TargetUnreachable, barabasi_albert, rewire_to_assortativity


def tiny_scenario(**overrides):
    base = dict(
        name="tiny",
        family="regular",
        n=24,
        degree=4,
        strategy_a="zd_default",
        strategy_b="pavlov",
        init="random",
        fraction_a=0.5,
        process="adoption",
        steps=120,
        sample_every=40,
        replicates=2,
        base_seed=99,
    )
    base.update(overrides)
    return Scenario(**base)


class TestPresets:
    def test_all_documented_presets_exist(self):
        for name in (
            "fig1_wellmixed_moran",
            "fig2_sf_moran",
            "fig3_wellmixed_adoption",
            "fig4a_sf_adoption_random",
            "fig4b_sf_adoption_hubs",
            "fig5_gc",
            "fig5_coop",
            "fig6_defector",
            "fig6_tft",
            "fig7_assortativity_sweep",
        ):
            assert name in PRESET_NAMES

    def test_fig1_protocol(self):
        s = preset("fig1_wellmixed_moran")
        assert s.family == "regular" and s.degree == 8 and s.n == 1000
        assert s.strategy_a == "zd_default" and s.strategy_b == "pavlov"
        assert s.init == "random" and s.fraction_a == 0.6
        assert s.process == "moran" and s.replacement_rate == 0.001
        assert s.steps == 150_000

    def test_fig4b_protocol(self):
        s = preset("fig4b_sf_adoption_hubs")
        assert s.family == "ba" and s.init == "hubs" and s.hub_strategy == "a"
        assert s.process == "adoption" and s.fraction_a == 0.6

    def test_fig7_protocol(self):
        s = preset("fig7_assortativity_sweep")
        assert len(s.rho_targets) >= 5
        assert min(s.rho_targets) < 0 < max(s.rho_targets)
        assert s.replicates == 40
        assert s.process == "adoption"

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("fig99")

    def test_presets_fully_resolved(self):
        for name, s in PRESETS.items():
            assert s.name == name
            # round-trips through the flat mapping without loss
            assert scenario_from_mapping(scenario_to_mapping(s)) == s

    def test_reduced_profile(self):
        s = reduced_profile(preset("fig1_wellmixed_moran"))
        assert s.n == 200 and s.steps == 30_000
        assert s.process == "moran"


class TestCorrelate:
    def test_perfect_positive(self):
        assert correlate([(0, 0), (1, 1), (2, 2)]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert correlate([(0, 2), (1, 1), (2, 0)]) == pytest.approx(-1.0)

    def test_independent(self):
        assert correlate([(0, 0), (1, 0), (0, 1), (1, 1)]) == pytest.approx(0.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            correlate([(1, 2)])
        with pytest.raises(DegenerateInput):
            correlate([(1, 2), (1, 3)])
        with pytest.raises(DegenerateInput):
            correlate([(1, 2), (3, 2)])


class TestScenarioMapping:
    def test_mapping_roundtrip_with_targets(self):
        s = preset("fig7_assortativity_sweep")
        assert scenario_from_mapping(scenario_to_mapping(s)) == s

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_mapping({"name": "x", "bogus": "1"})

    def test_validation_runs_on_load(self):
        with pytest.raises(ValueError):
            scenario_from_mapping({"name": "x", "process": "replicator"})

    def test_config_file_roundtrip(self, tmp_path):
        s = tiny_scenario()
        path = tmp_path / "scenario.cfg"
        lines = [f"{k} = {v}" for k, v in scenario_to_mapping(s).items()]
        lines.insert(0, "# comment")
        path.write_text("\n".join(lines) + "\n")
        assert load_config(path) == s

    @pytest.mark.parametrize("line", ["payoff.t = 4", "run_steps = 5", "result = 1"])
    def test_config_file_rejects_a_mistyped_key(self, tmp_path, line):
        path = tmp_path / "scenario.cfg"
        lines = [f"{k} = {v}" for k, v in scenario_to_mapping(tiny_scenario()).items()]
        path.write_text("\n".join([*lines, "result.mean_final_fraction_a = 0.5", line]) + "\n")
        with pytest.raises(ValueError, match="unknown scenario key"):
            load_config(path)

    def test_config_file_names_a_line_without_equals(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# comment\n\nname = x\nsteps 200\n")
        message = f"{path} line 4: not a key = value line: 'steps 200'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_config_file_rejects_a_repeated_key(self, tmp_path):
        # the later line would silently win otherwise: n = 300 here
        path = tmp_path / "scenario.cfg"
        lines = [f"{k} = {v}" for k, v in scenario_to_mapping(tiny_scenario()).items() if k != "n"]
        path.write_text("\n".join(["n = 200", "", *lines, "n = 300"]) + "\n")
        message = f"{path} line {len(lines) + 3}: 'n' set again (first set on line 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


_BAD_VALUES = [
    ("sample_every", 0),
    ("sample_every", -5),
    ("rho_tol", 0.0),
    ("rho_tol", -0.01),
    ("rho_tol", float("nan")),
    ("rewire_max_steps", 0),
    ("replacement_rate", 0.0),
    ("replacement_rate", -0.1),
    ("replacement_rate", 1.5),
    ("strategy_a", "bogus"),
    ("strategy_b", "bogus"),
    ("base_seed", -1),
    ("payoff_t", 1.0),
    ("family", "lattice"),
    ("init", "bogus"),
    ("hub_strategy", "c"),
    ("fraction_a", -0.1),
    ("fraction_a", 1.5),
    ("replicates", 0),
    ("steps", 0),
    ("rho_targets", (0.1, 0.2)),  # tiny_scenario is a regular graph
    ("rho_targets", (-0.2,)),  # one target leaves nothing to correlate
]


class TestScenarioValidation:
    @pytest.mark.parametrize("field,value", _BAD_VALUES)
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_scenario(**{field: value})

    @pytest.mark.parametrize("field,value", _BAD_VALUES)
    def test_rejected_on_load(self, field, value):
        mapping = scenario_to_mapping(tiny_scenario())
        mapping[field] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        with pytest.raises(ValueError, match=field):
            scenario_from_mapping(mapping)

    def test_boundary_values_accepted(self):
        s = tiny_scenario(sample_every=1, rewire_max_steps=1, replacement_rate=1.0, rho_tol=1e-9)
        assert s.sample_every == 1 and s.replacement_rate == 1.0

    def test_cli_reports_bad_value_without_traceback(self, tmp_path, capsys):
        code = main(["run", "fig3_wellmixed_adoption", "--out", str(tmp_path),
                     "--set", "sample_every=0"])
        assert code == 1
        assert "sample_every" in capsys.readouterr().err

    def test_cli_reports_unknown_strategy_in_one_line(self, tmp_path, capsys):
        code = main(["run", "fig3_wellmixed_adoption", "--out", str(tmp_path),
                     "--set", "strategy_b=bogus"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "strategy_b='bogus'" in err
        assert not (tmp_path / "runs").exists()

    def test_cli_rejects_a_one_target_sweep_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "fig7_assortativity_sweep", "--out", str(out),
                     "--set", "rho_targets=-0.2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "rho_targets=(-0.2,)" in err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["steps=abc", "rho_targets=0.1,a"])
    def test_cli_reports_unparsable_value_in_one_line(self, tmp_path, capsys, item):
        out = tmp_path / "out"
        code = main(["run", "fig7_assortativity_sweep", "--out", str(out), "--set", item])
        err = capsys.readouterr().err
        key, _, raw = item.partition("=")
        assert code == 1
        assert err.count("\n") == 1 and f"{key}={raw!r}" in err
        assert not out.exists()


class TestRunScenario:
    def test_output_layout_and_determinism(self, tmp_path):
        s = tiny_scenario()
        r1 = run_scenario(s, out_dir=tmp_path / "a")
        r2 = run_scenario(s, out_dir=tmp_path / "b")
        for rel in ("aggregate.csv", "meta.txt", "network.edges",
                    "runs/run_0000.csv", "runs/run_0001.csv"):
            f1 = tmp_path / "a" / rel
            f2 = tmp_path / "b" / rel
            assert f1.exists(), rel
            assert f1.read_bytes() == f2.read_bytes(), rel
        assert r1.final_fractions == r2.final_fractions

    def test_parallel_matches_serial(self, tmp_path):
        s = tiny_scenario(replicates=3)
        run_scenario(s, parallelism=1, out_dir=tmp_path / "ser")
        run_scenario(s, parallelism=2, out_dir=tmp_path / "par")
        for rel in ("aggregate.csv", "meta.txt", "runs/run_0002.csv"):
            assert (tmp_path / "ser" / rel).read_bytes() == (
                tmp_path / "par" / rel
            ).read_bytes()

    def test_homogeneous_init_aggregate(self, tmp_path):
        s = tiny_scenario(fraction_a=1.0, replicates=2)
        result = run_scenario(s, out_dir=tmp_path / "homog")
        assert result.mean_final == 1.0
        assert result.std_final == 0.0

    def test_meta_is_a_loadable_config(self, tmp_path):
        s = tiny_scenario()
        run_scenario(s, out_dir=tmp_path / "m")
        assert load_config(tmp_path / "m" / "meta.txt") == s

    def test_aggregate_matches_run_files(self, tmp_path):
        s = tiny_scenario(replicates=3)
        result = run_scenario(s, out_dir=tmp_path / "agg")
        with open(tmp_path / "agg" / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row in rows:
            run_csv = tmp_path / "agg" / "runs" / f"run_{int(row['run_id']):04d}.csv"
            assert float(row["final_fraction_a"]) == read_final_fraction(run_csv)
        recomputed = float(np.mean([float(r["final_fraction_a"]) for r in rows]))
        assert result.mean_final == pytest.approx(recomputed)

    def test_seeds_are_base_plus_index(self, tmp_path):
        s = tiny_scenario(replicates=3, base_seed=1234)
        run_scenario(s, out_dir=tmp_path / "seeds")
        with open(tmp_path / "seeds" / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["seed"]) for r in rows] == [1234, 1235, 1236]

    def test_parallelism_below_one_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="parallelism"):
            run_scenario(tiny_scenario(), out_dir=tmp_path / "p", parallelism=-3)
        assert not (tmp_path / "p").exists()

    def test_complete_family_runs_well_mixed(self, tmp_path):
        s = tiny_scenario(family="complete", n=12, process="moran", replacement_rate=0.1)
        result = run_scenario(s, out_dir=tmp_path / "complete")
        assert result.records[0].mean_degree == 11.0
        assert (tmp_path / "complete" / "network.edges").read_text().count("\n") == 66
        assert load_config(tmp_path / "complete" / "meta.txt") == s

    def test_hub_init_class_degrees_recorded(self, tmp_path):
        s = tiny_scenario(family="ba", ba_m=1, n=30, init="hubs", fraction_a=0.6)
        run_scenario(s, out_dir=tmp_path / "hubs")
        with open(tmp_path / "hubs" / "aggregate.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["class_mean_deg_a"]) > float(row["class_mean_deg_b"])

    def test_sweep_outputs(self, tmp_path):
        s = tiny_scenario(
            family="ba",
            ba_m=2,
            n=60,
            rho_targets=(-0.2, 0.0),
            rho_tol=0.06,
            rewire_max_steps=50_000,
            replicates=2,
            steps=150,
        )
        result = run_scenario(s, out_dir=tmp_path / "sweep")
        assert (tmp_path / "sweep" / "network_00.edges").exists()
        assert (tmp_path / "sweep" / "network_01.edges").exists()
        assert len(result.groups) == 2
        assert result.correlation is not None
        assert -1.0 <= result.correlation <= 1.0
        assert result.groups[0].achieved_rho < result.groups[1].achieved_rho
        meta = (tmp_path / "sweep" / "meta.txt").read_text()
        assert "result.correlation_rho_vs_final" in meta
        assert load_config(tmp_path / "sweep" / "meta.txt") == s

    # BA(30, 2) draws at base_seed 12: target +0.2 is reachable from group
    # 1's replicate 0 but not from replicate 1's draw
    def _short_sweep(self, **overrides):
        base = dict(
            family="ba", ba_m=2, n=30, rho_targets=(0.0, 0.2), rho_tol=0.05,
            rewire_max_steps=5_000, replicates=2, steps=60, base_seed=12,
        )
        base.update(overrides)
        return tiny_scenario(**base)

    def test_sweep_replicate_keeps_closest_graph_when_target_unreachable(self, tmp_path):
        s = self._short_sweep()
        # the stranded draw, rewired independently: its walk misses
        draw = barabasi_albert(s.n, s.ba_m, derive_seed(s.base_seed, 101, 1, 1))
        with pytest.raises(TargetUnreachable) as exc:
            rewire_to_assortativity(
                draw, 0.2, tol=s.rho_tol, max_steps=s.rewire_max_steps,
                seed=derive_seed(s.base_seed, 202, 1, 1, 0),
            )
        ended = exc.value.achieved_rho

        run_scenario(s, out_dir=tmp_path / "sweep")
        with open(tmp_path / "sweep" / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        stranded = rows[3]
        assert (stranded["group"], stranded["target_rho"]) == ("1", "0.2")
        assert float(stranded["achieved_rho"]) == ended
        assert abs(ended - 0.2) > 2 * s.rho_tol
        assert abs(float(rows[2]["achieved_rho"]) - 0.2) <= 2 * s.rho_tol

    def test_sweep_rewires_each_draw_once(self, tmp_path, monkeypatch):
        # replicate 0's network is the target's representative; its task
        # reuses it instead of rewiring the same draw again. A draw that
        # misses +0.2 (replicate 1 of the second sweep) gets no second walk
        seeds = []

        def counting(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return rewire_to_assortativity(*args, **kwargs)

        monkeypatch.setattr(experiments, "rewire_to_assortativity", counting)
        for targets in ((-0.1, 0.0), (0.0, 0.2)):
            seeds.clear()
            s = self._short_sweep(rho_targets=targets, replicates=3)
            run_scenario(s, out_dir=tmp_path / f"sweep_{targets[1]}")
            walks = [derive_seed(s.base_seed, 202, g, r, 0) for g in (0, 1) for r in range(3)]
            assert sorted(seeds) == sorted(walks)

    def _files(self, out):
        return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def _batching_cases(self):
        return {
            "plain": tiny_scenario(replicates=5),
            # six draws of two targets, one of them stranded short of +0.2
            "sweep": self._short_sweep(replicates=3),
            "extinct_at_start": tiny_scenario(fraction_a=1.0, replicates=3),
            # extinct at steps 221, 109, 123, 29 and 255: the union shrinks
            "staggered_extinction": tiny_scenario(
                process="moran", replacement_rate=0.1, steps=400, replicates=5
            ),
        }

    @pytest.mark.parametrize(
        "case", ["plain", "sweep", "extinct_at_start", "staggered_extinction"]
    )
    def test_batch_size_and_workers_leave_every_file_unchanged(
        self, tmp_path, monkeypatch, case
    ):
        s = self._batching_cases()[case]
        runs = {}
        for size in (1, 3, 20):
            monkeypatch.setattr(experiments, "_batch_size", lambda *args, size=size: size)
            for parallelism in (1, 2):
                out = tmp_path / f"{size}-{parallelism}"
                result = run_scenario(s, out_dir=out, parallelism=parallelism)
                runs[size, parallelism] = self._files(out)
        assert all(files == runs[1, 1] for files in runs.values())
        extinct = [r.extinct_at for r in result.records]
        if case == "extinct_at_start":
            assert extinct == [0, 0, 0]
        if case == "staggered_extinction":
            assert None not in extinct and len(set(extinct)) == len(extinct)

    def test_rerun_in_place_reproduces_every_file(self, tmp_path):
        s = self._short_sweep()
        run_scenario(s, out_dir=tmp_path / "out")
        before = self._files(tmp_path / "out")
        run_scenario(s, out_dir=tmp_path / "out")
        assert self._files(tmp_path / "out") == before

    def test_rerun_with_fewer_replicates_removes_stale_runs(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(tiny_scenario(replicates=3), out_dir=out)
        (out / "runs" / "run_0007.csv.tmp").write_text("killed mid-write")
        (out / "notes.txt").write_text("kept")
        run_scenario(tiny_scenario(replicates=2), out_dir=out)
        run_scenario(tiny_scenario(replicates=2), out_dir=tmp_path / "fresh")
        files = self._files(out)
        assert files.pop("notes.txt") == b"kept"
        assert files == self._files(tmp_path / "fresh")

    def test_plain_run_after_sweep_removes_sweep_files(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(self._short_sweep(), out_dir=out)
        run_scenario(tiny_scenario(), out_dir=out)
        run_scenario(tiny_scenario(), out_dir=tmp_path / "fresh")
        assert self._files(out) == self._files(tmp_path / "fresh")

    def test_sweep_fails_fast_when_replicate_zero_misses(self, tmp_path):
        s = self._short_sweep(rho_targets=(0.0, 0.9))
        with pytest.raises(TargetUnreachable) as exc:
            run_scenario(s, out_dir=tmp_path / "sweep")
        assert exc.value.achieved_rho is not None
        assert abs(exc.value.achieved_rho - 0.9) > 2 * s.rho_tol
        assert not (tmp_path / "sweep").exists()


# What scripts/output_digest.py prints for three small runs. A digest changes
# when any byte a run writes changes, so a change to a random stream shows in
# tier-1, not only in a rerun of the full profile. The digests hold for numpy
# 2.4; other numpy versions may draw other numbers for the same seeds.
_PINNED_DIGESTS = [
    # 12 replicates: member passes while more than 8 live, then one event at a time
    pytest.param(
        "fig2_sf_moran", dict(n=60, steps=3000, replicates=12),
        "29d8b061d85c0ce0f77aab067852fb4b3fb56113add1915f0d5ce4fbd9780e34", id="fig2",
    ),
    pytest.param(
        "fig4b_sf_adoption_hubs", dict(n=60, steps=3000, replicates=12),
        "6166c738f91017c4001da2f98144c1516ef5842914d685c84a4b425ad521c283", id="fig4b",
    ),
    # 8-regular on 1000 nodes: on demand, 10 deaths a step through one batch
    pytest.param(
        "fig1_wellmixed_moran", dict(n=1000, steps=200, replicates=1, replacement_rate=0.01),
        "1e464c41793dd75b3034929ede1b62f4960e912bdbe589b31bab67421e9ddc68", id="fig1",
    ),
]


@pytest.mark.skipif(not np.__version__.startswith("2.4."), reason="digests pinned on numpy 2.4")
@pytest.mark.parametrize("name,overrides,expected", _PINNED_DIGESTS)
def test_output_digest_is_pinned(tmp_path, name, overrides, expected):
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    run_scenario(replace(preset(name), **overrides), out_dir=tmp_path / name)
    assert module.digest(tmp_path / name) == expected


class TestCLI:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        assert "fig7_assortativity_sweep" in out

    def test_run_preset_with_overrides(self, tmp_path, capsys):
        code = main([
            "run", "fig3_wellmixed_adoption",
            "--out", str(tmp_path / "cli"),
            "--set", "replicates=1",
            "--set", "n=24",
            "--set", "steps=60",
            "--set", "degree=4",
            "--set", "sample_every=30",
        ])
        assert code == 0
        assert (tmp_path / "cli" / "aggregate.csv").exists()
        assert "final fraction" in capsys.readouterr().out

    def test_run_sweep_prints_groups_and_correlation(self, tmp_path, capsys):
        code = main([
            "run", "fig7_assortativity_sweep", "--out", str(tmp_path / "sweep"),
            "--set", "n=60", "--set", "rho_targets=-0.2,0.0", "--set", "rho_tol=0.06",
            "--set", "rewire_max_steps=50000", "--set", "replicates=2",
            "--set", "steps=150", "--set", "sample_every=50",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        groups = [line for line in out if line.startswith("  group ")]
        assert len(groups) == 2
        assert groups[0].startswith("  group 0: target_rho -0.200 achieved ")
        assert groups[1].startswith("  group 1: target_rho +0.000 achieved ")
        assert out[-1].startswith("pearson(rho, final fraction) = ")
        meta = (tmp_path / "sweep" / "meta.txt").read_text()
        r = float(meta.split("result.correlation_rho_vs_final = ")[1].split()[0])
        assert out[-1] == f"pearson(rho, final fraction) = {r:.4f}"

    def test_set_without_equals_fails_in_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "fig3_wellmixed_adoption", "--out", str(out), "--set", "steps"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--set expects key=value, got 'steps'" in err
        assert not out.exists()

    def test_run_config_file(self, tmp_path):
        cfg = tmp_path / "my.cfg"
        lines = [f"{k} = {v}" for k, v in scenario_to_mapping(tiny_scenario()).items()]
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert load_config(tmp_path / "out" / "meta.txt") == tiny_scenario()

    def test_run_unknown_target_fails(self, tmp_path, capsys):
        assert main(["run", "not_a_preset", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target,options", [
        ("fig1_wellmixed_moran", ["--set", "n=5", "--set", "degree=3"]),  # odd stub count
        ("fig2_sf_moran", ["--set", "n=1"]),  # BA needs m < n
        ("fig1_wellmixed_moran", ["--set", "n=30", "--set", "payoff_t=1"]),  # breaks t > r > p > s
        ("fig1_wellmixed_moran", ["--set", "n=30", "--parallel", "0"]),
    ], ids=["regular", "ba", "payoff", "parallel"])
    def test_bad_network_parameter_leaves_no_output(self, tmp_path, capsys, target, options):
        out = tmp_path / "out"
        argv = ["run", target, "--out", str(out), *options]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_netgen_measure_roundtrip(self, tmp_path, capsys):
        nets = tmp_path / "nets"
        assert main(["netgen", "fig2_sf_moran", "--set", "n=120", "--out", str(nets)]) == 0
        hist = tmp_path / "hist.csv"
        assert main(["measure", str(nets / "network.edges"), "--hist", str(hist), "--fit"]) == 0
        out = capsys.readouterr().out
        assert "n = 120" in out and "rho = " in out and "powerlaw_gamma" in out
        assert hist.read_text().startswith("degree,count\n")

    def test_netgen_with_rho_target(self, tmp_path, capsys):
        out = tmp_path / "nets"
        sweep = ["fig7_assortativity_sweep", "--set", "n=150", "--set", "rho_targets=-0.2,0.0"]
        assert main(["netgen", *sweep, "--out", str(out)]) == 0
        printed = [float(line.split("rho=")[1]) for line in capsys.readouterr().out.splitlines()]
        assert abs(printed[0] - -0.2) <= 2 * preset("fig7_assortativity_sweep").rho_tol
        assert main(["run", *sweep, "--set", "replicates=1", "--set", "steps=10",
                     "--out", str(tmp_path / "run")]) == 0
        with open(tmp_path / "run" / "aggregate.csv", newline="") as fh:
            recorded = [float(row["achieved_rho"]) for row in csv.DictReader(fh)]
        capsys.readouterr()
        for group, rho in enumerate(printed):
            assert main(["measure", str(out / f"network_{group:02d}.edges")]) == 0
            measured = capsys.readouterr().out.split("rho = ")[1]
            assert float(measured) == rho == recorded[group]

    @pytest.mark.parametrize("command", ["measure", "netgen"])
    def test_unusable_path_fails_in_one_line(self, tmp_path, capsys, command):
        # measure a directory (IsADirectoryError); netgen into an existing
        # file (FileExistsError)
        if command == "measure":
            argv, error = ["measure", str(tmp_path)], "IsADirectoryError"
        else:
            (tmp_path / "file").write_text("kept\n")
            argv = ["netgen", "fig2_sf_moran", "--set", "n=30", "--out", str(tmp_path / "file")]
            error = "FileExistsError"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
        if command == "netgen":
            assert (tmp_path / "file").read_text() == "kept\n"

    def test_netgen_infeasible_fails_cleanly(self, tmp_path, capsys):
        out = tmp_path / "nets"
        assert main(["netgen", "fig1_wellmixed_moran", "--set", "n=5", "--set", "degree=3",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_netgen_writes_the_networks_run_writes(self, tmp_path, capsys, name):
        s = reduced_profile(preset(name))
        assert main(["netgen", name, "--set", f"n={s.n}", "--out", str(tmp_path / "gen")]) == 0
        printed = capsys.readouterr().out.splitlines()
        run_scenario(replace(s, replicates=1, steps=20), out_dir=tmp_path / "run")
        written = sorted(p.name for p in (tmp_path / "gen").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "run").glob("network*.edges"))
        assert len(written) == len(printed) == max(1, len(s.rho_targets))
        for file in written:
            assert (tmp_path / "gen" / file).read_bytes() == (tmp_path / "run" / file).read_bytes()
        # with one replicate, aggregate row g is the run on network file g
        with open(tmp_path / "run" / "aggregate.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for line, file, row in zip(printed, written, rows):
            assert line.startswith(f"wrote {tmp_path / 'gen' / file}: n={s.n} ")
            assert line.endswith(f" rho={row['achieved_rho']}")
            # measure reads the rho the rewiring walk reported, bit for bit
            assert main(["measure", str(tmp_path / "gen" / file)]) == 0
            assert f"rho = {row['achieved_rho']}\n" in capsys.readouterr().out

    def test_netgen_removes_network_files_it_does_not_rewrite(self, tmp_path):
        out = tmp_path / "nets"
        assert main(["netgen", "fig7_assortativity_sweep", "--set", "n=60",
                     "--set", "rho_targets=-0.1,0.0", "--out", str(out)]) == 0
        (out / "notes.txt").write_text("kept")
        assert main(["netgen", "fig2_sf_moran", "--set", "n=60", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["network.edges", "notes.txt"]

    def test_readme_cli_examples_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```", 2)[1]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()
                    if line.startswith("netgames ")]
        assert len(commands) >= 5
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_correlate_csv(self, tmp_path, capsys):
        data = tmp_path / "pts.csv"
        data.write_text("x,y\n0,2\n1,1\n2,0\n")
        assert main(["correlate", str(data)]) == 0
        assert "pearson_r = -1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("text,line", [
        ("x,y\n0.1,0.2\n0.3\n0.5,0.9\n", 3),  # one column
        ("x,y\n0.1,0.2\n0.3,abc\n0.5,0.9\n0.7,0.1\n", 3),  # not a number
        ("# points\n0.1,0.2\nx,y\n0.5,0.9\n", 3),  # a header after the data
    ], ids=["short", "unparsable", "late_header"])
    def test_correlate_rejects_a_bad_row_by_line(self, tmp_path, capsys, text, line):
        data = tmp_path / "pts.csv"
        data.write_text(text)
        assert main(["correlate", str(data)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: ") and captured.err.count("\n") == 1
        assert f"line {line}:" in captured.err

    @pytest.mark.parametrize("text,line,n,says", [
        ("0 1\n1 2 3\n", 2, None, "need two"),  # three tokens
        ("# net\n0 1\n\n1 x\n", 4, None, "need two"),  # not an integer
        ("0 1\n1 -2\n", 2, None, "need two"),  # negative index
        ("0 1\n2 2\n", 2, None, "self-loop at node 2"),
        ("0 1\n1 2\n0 1\n", 3, None, "duplicate edge 0 1 (first listed on line 1)"),
        ("0 1\n1 2\n# x\n2 1\n", 4, None, "duplicate edge 2 1 (first listed on line 2)"),
        ("0 1\n1 5\n", 2, 4, "endpoint 5 out of range for n=4"),
    ], ids=["tokens", "non_integer", "negative", "self_loop", "duplicate", "duplicate_reversed",
            "endpoint_beyond_n"])
    def test_measure_rejects_a_bad_edge_line_by_line(self, tmp_path, capsys, text, line, n, says):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        assert main(["measure", str(path)] + ([] if n is None else ["--n", str(n)])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ValueError: ") and captured.err.count("\n") == 1
        assert f"{path} line {line}: {says}" in captured.err

    def test_measure_fit_on_a_flat_histogram_fails_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "path.edges"
        path.write_text("0 1\n1 2\n2 3\n")
        assert main(["measure", str(path), "--fit"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameter: ") and err.count("\n") == 1
        assert "no spread in log counts" in err
