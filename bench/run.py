"""Run one netgames benchmark workload and print its metrics.

    python3 bench/run.py --workload scale_adoption --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload runs single-process, one
operation after another (a closed loop with one client), in whole rounds
until the operations have taken ``--seconds`` of wall time; output checks
run between operations, outside the timed part. Rates are the median over
rounds, given at nominal host speed (see ``HostSpeed``). With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` the same operations run once untraced and once
traced, and it holds the per-layer metrics. Earlier lines print every
figure by name and unit, and a results file with provenance goes to
``.bench_out/results/``.
README.md next to this file describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7  # this process's own set-up plus six in fresh interpreters
MIN_TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
HOST_EVERY_S = 0.5  # one host-speed probe per this much wall time while measuring
PROBE_SIZE = 8192  # elements per probe array, 64 KiB as float64
NOMINAL_PROBE_S = (2.0e-3, 3.0e-3)  # the probe's numpy and Python parts at nominal speed


class HostSpeed:
    """How fast the shared host runs right now, relative to a nominal speed.

    The speed this process gets drifts by tens of percent over minutes as
    neighbours load the machine, which moves every wall-clock figure alike.
    A fixed probe, independent of netgames, is timed: a numpy part shaped
    like an edge round, on arrays small enough to stay clear of the
    allocator effects netgames itself shows, and a pure-Python part. Speed is the geometric mean
    of nominal over measured time of the two parts, so 1.0 is nominal and
    1.2 a host running 20% fast. Figures "at nominal speed" divide rates,
    and multiply times, by the median speed measured alongside them.

    Inside ``with`` the probe runs from a SIGALRM timer every
    ``HOST_EVERY_S``, so it samples the host evenly through long operations
    too; ``probe_s`` accumulates its own time, which callers subtract from
    the operations it interrupted.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        # every array stays below glibc's 128 KiB mmap threshold and is reused,
        # so the probe neither depends on nor changes the allocator's state
        self.rng = np.random.default_rng(0)
        self.idx = self.rng.integers(0, 4096, PROBE_SIZE)
        self.p = self.rng.random(5)[self.idx % 5]
        self.w = self.rng.random(PROBE_SIZE)
        self.u = np.empty(PROBE_SIZE)
        self.hit = np.empty(PROBE_SIZE, dtype=bool)
        self.wh = np.empty(PROBE_SIZE)
        self.speeds: list[float] = []
        self.probe_s = 0.0
        self._previous_handler = None
        self.sample()  # warm-up: the first call in a process pays one-off costs

    def sample(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(25):
            self.rng.random(out=self.u)
            np.less(self.u, self.p, out=self.hit)
            np.multiply(self.w, self.hit, out=self.wh)
            np.bincount(self.idx, weights=self.wh, minlength=4096)
        t1 = time.perf_counter()
        seen: dict[int, int] = {}
        acc = 0
        for i in range(20_000):
            seen[i & 1023] = i
            acc += seen.get((i >> 3) & 1023, 0)
        t2 = time.perf_counter()
        return ((NOMINAL_PROBE_S[0] / (t1 - t0)) * (NOMINAL_PROBE_S[1] / (t2 - t1))) ** 0.5

    def median(self, k: int) -> float:
        return statistics.median(self.sample() for _ in range(k))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(self.sample())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, HOST_EVERY_S, HOST_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _load_workload(name: str, seed: int):
    """Import netgames and set the workload up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    if not (ROOT / "src" / "netgames").is_dir():
        raise SystemExit(f"netgames sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench_workloads

    wl = bench_workloads.make(name, seed, OUT / "tmp")
    wl.setup()
    return wl, time.perf_counter() - t0


def _setup_in_fresh_process(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["speed"]


def measure(wl, seconds: float, host: HostSpeed, log=sys.stderr) -> dict:
    """Run operations 0, 1, ... in whole rounds until they have taken ``seconds``.

    Each round without a failure gives one rate sample, the round's units of
    work per second; the workload's rate is the median of these samples.
    The host-speed probes run throughout; their time is not operation time.
    """
    times: list[float] = []
    rates: list[float] = []
    problems: list[str] = []
    first_speed = len(host.speeds)
    work = replicates = failed = 0
    elapsed = 0.0
    round_outs: list = []
    round_times: list[float] = []
    round_ok = True
    i = 0
    with host:
        while elapsed < seconds or i % wl.round_size:
            probed = host.probe_s
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception:
                dt = time.perf_counter() - t0 - (host.probe_s - probed)
                failed += 1
                round_ok = False
                problems.append(f"operation {i} raised")
                traceback.print_exc(file=log)
            else:
                dt = time.perf_counter() - t0 - (host.probe_s - probed)
                work += wl.work_of(out)
                replicates += wl.replicates_of(out)
                round_outs.append(out)
                round_times.append(dt)
                bad = wl.check(out)
                if bad:
                    failed += 1
                    problems.extend(bad)
            times.append(dt)
            elapsed += dt
            i += 1
            if i % wl.round_size == 0:
                if round_ok:
                    rates.append(wl.rate(round_outs, round_times))
                round_outs, round_times, round_ok = [], [], True
    speeds = host.speeds[first_speed:] + [host.sample()]
    return {"times": times, "rates": rates, "speeds": speeds, "work": work,
            "replicates": replicates, "failed": failed, "problems": problems}


def median_rate(run: dict) -> float:
    """Median round rate at nominal host speed."""
    if not run["rates"]:
        return 0.0
    return statistics.median(run["rates"]) / statistics.median(run["speeds"])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with 10 samples beyond it."""
    n = len(samples)
    if n <= MIN_TAIL_BEYOND:
        return None
    return 100.0 * (n - MIN_TAIL_BEYOND) / n, sorted(samples)[n - MIN_TAIL_BEYOND - 1]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, run: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Gated metrics (every workload) and workload-specific figures.

    The gated times are at nominal host speed; the named figures are as the
    wall clock read them.
    """
    wall = sum(run["times"])
    gated = {
        "ops_per_s": (median_rate(run), "1/s"),
        "setup_s": (statistics.median(t * speed for t, speed in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    attempted = len(run["times"])
    named = {
        "host_speed": (statistics.median(run["speeds"]), "ratio"),
        "ops_per_s_wall": (statistics.median(run["rates"]) if run["rates"] else 0.0, "1/s"),
        "setup_s_wall": (statistics.median(t for t, _ in setup), "s"),
        "failed_frac": (run["failed"] / attempted, "frac"),
    }
    if wl.unit == "time-step":
        named["steps_per_s"] = named["ops_per_s_wall"]
        named["replicates_per_s"] = (run["replicates"] / wall, "1/s")
    else:
        named["instances_per_s"] = named["ops_per_s_wall"]
        ms = [t * 1e3 for t in run["times"]]
        named["instance_ms_p50"] = (statistics.median(ms), "ms")
        tl = tail(ms)
        if tl is not None:
            named["instance_ms_tail"] = (tl[1], "ms")
            named["instance_ms_tail.percentile"] = (tl[0], "%")
        named["instance_ms.samples"] = (float(len(ms)), "count")
    return gated, named


def per_layer(wl, untraced: dict, traced: dict, tracer) -> dict:
    """Layer figures of the traced run plus the rate tracing cost."""
    import bench_trace

    wall = sum(traced["times"])
    instances = len(traced["times"]) if wl.unit == "instance" else 0
    out = bench_trace.layer_metrics(tracer, wall, instances)
    out["trace_overhead_frac"] = (1.0 - median_rate(traced) / median_rate(untraced), "frac")
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:
        _, seconds = _load_workload(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds, "speed": HostSpeed().median(5)}))
        return 0

    wl, first_setup = _load_workload(args.workload, args.seed)
    host = HostSpeed()
    setup = [(first_setup, host.median(5))]
    setup += [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    import numpy as np

    runs = [measure(wl, args.seconds, host)]
    gated, named = end_to_end(wl, runs[0], setup)  # before tracing adds to the peak RSS
    if args.trace:
        import bench_trace

        with bench_trace.Tracer(wl.name) as tracer:
            runs.append(measure(wl, args.seconds, host))
            # set-up layers are traced after measuring: an extra set-up before
            # it would leave the allocator in another state than untraced runs
            wl.setup()
    problems = wl.repeat_check()

    attempted = sum(len(r["times"]) for r in runs) + 1
    failed = sum(r["failed"] for r in runs) + (1 if problems else 0)
    problems = [p for r in runs for p in r["problems"]] + problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        reported = per_layer(wl, runs[0], runs[1], tracer)
        tracer.save(OUT / "traces" / f"{wl.name}.npz")
    else:
        reported = gated

    provenance = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "operations": len(runs[0]["times"]),
        "rate_samples": len(runs[0]["rates"]),
        "setup_samples": len(setup),
        "tail_min_beyond": MIN_TAIL_BEYOND,
    }
    for key, value in provenance.items():
        print(f"# {key} = {value}")
    for name, (value, unit) in {**gated, **named, **(reported if args.trace else {})}.items():
        print(f"{name} = {value!r} {unit}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "provenance": provenance,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_layer": ({k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
                      if args.trace else {}),
        "problems": problems,
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
