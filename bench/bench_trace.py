"""In-memory span tracing of netgames' layers, patched in from outside.

``Tracer`` wraps each public layer function under every name a netgames
module binds it to, which includes the name its caller looks it up by (for
example ``netgames.evolution.play_step``, the one ``run`` calls). Each call
records a span: layer name, start, end, the enclosing span, and a note the
layer's metrics need (edges played, adoption taken, rewiring reached). The
tracer's workload name is stored with the spans. Leaving the ``with`` block
puts every original function back.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# span name -> (defining module, functions it covers)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "engine.play_step": ("netgames.engine", ("play_step",)),
    "engine.reset_node": ("netgames.engine", ("reset_node",)),
    "engine.init": ("netgames.engine", ("init_hubs", "init_random")),
    "evolution.moran_event": ("netgames.evolution", ("moran_event",)),
    "evolution.adoption_event": ("netgames.evolution", ("adoption_event",)),
    "evolution.run": ("netgames.evolution", ("run",)),
    "evolution.write_run_csv": ("netgames.evolution", ("write_run_csv",)),
    "networks.generate": ("netgames.networks", ("barabasi_albert", "regular_random")),
    "networks.rewire": ("netgames.networks", ("rewire_to_assortativity",)),
    "networks.write_edgelist": ("netgames.networks", ("write_edgelist",)),
    "experiments.run_scenario": ("netgames.experiments", ("run_scenario",)),
    "experiments.read_final_fraction": ("netgames.experiments", ("read_final_fraction",)),
    "pairchain.expected_payoffs": ("netgames.pairchain", ("expected_payoffs",)),
}

# spans are stored in chunks of this many, so no buffer outgrows glibc's
# 128 KiB mmap threshold: growing one big buffer frees large blocks, which
# raises the threshold and speeds up netgames' own large temporaries
CHUNK = 4096
_TYPECODES = ("H", "d", "d", "q", "q")  # name id, start, end, parent, note

# what a finished call notes in its span; a call that raised notes 0
NOTES = {
    "engine.play_step": lambda args, result: args[0].net.num_edges,
    "evolution.adoption_event": lambda args, result: int(result[2]),
    "networks.rewire": lambda args, result: 1,
}


class Tracer:
    """Span recorder for one workload; a context manager that patches the layers."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names = list(LAYERS)
        self._chunks: list[tuple[array, ...]] = [tuple(array(t) for t in _TYPECODES)]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        lid = self.names.index(layer)
        note_of = NOTES.get(layer)
        chunks, stack = self._chunks, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            chunk = chunks[-1]
            if len(chunk[0]) == CHUNK:
                chunk = tuple(array(t) for t in _TYPECODES)
                chunks.append(chunk)
            name_id, start, end, parent, note = chunk
            k = len(start)
            name_id.append(lid)
            parent.append(stack[-1] if stack else -1)
            note.append(0)
            start.append(clock())
            end.append(0.0)
            stack.append((len(chunks) - 1) * CHUNK + k)
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note[k] = note_of(args, result)
                return result
            finally:
                end[k] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "netgames" or k.startswith("netgames."))]
        try:
            for layer, (home, funcs) in LAYERS.items():
                for func in funcs:
                    original = getattr(sys.modules[home], func)
                    wrapper = self._wrap(layer, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                self._patched.append((mod, attr, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every patched name back to its original function."""
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as columns, with each span's duration and self time."""
        cols = {}
        for j, (key, dtype) in enumerate(
            (("name_id", np.uint16), ("start", np.float64), ("end", np.float64),
             ("parent", np.int64), ("note", np.int64))
        ):
            cols[key] = np.concatenate([np.frombuffer(c[j], dtype=dtype) for c in self._chunks])
        dur = cols["end"] - cols["start"]
        child = np.zeros(len(dur))
        has = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has], dur[has])
        return {**cols, "dur": dur, "self": dur - child}

    def save(self, path: Path) -> None:
        """Write the spans (name, start, end, parent, note, workload) as .npz."""
        a = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            workload=np.array(self.workload),
            **{k: a[k] for k in ("name_id", "start", "end", "parent", "note")},
        )


def layer_metrics(tracer: Tracer, wall_s: float, instances: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans; ``wall_s`` is the traced operations' wall time."""
    a = tracer.arrays()
    by = {name: a["name_id"] == i for i, name in enumerate(tracer.names)}

    def calls(layer):
        return float(np.count_nonzero(by[layer]))

    def total(layer, key="dur"):
        return float(a[key][by[layer]].sum())

    def pct(layer, q, scale):
        d = a["dur"][by[layer]]
        return float(np.percentile(d, q) * scale) if len(d) else 0.0

    def notes(layer):
        return float(a["note"][by[layer]].sum())

    def frac(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["engine.play_step.calls"] = (calls("engine.play_step"), "count")
    m["engine.play_step.self_s"] = (total("engine.play_step", "self"), "s")
    m["engine.play_step.us_p50"] = (pct("engine.play_step", 50, 1e6), "us")
    m["engine.play_step.us_p99"] = (pct("engine.play_step", 99, 1e6), "us")
    m["engine.play_step.share"] = (frac(total("engine.play_step", "self"), wall_s), "frac")
    m["engine.edge_rounds"] = (notes("engine.play_step"), "count")
    m["engine.reset_node.calls"] = (calls("engine.reset_node"), "count")
    m["engine.reset_node.self_s"] = (total("engine.reset_node", "self"), "s")
    m["engine.init.s"] = (total("engine.init"), "s")
    m["evolution.moran_event.calls"] = (calls("evolution.moran_event"), "count")
    m["evolution.moran_event.self_s"] = (total("evolution.moran_event", "self"), "s")
    m["evolution.moran_event.us_p50"] = (pct("evolution.moran_event", 50, 1e6), "us")
    m["evolution.moran_event.share"] = (frac(total("evolution.moran_event", "self"), wall_s), "frac")
    m["evolution.adoption_event.calls"] = (calls("evolution.adoption_event"), "count")
    m["evolution.adoption_event.self_s"] = (total("evolution.adoption_event", "self"), "s")
    m["evolution.adoption_event.us_p50"] = (pct("evolution.adoption_event", 50, 1e6), "us")
    m["evolution.adoption_event.adopted_frac"] = (
        frac(notes("evolution.adoption_event"), calls("evolution.adoption_event")), "frac")
    m["evolution.run.self_s"] = (total("evolution.run", "self"), "s")
    m["evolution.write_run_csv.s"] = (total("evolution.write_run_csv"), "s")
    m["networks.generate.s"] = (total("networks.generate"), "s")
    m["networks.rewire.calls"] = (calls("networks.rewire"), "count")
    m["networks.rewire.s"] = (total("networks.rewire"), "s")
    m["networks.rewire.ms_p50"] = (pct("networks.rewire", 50, 1e3), "ms")
    m["networks.rewire.ok_frac"] = (frac(notes("networks.rewire"), calls("networks.rewire")), "frac")
    m["networks.rewire.attempts_per_instance"] = (frac(calls("networks.rewire"), instances), "count")
    m["networks.write_edgelist.s"] = (total("networks.write_edgelist"), "s")
    m["experiments.run_scenario.self_s"] = (total("experiments.run_scenario", "self"), "s")
    m["experiments.read_final_fraction.s"] = (total("experiments.read_final_fraction"), "s")
    m["pairchain.expected_payoffs.calls"] = (calls("pairchain.expected_payoffs"), "count")
    m["pairchain.expected_payoffs.us_p50"] = (pct("pairchain.expected_payoffs", 50, 1e6), "us")
    return m
