"""The orthoset-lab benchmark: one command, three workloads, one thread.

    python3 perfbench/run.py --workload wigner --seed 1 --seconds 12 --trace 0

Run it from anywhere; it imports the package from the `src/` directory
next to this one, never from an installed copy.  Set-up imports the
package and builds every input from `--seed` (spaces, sampled maps with
their inverses, probe sets, coordinate rows).  The timed phase then runs
whole rounds, each round every item of the workload once, until
`--seconds` of rounds have been measured (and at least one round).
Every output is checked outside the timed phase; an item whose output
fails its check, differs from its earlier output or raises counts as a
failed operation.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics.  Their times are scaled to a reference host
speed: the fixed kernel of `hostspeed.py` is timed between items and
beside every cold set-up, and each time is multiplied by the kernel's
reference time over its median time next to it.  The times as measured
are printed too.  With `--trace 1` rounds alternate between untraced and
traced, and the JSON object holds the per-layer metrics of one set-up
plus one round.  Result and trace files go to `perfbench/out/`.
See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("wigner", "partial", "grid")
SETUP_SAMPLES = 5  # cold set-ups per run, each in a fresh interpreter
SPEED_SAMPLES_PER_SETUP = 8  # kernel runs before and after a set-up
# settings that would change what is measured: the library's thread budget
# and slow reference grid path, and native thread pools
CLEARED_ENV = ("ORTHOSET_LAB_THREADS", "ORTHOSET_LAB_EXACT_GRID")
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# (name, unit, better) for the per-layer metrics, in report order
PER_LAYER = (
    ("orthoset.raymap_calls", "count", "lower"),
    ("orthoset.raymap_s", "s", "lower"),
    ("orthoset.ray_of_calls", "count", "lower"),
    ("orthoset.ray_of_s", "s", "lower"),
    ("hermspace.apply_calls", "count", "lower"),
    ("hermspace.apply_s", "s", "lower"),
    ("orthoset.verify_pair_calls", "count", "lower"),
    ("orthoset.verify_pair_s", "s", "lower"),
    ("perpgrid.grid_calls", "count", "lower"),
    ("perpgrid.cells", "count", "lower"),
    ("perpgrid.orth_cells", "count", "lower"),
    ("perpgrid.grid_s.dim_le6", "s", "lower"),
    ("perpgrid.grid_s.dim_ge7", "s", "lower"),
    ("perpgrid.cells_per_s", "cells/s", "higher"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.rref_s", "s", "lower"),
    ("hermspace.subspace_calls", "count", "lower"),
    ("hermspace.subspace_s", "s", "lower"),
    ("hermspace.frame_calls", "count", "lower"),
    ("hermspace.frame_s", "s", "lower"),
    ("hermspace.certify_calls", "count", "lower"),
    ("hermspace.certify_s", "s", "lower"),
    ("correspondence.coordinatize_s", "s", "lower"),
    ("correspondence.decompose_s", "s", "lower"),
    ("correspondence.piziak_s", "s", "lower"),
    ("orthoset.probegen_s", "s", "lower"),
    ("sampling.sample_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
GRID_LAYERS = ("perpgrid.grid.dim_le6", "perpgrid.grid.dim_ge7")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="tiny inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="print the set-up time as JSON and exit")
    return p.parse_args(argv)


def prepare_environment():
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def import_workloads():
    """Import the benchmark's workloads, and with them the package, from
    this checkout's `src/`."""
    if not (SRC / "orthoset_lab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no orthoset_lab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import orthoset_lab
    import workloads
    if Path(orthoset_lab.__file__).resolve().parent != SRC / "orthoset_lab":
        raise SystemExit("perfbench: imported orthoset_lab from "
                         f"{orthoset_lab.__file__}, not from {SRC}")
    return workloads


class Raised:
    """An item's operation raised instead of returning."""

    def __init__(self, exc: Exception):
        self.reason = f"raised {type(exc).__name__}: {exc}"


class Tally:
    """Counts attempted and failed operations.  The first output of each
    item is checked; a later output must equal it."""

    _UNSET = object()

    def __init__(self, items):
        self.items = items
        self.reference = [self._UNSET] * len(items)
        self.verdict = [None] * len(items)
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def add(self, outputs):
        for k, out in enumerate(outputs):
            self.attempted += 1
            reason = self._judge(k, out)
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(self.items[k].label, reason)

    def _judge(self, k, out):
        if isinstance(out, Raised):
            return out.reason
        if self.reference[k] is self._UNSET:
            self.reference[k] = out
            try:
                self.verdict[k] = self.items[k].check(out)
            except Exception as exc:  # a check that cannot decide fails
                self.verdict[k] = f"check raised {type(exc).__name__}: {exc}"
            return self.verdict[k]
        if not _same(out, self.reference[k]):
            return "output differs from the item's earlier output"
        return self.verdict[k]


def _same(a, b) -> bool:
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def run_round(items, speed=None):
    """Run every item once; return (round time, item times, outputs).
    Given a list `speed`, time the host-speed kernel into it before every
    item and after the last, outside the item times."""
    times, outputs = [], []
    clock = time.perf_counter
    for item in items:
        if speed is not None:
            speed.append(hostspeed.sample())
        t0 = clock()
        try:
            out = item.run()
        except Exception as exc:  # counted as a failed operation
            out = Raised(exc)
        times.append(clock() - t0)
        outputs.append(out)
    if speed is not None:
        speed.append(hostspeed.sample())
    return sum(times), times, outputs


def timed_setup(workload, seed, small, tracer=None):
    start = time.perf_counter()
    workloads = import_workloads()
    if tracer is not None:
        tracer.install()
    items = workloads.build(workload, seed, small)
    return time.perf_counter() - start, items


def cold_setup(args):
    """Set-up time of a fresh interpreter, package import included, with
    the typical kernel times that interpreter took just before and after
    it."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    if args.small:
        cmd.append("--small")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return out["setup_s"], [out["speed_before_s"], out["speed_after_s"]]


def cold_setups(args):
    """Cold set-up times at the reference speed, as measured, and the
    kernel times beside them."""
    scaled, measured, speeds = [], [], []
    for _ in range(SETUP_SAMPLES):
        setup_s, speed = cold_setup(args)
        scaled.extend(hostspeed.at_reference([setup_s], speed, window=1))
        measured.append(setup_s)
        speeds.append(speed)
    return scaled, measured, speeds


def setup_only(args):
    """Time one set-up in this fresh interpreter, between two runs of
    the kernel, and print the times as JSON."""
    def speed_now():
        return hostspeed.typical([hostspeed.sample()
                                  for _ in range(SPEED_SAMPLES_PER_SETUP)])

    before = speed_now()
    setup_s, _ = timed_setup(args.workload, args.seed, args.small)
    after = speed_now()
    print(json.dumps({"setup_s": setup_s, "speed_before_s": before,
                      "speed_after_s": after}))


def tail_percentile(n: int):
    """The highest whole percentile leaving at least ten samples above it;
    None below forty samples, where a tail would be no tail."""
    if n < 40:
        return None
    return math.floor(100 * (1 - 10 / n))


def label_medians(items, samples):
    by_label = {}
    for item, times in zip(items, samples):
        by_label.setdefault(item.label, []).extend(times)
    return {label: round(statistics.median(ts) * 1e3, 3)
            for label, ts in sorted(by_label.items())}


def measure(args):
    _, items = timed_setup(args.workload, args.seed, args.small)
    setups, measured_setups, setup_speed = cold_setups(args)
    tally = Tally(items)
    walls, measured_walls, speed = [], [], []
    samples = [[] for _ in items]  # per item, at the reference speed
    while not walls or sum(measured_walls) < args.seconds:
        gc.collect()
        round_speed = []
        wall, times, outputs = run_round(items, round_speed)
        times = hostspeed.at_reference(times, round_speed)
        measured_walls.append(wall)
        walls.append(sum(times))
        speed.extend(round_speed)
        for per_item, t in zip(samples, times):
            per_item.append(t)
        tally.add(outputs)
    item_times = sorted(t for ts in samples for t in ts)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_ms": (statistics.median(item_times) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    pct = tail_percentile(len(item_times))
    extra = {
        "rounds": len(walls),
        "items_per_round": len(items),
        "host_speed_ms": statistics.median(speed) * 1e3,
        "measured_wall_s": statistics.median(measured_walls),
        "measured_setup_s": statistics.median(measured_setups),
        "round_s": walls,
        "measured_round_s": measured_walls,
        "setup_samples_s": setups,
        "measured_setup_samples_s": measured_setups,
        "setup_host_speed_s": setup_speed,
        "host_speed_samples_s": speed,
        "item_median_ms_by_config": label_medians(items, samples),
    }
    if pct is not None:
        q = statistics.quantiles(item_times, n=100)[pct - 1]
        extra[f"item_p{pct}_ms"] = q * 1e3
        extra["item_samples"] = len(item_times)
    return tally, metrics, extra, True


def measure_traced(args):
    from layertrace import Tracer
    tracer = Tracer()
    _, items = timed_setup(args.workload, args.seed, args.small, tracer)
    tracer.uninstall()
    setup_stats = tracer.take()
    tally = Tally(items)
    walls = {False: [], True: []}  # at the reference speed
    rounds = []
    measured = 0.0
    while not walls[True] or measured < args.seconds:
        for traced in (False, True):
            gc.collect()
            round_speed = []
            if traced:
                tracer.install()
            wall, times, outputs = run_round(items, round_speed)
            if traced:
                tracer.uninstall()
                rounds.append(tracer.take())
            measured += wall
            walls[traced].append(
                sum(hostspeed.at_reference(times, round_speed)))
            tally.add(outputs)
        if args.small:
            break
    # counts are a property of the inputs: every traced round must agree
    steady = all((r.calls, r.cells, r.orth_cells)
                 == (rounds[0].calls, rounds[0].cells, rounds[0].orth_cells)
                 for r in rounds)
    # adjacent rounds, both scaled to the reference speed
    overhead = statistics.median(
        t - u for u, t in zip(walls[False], walls[True]))
    metrics = per_layer_metrics(setup_stats, rounds, overhead)
    extra = {"traced_rounds": len(rounds),
             "untraced_rounds": len(walls[False]),
             "round_s": walls[False], "traced_round_s": walls[True]}
    write_json(OUT / f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed,
        "setup": setup_stats._asdict(),
        "rounds": [r._asdict() for r in rounds],
        "edges": [{"caller": c, "layer": l, "calls": n, "self_s": s}
                  for (c, l), (n, s) in sorted(tracer.edges.items())],
    })
    if not steady:
        extra["error"] = "per-layer counts differ between traced rounds"
    return tally, metrics, extra, steady


def per_layer_metrics(setup_stats, rounds, overhead):
    """Per-layer figures of one set-up plus one round: counts of the
    (identical) traced rounds, self times as their median."""
    setup, first = setup_stats, rounds[0]

    def calls(*layers):
        return sum(setup.calls.get(l, 0) + first.calls.get(l, 0)
                   for l in layers)

    def round_self(*layers):
        return statistics.median(sum(r.self_s.get(l, 0.0) for l in layers)
                                 for r in rounds)

    def self_s(*layers):
        return sum(setup.self_s.get(l, 0.0) for l in layers) \
            + round_self(*layers)

    grid_round_s = round_self(*GRID_LAYERS)
    values = {
        "orthoset.raymap_calls": calls("orthoset.raymap"),
        "orthoset.raymap_s": self_s("orthoset.raymap"),
        "orthoset.ray_of_calls": calls("orthoset.ray_of"),
        "orthoset.ray_of_s": self_s("orthoset.ray_of"),
        "hermspace.apply_calls": calls("hermspace.apply"),
        "hermspace.apply_s": self_s("hermspace.apply"),
        "orthoset.verify_pair_calls": calls("orthoset.verify_pair"),
        "orthoset.verify_pair_s": self_s("orthoset.verify_pair"),
        "perpgrid.grid_calls": calls(*GRID_LAYERS),
        "perpgrid.cells": setup.cells + first.cells,
        "perpgrid.orth_cells": setup.orth_cells + first.orth_cells,
        "perpgrid.grid_s.dim_le6": self_s("perpgrid.grid.dim_le6"),
        "perpgrid.grid_s.dim_ge7": self_s("perpgrid.grid.dim_ge7"),
        "perpgrid.cells_per_s": (first.cells / grid_round_s
                                 if grid_round_s else 0.0),
        "linalg.rref_calls": calls("linalg.rref"),
        "linalg.rref_s": self_s("linalg.rref"),
        "hermspace.subspace_calls": calls("hermspace.subspace"),
        "hermspace.subspace_s": self_s("hermspace.subspace"),
        "hermspace.frame_calls": calls("hermspace.frame"),
        "hermspace.frame_s": self_s("hermspace.frame"),
        "hermspace.certify_calls": calls("hermspace.certify"),
        "hermspace.certify_s": self_s("hermspace.certify"),
        "correspondence.coordinatize_s": self_s("correspondence.coordinatize"),
        "correspondence.decompose_s": self_s("correspondence.decompose"),
        "correspondence.piziak_s": self_s("correspondence.piziak"),
        "orthoset.probegen_s": self_s("orthoset.probegen"),
        "sampling.sample_s": self_s("sampling.sample"),
        "trace.overhead_s": overhead,
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        setup_only(args)
        return 0
    measured = measure_traced if args.trace else measure
    tally, metrics, extra, correct = measured(args)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in extra.items():
        if not isinstance(value, list):
            print(f"{args.workload} {name}: {value}")
    for label, reason in sorted(tally.reasons.items()):
        print(f"{args.workload} FAILED {label}: {reason}")
    write_json(OUT / f"result-{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json", dict(result, details=extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
