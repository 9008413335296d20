"""Self-test of the benchmark, on its small mode.

    python3 perfbench/selftest.py

1. Planted wrong answers: for each workload, one output is replaced by a
   wrong one (a rescaled-and-twisted map, a swapped subspace, a flipped
   grid cell) and must be counted as exactly one failed operation, while
   the true outputs, and a merely rescaled map, count none.
2. Repeatable counts: two traced runs with the same seed, each in a fresh
   interpreter, must report identical per-layer counts.
3. Reported names: an untraced run reports exactly the end-to-end metrics
   of BENCHMARK.json, and a traced run exactly its per-layer metrics.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark itself)

SEED = 3


def first(items, prefix):
    return next(k for k, item in enumerate(items)
                if item.label.startswith(prefix))


def check_planted(workloads):
    from orthoset_lab import SfieldMorphism

    problems = []

    def expect(name, plant, failed):
        got, reasons = _failures(workloads, name, plant)
        if got != failed:
            problems.append(f"{name}/{plant.__name__}: {got} failed, "
                            f"expected {failed} ({reasons})")

    def untouched(items, outputs):
        return outputs

    def rescaled(items, outputs):
        k = first(items, "Qi/n")
        outputs[k] = outputs[k].scale(2)
        return outputs

    def rescaled_and_twisted(items, outputs):
        k = first(items, "Qi/n")
        phi = outputs[k].scale(2)
        outputs[k] = dataclasses.replace(
            phi, sigma=phi.sigma.compose(SfieldMorphism.conjugation()))
        return outputs

    def swapped_subspace(items, outputs):
        out = outputs[0]
        outputs[0] = dataclasses.replace(out, s1=out.s2, s2=out.s1)
        return outputs

    def flipped_cell(items, outputs):
        k = first(items, "b/")
        grid = outputs[k].copy()
        grid[0, 0] = not grid[0, 0]
        outputs[k] = grid
        return outputs

    def flipped_sampled_cell(items, outputs):
        k = first(items, "a/")
        grid = outputs[k].copy()
        i, j = next(zip(*(~grid).nonzero()))
        grid[i, j] = True
        outputs[k] = grid
        return outputs

    for name in run.WORKLOADS:
        expect(name, untouched, 0)
    expect("wigner", rescaled, 0)
    expect("wigner", rescaled_and_twisted, 1)
    expect("partial", swapped_subspace, 1)
    expect("grid", flipped_cell, 1)
    expect("grid", flipped_sampled_cell, 1)
    return problems


def _failures(workloads, name, plant):
    """Failed count and reasons when the outputs of one small round pass
    through `plant` before they are judged."""
    items = workloads.build(name, SEED, small=True)
    _, _, outputs = run.run_round(items)
    tally = run.Tally(items)
    tally.add(plant(items, list(outputs)))
    return tally.failed, tally.reasons


def small_run(name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--small"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def check_runs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for name in run.WORKLOADS:
        plain = small_run(name, 0)
        traced = small_run(name, 1)
        for kind, result in (("end_to_end", plain), ("per_layer", traced)):
            expected = [(m["name"], m["unit"]) for m in spec[kind]]
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if sorted(got) != sorted(expected):
                problems.append(f"{name}: reports {got}, BENCHMARK.json "
                                f"lists {expected} as {kind}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: small run not correct: {result}")
        first_counts = counts(traced)
        second_counts = counts(small_run(name, 1))
        if first_counts != second_counts:
            diff = {k: (v, second_counts.get(k))
                    for k, v in first_counts.items()
                    if second_counts.get(k) != v}
            problems.append(f"{name}: counts differ between runs: {diff}")
        if not first_counts.get("perpgrid.grid_calls"):
            problems.append(f"{name}: traced run saw no grid")
    return problems


def main() -> int:
    run.prepare_environment()
    workloads = run.import_workloads()
    problems = check_planted(workloads) + check_runs()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
