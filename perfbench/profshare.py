"""Where one round of a workload spends its time, by cProfile.

    python3 perfbench/profshare.py --workload partial --seed 1

Prints the share of profiled time spent inside the scalar layer (the
Gaussian and quaternion types of `orthoset_lab/scalars.py`, and the
standard library's `fractions.py`, which carries Q and every component)
and inside `math.gcd`, and the functions with the most self time.
cProfile adds a cost to every Python call, so shares of call-heavy
layers read high; use it to find candidates and the benchmark to
measure them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark itself)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=12)
    args = p.parse_args()
    run.prepare_environment()
    workloads = run.import_workloads()
    items = workloads.build(args.workload, args.seed)
    run.run_round(items)  # the same warm state as a measured round
    profiler = cProfile.Profile()
    profiler.runcall(run.run_round, items)
    stats = pstats.Stats(profiler)
    total = stats.total_tt
    scalars = fractions = gcd = 0.0
    rows = []
    for (path, line, func), (_, calls, tt, _, _) in stats.stats.items():
        if path.endswith("orthoset_lab/scalars.py"):
            scalars += tt
        if path.endswith("/fractions.py"):
            fractions += tt
        if func == "<built-in method math.gcd>":
            gcd += tt
        rows.append((tt, calls, f"{Path(path).name}:{line}({func})"))
    print(f"{args.workload}: profiled round {total:.2f} s; "
          f"self time in scalars.py {scalars / total:.1%}, "
          f"fractions.py {fractions / total:.1%}, math.gcd {gcd / total:.1%}")
    for tt, calls, name in sorted(rows, reverse=True)[:args.top]:
        print(f"  {tt / total:6.1%} {calls:>9d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
