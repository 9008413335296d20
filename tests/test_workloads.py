"""The benchmark's workloads (`perfbench/workloads.py`) judge their own
outputs.  Running every item of each small workload here makes a library
change that breaks one of those checks fail the tests, not only a
benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, "workloads", module)
    spec.loader.exec_module(module)
    return module


def test_small_workload_items_pass_their_own_checks(monkeypatch):
    workloads = load_workloads(monkeypatch)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    names = [w["name"] for w in declared]
    assert sorted(names) == sorted(workloads.BUILDERS)
    for name in names:
        items = workloads.build(name, 3, small=True)
        assert items, name
        for item in items:
            assert item.check(item.run()) is None, item.label
