"""The benchmark's workloads (`perfbench/workloads.py`) judge their own
outputs, and the benchmark (`perfbench/run.py`) counts an item whose
output differs from its earlier output as failed.  Running every item of
each small workload twice here makes a library change that breaks one of
those checks, or that makes a second run answer differently (say,
because a memo fills at another time), fail the tests, not only a
benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, with its siblings importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name,
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_small_workload_items_pass_their_own_checks(monkeypatch):
    workloads = load_perfbench(monkeypatch, "workloads")
    same = load_perfbench(monkeypatch, "run")._same
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    names = [w["name"] for w in declared]
    assert sorted(names) == sorted(workloads.BUILDERS)
    for name in names:
        items = workloads.build(name, 3, small=True)
        assert items, name
        for item in items:
            first = item.run()
            assert item.check(first) is None, item.label
            assert same(item.run(), first), item.label
