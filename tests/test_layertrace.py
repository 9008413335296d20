"""The benchmark's layer tracer (`perfbench/layertrace.py`) wraps library
functions and methods by name.  Renaming or deleting one of them breaks
`perfbench/run.py --trace 1`, so installing and removing the tracer must
work against the library as it stands."""

import importlib.util
from pathlib import Path

from orthoset_lab import hermspace, orthoset
from orthoset_lab.correspondence import induce
from orthoset_lab.hermspace import SemilinearMap, Subspace, standard_space
from orthoset_lab.starfields import StarSfield

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_uninstalls():
    traced = [(orthoset.RayMap, "__call__"),
              (hermspace.SubspaceFrame, "to_ambient"),
              (hermspace.SubspaceFrame, "from_ambient"),
              (hermspace.Subspace, "project")]
    before = [owner.__dict__[attr] for owner, attr in traced]
    ray_of_before = orthoset.ray_of
    tracer = load_tracer()()
    tracer.install()
    try:
        q3 = standard_space(StarSfield.Q, 3)
        # through the module, where the tracer rebinds the name
        x = orthoset.ray_of(q3.basis_vector(0))
        induce(SemilinearMap.identity(q3))(x)
        s = Subspace.from_vectors(q3, [q3.vector([1, 1, 0])])
        s.frame.from_ambient(q3.vector([2, 2, 0]))
        s.project(q3.vector([1, 0, 0]))
    finally:
        tracer.uninstall()
    calls = tracer.take().calls
    assert calls["orthoset.raymap"] == 1
    assert calls["hermspace.frame"] >= 2
    assert calls["orthoset.ray_of"] == 1
    assert [owner.__dict__[attr] for owner, attr in traced] == before
    assert orthoset.ray_of is ray_of_before
