"""Per-layer spans recorded from outside the library.

A Tracer wraps public functions of orthoset_lab at its layer boundaries.
Each wrapped call is a span; the tracer keeps, per layer, the number of
calls and the self time (the span's duration minus the time of the spans
it caused), plus the same figures per (caller layer, layer) edge.  Spans
are aggregated in memory as they close, because a single round makes
hundreds of thousands of them.

A function imported by name into another module of the package is
rebound there too, so that `ray_of` is traced whether orthoset,
correspondence or suites calls it.  The scalar layer is never wrapped: it
runs millions of calls a second, and its cost stays inside the self time
of its callers.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict, namedtuple

PACKAGE = "orthoset_lab"

# what the layers did between two takes
Snapshot = namedtuple("Snapshot", "calls self_s cells orth_cells")


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])
        self.cells = 0
        self.orth_cells = 0
        self._stack = []
        self._patches = []
        self._wrappers = []

    # ------------------------------------------------------------ spans

    def _span(self, layer, fn, name_of=None, on_result=None):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args) if name_of else layer
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += total
                own = total - frame[1]
                calls[name] += 1
                self_s[name] += own
                edge = edges[(parent[0] if parent else "-", name)]
                edge[0] += 1
                edge[1] += own
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def take(self) -> Snapshot:
        """What the layers did since the last take; counting starts afresh."""
        out = Snapshot(dict(self.calls), dict(self.self_s), self.cells,
                       self.orth_cells)
        self.calls.clear()
        self.self_s.clear()
        self.cells = self.orth_cells = 0
        return out

    # ------------------------------------------------------ installation

    def _plan(self):
        """(owner, attribute, layer, name_of, on_result) for every wrapped
        boundary; owner is a class for methods, a module for functions."""
        from orthoset_lab import (correspondence, hermspace, linalg,
                                  orthoset, perpgrid, sampling)

        def grid_name(args):
            return ("perpgrid.grid.dim_le6" if args[0].dim <= 6
                    else "perpgrid.grid.dim_ge7")

        def grid_result(args, grid):
            self.cells += grid.size
            self.orth_cells += int(grid.sum())

        subspace = [(hermspace.Subspace, a, "hermspace.subspace")
                    for a in ("__post_init__", "from_vectors", "project",
                              "orthocomplement", "contains")]
        samplers = [(sampling, name, "sampling.sample") for name in (
            "random_linear_map", "random_invertible_map", "reflection",
            "random_unitary", "left_scalar_map", "conjugation_map",
            "random_quasiunitary", "random_partial_isometry")]
        samplers += [(hermspace, name, "sampling.sample") for name in (
            "random_vector", "random_nonzero_vector", "random_subspace")]
        plain = subspace + samplers + [
            (orthoset.RayMap, "__call__", "orthoset.raymap"),
            (orthoset, "ray_of", "orthoset.ray_of"),
            (hermspace.SemilinearMap, "apply", "hermspace.apply"),
            (orthoset, "verify_adjoint_pair", "orthoset.verify_pair"),
            (linalg, "rref", "linalg.rref"),
            (linalg, "rref_with_transform", "linalg.rref"),
            (hermspace.SubspaceFrame, "to_ambient", "hermspace.frame"),
            (hermspace.SubspaceFrame, "from_ambient", "hermspace.frame"),
            (hermspace.HermitianSpace, "__post_init__", "hermspace.certify"),
            (correspondence, "coordinatize", "correspondence.coordinatize"),
            (correspondence, "decompose_partial_orthometry",
             "correspondence.decompose"),
            (correspondence, "piziak_lambda", "correspondence.piziak"),
            (orthoset.ProbeSet, "generate", "orthoset.probegen"),
            (orthoset, "probe_rays_in", "orthoset.probegen"),
        ]
        plan = [(owner, attr, layer, None, None)
                for owner, attr, layer in plain]
        plan.append((perpgrid, "perp_grid", "perpgrid.grid", grid_name,
                     grid_result))
        return plan

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            self._wrappers = [self._make(*entry) for entry in self._plan()]
        for owner, attr, original, wrapped in self._wrappers:
            if isinstance(owner, type):
                self._patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
                continue
            # a function: rebind it wherever the package imported it by name
            for mod_name, module in list(sys.modules.items()):
                if mod_name.partition(".")[0] != PACKAGE:
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapped)

    def _make(self, owner, attr, layer, name_of, on_result):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            fn = raw.__func__
            return owner, attr, raw, classmethod(
                self._span(layer, fn, name_of, on_result))
        return owner, attr, raw, self._span(layer, raw, name_of, on_result)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
