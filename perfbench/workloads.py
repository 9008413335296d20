"""Inputs, operations and output checks of the benchmark's workloads.

`build(name, seed, small)` draws every input from the seed and returns
the workload's items.  An item is one user-level operation: a Wigner
round trip, a partial-orthometry reconstruction, or one orthogonality
grid.  Its check decides the output by a computation apart from the code
under test and returns None when the output is right, else a reason.

The structure of each workload (sfields, dimensions, core dimensions,
grid shapes) is fixed; the seed draws only the random entries and the
probe sets, so that runs with different seeds do the same kind and amount
of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from orthoset_lab import (
    NotOrthoisoError,
    ProbeSet,
    SemilinearMap,
    SfieldMorphism,
    StarSfield,
    Vector,
    herm_form,
    induce,
    invert_semilinear,
    is_quasiunitary,
    partial_wigner,
    quasi_generalized_inverse,
    scalar_ratio,
    standard_space,
    wigner_reconstruct,
)
# modules, not names, so that a tracer rebinding the names is seen here
from orthoset_lab import hermspace, perpgrid, sampling

SFIELDS = (StarSfield.Q, StarSfield.QI, StarSfield.HQ)
PROBES = 256          # criteria 07 and 09 run on 256-probe sets
SMALL_PROBES = 32

# wigner: six maps for every (sfield, dimension), so that the median item
# does not hinge on a few sampled maps
WIGNER_DIMS = (3, 4, 5)
WIGNER_MAPS_PER_CONFIG = 6

# partial: (sfield, dimension, core dimension, quasi), two maps each.
# Configurations of similar cost, so that the median item does not hinge
# on one sampled map; the costliest ones (HQ at dimension 6, 2-5 s each)
# are left out to keep a round near 18 s
PARTIAL_MAPS_PER_CONFIG = 2
PARTIAL_CONFIGS = (
    (StarSfield.Q, 4, 3, True),
    (StarSfield.Q, 5, 4, True),
    (StarSfield.Q, 6, 5, False),
    (StarSfield.QI, 4, 3, False),
    (StarSfield.QI, 5, 3, False),
    (StarSfield.QI, 6, 3, True),
    (StarSfield.HQ, 4, 3, False),
    (StarSfield.HQ, 4, 3, True),
    (StarSfield.HQ, 5, 3, True),
)

# grid: (class, dimensions, rows per side)
GRID_CLASSES = (
    ("a", (4, 5, 6), 448),   # random rows; the residue screen decides
    ("b", (4, 5, 6), 112),   # S rows x S-perp rows, mixed with random rows
    ("c", (7, 8), 64),       # random rows past the screen's dimension bound
)
GRID_SAMPLED_CELLS = 64  # non-orthogonal cells re-decided per grid


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def build(name: str, seed: int, small: bool = False) -> list[Item]:
    rng = random.Random(f"perfbench:{name}:{seed}")
    items = BUILDERS[name](rng, seed, small)
    # one fixed, interleaved order, so slow phases of a shared host fall
    # on every configuration alike
    rng.shuffle(items)
    return items


# ------------------------------------------------------------------ wigner

def _wigner_items(rng, seed, small):
    configs = [(StarSfield.QI, 3)] if small else \
        [(sf, n) for sf in SFIELDS for n in WIGNER_DIMS]
    maps = 1 if small else WIGNER_MAPS_PER_CONFIG
    count = SMALL_PROBES if small else PROBES
    items = []
    for sf, n in configs:
        space = standard_space(sf, n)
        _warm_grid(space)
        for k in range(maps):
            probes = ProbeSet.generate(space, _probe_seed(seed, k), count)
            phi0 = sampling.random_quasiunitary(space, rng)
            inv = invert_semilinear(phi0)
            _warm_maps(phi0, inv)
            items.append(Item(f"{sf.value}/n{n}",
                              _wigner_run(phi0, inv, space, probes),
                              _wigner_check(phi0)))
    for sf in SFIELDS[:1] if small else SFIELDS:
        items.append(_shear_item(sf, seed, count))
    return items


def _wigner_run(phi0, inv, space, probes):
    def run():
        wig = wigner_reconstruct(induce(phi0), induce(inv), space, space,
                                 probes)
        return wig.coordinatization.map
    return run


def _wigner_check(phi0):
    def check(phi):
        if scalar_ratio(phi, phi0) is None:
            return "reconstruction is not a left multiple of the sampled map"
        if is_quasiunitary(phi) is None:
            return "reconstruction fails the quasiunitary certificate"
        return None
    return check


def _shear_item(sf, seed, count):
    """The non-unitary shear: reconstruction must refuse it with a witness."""
    space = standard_space(sf, 3)
    e = space.basis()
    shear = SemilinearMap(space, space, SfieldMorphism.identity(sf),
                          (e[0], e[0] + e[1], e[2]))
    inv = invert_semilinear(shear)
    _warm_maps(shear, inv)
    probes = ProbeSet.generate(space, seed, count)

    def run():
        try:
            wigner_reconstruct(induce(shear), induce(inv), space, space,
                               probes)
        except NotOrthoisoError as exc:
            return ("refused", exc.witness)
        return ("accepted", None)

    def check(out):
        verdict, witness = out
        if verdict != "refused":
            return "shear was accepted as an orthoisomorphism"
        if not witness:
            return "shear was refused without a witness"
        return None

    return Item(f"{sf.value}/shear", run, check)


# ----------------------------------------------------------------- partial

def _partial_items(rng, seed, small):
    configs = [(StarSfield.Q, 4, 3, False)] if small else PARTIAL_CONFIGS
    maps = 1 if small else PARTIAL_MAPS_PER_CONFIG
    count = SMALL_PROBES if small else PROBES
    items = []
    for k, (sf, n, core_dim, quasi) in enumerate(
            c for c in configs for _ in range(maps)):
        h = standard_space(sf, n)
        d, core0 = sampling.random_partial_isometry(h, h, core_dim, rng,
                                                    quasi=quasi)
        adj = quasi_generalized_inverse(d)
        probes = ProbeSet.generate(h, _probe_seed(seed, k), count)
        # the lighter probe set partial_wigner draws on the core frame
        ProbeSet.generate(d.s1.frame.space, probes.seed, max(32, count // 4))
        for space in (h, d.s1.frame.space, d.s2.frame.space):
            _warm_grid(space)
        label = f"{sf.value}/n{n}/k{core_dim}{'q' if quasi else ''}"
        items.append(Item(label, _partial_run(d, adj, probes),
                          _partial_check(d, core0)))
    return items


def _partial_run(d, adj, probes):
    def run():
        return partial_wigner(induce(d.map), induce(adj), probes, probes)
    return run


def _partial_check(d, core0):
    def check(result):
        if result.s1 != d.s1:
            return "recovered kernel complement differs from the sampled one"
        if result.s2 != d.s2:
            return "recovered image differs from the sampled one"
        if scalar_ratio(result.core, core0) is None:
            return "recovered core is not a left multiple of the sampled core"
        return None
    return check


# -------------------------------------------------------------------- grid

def _grid_items(rng, seed, small):
    classes = (("a", (4,), 16), ("b", (4,), 16), ("c", (7,), 8)) if small \
        else GRID_CLASSES
    items = []
    for cls, dims, size in classes:
        for sf in SFIELDS:
            for n in dims:
                space = standard_space(sf, n)
                _warm_grid(space)
                if cls == "b":
                    rows_a, rows_b, block = _subspace_rows(space, size, rng)
                else:
                    rows_a = _random_rows(space, size, rng)
                    rows_b = _random_rows(space, size, rng)
                    block = (0, 0)
                items.append(Item(
                    f"{cls}/{sf.value}/n{n}", _grid_run(space, rows_a, rows_b),
                    _grid_check(space, rows_a, rows_b, block,
                                f"cells:{seed}:{cls}:{sf.value}:{n}")))
    return items


def _random_rows(space, count, rng):
    return [hermspace.random_nonzero_vector(space, rng).coords
            for _ in range(count)]


def _rows_in(subspace, count, rng):
    sf = subspace.space.sfield
    rows = []
    while len(rows) < count:
        v = subspace.space.zero_vector()
        for b in subspace.basis:
            v = v + sf.random_scalar(rng) * b
        if not v.is_zero:
            rows.append(v.coords)
    return rows


def _subspace_rows(space, size, rng):
    """Rows of S then random rows, against rows of S-perp then random
    rows; the leading half x half block is orthogonal by construction."""
    half = size // 2
    s = hermspace.random_subspace(space, space.dim // 2, rng)
    rows_a = _rows_in(s, half, rng) + _random_rows(space, size - half, rng)
    rows_b = _rows_in(s.orthocomplement(), half, rng) + \
        _random_rows(space, size - half, rng)
    return rows_a, rows_b, (half, half)


def _grid_run(space, rows_a, rows_b):
    def run():
        return perpgrid.perp_grid(space, rows_a, rows_b)
    return run


def _grid_check(space, rows_a, rows_b, block, cell_seed):
    def check(grid):
        if grid.shape != (len(rows_a), len(rows_b)):
            return f"grid has shape {grid.shape}"
        bi, bj = block
        if not grid[:bi, :bj].all():
            return "a cell of S x S-perp is marked non-orthogonal"

        def form(i, j):
            return herm_form(Vector(space, rows_a[i]),
                             Vector(space, rows_b[j]))

        for i, j in np.argwhere(grid):
            if form(i, j):
                return f"cell ({i}, {j}) is marked orthogonal but is not"
        others = np.argwhere(~grid)
        pick = random.Random(cell_seed).sample(
            range(len(others)), min(GRID_SAMPLED_CELLS, len(others)))
        for k in pick:
            i, j = others[k]
            if not form(i, j):
                return f"cell ({i}, {j}) is marked non-orthogonal but is"
        return None
    return check


def _probe_seed(seed, k):
    """The probe seed of the k-th map on a space.  A map's cost depends on
    its probe set as much as on the map, so each map gets its own draw and
    the median item does not hinge on one probe set."""
    return seed * 1000 + k


def _warm_maps(*maps):
    """Compute the ranks the maps cache, as any earlier use would."""
    for m in maps:
        m.rank


def _warm_grid(space):
    """Fill perp_grid's per-space cache, as any earlier grid would."""
    row = [space.basis_vector(0).coords]
    perpgrid.perp_grid(space, row, row)


BUILDERS = {
    "wigner": _wigner_items,
    "partial": _partial_items,
    "grid": _grid_items,
}
