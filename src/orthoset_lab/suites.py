"""Named verification suites.

Each suite turns one family of structural statements into report records:
randomized where the statement quantifies over an infinite domain, exact
basis computations where it reduces to finitely many scalar identities.
Every random draw is derived from the configured seed plus the task name,
so reports are byte-stable under reruns.

The CLI exposes these by name; the acceptance tests call the same
functions.  The sample budgets are module constants, which the acceptance
tests pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import sampling
from .correspondence import (
    induce,
    partial_wigner,
    piziak_lambda,
    transport_linear,
    transport_partial,
    transport_unitary,
    wigner_reconstruct,
)
from .errors import (
    NotOrthoisoError,
    OrthosetLabError,
    PreconditionError,
)
from .hermspace import (
    HermitianSpace,
    SemilinearMap,
    Subspace,
    adjoint_linear,
    compose_maps,
    generalized_inverse,
    gram_schmidt,
    herm_form,
    invert_semilinear,
    is_quasiunitary,
    is_unitary,
    quasi_generalized_inverse,
    random_nonzero_vector,
    random_subspace,
    random_vector,
    scalar_ratio,
    standard_space,
)
from .orthoset import (
    ProbeSet,
    check_axioms,
    dacey_witness,
    linearity_witness,
    perp_closure,
    ray_grid,
    ray_of,
    ray_payload,
    ray_perp,
    separating_ray,
    verify_adjoint_pair,
)
from .reports import ReportRecord, law, passed, run_tasks
from .scalars import (
    HQ_I,
    HQ_J,
    GaussianRational,
    RationalQuaternion,
    star_scalar,
)
from .starfields import SfieldMorphism, StarSfield

# the file inputs each suite reads: "space" is --space, "map" is --map,
# and "adjoint_images" the claimed adjoint that a map file may carry
SUITE_INPUTS = {
    "axioms": ("space",), "linearity": ("space",), "dacey": (),
    "frechet": ("space",),
    "adjoint": ("map", "adjoint_images"), "piziak": ("map",),
    "wigner": ("map", "adjoint_images"), "transport": (), "partial": (),
    "all": ("space", "map", "adjoint_images"),
}
SUITE_NAMES = tuple(SUITE_INPUTS)

# sample budgets, pinned by the acceptance criteria
FORM_SAMPLES = 1000     # form-axiom samples per sfield, split across spaces
BASES = 100             # Gram-Schmidt bases per sfield
SPLITS = 100            # subspace splittings per sfield
LINEAR_MAPS = 50        # adjoint maps per sfield
QUASIUNITARY_MAPS = 50  # scale extractions per sfield
WIGNER_MAPS = 30        # Wigner round trips per sfield
TRANSPORT_MAPS = 20     # transports per sfield
PARTIAL_MAPS = 10       # partial-orthometry round trips per sfield
RAY_PAIRS = 500         # linearity and separation ray pairs per sfield


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 0
    count: int = 256
    space: HermitianSpace | None = None
    map: SemilinearMap | None = None
    claimed_adjoint: SemilinearMap | None = None


def default_spaces(sfield: StarSfield) -> list[HermitianSpace]:
    """A standard space plus one with a nontrivial certified Gram matrix."""
    if sfield is StarSfield.Q:
        return [standard_space(sfield, 4),
                HermitianSpace.create(sfield, 2, [[2, 1], [1, 1]])]
    if sfield is StarSfield.QI:
        i = GaussianRational(0, 1)
        return [standard_space(sfield, 4),
                HermitianSpace.create(sfield, 2, [[2, i], [-i, 1]])]
    return [standard_space(sfield, 4),
            HermitianSpace.create(sfield, 3, [[2, HQ_I, 0],
                                              [-HQ_I, 2, HQ_J],
                                              [0, -HQ_J, 3]])]


def _rng(cfg: SuiteConfig, *parts) -> random.Random:
    return random.Random(":".join([str(cfg.seed)] + [str(p) for p in parts]))


# ---------------------------------------------------------------- axioms

def form_axiom_records(space: HermitianSpace, rng, samples: int,
                       prefix: str) -> list[ReportRecord]:
    """Sesquilinearity, symmetry and anisotropy on random data, exactly."""
    sf = space.sfield
    w_first = w_second = w_sym = w_sides = w_aniso = None
    for t in range(samples):
        u = random_vector(space, rng)
        v = random_vector(space, rng)
        w = random_vector(space, rng)
        alpha = sf.random_scalar(rng)
        beta = sf.random_scalar(rng)
        if w_first is None and \
                herm_form(alpha * u + beta * v, w) != \
                alpha * herm_form(u, w) + beta * herm_form(v, w):
            w_first = {"trial": t}
        if w_second is None and \
                herm_form(w, alpha * u + beta * v) != \
                herm_form(w, u) * star_scalar(alpha) + \
                herm_form(w, v) * star_scalar(beta):
            w_second = {"trial": t}
        if w_sym is None and herm_form(u, v) != star_scalar(herm_form(v, u)):
            w_sym = {"trial": t}
        if w_sides is None and \
                herm_form(alpha * u, beta * v) != \
                alpha * herm_form(u, v) * star_scalar(beta):
            w_sides = {"trial": t}
        if w_aniso is None and space.dim > 0:
            x = random_nonzero_vector(space, rng)
            if not herm_form(x, x):
                w_aniso = {"trial": t, "vector": [str(c) for c in x.coords]}
    detail = {"samples": samples}
    return [
        law(f"{prefix}/sesquilinear-first", w_first, detail),
        law(f"{prefix}/sesquilinear-second", w_second, detail),
        law(f"{prefix}/symmetry", w_sym, detail),
        law(f"{prefix}/two-sided", w_sides, detail),
        law(f"{prefix}/anisotropy", w_aniso, detail),
    ]


def suite_axioms(cfg: SuiteConfig) -> list:
    tasks = []
    spaces = [cfg.space] if cfg.space is not None else None
    for sf in StarSfield:
        use = spaces if spaces else default_spaces(sf)
        if cfg.space is not None and cfg.space.sfield is not sf:
            continue
        # the sample budget is per sfield, split across its spaces
        per_space = max(1, FORM_SAMPLES // len(use))
        for si, space in enumerate(use):
            name = f"axioms/{sf.value}/{si}"
            tasks.append((name, _axioms_task(cfg, space, name, per_space)))
    return tasks


def _axioms_task(cfg, space, name, samples):
    def run():
        rng = _rng(cfg, name)
        records = form_axiom_records(space, rng, samples, name)
        probes = ProbeSet.generate(space, cfg.seed, cfg.count)
        for rec in check_axioms(space, probes):
            rec.check = f"{name}/{rec.check}"
            records.append(rec)
        return records
    return run


# ---------------------------------------------------------- gram-schmidt

def gram_schmidt_records(sfield: StarSfield, rng,
                         prefix: str) -> list[ReportRecord]:
    w_orth = w_span = w_first = None
    for t in range(BASES):
        n = rng.randint(2, 6)
        space = standard_space(sfield, n)
        vecs = []
        while True:
            vecs = [random_vector(space, rng) for _ in range(n)]
            if Subspace.from_vectors(space, vecs).dim == n:
                break
        out = gram_schmidt(vecs)
        if w_first is None and out[0] != vecs[0]:
            w_first = {"trial": t}
        for a in range(n):
            for b in range(n):
                if a != b and herm_form(out[a], out[b]):
                    w_orth = w_orth or {"trial": t, "pair": [a, b]}
        if w_span is None and Subspace.from_vectors(space, out) != \
                Subspace.from_vectors(space, vecs):
            w_span = {"trial": t}
    detail = {"bases": BASES}
    return [
        law(f"{prefix}/pairwise-orthogonal", w_orth, detail),
        law(f"{prefix}/span-preserved", w_span, detail),
        law(f"{prefix}/first-vector-kept", w_first, detail),
    ]


# ------------------------------------------------------- dacey/splitting

def splitting_records(sfield: StarSfield, rng,
                      prefix: str) -> list[ReportRecord]:
    w_split = w_ortho = w_idem = w_dims = w_closed = w_dacey = None
    for t in range(SPLITS):
        n = rng.randint(2, 6)
        space = standard_space(sfield, n)
        s = random_subspace(space, rng.randint(0, n), rng)
        u = random_vector(space, rng)
        u_s, u_p = s.project(u)
        if w_split is None and (u_s + u_p != u or not s.contains(u_s)):
            w_split = {"trial": t}
        if w_ortho is None and any(herm_form(u_p, b) for b in s.basis):
            w_ortho = {"trial": t}
        if w_idem is None and s.project(u_s) != (u_s, space.zero_vector()):
            w_idem = {"trial": t}
        perp = s.orthocomplement()
        if w_dims is None and s.dim + perp.dim != n:
            w_dims = {"trial": t}
        if w_closed is None and perp.orthocomplement() != s:
            w_closed = {"trial": t}
        if w_dacey is None and n > 0:
            x = ray_of(random_nonzero_vector(space, rng))
            y, z = dacey_witness(s, x)
            ok = (y.is_zero or s.contains(y.rep)) and \
                 (z.is_zero or perp.contains(z.rep)) and \
                 perp_closure([y, z]).contains(x.rep)
            if not ok:
                w_dacey = {"trial": t, "x": ray_payload(x)}
    detail = {"trials": SPLITS}
    return [
        law(f"{prefix}/decomposition", w_split, detail),
        law(f"{prefix}/perp-part-orthogonal", w_ortho, detail),
        law(f"{prefix}/idempotent", w_idem, detail),
        law(f"{prefix}/dim-additivity", w_dims, detail),
        law(f"{prefix}/double-complement", w_closed, detail),
        law(f"{prefix}/dacey-witness", w_dacey, detail),
    ]


# --------------------------------------------------------------- adjoint

def defining_identity_witness(phi: SemilinearMap, adj: SemilinearMap):
    """The last basis pair (i, j), i major, on which
    <phi(e_i), f_j> = <e_i, adj(f_j)> fails; None if it holds on all."""
    e, f = phi.domain.basis(), phi.codomain.basis()
    w = None
    for i, (e_i, phi_e_i) in enumerate(zip(e, phi.images)):
        for j, (f_j, adj_f_j) in enumerate(zip(f, adj.images)):
            if herm_form(phi_e_i, f_j) != herm_form(e_i, adj_f_j):
                w = {"i": i, "j": j}
    return w


def adjoint_map_records(phi: SemilinearMap, seed: int, count: int,
                        prefix: str,
                        claimed: SemilinearMap | None = None) -> list[ReportRecord]:
    records = []
    h1, h2 = phi.domain, phi.codomain
    adj = adjoint_linear(phi)
    records.append(law(f"{prefix}/defining-identity",
                        defining_identity_witness(phi, adj)))
    records.append(law(f"{prefix}/involution",
                        None if adjoint_linear(adj) == phi else {}))
    partner = adj if claimed is None else claimed
    probes1 = ProbeSet.generate(h1, seed, count)
    probes2 = ProbeSet.generate(h2, seed, count)
    for rec in verify_adjoint_pair(induce(phi), induce(partner),
                                   probes1, probes2):
        rec.check = f"{prefix}/{rec.check}"
        records.append(rec)
    records.append(law(
        f"{prefix}/rank-equal",
        None if phi.rank == adj.rank
        else {"rank_f": phi.rank, "rank_adj": adj.rank}))
    return records


def adjoint_random_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                           prefix: str) -> list[ReportRecord]:
    records = []
    w_contra = w_unitary = None
    for t in range(LINEAR_MAPS):
        d0, d1, d2 = (rng.randint(2, 5) for _ in range(3))
        h0, h1, h2 = (standard_space(sfield, d) for d in (d0, d1, d2))
        phi = sampling.random_linear_map(h1, h2, rng)
        map_records = adjoint_map_records(phi, cfg.seed, cfg.count,
                                          f"{prefix}/map{t:03d}")
        if t < 3:  # full per-map reports for a few; the rest aggregate
            records.extend(map_records)
        elif not passed(map_records):
            records.append(law(f"{prefix}/map{t:03d}", {"trial": t}))
        psi = sampling.random_linear_map(h0, h1, rng)
        if w_contra is None and \
                adjoint_linear(compose_maps(phi, psi)) != \
                compose_maps(adjoint_linear(psi), adjoint_linear(phi)):
            w_contra = {"trial": t}
        # unitary <-> the inverse is the adjoint, on bijective maps
        space = standard_space(sfield, rng.randint(2, 5))
        if t % 2 == 0:
            bij = sampling.random_unitary(space, rng)
        else:
            bij = sampling.random_invertible_map(space, rng)
        unit = is_unitary(bij)
        pair = adjoint_linear(bij) == invert_semilinear(bij)
        if w_unitary is None and unit != pair:
            w_unitary = {"trial": t, "certified": unit, "adjoint-inverse": pair}
    records.append(law(f"{prefix}/contravariance", w_contra,
                        {"maps": LINEAR_MAPS}))
    records.append(law(f"{prefix}/unitary-iff-adjoint-pair", w_unitary,
                        {"maps": LINEAR_MAPS}))
    return records


# ---------------------------------------------------------------- piziak

def piziak_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                   prefix: str) -> list[ReportRecord]:
    records = []
    w_lam = w_match = w_left = None
    for t in range(QUASIUNITARY_MAPS):
        n = rng.randint(2, 5)
        space = standard_space(sfield, n)
        phi = sampling.random_quasiunitary(space, rng)
        try:
            lam = piziak_lambda(phi)
        except OrthosetLabError as exc:
            w_lam = w_lam or {"trial": t, "error": str(exc)}
            continue
        cert = is_quasiunitary(phi)
        if w_match is None and (cert is None or cert[1] != lam):
            w_match = {"trial": t}
        if sfield is StarSfield.HQ and w_left is None:
            q = RationalQuaternion(rng.randint(-3, 3), rng.randint(-3, 3),
                                   rng.randint(-3, 3), rng.randint(-3, 3))
            if q:
                lmul = sampling.left_scalar_map(space, q)
                if piziak_lambda(lmul) != space.sfield.coerce(q.norm()):
                    w_left = {"trial": t, "q": str(q)}
    records.append(law(f"{prefix}/scale-extraction", w_lam,
                        {"maps": QUASIUNITARY_MAPS}))
    records.append(law(f"{prefix}/matches-certificate", w_match))
    if sfield is StarSfield.HQ:
        records.append(law(f"{prefix}/left-multiplication-norm", w_left))
    return records


# ---------------------------------------------------------------- wigner

def wigner_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                   prefix: str) -> list[ReportRecord]:
    records = []
    w_round = None
    for t in range(WIGNER_MAPS):
        n = rng.randint(3, 5)
        space = standard_space(sfield, n)
        phi0 = sampling.random_quasiunitary(space, rng)
        probes = ProbeSet.generate(space, cfg.seed, cfg.count)
        try:
            wig = wigner_reconstruct(induce(phi0),
                                     induce(invert_semilinear(phi0)),
                                     space, space, probes)
        except OrthosetLabError as exc:
            w_round = w_round or {"trial": t, "error": str(exc)}
            continue
        # wigner_reconstruct has certified the map quasiunitary
        if w_round is None and \
                scalar_ratio(wig.coordinatization.map, phi0) is None:
            w_round = {"trial": t}
    records.append(law(f"{prefix}/round-trip", w_round,
                        {"maps": WIGNER_MAPS}))
    records.append(_negative_control(sfield, cfg, prefix))
    return records


def _negative_control(sfield: StarSfield, cfg: SuiteConfig,
                      prefix: str) -> ReportRecord:
    """A non-unitary invertible shear must fail the orthoiso pre-check
    with an explicit witness."""
    space = standard_space(sfield, 3)
    shear = SemilinearMap(
        space, space, SfieldMorphism.identity(sfield),
        (space.basis_vector(0),
         space.basis_vector(0) + space.basis_vector(1),
         space.basis_vector(2)))
    probes = ProbeSet.generate(space, cfg.seed, cfg.count)
    pair = verify_adjoint_pair(induce(shear),
                               induce(invert_semilinear(shear)),
                               probes, probes)
    failed_with_witness = any(r.status == "fail" and r.witness for r in pair)
    raised = False
    try:
        wigner_reconstruct(induce(shear), induce(invert_semilinear(shear)),
                           space, space, probes)
    except NotOrthoisoError as exc:
        raised = exc.witness is not None
    if failed_with_witness and raised:
        return law(f"{prefix}/negative-control", None,
                   {"witness-shown": pair[0].witness["first"]["x"]})
    return law(f"{prefix}/negative-control",
               {"pair-failed": failed_with_witness, "raised": raised})


# ------------------------------------------------------------- transport

def transport_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                      prefix: str) -> list[ReportRecord]:
    records = []
    w_lin = w_tau = w_unit = None
    for t in range(TRANSPORT_MAPS):
        n = rng.randint(2, 5)
        space = standard_space(sfield, n)
        # a quasilinear map whose twist is as wild as the sfield allows
        plain = sampling.random_invertible_map(space, rng)
        if sfield is StarSfield.QI:
            quasi = compose_maps(sampling.conjugation_map(space), plain)
        elif sfield is StarSfield.HQ:
            q = RationalQuaternion(1, rng.randint(-2, 2), rng.randint(-2, 2),
                                   rng.randint(-2, 2))
            quasi = compose_maps(sampling.left_scalar_map(space, q), plain)
        else:
            quasi = plain
        tr = transport_linear(quasi)
        if w_lin is None and not tr.composed.is_linear:
            w_lin = {"trial": t}
        probes = ProbeSet.generate(space, cfg.seed, cfg.count)
        tau_map = induce(tr.tau)
        images = tau_map.apply_many(probes)
        before = ray_grid(space, list(probes), list(probes))
        after = ray_grid(tr.new_space, images, images)
        if w_tau is None and (before != after).any():
            w_tau = {"trial": t}
        qu = sampling.random_quasiunitary(space, rng)
        # transport_unitary raises unless the transported map is unitary
        try:
            transport_unitary(qu)
        except OrthosetLabError as exc:
            w_unit = w_unit or {"trial": t, "error": str(exc)}
    detail = {"maps": TRANSPORT_MAPS}
    records.append(law(f"{prefix}/composed-linear", w_lin, detail))
    records.append(law(f"{prefix}/tau-orthoiso", w_tau, detail))
    records.append(law(f"{prefix}/unitary-after-transport", w_unit, detail))
    return records


# ---------------------------------------------------------------- partial

def partial_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                    prefix: str) -> list[ReportRecord]:
    records = []
    w_dec = w_inv = w_round = None
    for t in range(PARTIAL_MAPS):
        n = rng.randint(4, 6)
        core_dim = rng.randint(3, n - 1)
        quasi = rng.random() < 0.5
        h1 = h2 = standard_space(sfield, n)
        d, core0 = sampling.random_partial_isometry(h1, h2, core_dim, rng,
                                                    quasi=quasi)
        f = induce(d.map)
        f_adj = induce(quasi_generalized_inverse(d))
        probes1 = ProbeSet.generate(h1, cfg.seed, cfg.count)
        probes2 = ProbeSet.generate(h2, cfg.seed, cfg.count)
        try:
            result = partial_wigner(f, f_adj, probes1, probes2)
        except OrthosetLabError as exc:
            w_round = w_round or {"trial": t, "error": str(exc)}
            continue
        if w_dec is None and (result.s1 != d.s1 or result.s2 != d.s2):
            w_dec = {"trial": t}
        if w_round is None and scalar_ratio(result.core, core0) is None:
            w_round = {"trial": t}
        if w_inv is None:
            if quasi:
                _, linear_d = transport_partial(result)
            else:
                linear_d = d
            if generalized_inverse(linear_d) != adjoint_linear(linear_d.map):
                w_inv = {"trial": t}
    detail = {"maps": PARTIAL_MAPS}
    records.append(law(f"{prefix}/kernel-image-recovery", w_dec, detail))
    records.append(law(f"{prefix}/round-trip-on-core", w_round, detail))
    records.append(law(f"{prefix}/generalized-inverse-is-adjoint", w_inv,
                        detail))
    records.append(_small_core_control(sfield, cfg, prefix))
    return records


def _small_core_control(sfield: StarSfield, cfg: SuiteConfig,
                        prefix: str) -> ReportRecord:
    rng = _rng(cfg, prefix, "small-core")
    h = standard_space(sfield, 4)
    d, _ = sampling.random_partial_isometry(h, h, 2, rng)
    try:
        partial_wigner(induce(d.map), induce(quasi_generalized_inverse(d)),
                       ProbeSet.generate(h, cfg.seed, max(32, h.dim + 1)),
                       ProbeSet.generate(h, cfg.seed, max(32, h.dim + 1)))
    except PreconditionError:
        return law(f"{prefix}/small-core-rejected", None)
    return law(f"{prefix}/small-core-rejected",
               {"expected": "precondition error"})


# ---------------------------------------------------- linearity/frechet

def _ray_pair_space(sfield: StarSfield, cfg: SuiteConfig) -> HermitianSpace:
    """--space, or the standard space of dimension 4: the space the ray-pair
    batteries draw from.  Their laws are about two distinct proper rays,
    which a space of dimension below 2 does not hold."""
    space = cfg.space if cfg.space is not None else standard_space(sfield, 4)
    if space.dim < 2:
        raise PreconditionError(
            f"ray pairs need dimension 2 or more, got {space.dim}")
    return space


def linearity_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                      prefix: str) -> list[ReportRecord]:
    space = _ray_pair_space(sfield, cfg)
    w_wit = None
    for t in range(RAY_PAIRS):
        x = ray_of(random_nonzero_vector(space, rng))
        y = ray_of(random_nonzero_vector(space, rng))
        if x == y:
            continue
        z = linearity_witness(x, y)
        ok = (not z.is_zero
              and perp_closure([x, y]) == perp_closure([x, z])
              and ray_perp(x, y) != ray_perp(x, z))
        if not ok and w_wit is None:
            w_wit = {"trial": t, "x": ray_payload(x), "y": ray_payload(y)}
    return [law(f"{prefix}/witness", w_wit, {"pairs": RAY_PAIRS})]


def frechet_records(sfield: StarSfield, cfg: SuiteConfig, rng,
                    prefix: str) -> list[ReportRecord]:
    space = _ray_pair_space(sfield, cfg)
    w_sep = None
    for t in range(RAY_PAIRS):
        x = ray_of(random_nonzero_vector(space, rng))
        y = ray_of(random_nonzero_vector(space, rng))
        if x == y:
            continue
        w = separating_ray(x, y)
        if ray_perp(w, x) == ray_perp(w, y) and w_sep is None:
            w_sep = {"trial": t, "x": ray_payload(x), "y": ray_payload(y)}
    return [law(f"{prefix}/separation", w_sep, {"pairs": RAY_PAIRS})]


# ----------------------------------------------------------- dispatching

def _per_sfield_tasks(cfg, name, fn):
    """One task per sfield; a suite that reads --space runs over the given
    space's sfield alone."""
    tasks = []
    for sf in StarSfield:
        if cfg.space is not None and cfg.space.sfield is not sf and \
                "space" in SUITE_INPUTS[name]:
            continue
        task_name = f"{name}/{sf.value}"

        def run(sf=sf, task_name=task_name):
            return fn(sf, cfg, _rng(cfg, task_name), task_name)
        tasks.append((task_name, run))
    return tasks


def suite_tasks(cfg: SuiteConfig) -> list:
    """(name, thunk) pairs for the requested suite."""
    s = cfg.suite
    tasks = []
    if s in ("axioms", "all"):
        tasks.extend(suite_axioms(cfg))
    if s in ("linearity", "all"):
        tasks.extend(_per_sfield_tasks(cfg, "linearity", linearity_records))
    if s in ("dacey", "all"):
        tasks.extend(_per_sfield_tasks(
            cfg, "dacey",
            lambda sf, c, rng, nm: gram_schmidt_records(sf, rng,
                                                        nm + "/gram-schmidt")
            + splitting_records(sf, rng, nm + "/splitting")))
    if s in ("frechet", "all"):
        tasks.extend(_per_sfield_tasks(cfg, "frechet", frechet_records))
    if s in ("adjoint", "all"):
        if cfg.map is not None:
            tasks.append(("adjoint/file", lambda: adjoint_map_records(
                cfg.map, cfg.seed, cfg.count, "adjoint/file",
                claimed=cfg.claimed_adjoint)))
        else:
            tasks.extend(_per_sfield_tasks(cfg, "adjoint",
                                           adjoint_random_records))
    if s in ("piziak", "all"):
        if cfg.map is not None:
            tasks.append(("piziak/file", lambda: [law(
                "piziak/file/scale-extraction",
                None, {"lam": str(piziak_lambda(cfg.map))})]))
        else:
            tasks.extend(_per_sfield_tasks(cfg, "piziak", piziak_records))
    if s in ("wigner", "all"):
        if cfg.map is not None:
            tasks.append(("wigner/file", lambda: _wigner_file_records(cfg)))
        else:
            tasks.extend(_per_sfield_tasks(cfg, "wigner", wigner_records))
    if s in ("transport", "all"):
        tasks.extend(_per_sfield_tasks(cfg, "transport", transport_records))
    if s in ("partial", "all"):
        tasks.extend(_per_sfield_tasks(cfg, "partial", partial_records))
    if not tasks:
        raise PreconditionError(f"unknown suite {s!r}")
    return tasks


def _wigner_file_records(cfg: SuiteConfig) -> list[ReportRecord]:
    phi0 = cfg.map
    space = phi0.domain
    probes = ProbeSet.generate(space, cfg.seed, cfg.count)
    # the ray adjoint of an orthoisomorphism is its inverse
    f_inv = cfg.claimed_adjoint or invert_semilinear(phi0)
    wig = wigner_reconstruct(induce(phi0), induce(f_inv),
                             space, phi0.codomain, probes)
    kappa = scalar_ratio(wig.coordinatization.map, phi0)
    return [law("wigner/file/round-trip",
                 None if kappa is not None else {"ratio": "none"},
                 {"lam": str(wig.lam)})]


def run_suite(cfg: SuiteConfig) -> list[ReportRecord]:
    return run_tasks(suite_tasks(cfg))
