"""Command-line front end.

Two subcommands: `verify` runs a named suite and emits line-delimited
report records; `construct` runs a single constructive operation on file
inputs and emits its serialized output followed by a self-verification
report.  Exit codes: 0 all checks pass, 1 any check failed or errored,
2 inputs failed to parse or certify, were given to a suite or
construction that does not read them, or asked for fewer than one probe
or more than MAX_PROBES, or named an --out path that cannot be written
(found before any work; that load record goes to stdout), 3 a check hit
an internal error, a bug in the program rather than a failed law.
Reports are byte-deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import serialize
from .correspondence import (
    coordinatize,
    decompose_partial_orthometry,
    induce,
    piziak_lambda,
    transport_linear,
    transport_unitary,
)
from .errors import CertificateError, InputError, OrthosetLabError, ParseError
from .hermspace import (
    Subspace,
    adjoint_linear,
    gram_schmidt,
    herm_form,
    scalar_ratio,
)
from .orthoset import ProbeSet
from .reports import ReportRecord, failure_record, passed, render
from .suites import (
    SUITE_INPUTS,
    SUITE_NAMES,
    SuiteConfig,
    defining_identity_witness,
    run_suite,
)

CONSTRUCT_KINDS = ("gram-schmidt", "project", "adjoint", "induce", "piziak",
                   "coordinatize", "transport", "transport-unitary",
                   "partial-decompose")
# the largest --probes count: sixteen times the 256 probes of the
# acceptance runs, checked before any probe set is drawn
MAX_PROBES = 4096
# the inputs each construction reads; any other is rejected.  As in
# SUITE_INPUTS, "adjoint_images" is the claimed adjoint a map file carries
CONSTRUCT_INPUTS = dict.fromkeys(CONSTRUCT_KINDS, {"map"}) | {
    "gram-schmidt": {"subspace"}, "project": {"subspace", "vector"},
    "coordinatize": {"map", "adjoint_images"},
    "partial-decompose": {"map", "adjoint_images"}}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthoset-lab",
        description="Exact Hermitian spaces over involutive skew fields and "
                    "their ray-level orthogonality structure.")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--map", dest="map_path",
                        help="map file (JSON; each space's dim at most "
                             f"{serialize.MAX_DIM})")
    common.add_argument("--subspace",
                        help="subspace file (JSON); read by construct only")
    common.add_argument("--probes", type=int, default=256,
                        help=f"probe count, 1 to {MAX_PROBES} "
                             f"(default 256)")
    common.add_argument("--seed", type=int, default=0,
                        help="probe/sampling seed (default 0)")
    common.add_argument("--out", help="write the report here instead of "
                        "stdout (a path that cannot be written: exit 2)")

    v = sub.add_parser("verify", parents=[common],
                       help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--space", help="space file (JSON; dim at most "
                                   f"{serialize.MAX_DIM})")
    v.add_argument("--timings", action="store_true",
                   help="add task_ms to each record: the milliseconds of "
                        "the whole task that made the record (breaks byte "
                        "determinism)")

    c = sub.add_parser("construct", parents=[common],
                       help="run one constructive operation")
    c.add_argument("kind", choices=CONSTRUCT_KINDS)
    c.add_argument("--vector", help="vector literal (JSON list of scalars)")
    return p


def _open_out(path: str | None):
    """The --out file, or stdout: opened after the inputs are read and
    before any work, so that an unwritable path is a load error."""
    if not path:
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write --out {path}: {exc.strerror}") from exc


def _closing(out):
    """A context that closes an --out file and leaves stdout open."""
    return contextlib.nullcontext() if out is sys.stdout else out


def _reject_unread(given: dict, reads, what: str) -> None:
    """Reject an input that what does not read: a flag, named without its
    dashes, or "adjoint_images", the map file's claimed adjoint."""
    for name, value in given.items():
        if value and name not in reads:
            where = ("the adjoint_images of --map" if name == "adjoint_images"
                     else f"--{name}")
            raise InputError(f"{what} does not read {where}")


def _check_probe_count(count: int) -> None:
    if count < 1:
        raise InputError(f"--probes must be at least 1, got {count}")
    if count > MAX_PROBES:
        raise InputError(f"--probes must be at most {MAX_PROBES}, "
                         f"got {count}")


def _load_map(args):
    if not args.map_path:
        return None, None
    return serialize.map_from_json(serialize.load_file(args.map_path))


def _load_failed(exc, args) -> int:
    """A load record, to stdout when --out cannot be written; exit 2."""
    rec = ReportRecord(check="load", status="error",
                       witness={"error": type(exc).__name__,
                                "message": str(exc)})
    try:
        out = _open_out(args.out)
    except InputError:
        out = sys.stdout
    with _closing(out):
        out.write(render([rec]))
    return 2


def cmd_verify(args) -> int:
    try:
        _check_probe_count(args.probes)
        reads, what = SUITE_INPUTS[args.suite], f"suite {args.suite!r}"
        _reject_unread({"space": args.space, "map": args.map_path,
                        "subspace": args.subspace}, reads, what)
        space = serialize.space_from_json(serialize.load_file(args.space)) \
            if args.space else None
        phi, claimed = _load_map(args)
        _reject_unread({"adjoint_images": claimed is not None}, reads, what)
        out = _open_out(args.out)
    except OrthosetLabError as exc:
        return _load_failed(exc, args)
    with _closing(out):
        records = run_suite(SuiteConfig(
            suite=args.suite, seed=args.seed, count=args.probes, space=space,
            map=phi, claimed_adjoint=claimed))
        out.write(render(records, args.timings))
    if any(r.status == "internal" for r in records):
        return 3
    return 0 if passed(records) else 1


def cmd_construct(args) -> int:
    try:
        _check_probe_count(args.probes)
        reads = CONSTRUCT_INPUTS[args.kind]
        what = f"construction {args.kind!r}"
        _reject_unread({"map": args.map_path, "subspace": args.subspace,
                        "vector": args.vector}, reads, what)
        phi, claimed = _load_map(args)
        _reject_unread({"adjoint_images": claimed is not None}, reads, what)
        raw_subspace = subspace = None
        if args.subspace:
            raw_subspace = serialize.basis_vectors_from_json(
                serialize.load_file(args.subspace))
            subspace = Subspace.from_vectors(*raw_subspace)
            if args.vector:  # parsed here; read as a Vector from now on
                args.vector = serialize.vector_from_json(
                    serialize.loads(args.vector, "--vector"), subspace.space)
        out = _open_out(args.out)
    except OrthosetLabError as exc:
        return _load_failed(exc, args)

    with _closing(out):
        try:
            output, records = _run_construct(args, phi, claimed, subspace,
                                              raw_subspace)
        except Exception as exc:  # a record and an exit code, not a crash
            rec = failure_record(f"construct/{args.kind}", exc)
            out.write(render([rec]))
            if rec.status == "internal":
                return 3
            return 2 if isinstance(exc, (ParseError, CertificateError)) else 1
        out.write(json.dumps({"output": output}, sort_keys=True,
                             separators=(",", ":"), default=str) + "\n")
        out.write(render(records))
    return 0 if passed(records) else 1


def _require(value, what):
    if value is None:
        raise ParseError(f"this construction needs {what}")
    return value


def _adjoint_of(phi, claimed):
    """The map file's claimed adjoint, else the adjoint of a linear map, else
    None."""
    if claimed is not None:
        return claimed
    return adjoint_linear(phi) if phi.is_linear else None


def _run_construct(args, phi, claimed, subspace, raw_subspace):
    kind = args.kind
    seed, count = args.seed, args.probes
    if kind == "gram-schmidt":
        space, vectors = _require(raw_subspace, "--subspace")
        out = gram_schmidt(vectors)
        records = [ReportRecord(
            check="construct/gram-schmidt/orthogonal",
            status="pass" if all(
                not herm_form(a, b)
                for i, a in enumerate(out) for j, b in enumerate(out) if i != j)
            else "fail"),
            ReportRecord(
                check="construct/gram-schmidt/span",
                status="pass" if Subspace.from_vectors(space, out) ==
                Subspace.from_vectors(space, vectors) else "fail")]
        return {"space": serialize.space_to_json(space),
                "vectors": serialize._vector_rows_to_json(out)}, records
    if kind == "project":
        s = _require(subspace, "--subspace")
        u = _require(args.vector, "--vector")
        u_s, u_p = s.project(u)
        ok = u_s + u_p == u and s.contains(u_s) and \
            not any(herm_form(u_p, b) for b in s.basis) and \
            s.project(u_s) == (u_s, s.space.zero_vector())
        records = [ReportRecord(check="construct/project/decomposition",
                                status="pass" if ok else "fail")]
        return {"onto": serialize._vector_rows_to_json([u_s])[0],
                "perp": serialize._vector_rows_to_json([u_p])[0]}, records
    if kind == "adjoint":
        phi = _require(phi, "--map")
        adj = adjoint_linear(phi)
        ok = defining_identity_witness(phi, adj) is None
        records = [ReportRecord(check="construct/adjoint/defining-identity",
                                status="pass" if ok else "fail")]
        return serialize.map_to_json(adj), records
    if kind == "induce":
        phi = _require(phi, "--map")
        f = induce(phi)
        probes = ProbeSet.generate(phi.domain, seed, min(count, 16))
        samples = [{"x": serialize.ray_to_json(x),
                    "fx": serialize.ray_to_json(y)}
                   for x, y in zip(probes, f.apply_many(probes))]
        records = [ReportRecord(
            check="construct/induce/zero-to-zero",
            status="pass" if f(probes.rays[0]).is_zero else "fail")]
        return {"samples": samples}, records
    if kind == "piziak":
        phi = _require(phi, "--map")
        probes = ProbeSet.generate(phi.domain, seed, count)
        lam = piziak_lambda(phi, probes)
        return {"lam": serialize.scalar_to_json(lam)}, [
            ReportRecord(check="construct/piziak/scale", status="pass",
                         detail={"lam": serialize.scalar_to_json(lam)})]
    if kind == "coordinatize":
        phi = _require(phi, "--map")
        f = induce(phi)
        probes = ProbeSet.generate(phi.domain, seed, count)
        adj = _adjoint_of(phi, claimed)
        result = coordinatize(
            f, phi.domain, phi.codomain, probes,
            adjoint=None if adj is None else induce(adj),
            injective=adj is None)
        kappa = scalar_ratio(result.map, phi)
        records = list(result.verified)
        records.append(ReportRecord(
            check="construct/coordinatize/ratio",
            status="pass" if kappa is not None else "fail",
            detail={"kappa": serialize.scalar_to_json(kappa)}
            if kappa is not None else None))
        return serialize.map_to_json(result.map), records
    if kind == "transport":
        phi = _require(phi, "--map")
        tr = transport_linear(phi)
        records = [ReportRecord(check="construct/transport/composed-linear",
                                status="pass" if tr.composed.is_linear
                                else "fail")]
        return {"space": serialize.space_to_json(tr.new_space),
                "tau": serialize.map_to_json(tr.tau),
                "composed": serialize.map_to_json(tr.composed)}, records
    if kind == "transport-unitary":
        phi = _require(phi, "--map")
        # transport_unitary rejects a map without a certificate, and returns
        # only once the transported map has passed its unitary check
        tr = transport_unitary(phi)
        records = [ReportRecord(check="construct/transport-unitary/unitary",
                                status="pass")]
        return {"space": serialize.space_to_json(tr.new_space),
                "tau": serialize.map_to_json(tr.tau),
                "composed": serialize.map_to_json(tr.composed)}, records
    if kind == "partial-decompose":
        phi = _require(phi, "--map")
        adj = _adjoint_of(phi, claimed)
        if adj is None:
            raise ParseError("non-linear maps need adjoint_images in the file")
        f, f_adj = induce(phi), induce(adj)
        p1 = ProbeSet.generate(phi.domain, seed, count)
        p2 = ProbeSet.generate(phi.codomain, seed, count)
        dec = decompose_partial_orthometry(f, f_adj, p1, p2)
        return {"a": serialize.subspace_to_json(dec.a),
                "b": serialize.subspace_to_json(dec.b)}, list(dec.report)
    raise ParseError(f"unknown construction {kind!r}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_construct(args)


if __name__ == "__main__":
    sys.exit(main())
