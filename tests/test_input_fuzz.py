"""Mutated input files through the command line, in-process.

Each test draws mutants of the fixtures of one file kind (space, map or
subspace) and runs every mutant through every entry point that reads that
kind, by `cli.main`.  A run must end with exit 0, 1 or 2, print one
report of JSON lines, write no traceback to stderr, and finish within
RUN_SECONDS.  The mutations change types and shapes, write huge and
negative integers and zero denominators, add unknown keys, put
non-Hermitian and isotropic Gram matrices into spaces, and give maps
wrong sigma kinds.  Hypothesis runs derandomized with pinned example
counts, so every run of the module draws the same mutants."""

import contextlib
import copy
import io
import json
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from orthoset_lab.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "fixtures")
RUN_SECONDS = 10  # the per-run bound; the slowest valid mutant takes ~1 s
COMMON = ["--probes", "6", "--seed", "3"]
SEEDS = {
    "space": ("q3.json", "hq3_gram.json"),
    "map": ("scale2_q2.json", "quasiunitary_qi3.json", "quasiunitary_hq3.json",
            "partial_q5.json", "shear_with_wrong_adjoint.json"),
    "subspace": ("q2_basis.json",),
}
# every entry point that reads each file kind, the file's path last
ENTRY_POINTS = {
    "space": [["verify", "--suite", suite, "--space"]
              for suite in ("axioms", "linearity", "frechet")],
    "map": [["verify", "--suite", suite, "--map"]
            for suite in ("adjoint", "piziak", "wigner")]
    + [["construct", kind, "--map"]
       for kind in ("induce", "adjoint", "piziak", "coordinatize",
                    "transport", "transport-unitary", "partial-decompose")],
    "subspace": [["construct", "gram-schmidt", "--subspace"],
                 ["construct", "project", "--vector", '["1", "0"]',
                  "--subspace"]],
}
HUGE = 2 ** 70
TYPES = (None, True, 1.5, 7, "x", [], {}, [[]], [None])
INTEGERS = (-1, 0, HUGE, -HUGE, "-1", str(HUGE), f"-{HUGE}/7", "9" * 5000)
ZERO_DENOMINATORS = ("1/0", "0/0", "-3/0")
SIGMAS = ({"kind": "conj"}, {"kind": "inner"}, {"kind": "inner", "q": "0"},
          {"kind": "inner", "q": {"a": "1", "b": "2", "c": "0", "d": "0"}},
          {"kind": "bogus"}, {"kind": "id", "q": "1"}, {}, "id", None)
UNWRITABLE = "missing-directory/report.txt"


def _fixture(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return json.load(fh)


def _paths(obj, prefix=()):
    """Every path into a JSON tree, the root first."""
    yield prefix
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _paths(item, prefix + (i,))


def _replace(obj, path, value):
    if not path:
        return value
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def _get(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _reshaped(node, pick):
    if isinstance(node, list):
        return [node[:-1], node + node[:1], [node]][pick]
    if isinstance(node, dict) and node:
        return {k: v for k, v in node.items() if k != sorted(node)[0]}
    return [node]


def _gram(space, variant):
    """A Gram matrix for the space object: the identity with one negative
    diagonal entry, which is isotropic; with one entry that breaks
    Hermitian symmetry (a non-real diagonal entry in dimension 1); or, a
    valid form, with a huge diagonal."""
    dim = space.get("dim") if isinstance(space, dict) else None
    n = dim if type(dim) is int and 0 < dim <= 8 else 2
    gram = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    if variant == "isotropic":
        gram[-1][-1] = "-1"
    elif variant == "huge":
        gram = [[str(HUGE + i) if i == j else "0" for j in range(n)]
                for i in range(n)]
    elif n > 1:
        gram[0][1] = "1"
    else:
        gram[0][0] = {"re": "1", "im": "1"}
    return gram


# the paths of the space objects in each file kind
SPACES = {"space": [()], "map": [("domain",), ("codomain",)],
          "subspace": [("space",)]}


@st.composite
def mutants(draw, kind):
    """A fixture of the file kind with one mutation, as JSON text."""
    obj = copy.deepcopy(_fixture(draw(st.sampled_from(SEEDS[kind]))))
    ops = ["type", "shape", "integer", "zero_denominator", "unknown_key",
           "gram"] + (["sigma"] if kind == "map" else [])
    op = draw(st.sampled_from(ops))
    paths = list(_paths(obj))
    if op == "type":
        obj = _replace(obj, draw(st.sampled_from(paths)),
                       draw(st.sampled_from(TYPES)))
    elif op == "shape":
        path = draw(st.sampled_from(paths))
        obj = _replace(obj, path, _reshaped(_get(obj, path),
                                            draw(st.integers(0, 2))))
    elif op in ("integer", "zero_denominator"):
        leaves = [p for p in paths
                  if not isinstance(_get(obj, p), (dict, list))]
        obj = _replace(obj, draw(st.sampled_from(leaves)), draw(
            st.sampled_from(INTEGERS if op == "integer" else
                            ZERO_DENOMINATORS)))
    elif op == "unknown_key":
        dicts = [p for p in paths if isinstance(_get(obj, p), dict)]
        _get(obj, draw(st.sampled_from(dicts)))["bogus"] = "1"
    elif op == "gram":
        space = _get(obj, draw(st.sampled_from(SPACES[kind])))
        space["gram"] = _gram(space, draw(st.sampled_from(
            ("isotropic", "non-Hermitian", "huge"))))
    else:
        obj["sigma"] = draw(st.sampled_from(SIGMAS))
    return json.dumps(obj)


class _Overrun(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Overrun(f"a run took more than {RUN_SECONDS} s")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_mutant(workdir, kind, text, out=None):
    """Every entry point of the file kind on the mutant text, with an
    unwritable --out when out is UNWRITABLE: exit 0, 1 or 2, a report of
    JSON lines on stdout, no traceback, and each run within RUN_SECONDS."""
    path = workdir / f"mutant-{kind}.json"
    path.write_text(text, encoding="utf-8")
    for argv in ENTRY_POINTS[kind]:
        argv = argv + [str(path)] + COMMON
        if out is not None:
            argv += ["--out", str(workdir / out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        elapsed = time.perf_counter() - start
        where = f"{' '.join(argv[:4])} on {text[:300]}"
        assert code in (0, 1, 2), where
        assert elapsed < RUN_SECONDS, where
        assert "Traceback" not in stderr.getvalue(), where
        lines = stdout.getvalue().splitlines()
        assert lines, where
        records = [json.loads(line) for line in lines]
        assert any("check" in r and "status" in r for r in records), where
        if out == UNWRITABLE:
            assert code == 2 and records[0]["check"] == "load", where


SETTINGS = dict(derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=40, **SETTINGS)
@example(text=json.dumps({"sfield": "Q", "dim": HUGE}), out=None) \
    .via("huge dim")
@example(text=json.dumps(_fixture("q3.json")), out=UNWRITABLE) \
    .via("unwritable --out")
@given(text=mutants("space"), out=st.none())
def test_space_mutants(workdir, text, out):
    run_mutant(workdir, "space", text, out)


@settings(max_examples=150, **SETTINGS)
@example(text=json.dumps({**_fixture("scale2_q2.json"),
                          "domain": {"sfield": "Q", "dim": HUGE}}),
         out=None).via("huge dim")
@example(text=json.dumps(_fixture("scale2_q2.json")), out=UNWRITABLE) \
    .via("unwritable --out")
@given(text=mutants("map"), out=st.none())
def test_map_mutants(workdir, text, out):
    run_mutant(workdir, "map", text, out)


@settings(max_examples=40, **SETTINGS)
@example(text=json.dumps({**_fixture("q2_basis.json"),
                          "space": {"sfield": "Q", "dim": HUGE}}),
         out=None).via("huge dim")
@example(text=json.dumps(_fixture("q2_basis.json")), out=UNWRITABLE) \
    .via("unwritable --out")
@given(text=mutants("subspace"), out=st.none())
def test_subspace_mutants(workdir, text, out):
    run_mutant(workdir, "subspace", text, out)
