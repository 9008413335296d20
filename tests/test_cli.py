import json
import os
import resource
import subprocess
import sys

import pytest
from conftest import src_env

from orthoset_lab import cli, serialize, suites
from orthoset_lab.cli import main
from orthoset_lab.errors import InconsistencyError
from orthoset_lab.hermspace import standard_space
from orthoset_lab.starfields import StarSfield

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DATA = os.path.join(os.path.dirname(__file__), "data")
BAD_FILE = os.path.join(DATA, "bad_parse.json")
GOLDEN = os.path.join(DATA, "suite_all_seed7.jsonl")
# stdout and exit code of each map construction on each map fixture, and of
# each subspace construction on q2_basis.json
CONSTRUCT_GOLDEN = os.path.join(DATA, "construct_maps.json")
MAP_FIXTURES = ("partial_q5.json", "quasiunitary_hq3.json",
                "quasiunitary_qi3.json", "scale2_q2.json",
                "shear_with_wrong_adjoint.json")
SUBSPACE_KINDS = ("gram-schmidt", "project")
GOLDEN_VECTOR = '["3", "-1/2"]'


def fixture(name):
    return os.path.join(FIXTURES, name)


def run_main(tmp_path, *argv):
    out = tmp_path / "report.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, out.read_text()


def records_of(text):
    return [json.loads(line) for line in text.splitlines() if line]


def test_verify_axioms_on_space_file(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "axioms",
                          "--space", fixture("q3.json"), "--probes", "48")
    assert code == 0
    recs = records_of(text)
    assert recs and all(r["status"] == "pass" for r in recs)


def test_verify_adjoint_wrong_claimed_adjoint_fails_with_witness(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "adjoint",
                          "--map", fixture("shear_with_wrong_adjoint.json"),
                          "--probes", "32")
    assert code == 1
    recs = records_of(text)
    failing = [r for r in recs if r["status"] == "fail"]
    assert failing and any("witness" in r for r in failing)


def test_verify_parse_error_exit_2(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "axioms",
                          "--space", BAD_FILE)
    assert code == 2
    recs = records_of(text)
    assert recs[0]["check"] == "load" and recs[0]["status"] == "error"


def test_verify_wigner_on_map_file(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "wigner",
                          "--map", fixture("quasiunitary_hq3.json"),
                          "--probes", "64", "--seed", "7")
    assert code == 0
    recs = records_of(text)
    assert any(r["check"] == "wigner/file/round-trip" for r in recs)


def test_verify_deterministic_bytes(tmp_path):
    args = ("verify", "--suite", "linearity", "--seed", "7", "--probes", "32")
    _, first = run_main(tmp_path, *args)
    _, second = run_main(tmp_path, *args)
    assert first == second


# "adjoint_images" is a map file that carries a claimed adjoint
INPUTS = {"space": ("--space", fixture("q3.json")),
          "map": ("--map", fixture("quasiunitary_hq3.json")),
          "subspace": ("--subspace", fixture("q2_basis.json")),
          "adjoint_images": ("--map",
                             fixture("shear_with_wrong_adjoint.json"))}
READS = {"axioms": {"space"}, "linearity": {"space"}, "frechet": {"space"},
         "adjoint": {"map", "adjoint_images"},
         "piziak": {"map"}, "wigner": {"map", "adjoint_images"},
         "all": {"space", "map", "adjoint_images"}}
# the tasks of each suite that reads --space, given the one Q space q3.json
SPACE_TASKS = {"axioms": ["axioms/Q/0"], "linearity": ["linearity/Q"],
               "frechet": ["frechet/Q"]}


@pytest.mark.parametrize("given", sorted(INPUTS))
@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_verify_uses_or_rejects_each_input(tmp_path, monkeypatch, suite,
                                           given):
    names = []

    def no_run(tasks):
        names.extend(name for name, _ in tasks)
        return []
    monkeypatch.setattr(suites, "run_tasks", no_run)
    code, text = run_main(tmp_path, "verify", "--suite", suite,
                          *INPUTS[given])
    reads = READS.get(suite, ())
    if given in reads:
        assert code == 0
        if given == "space":  # q3.json is one Q space, in place of the
            for read, tasks in SPACE_TASKS.items():  # built-in ones
                if suite in (read, "all"):
                    assert [n for n in names
                            if n.startswith(read + "/")] == tasks
        else:
            assert any(name.endswith("/file") for name in names)
    else:
        assert code == 2 and not names
        rec, = records_of(text)
        assert rec["check"] == "load" and rec["status"] == "error"
        # a suite that reads no map file rejects --map before loading it
        unread = ("the adjoint_images of --map"
                  if given == "adjoint_images" and "map" in reads
                  else INPUTS[given][0])
        assert rec["witness"]["message"] == \
            f"suite {suite!r} does not read {unread}"


@pytest.mark.parametrize("suite", ["linearity", "frechet"])
def test_ray_batteries_run_on_the_given_space(tmp_path, monkeypatch, suite):
    """linearity and frechet draw every ray pair from --space, a Gram space
    over HQ, and run over its sfield alone."""
    spaces = set()
    real = suites.random_nonzero_vector

    def spy(space, rng):
        spaces.add((space.sfield.value, space.dim, space.gram))
        return real(space, rng)
    monkeypatch.setattr(suites, "random_nonzero_vector", spy)
    code, text = run_main(tmp_path, "verify", "--suite", suite,
                          "--space", fixture("hq3_gram.json"), "--seed", "7")
    assert code == 0
    check, = [r["check"] for r in records_of(text)]
    assert check.startswith(f"{suite}/HQ/")
    (sfield, dim, gram), = spaces
    assert (sfield, dim) == ("HQ", 3) and gram != \
        standard_space(StarSfield.HQ, 3).gram


@pytest.mark.parametrize("dim", [0, 1])
@pytest.mark.parametrize("suite", ["linearity", "frechet"])
def test_ray_batteries_need_two_distinct_rays(tmp_path, suite, dim):
    """A space of dimension below 2 holds no two distinct proper rays, so
    the battery reports an error, not a pass over pairs it never drew."""
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"dim": dim, "sfield": "Qi"}))
    code, text = run_main(tmp_path, "verify", "--suite", suite,
                          "--space", str(space))
    assert code == 1
    rec, = records_of(text)
    assert rec == {"check": f"{suite}/Qi", "status": "error", "witness": {
        "error": "PreconditionError",
        "message": f"ray pairs need dimension 2 or more, got {dim}"}}


def test_verify_piziak_rejects_a_claimed_adjoint(tmp_path):
    """piziak reads no adjoint, so a map file that claims one is a load
    error with exit 2, not a scale extraction that drops the claim; the
    same map without the claim passes with lam 4."""
    args = ("verify", "--suite", "piziak", "--seed", "7", "--map")
    code, text = run_main(tmp_path, *args, fixture("scale2_q2.json"))
    assert code == 0
    assert text == ('{"check":"piziak/file/scale-extraction",'
                    '"detail":{"lam":"4"},"status":"pass"}\n')
    claimed = map_file(tmp_path, "scale2_q2.json", [["1", "1"], ["0", "1"]])
    code, text = run_main(tmp_path, *args, claimed)
    assert code == 2
    rec, = records_of(text)
    assert rec == {"check": "load", "status": "error", "witness": {
        "error": "InputError",
        "message": "suite 'piziak' does not read the adjoint_images of "
                   "--map"}}


@pytest.mark.parametrize("raised, status, exit_code", [
    (AttributeError, "internal", 3),
    (InconsistencyError, "error", 1),
])
def test_verify_tells_internal_bugs_from_failed_laws(tmp_path, monkeypatch,
                                                     capsys, raised, status,
                                                     exit_code):
    def broken(sfield, cfg, rng, prefix):
        raise raised("planted")
    monkeypatch.setattr(suites, "frechet_records", broken)
    code, text = run_main(tmp_path, "verify", "--suite", "frechet",
                          "--seed", "7")
    assert code == exit_code
    recs = records_of(text)
    assert [r["check"] for r in recs] == ["frechet/HQ", "frechet/Q",
                                          "frechet/Qi"]
    assert all(r["status"] == status and
               r["witness"]["error"] == raised.__name__ for r in recs)
    # only a bug leaves a traceback, on stderr and never in the report
    traced = capsys.readouterr().err.count("Traceback")
    assert traced == (3 if status == "internal" else 0)


def test_verify_timings_are_task_times(tmp_path):
    args = ("verify", "--suite", "piziak", "--seed", "7")
    _, plain = run_main(tmp_path, *args)
    _, timed = run_main(tmp_path, *args, "--timings")
    timed_recs = records_of(timed)
    assert timed_recs
    assert all("task_ms" in r and "elapsed_ms" not in r for r in timed_recs)
    assert [{k: v for k, v in r.items() if k != "task_ms"}
            for r in timed_recs] == records_of(plain)
    # without --timings the records are those of the suite-all golden file
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [line for line in fh if line.startswith('{"check":"piziak/')]
    assert plain == "".join(golden)


def test_verify_adjoint_counts_every_violation(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "adjoint",
                          "--map", fixture("shear_with_wrong_adjoint.json"),
                          "--seed", "7")
    assert code == 1
    rec, = [r for r in records_of(text)
            if r["check"] == "adjoint/file/adjoint-pair/biconditional"]
    assert rec["status"] == "fail"
    assert rec["detail"] == {"pairs": 256 * 256, "violations": 1127}
    assert len(rec["witness"]["shown"]) == 5


# "adjoint_images" is a map file that carries a claimed adjoint
CONSTRUCT_INPUTS = {"map": ("--map", fixture("scale2_q2.json")),
                    "subspace": ("--subspace", fixture("q2_basis.json")),
                    "vector": ("--vector", '["1", "0"]'),
                    "adjoint_images": (
                        "--map", fixture("shear_with_wrong_adjoint.json"))}
CONSTRUCT_READS = {"gram-schmidt": {"subspace"},
                   "project": {"subspace", "vector"},
                   "coordinatize": {"map", "adjoint_images"},
                   "partial-decompose": {"map", "adjoint_images"}}


@pytest.mark.parametrize("given", sorted(CONSTRUCT_INPUTS))
@pytest.mark.parametrize("kind", cli.CONSTRUCT_KINDS)
def test_construct_uses_or_rejects_each_input(tmp_path, monkeypatch, kind,
                                              given):
    seen = []

    def no_run(args, phi, claimed, subspace, raw_subspace):
        seen.append({"map": phi, "subspace": subspace, "vector": args.vector,
                     "adjoint_images": claimed}[given])
        return {}, []
    monkeypatch.setattr(cli, "_run_construct", no_run)
    code, text = run_main(tmp_path, "construct", kind,
                          *CONSTRUCT_INPUTS[given])
    reads = CONSTRUCT_READS.get(kind, {"map"})
    if given in reads:
        assert code == 0 and seen and seen[0] is not None
    else:
        assert code == 2 and not seen
        rec, = records_of(text)
        assert rec["check"] == "load" and rec["status"] == "error"
        # a construction that reads no map file rejects --map before
        # loading it
        unread = ("the adjoint_images of --map"
                  if given == "adjoint_images" and "map" in reads
                  else CONSTRUCT_INPUTS[given][0])
        assert rec["witness"]["message"] == \
            f"construction {kind!r} does not read {unread}"


@pytest.mark.parametrize("kind", ["adjoint", "induce", "piziak", "transport",
                                  "transport-unitary"])
def test_construct_rejects_a_claimed_adjoint_it_does_not_read(tmp_path,
                                                              kind):
    """A construction that reads no adjoint rejects a map file that claims
    one with one load record and exit 2, and does not run on the map
    without its claim."""
    claimed = map_file(tmp_path, "scale2_q2.json", [["1", "1"], ["0", "1"]])
    code, text = run_main(tmp_path, "construct", kind, "--map", claimed)
    assert code == 2
    assert records_of(text) == [{
        "check": "load", "status": "error", "witness": {
            "error": "InputError",
            "message": f"construction {kind!r} does not read the "
                       "adjoint_images of --map"}}]


@pytest.mark.parametrize("option", [["--space", fixture("q3.json")],
                                    ["--timings"]])
def test_construct_has_no_verify_only_options(tmp_path, capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "piziak", "--map", fixture("scale2_q2.json"),
              *option, "--out", str(tmp_path / "report.txt")])
    assert exc.value.code == 2
    assert option[0] in capsys.readouterr().err


@pytest.mark.parametrize("raised, status, exit_code", [
    (AttributeError, "internal", 3),
    (InconsistencyError, "error", 1),
])
def test_construct_tells_internal_bugs_from_failed_checks(
        tmp_path, monkeypatch, capsys, raised, status, exit_code):
    def broken(phi, probes):
        raise raised("planted")
    monkeypatch.setattr(cli, "piziak_lambda", broken)
    code, text = run_main(tmp_path, "construct", "piziak",
                          "--map", fixture("scale2_q2.json"))
    assert code == exit_code
    rec, = records_of(text)
    assert rec["check"] == "construct/piziak"
    assert rec["status"] == status
    assert rec["witness"]["error"] == raised.__name__
    traced = capsys.readouterr().err.count("Traceback")
    assert traced == (1 if status == "internal" else 0)


def test_construct_gram_schmidt_fixture(tmp_path):
    code, text = run_main(tmp_path, "construct", "gram-schmidt",
                          "--subspace", fixture("q2_basis.json"))
    assert code == 0
    lines = text.splitlines()
    output = json.loads(lines[0])["output"]
    assert output["vectors"] == [["1", "1"], ["1/2", "-1/2"]]


def test_construct_piziak_fixture(tmp_path):
    code, text = run_main(tmp_path, "construct", "piziak",
                          "--map", fixture("scale2_q2.json"))
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert output["lam"] == "4"


def test_construct_adjoint(tmp_path):
    code, text = run_main(tmp_path, "construct", "adjoint",
                          "--map", fixture("scale2_q2.json"))
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert output["images"] == [["2", "0"], ["0", "2"]]


def test_construct_coordinatize_round_trip(tmp_path):
    code, text = run_main(tmp_path, "construct", "coordinatize",
                          "--map", fixture("quasiunitary_qi3.json"),
                          "--probes", "48")
    assert code == 0
    recs = records_of("\n".join(text.splitlines()[1:]))
    ratio = [r for r in recs if r["check"] == "construct/coordinatize/ratio"]
    assert ratio and ratio[0]["status"] == "pass"


IDENTITY_3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
SHEAR_3 = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def map_file(tmp_path, base, adjoint_images=None):
    """A map file: base, a map object or the name of a fixture, with
    adjoint_images set when given."""
    if isinstance(base, str):
        with open(fixture(base), encoding="utf-8") as fh:
            base = json.load(fh)
    obj = dict(base)
    if adjoint_images is not None:
        obj["adjoint_images"] = adjoint_images
    path = tmp_path / f"map{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def q3_identity():
    q3 = {"sfield": "Q", "dim": 3}
    return {"domain": q3, "codomain": q3, "sigma": {"kind": "id"},
            "images": IDENTITY_3}


def test_construct_coordinatize_checks_a_claimed_adjoint(tmp_path):
    """The Q3 identity with the shear as its claimed adjoint fails the
    claim, not the true adjoint's check; the true adjoint claimed
    passes."""
    code, text = run_main(tmp_path, "construct", "coordinatize", "--map",
                          map_file(tmp_path, q3_identity(), SHEAR_3),
                          "--probes", "16")
    assert code == 1
    rec, = records_of(text)
    assert rec["check"] == "construct/coordinatize"
    assert rec["witness"]["error"] == "InputError"
    assert rec["witness"]["message"] == "claimed adjoint fails on probes"
    code, text = run_main(tmp_path, "construct", "coordinatize", "--map",
                          map_file(tmp_path, q3_identity(), IDENTITY_3),
                          "--probes", "16")
    assert code == 0
    checks = [r["check"] for r in records_of(text)[1:]]
    assert "adjoint-pair/biconditional" in checks


def test_construct_coordinatize_takes_a_claim_for_a_non_linear_map(
        tmp_path):
    """A conj map with a claimed adjoint is rebuilt on the adjoint branch,
    where the linear claim fails; without a claim it is trusted to be
    injective and rebuilt."""
    code, text = run_main(tmp_path, "construct", "coordinatize", "--map",
                          map_file(tmp_path, "quasiunitary_qi3.json",
                                   IDENTITY_3), "--probes", "16")
    assert code == 1
    rec, = records_of(text)
    assert rec["witness"]["message"] == "claimed adjoint fails on probes"
    code, text = run_main(tmp_path, "construct", "coordinatize", "--map",
                          fixture("quasiunitary_qi3.json"), "--probes", "16")
    assert code == 0
    checks = [r["check"] for r in records_of(text)[1:]]
    assert sorted(checks) == ["construct/coordinatize/ratio",
                              "coordinatize/probe-match"]


WIGNER_FILE = ("verify", "--suite", "wigner", "--probes", "32", "--seed", "7")


def test_verify_wigner_file_checks_a_claimed_inverse(tmp_path):
    """For an orthoisomorphism the ray adjoint is the inverse: a wrong
    claimed inverse of the Qi fixture fails the round trip with exit 1,
    and the file without a claim reports the same bytes as before."""
    code, text = run_main(tmp_path, *WIGNER_FILE, "--map",
                          fixture("quasiunitary_qi3.json"))
    assert code == 0
    assert text == ('{"check":"wigner/file/round-trip","detail":{"lam":"4"},'
                    '"status":"pass"}\n')
    code, text = run_main(tmp_path, *WIGNER_FILE, "--map",
                          map_file(tmp_path, "quasiunitary_qi3.json",
                                   IDENTITY_3))
    assert code == 1
    rec, = records_of(text)
    assert rec["check"] == "wigner/file" and rec["status"] == "error"
    assert rec["witness"]["error"] == "NotOrthoisoError"


def test_verify_wigner_file_takes_a_true_claimed_inverse(tmp_path):
    """A scaled Q3 identity with the inverse claimed reports the bytes of
    the same file without a claim."""
    scaled = dict(q3_identity(), images=[["2", "0", "0"], ["0", "2", "0"],
                                         ["0", "0", "2"]])
    inverse = [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]]
    plain = run_main(tmp_path, *WIGNER_FILE, "--map",
                     map_file(tmp_path, scaled))
    claimed = run_main(tmp_path, *WIGNER_FILE, "--map",
                       map_file(tmp_path, scaled, inverse))
    assert plain == claimed and plain[0] == 0


def test_construct_project_with_vector(tmp_path):
    subspace = {"space": {"sfield": "Q", "dim": 2},
                "basis": [["1", "1"]]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(subspace))
    code, text = run_main(tmp_path, "construct", "project",
                          "--subspace", str(path), "--vector", '["1", "0"]')
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert output["onto"] == ["1/2", "1/2"]
    assert output["perp"] == ["1/2", "-1/2"]


@pytest.mark.parametrize("vector", ["[1, 2]", "nope", '["1/0", "1"]'])
def test_construct_malformed_vector_is_load_error(tmp_path, vector):
    code, text = run_main(tmp_path, "construct", "project",
                          "--subspace", fixture("q2_basis.json"),
                          "--vector", vector)
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"]["error"] == "ParseError"


QUATERNION_J = {"a": "0", "b": "0", "c": "1", "d": "0"}
MINUS_J = {"a": "0", "b": "0", "c": "-1", "d": "0"}


@pytest.mark.parametrize("space, error", [
    ({"sfield": "Q", "dim": 2, "gram": [[2, 1], [1, 1]]}, "ParseError"),
    ({"sfield": "HQ", "dim": 2, "gram": [["1", QUATERNION_J],
                                         [MINUS_J, "-1"]]},
     "CertificateError"),
    ({"sfield": "Q", "dim": 2, "gram": 5}, "ParseError"),
    ({"sfield": "Q", "dim": 2, "gram": [["1/0", "0"], ["0", "1"]]},
     "ParseError"),
    ({"sfield": "Q", "dim": 3.9}, "ParseError"),
    ({"sfield": "Q", "dim": True}, "ParseError"),
    ({"sfield": "Q", "dim": "3"}, "ParseError"),
    ({"sfield": "Q", "dim": 2, "Gram": [["2", "0"], ["0", "1"]]},
     "ParseError"),
    ({"sfield": "HQ", "dim": 1, "gram": [[dict(QUATERNION_J, e="0")]]},
     "ParseError"),
], ids=["numeric-gram-entry", "indefinite-hq", "gram-not-a-list",
        "zero-denominator", "dim-float", "dim-bool", "dim-string",
        "misspelt-gram", "unknown-scalar-key"])
def test_verify_bad_space_file_is_load_error(tmp_path, space, error):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space))
    code, text = run_main(tmp_path, "verify", "--suite", "axioms",
                          "--space", str(path))
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"]["error"] == error


def test_huge_dim_is_a_prompt_load_error(tmp_path):
    """A space file stating dim = 2**70 is rejected before any space is
    built: `verify --suite axioms --space` exits 2 with one `load` record
    at once.  Built, its identity Gram matrix alone would not fit in any
    memory, so the child runs under a 2 GB address-space limit and a
    time limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    path = tmp_path / "space.json"
    path.write_text(json.dumps({"sfield": "Q",
                                "dim": 1180591620717411303424}))
    proc = subprocess.run(
        [sys.executable, "-m", "orthoset_lab", "verify", "--suite", "axioms",
         "--space", str(path)],
        capture_output=True, text=True, timeout=60, env=src_env(),
        preexec_fn=limit)
    assert proc.returncode == 2, proc.stderr
    rec, = records_of(proc.stdout)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"] == {"error": "ParseError",
                              "message": "dim must be at most 64, got "
                                         "1180591620717411303424"}


@pytest.mark.parametrize("dim, message", [
    (64, "image count does not match the domain dimension"),
    (65, "dim must be at most 64, got 65"),
    (-2, "dim must be nonnegative, got -2")])
def test_dim_bound_in_a_map_file(tmp_path, dim, message):
    """A map file's spaces take the same bounds: at dim 64 the file loads
    as far as its image count, and at 65 or -2 it stops at the bound,
    before the image lists are checked against the dimensions."""
    space = {"sfield": "Q", "dim": dim}
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"domain": space, "codomain": space,
                                "sigma": {"kind": "id"}, "images": []}))
    code, text = run_main(tmp_path, "verify", "--suite", "adjoint",
                          "--map", str(path))
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load"
    assert rec["witness"] == {"error": "ParseError", "message": message}


Q2 = {"sfield": "Q", "dim": 2}
MAP_Q2 = {"domain": Q2, "codomain": Q2, "sigma": {"kind": "id"},
          "images": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("argv, option, content", [
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, images=7))),
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, adjoint_images=[7, 7]))),
    (["construct", "gram-schmidt"], "--subspace",
     json.dumps({"space": Q2, "basis": 7})),
    (["verify", "--suite", "axioms"], "--space", b"\xff\xfe\x00"),
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, images=[["1/0", "0"], ["0", "1"]]))),
    (["construct", "gram-schmidt"], "--subspace",
     json.dumps({"space": Q2, "basis": [["1", "2/0"]]})),
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, adjoint_image=[["1", "0"], ["0", "1"]]))),
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, sigma={"kind": "id", "q": "1"}))),
    (["verify", "--suite", "adjoint"], "--map",
     json.dumps(dict(MAP_Q2, domain=dict(Q2, sfeild="Q")))),
    (["construct", "gram-schmidt"], "--subspace",
     json.dumps({"space": Q2, "basis": [["1", "0"]], "rank": 1})),
], ids=["map-images", "map-adjoint-images", "subspace-basis", "not-utf8",
        "map-zero-denominator", "subspace-zero-denominator",
        "map-misspelt-adjoint-images", "morphism-q-not-inner",
        "map-space-unknown-key", "subspace-unknown-key"])
def test_malformed_input_file_is_load_error(tmp_path, argv, option, content):
    """Containers of the wrong shape, zero denominators and bytes that are
    not UTF-8 are input errors, not crashes."""
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, text = run_main(tmp_path, *argv, option, str(path))
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"]["error"] == "ParseError"


Q3 = {"sfield": "Q", "dim": 3}
ROW2 = ["1", "0"]
# a Gram space and an inner twist: their scalars come after the shape check
G2 = dict(Q2, gram=[["2", "0"], ["0", "1"]])
HQ2 = {"sfield": "HQ", "dim": 2}
INNER = {"kind": "inner", "q": {"a": "1", "b": "1", "c": "0", "d": "0"}}


@pytest.mark.parametrize("argv, option, content, message", [
    (["verify", "--suite", "axioms"], "--space",
     dict(Q2, gram=[ROW2, ROW2, ROW2]),
     "Gram matrix shape does not match dimension"),
    (["verify", "--suite", "axioms"], "--space",
     dict(Q2, gram=[ROW2, ["0", "1", "0"]]), "gram rows must have 2 entries"),
    (["verify", "--suite", "adjoint"], "--map",
     dict(MAP_Q2, images=[ROW2, ROW2, ROW2]),
     "image count does not match the domain dimension"),
    (["verify", "--suite", "adjoint"], "--map",
     dict(MAP_Q2, domain=G2, codomain=Q3), "images rows must have 3 entries"),
    (["verify", "--suite", "adjoint"], "--map",
     {"domain": HQ2, "codomain": HQ2, "sigma": INNER, "images": [ROW2]},
     "image count does not match the domain dimension"),
    (["verify", "--suite", "adjoint"], "--map",
     dict(MAP_Q2, adjoint_images=[ROW2]),
     "adjoint image count does not match"),
    (["verify", "--suite", "adjoint"], "--map",
     dict(MAP_Q2, adjoint_images=[ROW2, ["0"]]),
     "adjoint_images rows must have 2 entries"),
    (["construct", "gram-schmidt"], "--subspace",
     {"space": G2, "basis": [ROW2, ["1", "1", "1"]]},
     "basis rows must have 2 entries"),
], ids=["gram-rows", "gram-row-length", "image-count", "image-row-length",
        "inner-image-count", "adjoint-count", "adjoint-row-length",
        "basis-row-length"])
def test_a_list_of_the_wrong_shape_is_rejected_before_any_scalar(
        tmp_path, monkeypatch, argv, option, content, message):
    """A Gram matrix, image or basis list whose rows or row lengths do not
    match the dimension is a load error with exit 2, decided before one
    scalar of the file is parsed."""
    parsed = []
    real = serialize.scalar_from_json

    def spy(obj, sfield):
        parsed.append(obj)
        return real(obj, sfield)
    monkeypatch.setattr(serialize, "scalar_from_json", spy)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    code, text = run_main(tmp_path, *argv, option, str(path))
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"] == {"error": "ParseError", "message": message}
    assert parsed == []


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "axioms", "--probes", "-3"],
    ["verify", "--suite", "wigner", "--map", fixture("quasiunitary_hq3.json"),
     "--probes", "0"],
    ["construct", "induce", "--map", fixture("scale2_q2.json"),
     "--probes", "-5"],
], ids=["verify-axioms-negative", "verify-wigner-zero", "construct-induce"])
def test_probe_count_below_one_is_load_error(tmp_path, argv):
    """A probe count below 1 would probe only the zero and basis rays."""
    code, text = run_main(tmp_path, *argv)
    assert code == 2
    rec, = records_of(text)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"]["error"] == "InputError"
    assert "--probes" in rec["witness"]["message"]


def test_probe_count_above_the_bound_is_load_error(tmp_path):
    """One past MAX_PROBES is rejected like a count below 1, by verify
    and construct alike."""
    for argv in (["verify", "--suite", "axioms"],
                 ["construct", "induce", "--map", fixture("scale2_q2.json")]):
        code, text = run_main(tmp_path, *argv, "--probes",
                              str(cli.MAX_PROBES + 1))
        assert code == 2
        rec, = records_of(text)
        assert rec["check"] == "load" and rec["status"] == "error"
        assert rec["witness"] == {
            "error": "InputError",
            "message": f"--probes must be at most {cli.MAX_PROBES}, "
                       f"got {cli.MAX_PROBES + 1}"}


def test_huge_probe_count_is_a_prompt_load_error():
    """`--probes 10**30` is rejected before any probe set is drawn:
    `verify --suite axioms` exits 2 with one `load` record at once.  Drawn,
    the probe set would run until memory gave out, so the child runs
    under a 2 GB address-space limit and a time limit."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))

    proc = subprocess.run(
        [sys.executable, "-m", "orthoset_lab", "verify", "--suite", "axioms",
         "--probes", str(10 ** 30)],
        capture_output=True, text=True, timeout=60, env=src_env(),
        preexec_fn=limit)
    assert proc.returncode == 2, proc.stderr
    rec, = records_of(proc.stdout)
    assert rec["check"] == "load" and rec["status"] == "error"
    assert rec["witness"] == {
        "error": "InputError",
        "message": f"--probes must be at most {cli.MAX_PROBES}, "
                   f"got {10 ** 30}"}


def test_verify_axioms_on_non_diagonal_hq_space(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "axioms",
                          "--space", fixture("hq3_gram.json"), "--seed", "7")
    assert code == 0
    recs = records_of(text)
    assert recs and all(r["status"] == "pass" for r in recs)


def test_construct_transport_unitary(tmp_path):
    code, text = run_main(tmp_path, "construct", "transport-unitary",
                          "--map", fixture("quasiunitary_hq3.json"))
    assert code == 0
    recs = records_of("\n".join(text.splitlines()[1:]))
    assert all(r["status"] == "pass" for r in recs)


def test_construct_transport_unitary_rejects_a_non_quasiunitary_map(tmp_path):
    # transport_unitary's own rejection reaches the report, class and all;
    # the fixture's shear without its claimed adjoint, which
    # transport-unitary does not read
    with open(fixture("shear_with_wrong_adjoint.json"),
              encoding="utf-8") as fh:
        shear = json.load(fh)
    del shear["adjoint_images"]
    code, text = run_main(tmp_path, "construct", "transport-unitary",
                          "--map", map_file(tmp_path, shear))
    assert code == 1
    rec, = records_of(text)
    assert rec["check"] == "construct/transport-unitary"
    assert rec["status"] == "error"
    assert rec["witness"] == {"error": "InputError",
                              "message": "map is not quasiunitary"}


def test_construct_outputs_match_the_golden_file(capsys):
    with open(CONSTRUCT_GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(
        [f"{kind} {name}" for kind in cli.CONSTRUCT_KINDS
         if kind not in SUBSPACE_KINDS for name in MAP_FIXTURES]
        + [f"{kind} q2_basis.json" for kind in SUBSPACE_KINDS])
    for key, want in golden.items():
        kind, name = key.split()
        if kind in SUBSPACE_KINDS:
            argv = ["--subspace", fixture(name)]
            if kind == "project":
                argv += ["--vector", GOLDEN_VECTOR]
        else:
            argv = ["--map", fixture(name)]
        code = main(["construct", kind, *argv])
        assert {"exit": code, "stdout": capsys.readouterr().out} == want, key


def test_construct_partial_decompose(tmp_path):
    code, text = run_main(tmp_path, "construct", "partial-decompose",
                          "--map", fixture("partial_q5.json"),
                          "--probes", "48")
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert len(output["a"]["basis"]) == 3
    assert len(output["b"]["basis"]) == 3


def test_verify_piziak_map_file(tmp_path):
    code, text = run_main(tmp_path, "verify", "--suite", "piziak",
                          "--map", fixture("scale2_q2.json"))
    assert code == 0
    recs = records_of(text)
    assert any(r.get("detail", {}).get("lam") == "4" for r in recs)


def test_verify_piziak_violating_map_errors(tmp_path):
    # the fixture's shear without its claimed adjoint, which piziak rejects
    with open(fixture("shear_with_wrong_adjoint.json"),
              encoding="utf-8") as fh:
        shear = json.load(fh)
    del shear["adjoint_images"]
    code, text = run_main(tmp_path, "verify", "--suite", "piziak",
                          "--map", map_file(tmp_path, shear))
    assert code == 1
    recs = records_of(text)
    assert any(r["status"] == "error" for r in recs)


def test_construct_transport_linear(tmp_path):
    code, text = run_main(tmp_path, "construct", "transport",
                          "--map", fixture("quasiunitary_qi3.json"))
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert output["composed"]["sigma"] == {"kind": "id"}


def test_construct_induce_samples(tmp_path):
    code, text = run_main(tmp_path, "construct", "induce",
                          "--map", fixture("scale2_q2.json"))
    assert code == 0
    output = json.loads(text.splitlines()[0])["output"]
    assert output["samples"][0]["fx"]["rep"] == "zero"


def test_construct_missing_input_is_parse_error(tmp_path):
    code, text = run_main(tmp_path, "construct", "gram-schmidt")
    assert code == 2
    recs = records_of(text)
    assert recs[0]["status"] == "error"


def test_cli_subprocess_entry_point(tmp_path):
    out = tmp_path / "r.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "orthoset_lab", "verify", "--suite", "axioms",
         "--space", fixture("q3.json"), "--probes", "32", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=src_env())
    assert proc.returncode == 0
    assert out.read_text()
