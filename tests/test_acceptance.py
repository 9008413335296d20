"""Acceptance battery.

Each test drives one advertised criterion at its pinned sample budget with
exact arithmetic (zero tolerance everywhere) and prints one pass/fail line.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the CLI mirrors these suites under `orthoset-lab verify`.
"""

import os
import subprocess
import sys
import time

import pytest
from conftest import src_env

from orthoset_lab import suites
from orthoset_lab.reports import passed
from orthoset_lab.starfields import StarSfield
from orthoset_lab.suites import (
    SuiteConfig,
    adjoint_random_records,
    frechet_records,
    gram_schmidt_records,
    linearity_records,
    partial_records,
    piziak_records,
    run_suite,
    splitting_records,
    transport_records,
    wigner_records,
)
from orthoset_lab.suites import _rng

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BAD_FILE = os.path.join(os.path.dirname(__file__), "data", "bad_parse.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "suite_all_seed7.jsonl")


def _report(number, name, records):
    ok = passed(records)
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    if not ok:
        for r in records:
            if r.status != "pass":
                print(f"  {r.check}: {r.status} witness={r.witness}")
    assert ok, f"criterion {number} failed"


def _per_sfield(cfg, fn, label):
    records = []
    for sf in StarSfield:
        records.extend(fn(sf, cfg, _rng(cfg, label, sf.value),
                          f"{label}/{sf.value}"))
    return records


def test_sample_budgets_are_pinned():
    budgets = {name: getattr(suites, name) for name in (
        "FORM_SAMPLES", "BASES", "SPLITS", "LINEAR_MAPS", "QUASIUNITARY_MAPS",
        "WIGNER_MAPS", "TRANSPORT_MAPS", "PARTIAL_MAPS", "RAY_PAIRS")}
    assert budgets == {
        "FORM_SAMPLES": 1000, "BASES": 100, "SPLITS": 100, "LINEAR_MAPS": 50,
        "QUASIUNITARY_MAPS": 50, "WIGNER_MAPS": 30, "TRANSPORT_MAPS": 20,
        "PARTIAL_MAPS": 10, "RAY_PAIRS": 500}


def test_criterion_01_form_axioms():
    cfg = SuiteConfig(suite="axioms", seed=0, count=256)
    records = run_suite(cfg)
    assert sum(1 for r in records if r.check.endswith("anisotropy")) >= 3
    _report(1, "form axioms: sesquilinearity, symmetry, anisotropy (1000 "
               "samples per sfield)", records)


def test_criterion_02_gram_schmidt():
    cfg = SuiteConfig(suite="dacey", seed=0)
    records = []
    for sf in StarSfield:
        records.extend(gram_schmidt_records(sf, _rng(cfg, "a2", sf.value),
                                            f"a2/{sf.value}"))
    _report(2, "orthogonal bases: 100 random bases per sfield, dims 2-6",
            records)


def test_criterion_03_splitting_and_dacey():
    cfg = SuiteConfig(suite="dacey", seed=0)
    records = []
    for sf in StarSfield:
        records.extend(splitting_records(sf, _rng(cfg, "a3", sf.value),
                                         f"a3/{sf.value}"))
    _report(3, "splitting decompositions and projection witnesses "
               "(100 per sfield)", records)


def test_criterion_04_05_adjoints_and_unitary_pairs():
    cfg = SuiteConfig(suite="adjoint", seed=0, count=256)
    records = _per_sfield(cfg, adjoint_random_records, "a4")
    _report(4, "adjoints: defining identity, involution, contravariance, "
               "ray-level pairs on 256 probes, rank equality (50 maps per "
               "sfield)", records)
    unitary = [r for r in records if r.check.endswith("unitary-iff-adjoint-pair")]
    _report(5, "unitary maps are exactly the adjoint pairs with their "
               "inverses", unitary)


def test_criterion_06_scale_extraction():
    cfg = SuiteConfig(suite="piziak", seed=0)
    records = _per_sfield(cfg, piziak_records, "a6")
    _report(6, "form scale factors: agreement across basis anchors, exact "
               "scaling, star-fixedness (50 maps per sfield)", records)


def test_criterion_07_wigner_round_trip():
    cfg = SuiteConfig(suite="wigner", seed=0, count=256)
    records = _per_sfield(cfg, wigner_records, "a7")
    _report(7, "ray-level reconstruction round trip with negative control "
               "(30 maps per sfield, dims 3-5)", records)


def test_criterion_08_transports():
    cfg = SuiteConfig(suite="transport", seed=0, count=256)
    records = _per_sfield(cfg, transport_records, "a8")
    _report(8, "scalar transports: composed maps exactly linear/unitary, "
               "re-coordinatization is an orthoisomorphism on 256 probes",
            records)


def test_criterion_09_partial_orthometries():
    cfg = SuiteConfig(suite="partial", seed=0, count=256)
    records = _per_sfield(cfg, partial_records, "a9")
    _report(9, "partial orthometries: kernel/image recovery, factorization, "
               "generalized inverse = adjoint, core round trip (30 maps)",
            records)


def test_criterion_10_linearity_and_frechet():
    cfg = SuiteConfig(suite="linearity", seed=0)
    records = _per_sfield(cfg, linearity_records, "a10")
    records.extend(_per_sfield(cfg, frechet_records, "a10f"))
    _report(10, "linearity witnesses and separation witnesses "
                "(500 ray pairs per sfield)", records)


def _cli(*argv, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "orthoset_lab", *argv],
        capture_output=True, text=True, timeout=timeout, env=src_env())


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    run_a = tmp_path / "a.txt"
    run_b = tmp_path / "b.txt"
    start = time.perf_counter()
    first = _cli("verify", "--suite", "all", "--seed", "7",
                 "--out", str(run_a))
    mid = time.perf_counter()
    second = _cli("verify", "--suite", "all", "--seed", "7",
                  "--out", str(run_b))
    done = time.perf_counter()
    assert first.returncode == 0 and second.returncode == 0
    # the first run must also match the report kept in tests/data byte for
    # byte, so a change that shifts every run alike is caught as well
    with open(GOLDEN, "rb") as fh:
        golden = run_a.read_bytes() == fh.read()
    identical = run_a.read_bytes() == run_b.read_bytes()

    ok_pass = _cli("verify", "--suite", "axioms",
                   "--space", os.path.join(FIXTURES, "q3.json"),
                   "--probes", "48").returncode == 0
    ok_fail = _cli("verify", "--suite", "adjoint",
                   "--map", os.path.join(FIXTURES,
                                         "shear_with_wrong_adjoint.json"),
                   "--probes", "32").returncode == 1
    ok_parse = _cli("verify", "--suite", "axioms",
                    "--space", BAD_FILE).returncode == 2

    print(f"  suite-all wall times: {mid - start:.1f}s / {done - mid:.1f}s")
    ok = golden and identical and ok_pass and ok_fail and ok_parse
    print(f"ACCEPTANCE 11 CLI determinism (byte-identical reruns) and "
          f"exit-code contract: {'PASS' if ok else 'FAIL'}")
    assert golden, f"report differs from {GOLDEN}"
    assert identical, "reports differ between reruns"
    assert ok_pass and ok_fail and ok_parse, "exit-code contract violated"
