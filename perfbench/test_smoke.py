"""Smoke tests of the benchmark itself: every workload briefly, checks on.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs its set-up and one round through ``run_workload`` with
every output check on; then each checker is shown a tampered output and
must reject it, so a check that passes everything fails here.
"""

from __future__ import annotations

import json
import math

import pytest

import run

run.prepare_environment()
OVALFRONT, IMPORT_S = run.import_program()

import tracing  # noqa: E402  (imports NumPy, so after prepare_environment)
from workloads import WORKLOADS, CheckFailure, semicircle_threshold  # noqa: E402

SEED = 7


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_one_round_passes_every_check(name):
    result = run.run_workload(OVALFRONT, name, SEED, 0.0, False, IMPORT_S)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == result["ops_per_round"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer():
    result = run.run_workload(OVALFRONT, "plane-verify", SEED, 0.0, True, IMPORT_S)
    metrics = result["metrics"]
    assert result["correct"] and set(metrics) == set(tracing.PER_LAYER)
    for layer in ("cli", "specio", "support", "curves", "wavefront", "harmonics",
                  "kernels", "scipy"):
        assert metrics[f"{layer}.self_ms"] > 0, layer
    assert metrics["sphere.self_ms"] == metrics["hyperbolic.self_ms"] == 0
    assert metrics["wavefront.propagate_calls"] == 23  # 11 Steiner + 11 defect + critical
    # self times partition the root span of each operation
    total_self = sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    assert 0.9 * result["op_ms_mean"] <= total_self <= result["op_ms_mean"]
    # the tracer leaves the program as it found it
    assert OVALFRONT.cli.main.__module__ == "ovalfront.cli"
    assert not hasattr(OVALFRONT.cli.main, "__wrapped__")


@pytest.mark.parametrize("name", ["plane-verify", "plane-export"])
def test_same_seed_same_inputs(name, tmp_path):
    docs = []
    for i, seed in enumerate((SEED, SEED, SEED + 1)):
        spec_dir = tmp_path / str(i)
        spec_dir.mkdir()
        WORKLOADS[name].generate(seed, spec_dir, tmp_path / "out")
        docs.append(sorted(p.read_text() for p in spec_dir.iterdir()))
    assert docs[0] == docs[1] != docs[2]


def test_threshold_bisection():
    assert abs(semicircle_threshold() - 1.3858) < 1e-4


def _first_case(name, tmp_path):
    workload = WORKLOADS[name]
    (tmp_path / "specs").mkdir()
    case = workload.generate(SEED, tmp_path / "specs", tmp_path / "out")[0]
    codes = [OVALFRONT.cli.main(argv) for argv in case.argvs]
    workload.check(case, codes)
    return workload, case, codes


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _rejects(workload, case, codes):
    with pytest.raises(CheckFailure):
        workload.check(case, codes)


def test_plane_verify_check_rejects(tmp_path):
    workload, case, codes = _first_case("plane-verify", tmp_path)
    _rejects(workload, case, [1])
    report = case.outs[0] / "verify_report.json"
    original = report.read_text()

    def add_crossings(doc):
        for check in doc["checks"]:
            if check["name"] == "four_point":
                check["attainment_count"] += 2
    _edit_json(report, add_crossings)
    _rejects(workload, case, codes)
    report.write_text(original)
    _edit_json(report, lambda doc: doc["checks"][-1].update(passed=False))
    _rejects(workload, case, codes)


def test_plane_export_check_rejects(tmp_path):
    workload, case, codes = _first_case("plane-export", tmp_path)
    report = case.outs[0] / "propagate_report.json"
    original = report.read_text()
    _edit_json(report, lambda doc: doc["snapshots"][3].update(area=doc["snapshots"][3]["area"] * (1 + 1e-7)))
    _rejects(workload, case, codes)
    report.write_text(original)
    _edit_json(report, lambda doc: doc["snapshots"][0].update(cusp_count=doc["snapshots"][0]["cusp_count"] + 2))
    _rejects(workload, case, codes)
    report.write_text(original)
    csv = case.outs[0] / "front_005.csv"
    csv.write_bytes(csv.read_bytes().rsplit(b"\n", 2)[0] + b"\n")
    _rejects(workload, case, codes)


def test_curved_verify_check_rejects(tmp_path):
    workload, case, codes = _first_case("curved-verify", tmp_path)
    report = case.outs[0] / "verify_report.json"

    def more_inflections(doc):
        for check in doc["checks"]:
            if check["name"] == "equatorial_front":
                check["inflections"] += 2
    _edit_json(report, more_inflections)
    _rejects(workload, case, codes)


def test_semicircle_check_rejects(tmp_path):
    workload, case, codes = _first_case("semicircle", tmp_path)
    report = case.outs[0] / "counterexample_report.json"
    original = report.read_text()
    _edit_json(report, lambda doc: doc.update(threshold_r=doc["threshold_r"] + 1e-6))
    _rejects(workload, case, codes)
    report.write_text(original)
    r = case.expected["r"]
    _edit_json(report, lambda doc: doc.update(coth_r=1.0 / math.tanh(r) * (1 + 1e-6)))
    _rejects(workload, case, codes)
