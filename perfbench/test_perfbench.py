"""Tests of the benchmark itself: tiny smoke runs and checks that reject wrong outputs.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import flaglp
import bench
import checks
import workloads

SEED = 5
HERE = os.path.dirname(os.path.abspath(__file__))
TINY_L = {"czd-L7": 6, "companions-L9": 6, "kernels-L8": 7}
OPS_PER_ROUND = {"czd-L7": 24, "companions-L9": 6, "kernels-L8": 11}


def _scaled(f, factor):
    return flaglp.SampledFunction(f.grid, f.values * factor)


@pytest.fixture
def quick_setup(monkeypatch):
    """One set-up repetition, and no minimum set-up time."""
    monkeypatch.setattr(bench, "SETUP_MIN_SECONDS", 0.0)
    monkeypatch.setattr(bench, "SETUP_MIN_REPEATS", 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, tmp_path, quick_setup):
    result, details = bench.run_workload(name, SEED, 0.0, 0, str(tmp_path / "io"),
                                        L=TINY_L[name])
    assert set(json.loads(json.dumps(result))) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == OPS_PER_ROUND[name]
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(details["ops"]) == OPS_PER_ROUND[name] and "trace" not in details


def test_traced_counts_repeat(tmp_path, quick_setup, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_MIN_REPEATS", 2)
    runs = [bench.run_workload("czd-L7", SEED, 0.0, 1, str(tmp_path / f"io{i}"), L=6)[0]
            for i in range(2)]
    for result in runs:
        assert result["correct"]
        assert set(result["metrics"]) == set(bench.PER_LAYER_UNITS)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["transform.neumann_inverse.iterations"] > 0
    assert counts[0]["fft.calls"] > 0 and counts[0]["czd.levels"] >= 1
    # set-up work is measured over the set-up constructions
    assert counts[0]["blockio.bytes"] > 0
    assert runs[0]["metrics"]["filters.build_filter_bank.s"]["value"] > 0


def test_check_apart_reports_problems_and_errors():
    assert bench.check_apart(lambda out: [], {}) == []
    assert bench.check_apart(lambda out: [f"got {out['x']}"], {"x": 1}) == ["got 1"]
    problems = bench.check_apart(lambda out: out["missing"], {})
    assert len(problems) == 1 and "KeyError" in problems[0]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "czd-L7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- each check rejects a slightly wrong output -----------------------------


@pytest.fixture(scope="module")
def czd_case(tmp_path_factory):
    state = workloads.czd_setup(SEED, 6, str(tmp_path_factory.mktemp("czd")))
    op = workloads.czd_round(state)[0]
    return state["corpus"][0], op, op.run()


def test_czd_check_rejects_wrong_outputs(czd_case):
    f, op, out = czd_case
    assert op.check(out) == []
    assert np.linalg.norm(out["b"].values) > 1e-2 * np.linalg.norm(f.values)
    assert op.check(dict(out, b=_scaled(out["b"], 1 + 1e-6)))
    assert op.check(dict(out, violations=1))
    report = out["report"]
    fake = SimpleNamespace(level_set_measures=report.level_set_measures[::-1] + (1.0,),
                           level_masks=report.level_masks,
                           rect_classes=report.rect_classes)
    assert op.check(dict(out, report=fake))
    classes = {key: arr.copy() for key, arr in report.rect_classes.items()}
    key = next(iter(classes))
    classes[key].flat[0] = len(report.level_masks) + 1
    fake = SimpleNamespace(level_set_measures=report.level_set_measures,
                           level_masks=report.level_masks, rect_classes=classes)
    assert op.check(dict(out, report=fake))


@pytest.fixture(scope="module")
def companions_case(tmp_path_factory):
    state = workloads.companions_setup(SEED, 6, str(tmp_path_factory.mktemp("comp")))
    op = workloads.companions_round(state)[0]
    return state["corpus"][0], state["bank"], op, op.run()


def test_companions_check_rejects_wrong_outputs(companions_case):
    f, bank, op, out = companions_case
    assert op.check(out) == []
    assert op.check(dict(out, g_flag=out["g_flag"] * (1 + 1e-6)))

    peak = np.unravel_index(np.argmax(np.abs(f.values)), f.grid.shape)
    for key in ("strong_maximal", "hl_maximal"):
        lowered = out[key].copy()
        lowered[peak] *= 1 - 1e-9
        assert op.check(dict(out, **{key: lowered})), key

    for key in workloads.analyze_slot_keys(bank):
        def nudge(j, k, slot, key=key):
            slot = slot.copy()
            if (j, k) == key:
                slot.flat[0] += 1e-10 * np.max(np.abs(slot))
            return slot
        assert op.check(dict(out, coeffs=out["coeffs"].map_slots(nudge))), key

    for key in ("hardy_norm", "sp_norm", "cmo_norm", "cp_norm"):
        for factor in (1 + 1e-9, 1 - 1e-9):
            assert op.check(dict(out, **{key: out[key] * factor})), (key, factor)
    assert op.check(dict(out, candidates=out["candidates"] + out["candidates"][:1]))


@pytest.fixture(scope="module")
def kernels_case(tmp_path_factory):
    state = workloads.kernels_setup(SEED, 7, str(tmp_path_factory.mktemp("kern")))
    return state, {op.label: op for op in workloads.kernels_round(state)}


def test_kernel_norm_check_rejects_wrong_norms(kernels_case):
    state, ops = kernels_case
    for label in ("convolution_operator_norm[k0,2h]", "convolution_operator_norm[k2-flag,4h]"):
        op = ops[label]
        out = op.run()
        assert op.check(out) == []
        assert op.check({"norm": out["norm"] * (1 + 1e-9)})
        assert op.check({"norm": out["norm"] * (1 - 1e-9)})
    grid = state["grid"]
    # the bound is checked on its own: K0 above it, k2-flag below it
    assert checks.check_operator_norm("k0", grid, 2 * grid.spacing, 1.26 * np.pi**2)
    assert checks.check_operator_norm("k2-flag", grid, 4 * grid.spacing, 1.2 * np.pi**2)


def test_convolve_and_majorant_checks_reject_wrong_outputs(kernels_case):
    _, ops = kernels_case
    op = ops["flag_convolve[k0,2h]"]
    out = op.run()
    assert op.check(out) == []
    assert op.check({"values": out["values"] * (1 + 1e-9)})

    op = ops["majorant_check[k0,2h]"]
    out = op.run()
    assert op.check(out) == []
    report = dict(out["report"], per_level=dict(out["report"]["per_level"]))
    report["fitted_c"] *= 1 - 1e-9
    assert op.check({"report": report})
    report = dict(out["report"], per_level=dict(out["report"]["per_level"]))
    report["per_level"][(0, 0)] = 0.0
    assert op.check({"report": report})


def test_validation_check_rejects_failing_verdicts():
    good = {"kernel": "custom", "bound_type": "flag", "max_ratio": 1.0, "passes": True}
    assert checks.check_validation(good, "custom", "flag", True) == []
    assert checks.check_validation(dict(good, passes=False), "custom", "flag", True)
    assert checks.check_validation(dict(good, max_ratio=float("nan")), "custom", "flag", False)
    assert checks.check_validation(dict(good, bound_type="product"), "custom", "flag", False)


def test_block_round_trip_check_rejects_a_changed_bit(companions_case):
    f = companions_case[0]
    values = f.values.copy()
    values.view(np.uint64)[0] ^= 1
    assert workloads.blocks_identical([f], [f])
    assert not workloads.blocks_identical([f], [flaglp.SampledFunction(f.grid, values)])

