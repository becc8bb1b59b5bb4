import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = {"bank_build", "analyze", "first_t_application", "t_application", "r_application",
          "neumann_inverse", "synthesize_discrete", "g_flag", "strong_maximal", "cmo_norm",
          "kernel_sampling"}
COUNTS = {"fft_calls", "fft_points", "t_applications", "iterations", "kernel_evals"}


def test_bench_layers_record_schema(tmp_path):
    # a smoke run at L=6: only the shape of the record is checked, never a time
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(ROOT, "tools", "bench_layers.py"),
                    "--label", "smoke", "--L", "6", "--out", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert record["schema"] == 1 and record["label"] == "smoke"
    assert set(record["machine"]) == {"cpu", "cpus_usable", "platform", "python", "numpy", "threads"}
    assert record["input"]["N"] == 3
    assert list(record["layers"]) == ["6"] and set(record["layers"]["6"]) == LAYERS
    assert list(record["end_to_end"]) == ["6"]
    assert set(record["end_to_end"]["6"]) == {"cz_decompose", "verify_roundtrip"}
    entries = [*record["layers"]["6"].values(), *record["end_to_end"]["6"].values(),
               record["kernel_validation"]]
    for entry in entries:
        assert isinstance(entry["best_s"], float) and entry["best_s"] > 0
        assert entry["runs"] in (1, 3)
        counts = {key: value for key, value in entry.items() if key not in ("best_s", "runs")}
        assert set(counts) <= COUNTS and all(isinstance(v, int) and v > 0 for v in counts.values())
    assert record["layers"]["6"]["neumann_inverse"]["iterations"] > 0
    assert record["layers"]["6"]["t_application"]["t_applications"] == 1
    assert record["kernel_validation"]["kernel_evals"] > 0
