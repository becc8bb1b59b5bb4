import json
import os

import numpy as np
import pytest

import flaglp
from flaglp.cli import main


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    code = main(["gen-corpus", "--count", "2", "--seed", "3", "--L", "6",
                 "--out", str(d)])
    assert code == 0
    return d


def test_gen_corpus_outputs(corpus_dir):
    names = sorted(os.listdir(corpus_dir))
    assert "corpus-000.bin" in names and "manifest.json" in names
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["manifest"]["generator"] == "philox4x64"


# BLOCK and COEFFS stand for the corpus block and an analyze --dump-coeffs file
DETERMINISM_CASES = {
    "gen-corpus": ["gen-corpus", "--count", "2", "--L", "6"],
    "analyze": ["analyze", "BLOCK", "--dump-coeffs"],
    "synthesize": ["synthesize", "COEFFS"],
    "squarefunc": ["squarefunc", "BLOCK"],
    "hardy-norm": ["hardy-norm", "BLOCK", "--p", "0.9"],
    "cmo-norm": ["cmo-norm", "BLOCK", "--candidates", "8"],
    "maximal": ["maximal", "BLOCK"],
    "cz-decompose": ["cz-decompose", "BLOCK", "--alpha", "0.5"],
    "kernel-validate": ["kernel", "validate", "--budget", "256"],
    "kernel-convolve": ["kernel", "convolve", "BLOCK"],
    "kernel-project": ["kernel", "project", "--name", "ksharp-smoothed"],
    "verify": ["verify", "--suite", "plancherel", "--L", "6"],
    "verify-roundtrip": ["verify", "--suite", "roundtrip", "--L", "6"],
    "verify-remainder-decay": ["verify", "--suite", "remainder-decay", "--L", "6"],
}


@pytest.mark.parametrize("case", DETERMINISM_CASES)
def test_reports_deterministic(case, corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    coeffs = tmp_path / "coeffs"
    if case == "synthesize":
        assert main(["analyze", block, "--dump-coeffs", "--out", str(coeffs)]) == 0
    names = {"BLOCK": block, "COEFFS": str(coeffs / "coeffs.npz")}
    args = [names.get(arg, arg) for arg in DETERMINISM_CASES[case]]
    outputs = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        assert main([*args, "--out", str(run_dir)]) == 0
        outputs.append({path.name: path.read_bytes() for path in run_dir.iterdir()})
    assert any(name.endswith(".json") for name in outputs[0])
    assert outputs[0] == outputs[1]


def test_analyze_synthesize_roundtrip(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    out = tmp_path / "roundtrip"
    assert main(["analyze", block, "--dump-coeffs", "--out", str(out)]) == 0
    assert main(["synthesize", str(out / "coeffs.npz"),
                 "--out", str(out)]) == 0
    rebuilt = flaglp.read_block(out / "synthesized.bin")
    original = flaglp.read_block(block)
    # plain analyze/synthesize (no inverse) reproduces a band-limited
    # block only approximately; the report carries the exact numbers
    assert rebuilt.grid == original.grid


def test_squarefunc_and_hardy_norm(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["squarefunc", block, "--out", str(tmp_path / "sf")]) == 0
    assert main(["hardy-norm", block, "--p", "0.9",
                 "--out", str(tmp_path / "hn")]) == 0
    report = json.loads((tmp_path / "hn" / "hardy-norm.json").read_text())
    assert report["norm"] > 0.0


def test_cmo_norm(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["cmo-norm", block, "--candidates", "8",
                 "--out", str(tmp_path / "cmo")]) == 0
    report = json.loads((tmp_path / "cmo" / "cmo-norm.json").read_text())
    assert report["norm"] >= 0.0


def test_maximal_families(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    for family in ("dyadic-cubes", "dyadic-rectangles"):
        out = tmp_path / family
        assert main(["maximal", block, "--family", family,
                     "--out", str(out)]) == 0
        assert (out / "maximal.bin").exists()


def test_cz_decompose(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    out = tmp_path / "cz"
    assert main(["cz-decompose", block, "--alpha", "0.5",
                 "--out", str(out)]) == 0
    report = json.loads((out / "cz-decompose.json").read_text())
    assert report["split_residual"] <= 1e-9
    assert report["support_violations"] == 0
    assert (out / "good.bin").exists() and (out / "bad.bin").exists()


def test_kernel_validate_pass_and_fail(tmp_path):
    assert main(["kernel", "validate", "--name", "k2-flag",
                 "--out", str(tmp_path / "k2")]) == 0
    # the pure-product kernel under flag-type bounds must fail validation
    assert main(["kernel", "validate", "--expr", "1/(x*y)",
                 "--support", "flag", "--out", str(tmp_path / "k1")]) == 1
    assert main(["kernel", "validate", "--name", "k1-product",
                 "--out", str(tmp_path / "k1p")]) == 0


def test_kernel_expr_with_leading_minus(tmp_path):
    # K0 begins with a minus sign: attached with "=" it is a value, while as
    # a separate argument argparse reads it as an option (usage error, 2)
    k0 = "-i*y/(x*(x**2+y**2))"
    assert main(["kernel", "validate", "--expr=" + k0, "--support", "flag",
                 "--budget", "256", "--out", str(tmp_path / "k0")]) == 0
    report = json.loads((tmp_path / "k0" / "kernel.json").read_text())
    assert report["result"]["passes"] is True
    assert main(["kernel", "validate", "--expr", k0, "--support", "flag",
                 "--budget", "256", "--out", str(tmp_path / "sep")]) == 2


def test_kernel_usage_errors_exit_2(tmp_path):
    # options that build no usable kernel are a usage error (2), not a failed validation (1):
    # the default k2-flag has two arguments, and projection needs three
    for command in (["project"], ["validate", "--name", "no-such"],
                    ["validate", "--expr", "x.real"], ["convolve", "--name", "no-such"]):
        assert main(["kernel", *command, "--out", str(tmp_path)]) == 2
    assert main(["kernel", "project", "--name", "ksharp-smoothed", "--out", str(tmp_path)]) == 0


def test_kernel_convolve(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    out = tmp_path / "conv"
    assert main(["kernel", "convolve", block, "--name", "k2-flag",
                 "--out", str(out)]) == 0
    report = json.loads((out / "kernel.json").read_text())
    assert report["operator_norm"] > 0.0


def test_verify_suites(tmp_path):
    for suite in ("partition", "plancherel"):
        out = tmp_path / suite
        assert main(["verify", "--suite", suite, "--L", "6",
                     "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passes"] is True


def test_missing_input_exits_2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 2


def test_bad_bank_config_exits_2(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["analyze", block, "--bank", "mode=weird",
                 "--out", str(tmp_path)]) == 2


def test_bank_config_entries_and_offset(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")

    def analyze(name, *extra):
        return main(["analyze", block, *extra, "--out", str(tmp_path / name)])

    def report(name):
        return json.loads((tmp_path / name / "analyze.json").read_text())

    assert analyze("commas", "--bank", "n_offset=3,smoothness=1.0") == 0
    # --offset (default 3) supplies N unless n_offset is given
    assert analyze("smooth", "--bank", "smoothness=2.0") == 0
    assert ":s2.0:N3:" in report("smooth")["bank"]
    assert analyze("n2", "--bank", "n_offset=2") == 0
    assert report("n2")["config"]["offset"] == 2
    assert analyze("agree", "--bank", "n_offset=2", "--offset", "2") == 0
    assert analyze("clash", "--bank", "n_offset=2", "--offset", "3") == 2
    assert analyze("word", "--bank", "smoothness=abc") == 2
    assert analyze("mode", "--bank", "mode=compact-spatial") == 2
    cfg = tmp_path / "bank.cfg"
    cfg.write_text("# profile\nsmoothness=2.0  # sharper\nn_offset=3\n")
    assert analyze("cfg", "--config", str(cfg)) == 0
    assert report("cfg")["bank"] == report("smooth")["bank"]


def test_reports_do_not_record_jobs(corpus_dir, tmp_path, monkeypatch):
    block = str(corpus_dir / "corpus-000.bin")
    monkeypatch.delenv("FLAGLP_JOBS", raising=False)
    assert main(["analyze", block, "--out", str(tmp_path / "a")]) == 0
    monkeypatch.setenv("FLAGLP_JOBS", "7")
    assert main(["analyze", block, "--out", str(tmp_path / "b")]) == 0
    ra = (tmp_path / "a" / "analyze.json").read_bytes()
    assert ra == (tmp_path / "b" / "analyze.json").read_bytes()
    assert "jobs" not in json.loads(ra)["config"]
    assert main(["analyze", block, "--jobs", "2", "--out", str(tmp_path)]) == 2


def test_synthesize_rejects_dead_slots(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["analyze", block, "--dump-coeffs", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "analyze.json").read_text())
    # (0,2) has an identically zero lifted filter, so it is no channel
    assert "0,2" not in report["channels"]
    with np.load(tmp_path / "coeffs.npz") as data:
        payload = {name: data[name] for name in data.files}
    payload["slot_0_2"] = np.zeros_like(payload["slot_0_0"])
    np.savez(tmp_path / "dead.npz", **payload)
    # a malformed coefficient file is an input error
    assert main(["synthesize", str(tmp_path / "dead.npz"),
                 "--out", str(tmp_path / "synth")]) == 2


def test_synthesize_malformed_coeffs_exit_2(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["analyze", block, "--dump-coeffs", "--out", str(tmp_path)]) == 0
    with np.load(tmp_path / "coeffs.npz") as data:
        good = {name: data[name] for name in data.files}
    nan_slot = good["slot_0_0"].copy()
    nan_slot[0, 0] = np.nan
    inf_low_pass = good["low_pass"].copy()
    inf_low_pass[1, 1] = np.inf
    broken = {
        "missing": {k: v for k, v in good.items() if k != "slot_0_0"},
        "shape": dict(good, slot_0_0=good["slot_0_0"][:, :1]),
        "nan-slot": dict(good, slot_0_0=nan_slot),
        "inf-low-pass": dict(good, low_pass=inf_low_pass),
        "no-meta": {k: v for k, v in good.items() if k != "meta"},
    }
    for name, payload in broken.items():
        np.savez(tmp_path / f"{name}.npz", **payload)
        code = main(["synthesize", str(tmp_path / f"{name}.npz"),
                     "--out", str(tmp_path / name)])
        assert code == 2, name


def test_synthesize_rebuilds_the_analyzed_bank(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    cfg = tmp_path / "bank.cfg"
    cfg.write_text("smoothness=3.0\ninner_radius=0.25\n")
    assert main(["analyze", block, "--config", str(cfg), "--dump-coeffs",
                 "--out", str(tmp_path)]) == 0
    assert main(["synthesize", str(tmp_path / "coeffs.npz"),
                 "--out", str(tmp_path)]) == 0
    analyzed = json.loads((tmp_path / "analyze.json").read_text())["bank"]
    synthesized = json.loads((tmp_path / "synthesize.json").read_text())["bank"]
    assert ":s3.0:" in analyzed
    assert synthesized == analyzed


def test_synthesize_takes_its_bank_and_offset_from_the_file(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    assert main(["analyze", block, "--offset", "2", "--dump-coeffs",
                 "--out", str(tmp_path)]) == 0
    coeffs = str(tmp_path / "coeffs.npz")
    # bank options would be ignored, so they are refused
    for extra in (["--bank", "smoothness=3.0"], ["--config", str(tmp_path / "analyze.json")],
                  ["--offset", "3"]):
        assert main(["synthesize", coeffs, *extra, "--out", str(tmp_path / "x")]) == 2
    assert main(["synthesize", coeffs, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "synthesize.json").read_text())
    assert report["config"] == {"input": coeffs, "offset": 2, "subcommand": "synthesize"}
    assert report["bank"] == json.loads((tmp_path / "analyze.json").read_text())["bank"]


def test_bankless_commands_refuse_bank_options(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    commands = (["maximal", block], ["kernel", "validate", "--budget", "16"],
                ["verify", "--suite", "partition", "--L", "5"])
    for command in commands:
        for extra in (["--offset", "5"], ["--bank", "smoothness=3.0"], ["--config", block]):
            assert main([*command, *extra, "--out", str(tmp_path / "x")]) == 2
    assert main(["maximal", block, "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "maximal.json").read_text())["config"]
    assert not {"offset", "bank", "config"} & set(config)


def test_gen_corpus_builds_the_configured_bank(tmp_path):
    assert main(["gen-corpus", "--count", "1", "--L", "6", "--bank", "smoothness=3.0",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "manifest.json").read_text())
    assert ":s3.0:N3:" in report["manifest"]["bank"]
    assert report["config"]["bank"] == "smoothness=3.0"


def test_out_of_range_option_values_exit_2(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    # an option value outside its domain is a usage error
    for command in (["hardy-norm", block, "--p", "2"], ["cmo-norm", block, "--p", "0"],
                    ["cz-decompose", block, "--alpha", "-1"],
                    ["kernel", "validate", "--budget", "8"],
                    ["kernel", "convolve", block, "--eps-factor", "0.5"],
                    ["gen-corpus", "--L", "4"]):
        assert main([*command, "--out", str(tmp_path / "x")]) == 2, command
    # a computation that fails is not: at N=1 the Neumann series diverges
    assert main(["cz-decompose", block, "--alpha", "0.5", "--offset", "1",
                 "--out", str(tmp_path / "x")]) == 1


def test_bad_arguments_exit_2(tmp_path):
    assert main(["no-such-command"]) == 2


def test_float_format_stability(corpus_dir, tmp_path):
    block = str(corpus_dir / "corpus-000.bin")
    out = tmp_path / "fmt"
    assert main(["hardy-norm", block, "--out", str(out)]) == 0
    text = (out / "hardy-norm.json").read_text()
    parsed = json.loads(text)
    # every float survives a parse/format cycle exactly
    assert float("%.17g" % parsed["norm"]) == parsed["norm"]
