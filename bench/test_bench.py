"""Tests of the benchmark itself.

Run with:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def short_run(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)


def tiny_run(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace, kind):
    code, lines, result = tiny_run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in DECLARED[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    printed = "\n".join(lines)
    for name, unit in want.items():
        assert f"  {name} = " in printed and f" {unit}" in printed
    if trace == 0:
        assert "  failed_ratio = 0 ratio" in printed
        if workload == "cli-manifests":
            for m in workloads.MANIFESTS:
                assert f"  manifest_ms.{m} = " in printed
    else:
        assert "  trace.overhead_ratio = " in printed


def test_traced_run_counts_timed_requests_only(capsys):
    # one lie_bracket per 8-node grid: the untraced warm-up must not add calls
    code, lines, result = tiny_run(capsys, "straighten-grid", trace=1)
    assert code == 0
    metrics = result["metrics"]
    assert metrics["cartan.lie_bracket.calls"]["value"] == pytest.approx(1 / 8)
    assert metrics["darboux.straighten_commuting.calls"]["value"] == pytest.approx(1 / 8)
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".self_share")]
    assert 0 < sum(shares) <= 1


def _label_false_pairs_true(monkeypatch):
    orig = workloads.SuperEquality.make_input

    def make_input(self, i):
        case = orig(self, i)
        case["expect"] = True
        return case

    monkeypatch.setattr(workloads.SuperEquality, "make_input", make_input)


def _label_identities_false(monkeypatch):
    orig = workloads.CalculusIdentities.make_input

    def make_input(self, i):
        case = orig(self, i)
        case["expect"] = False
        return case

    monkeypatch.setattr(workloads.CalculusIdentities, "make_input", make_input)


def _shift_reference(monkeypatch):
    orig = gen.straighten_reference
    monkeypatch.setattr(gen, "straighten_reference",
                        lambda case, u: tuple(v + 1e-3 for v in orig(case, u)))


def _wrong_manifest_expect(monkeypatch, tmp_path):
    src = ROOT / "src" / "graded_darboux" / "manifests" / "cylinder.json"
    payload = json.loads(src.read_text())
    for task in payload["tasks"]:
        if task["cmd"] == "classify":
            task["expect"]["kind"] = "symplectic-potential"
    bad = tmp_path / "cylinder.json"
    bad.write_text(json.dumps(payload))
    orig = workloads.CliManifests.prepare

    def prepare(self):
        orig(self)
        self.paths[0] = bad

    monkeypatch.setattr(workloads.CliManifests, "prepare", prepare)


@pytest.mark.parametrize("workload,corrupt", [
    ("super-equality", _label_false_pairs_true),
    ("calculus-identities", _label_identities_false),
    ("straighten-grid", _shift_reference),
    ("cli-manifests", _wrong_manifest_expect),
])
def test_wrong_expected_answer_fails_the_run(capsys, monkeypatch, tmp_path,
                                             workload, corrupt):
    if corrupt is _wrong_manifest_expect:
        corrupt(monkeypatch, tmp_path)
    else:
        corrupt(monkeypatch)
    code, lines, result = tiny_run(capsys, workload)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    ratio = next(line for line in lines if line.startswith("  failed_ratio = "))
    assert float(ratio.split()[2]) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-manifests",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
