"""Tests of the benchmark itself (not collected by the repository's suite).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from zzpers import dpc, fzz, planner, rep_updates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert [m["name"] for m in SPEC["per_layer"]] == list(worker.PER_LAYER)
    assert all(m["unit"] == worker.unit_of(m["name"]) for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_tiny_smoke_run(workload):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", trace, "--size", "tiny")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def _workload(name: str, tmp_path: Path, size: str = "tiny"):
    inputs.generate(name, 5, size, tmp_path)
    return worker.WORKLOADS[name](tmp_path)


@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_corrupted_expected_barcode_counts_as_failed(workload, tmp_path, monkeypatch):
    wl = _workload(workload, tmp_path)
    real = fzz.barcode_from_scratch

    def corrupted(filtration, validate=True):
        return [(0, 0, 0)] + real(filtration, validate)

    monkeypatch.setattr(fzz, "barcode_from_scratch", corrupted)
    result = worker.untraced(wl, 0.05)
    assert result["failed"] > 0 and not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


# At tiny size a rep_edits op takes a few microseconds and the tracer's own
# cost inside it comes within 2% of the tolerance, so that workload is
# checked at the benchmark's size.
@pytest.mark.parametrize("workload, size",
                         [("sweep", "tiny"), ("crosscheck", "tiny"), ("rep_edits", "full")])
def test_layer_spans_cover_the_traced_wall_clock(workload, size, tmp_path):
    result = worker.traced(_workload(workload, tmp_path, size), None)
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert abs(1.0 - coverage) <= worker.TRACE_TOLERANCE
    assert result["correct"] and result["info"]["absent"] == []


def test_coverage_outside_the_tolerance_fails_the_traced_run(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "TRACE_TOLERANCE", -1.0)
    assert not worker.traced(_workload("sweep", tmp_path), None)["correct"]


def test_sweep_times_every_band(tmp_path):
    info = worker.untraced(_workload("sweep", tmp_path), 0.05)["info"]
    assert info["samples"] == info["units"] > 0
    assert "band_timing" not in info


def test_timings_are_scaled_to_the_nominal_host_speed(tmp_path, monkeypatch):
    def probe(self):  # a host that runs the reference work at half speed
        self.probes.append(2 * worker.REF_NOMINAL_S)
        return self.probes[-1]

    monkeypatch.setattr(worker.HostSpeed, "probe", probe)
    result = worker.untraced(_workload("rep_edits", tmp_path), 0.05)
    info = result["info"]
    assert info["cpu_s"] == pytest.approx(info["raw_cpu_s"] / 2)
    assert info["setups_s"] == pytest.approx([r / 2 for r in info["raw_setups_s"]])
    assert result["metrics"]["op_p99_us"]["value"] == pytest.approx(info["raw_op_p99_us"] / 2)


def test_tracer_restores_every_binding_and_reports_absent_names():
    original = rep_updates.apply_op
    tracer = Tracer()
    assert tracer.wrap("zzpers.rep_updates.apply_op", "apply_op", split_arg=1)
    # modules that imported it by name see the wrapper too
    assert dpc.apply_op is rep_updates.apply_op is planner.apply_op is not original
    assert not tracer.wrap("zzpers.dpc.no_such_function", "gone")
    assert not tracer.wrap("zzpers.no_such_module.f", "gone")
    assert not tracer.wrap("zzpers.fzz.FzzEngine.no_such_method", "gone")
    planner.state_from_filtration(planner.ZigzagFiltration.from_text("i 0\nd 0\n"))
    tracer.uninstall()
    assert dpc.apply_op is rep_updates.apply_op is planner.apply_op is original
    assert tracer.absent == ["zzpers.dpc.no_such_function", "zzpers.no_such_module.f",
                             "zzpers.fzz.FzzEngine.no_such_method"]
    assert {name for name, *_ in tracer.spans} == {"apply_op.ie"}


def test_inputs_are_a_function_of_the_seed(tmp_path):
    recorded = json.loads((HERE / "digests.json").read_text())["tiny"]
    for key, digest in recorded.items():
        workload, seed = key.split("/")
        out = tmp_path / key.replace("/", "-")
        inputs.generate(workload, int(seed), "tiny", out)
        assert inputs.digest(out) == digest


@pytest.mark.parametrize("workload", ["rep_edits", "crosscheck"])
def test_op_stream_seeds_share_the_start_and_differ_in_the_stream(workload, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    inputs.generate(workload, 1, "tiny", a)
    inputs.generate(workload, 2, "tiny", b)
    assert (a / "start.zz").read_text() == (b / "start.zz").read_text()
    assert (a / "script.txt").read_text() != (b / "script.txt").read_text()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
