"""The benchmark's own checks, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SIMULATIONS = [w for w in workloads.WORKLOADS if w != "handshake-2048"]


def _tiny(name: str, tmp_path: Path):
    wl = workloads.make_workload(name, 3, tmp_path / "work", tiny=True)
    wl.setup()
    return wl


def _traced_pass(wl):
    with tracer.Tracer() as tr:
        result = wl.run_pass(tr)
    return result, tr


def _run_benchmark(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_passes_are_correct_and_counts_repeat(name, tmp_path):
    wl = _tiny(name, tmp_path)
    plain = [wl.run_pass(), wl.run_pass()]
    (t1, tr1), (t2, tr2) = _traced_pass(wl), _traced_pass(wl)
    for r in plain + [t1, t2]:
        assert r.attempted > 0 and r.failed == 0
        assert r.digest == plain[0].digest
    m1, m2 = tr1.layer_metrics(), tr2.layer_metrics()
    counts = [k for k in m1 if not k.endswith("_s")]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    assert m1["auth.handshakes"] > 0
    if name in SIMULATIONS:
        assert m1["kernels.transitions"] > 0 and m1["trace.contacts"] > 0
        assert m1["routing.decide_calls"] > 0 and m1["engine.events"] > 0
    else:
        assert m1["auth.rejects"] == m1["auth.handshakes"] // 2


def test_tracing_is_removed_after_a_pass(tmp_path):
    import prif.auth
    import prif.sim.kernels
    before = (prif.auth.powmod, prif.sim.kernels.transitions)
    _traced_pass(_tiny("paper-scan", tmp_path))
    assert (prif.auth.powmod, prif.sim.kernels.transitions) == before


def test_desk_sweep_rebuilds_the_trace_per_router(tmp_path):
    _, tr = _traced_pass(_tiny("desk-sweep", tmp_path))
    m = tr.layer_metrics()
    assert m["trace.builds"] == len(workloads.ROUTERS)
    assert m["trace.distinct_builds"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_add_up_to_the_pass(name, tmp_path):
    wl = _tiny(name, tmp_path)
    result, tr = _traced_pass(wl)
    self_times = [v for k, v in tr.layer_metrics().items()
                  if k.startswith("self.")]
    assert min(self_times) >= 0.0
    root = tr.spans[0]
    assert root[0] == "pass" and root[3] == -1
    assert sum(self_times) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert sum(self_times) <= result.wall_s


@pytest.mark.parametrize("name", SIMULATIONS)
def test_fingerprint_equals_a_plain_prif_run(name, tmp_path):
    wl = _tiny(name, tmp_path)
    out = tmp_path / "plain"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "prif.cli", *wl.argv,
                           "--out", str(out)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    assert workloads.output_digest(out) == wl.run_pass().digest


def test_a_report_that_changed_since_the_first_pass_fails(tmp_path):
    wl = _tiny("desk-long", tmp_path)
    wl.run_pass()
    name = wl.expected_reports[0]
    wl.reference[name] += b" "
    assert wl.run_pass().failed == 1


def test_conservation_check():
    report = {"created": 10, "delivered": 4, "buffered_at_end": 3,
              "expired": 1, "dropped": 1, "rejected": 1}
    assert workloads.conserved(report)
    report["dropped"] = 0
    assert not workloads.conserved(report)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_spec(trace):
    done = _run_benchmark(ROOT, "paper-scan", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(lines[-2].removeprefix("detail "))
    assert detail["environment"]["nproc"] >= 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark(tmp_path, "desk-sweep", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
