"""prif end-to-end benchmark: one workload per invocation.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs derive from ``--seed`` alone.  Passes repeat until
``--seconds`` would be exceeded (with a floor on the number of passes), and
every operation of every pass is checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: imports plus workload construction (scenario, or trust
  authority, groups and certificates), the median of this process and one
  fresh process after each timed pass;
* ``wall_s``: median wall time of one timed pass;
* ``handshake_ms_p50`` / ``_p90``: per-call latency of
  ``prif.auth.run_mutual_handshake`` pooled over the timed passes (the toy-group
  handshakes a simulation makes per contact, or the 2048-bit ones of
  ``handshake-2048``);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.py`` (medians over traced passes), the traced
pass time and the tracing overhead; the spans of the last traced pass are
written to ``.perfbench/spans-<workload>-seed<seed>.json``.

The last stdout line is the result object; the line before it, prefixed
``detail``, records sample counts, the result fingerprint, the failed
fraction and the environment.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _import_workloads():
    """Import the package from this checkout's ``src/`` only."""
    sys.path.insert(0, str(SRC))
    import prif
    if Path(prif.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"prif was imported from {prif.__file__}, not {SRC}")
    import workloads
    return workloads


def _setup_probe(workload: str, seed: int) -> float:
    """Set the workload up in a fresh interpreter; seconds from its start."""
    code = (
        "from time import perf_counter; t0 = perf_counter()\n"
        "import sys; from pathlib import Path\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"wl = workloads.make_workload({workload!r}, {seed}, "
        f"Path({str(OUT / 'probe')!r}))\n"
        "wl.setup()\n"
        "print(perf_counter() - t0)\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    kernels = sys.modules["prif.sim.kernels"]
    import numpy
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "use_numba": bool(kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD of this checkout, or ``unknown`` when the checkout is not a git
    work tree of its own."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except OSError:
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _percentile(samples: list[float], q: int) -> float:
    """q-th percentile (q in 10..90, step 10) of at least two samples."""
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


def measure(wl, seconds: float, trace: bool, tracer_cls, probe=None) -> dict:
    """Repeat passes until the next one would overrun ``seconds``.

    The first pass warms caches and lazy imports up and is the reference the
    others are checked against; it is not timed into any metric.  Untraced,
    at least two timed passes follow, with at least ``wl.min_samples``
    handshake samples between them, and ``probe`` (a set-up in a fresh
    process) runs after each, so set-up is sampled across the whole run.
    Traced, untraced and traced passes alternate, with at least two traced
    passes so their counts can be compared.
    """
    deadline = perf_counter() + seconds
    warmup = wl.run_pass()
    plain, traced, tracers, setup = [], [], [], []
    while True:
        started = perf_counter()
        if trace and len(plain) > len(traced):
            with tracer_cls() as tr:
                traced.append(wl.run_pass(tr))
            tracers.append(tr)
        else:
            plain.append(wl.run_pass())
            if probe is not None:
                setup.append(probe())
        if trace:
            enough = len(traced) >= 2
        else:
            samples = sum(len(r.handshake_s) for r in plain)
            enough = len(plain) >= 2 and samples >= wl.min_samples
        now = perf_counter()
        if enough and now + (now - started) > deadline:
            return {"warmup": warmup, "plain": plain, "traced": traced,
                    "tracers": tracers, "setup": setup}


def summarize(name: str, seed: int, seconds: float, trace: bool,
              setup_samples: list[float], runs: dict) -> tuple[dict, dict]:
    plain, traced, tracers = runs["plain"], runs["traced"], runs["tracers"]
    setup_samples = setup_samples + runs["setup"]
    passes = [runs["warmup"]] + plain + traced
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    digests = {r.digest for r in passes}
    wall = statistics.median(r.wall_s for r in plain)
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": passes[0].digest, "fingerprint_stable": len(digests) == 1,
        "ops_failed_frac": failed / attempted,
        "warmup_wall_s": runs["warmup"].wall_s,
        "wall_s": [r.wall_s for r in plain],
        "environment": environment(),
    }
    correct = failed == 0 and len(digests) == 1
    if trace:
        layer_runs = [t.layer_metrics() for t in tracers]
        counts_stable = all(
            all(m[k] == layer_runs[0][k] for m in layer_runs)
            for k in layer_runs[0] if not k.endswith("_s"))
        correct = correct and counts_stable
        traced_wall = statistics.median(r.wall_s for r in traced)
        values = {k: statistics.median(m[k] for m in layer_runs)
                  for k in layer_runs[0]}
        values["traced.wall_s"] = traced_wall
        values["traced.overhead_s"] = traced_wall - wall
        detail["traced_wall_s"] = [r.wall_s for r in traced]
        detail["counts_stable"] = counts_stable
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(tracers[-1].span_dump(), indent=1) + "\n")
    else:
        hs = [s for r in plain for s in r.handshake_s]
        detail["handshake_samples"] = len(hs)
        detail["setup_s"] = setup_samples
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall,
            "handshake_ms_p50": 1e3 * _percentile(hs, 50),
            "handshake_ms_p90": 1e3 * _percentile(hs, 90),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workloads = _import_workloads()
    import tracer
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"valid: {', '.join(workloads.WORKLOADS)}")
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    try:
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        wl.setup()
        setup_samples = [perf_counter() - T_START]
        probe = None if args.trace else \
            (lambda: _setup_probe(args.workload, args.seed))
        runs = measure(wl, args.seconds, bool(args.trace), tracer.Tracer,
                       probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(OUT / "probe", ignore_errors=True)
    result, detail = summarize(args.workload, args.seed, args.seconds,
                               bool(args.trace), setup_samples, runs)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
