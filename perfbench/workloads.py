"""The benchmark's workloads: what one pass runs and how it is checked.

Simulation workloads drive the public entry point in-process, exactly as
``prif run`` would (``prif.cli.main`` with the same arguments, writing into
a scratch directory), at ``--jobs 1``.  One operation is one (router, axis
value, seed) run; it fails when the command does not exit 0, when its JSON
report is missing or breaks message conservation, or when its bytes differ
from the first pass of the same benchmark run.

The handshake workload calls ``prif.auth.run_mutual_handshake`` directly on
the 2048-bit parameter set.  One operation is one handshake; it fails when
either side's accept/reject outcome differs from what its case prescribes,
or its wire frames differ from the first pass.

All workloads are closed loops with one client: each run or handshake
starts only after the previous one has finished.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import prif.auth
import prif.cli
from prif.sim.scenario import PRESETS, ROUTERS, scenario_from_ini
from tracer import Tracer


@dataclass
class PassResult:
    """What one pass produced: wall time, operation tally, result digest."""

    wall_s: float
    attempted: int
    failed: int
    digest: str
    handshake_s: list[float] = field(default_factory=list)


class _HandshakeClock:
    """Times every ``run_mutual_handshake`` call made during an untraced
    simulation pass; the probe is a single attribute swap on ``prif.auth``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._original = None

    def __enter__(self) -> "_HandshakeClock":
        original = self._original = prif.auth.run_mutual_handshake
        samples = self.samples

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = original(*args, **kwargs)
            samples.append(perf_counter() - t0)
            return result

        prif.auth.run_mutual_handshake = timed
        return self

    def __exit__(self, *exc) -> None:
        prif.auth.run_mutual_handshake = self._original


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + len(files[name]).to_bytes(8, "big"))
        h.update(files[name])
    return h.hexdigest()


def output_digest(out_dir: Path) -> str:
    """SHA-256 over ``sweep.csv`` and every JSON report in a run directory."""
    return _digest({p.name: p.read_bytes() for p in out_dir.iterdir()
                    if p.name == "sweep.csv" or p.suffix == ".json"})


def conserved(report: dict) -> bool:
    """Every created message ends in exactly one final state."""
    return (report["delivered"] + report["buffered_at_end"] + report["expired"]
            + report["dropped"] + report["rejected"]) == report["created"]


# ---------------------------------------------------------------------------
# simulations through the command line
# ---------------------------------------------------------------------------

class SimWorkload:
    """A ``prif run`` sweep; ``config`` (INI text) replaces ``--preset``."""

    min_samples = 0

    def __init__(self, name: str, workdir: Path, *, routers: tuple[str, ...],
                 axis: str, values: tuple[float, ...], seeds: tuple[int, ...],
                 preset: str = "desk", config: str | None = None) -> None:
        self.name = name
        self.workdir = workdir
        self.routers, self.axis = routers, axis
        self.values, self.seeds = values, seeds
        self.preset, self.config = preset, config
        self.reference: dict[str, bytes] | None = None
        self.argv: list[str] = []

    @property
    def expected_reports(self) -> list[str]:
        return [f"run_{r}_{self.axis}-{v:g}_seed{s}.json"
                for r in self.routers for v in self.values for s in self.seeds]

    def setup(self) -> None:
        """Write the scenario config (if any) and build the scenario once,
        so malformed input fails here rather than inside a timed pass."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.config is not None:
            path = self.workdir / f"{self.name}.ini"
            path.write_text(self.config, encoding="utf-8")
            scenario_from_ini(path).validate()
            source = ["--config", str(path)]
        else:
            PRESETS[self.preset]().validate()
            source = ["--preset", self.preset]
        self.argv = ["run", *source, "--router", ",".join(self.routers),
                     "--sweep", self.axis,
                     "--values", ",".join(f"{v:g}" for v in self.values),
                     "--seeds", ",".join(str(s) for s in self.seeds),
                     "--jobs", "1"]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        """One full sweep.  Untraced, every handshake the simulation makes
        is timed; traced, the entry point becomes the root span."""
        if tracer is None:
            root, clock = prif.cli.main, _HandshakeClock()
        else:
            root = tracer.wrap(prif.cli.main, "pass", "cli", span=True)
            clock = contextlib.nullcontext(None)
        out = Path(tempfile.mkdtemp(prefix="pass-", dir=self.workdir))
        try:
            with clock as hs, contextlib.redirect_stdout(io.StringIO()):
                t0 = perf_counter()
                code = root(self.argv + ["--out", str(out)])
                wall = perf_counter() - t0
            files = {p.name: p.read_bytes() for p in out.iterdir()}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        expected = self.expected_reports
        return PassResult(wall_s=wall, attempted=len(expected),
                          failed=self._count_failures(code, files, expected),
                          digest=_digest(files),
                          handshake_s=hs.samples if hs is not None else [])

    def _count_failures(self, code: int, files: dict[str, bytes],
                        expected: list[str]) -> int:
        if self.reference is None and code == 0:
            self.reference = files
        ref = self.reference or {}
        if code != 0 or files.get("sweep.csv") != ref.get("sweep.csv"):
            return len(expected)
        failed = 0
        for name in expected:
            data = files.get(name)
            if data is None or data != ref.get(name) \
                    or not conserved(json.loads(data)):
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# the 2048-bit handshake, called directly
# ---------------------------------------------------------------------------

# (case, initiator, initiator's claimed gid, responder, responder's gid,
#  expected (initiator accepts, responder accepts))
_CASES = (
    ("same-group", "a1", "A", "a2", "A", (True, True)),
    ("cross-group", "a1", "A", "b1", "B", (True, True)),
    ("impostor", "b1", "A", "a1", "A", (True, False)),
    ("revoked", "r", "A", "a2", "A", (False, False)),
)


class HandshakeWorkload:
    """Interleaved accept and reject handshakes under fixed seeds."""

    params = prif.auth.DEFAULT_PARAMS_2048

    def __init__(self, seed: int, handshakes: int, min_samples: int) -> None:
        self.seed = seed
        self.handshakes = handshakes
        self.min_samples = min_samples
        self.reference: list[bytes] | None = None

    def setup(self) -> None:
        """Trust authority, two groups, four members, one revoked."""
        ta = prif.auth.TrustAuthority(self.params, random.Random(self.seed))
        ta.create_group("A")
        ta.create_group("B")
        self.certs = {"a1": ta.register("A"), "a2": ta.register("A"),
                      "r": ta.register("A"), "b1": ta.register("B")}
        ta.revoke(self.certs["r"].id)
        self.rl = ta.rl
        self.directory = ta.directory()

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        loop = (self._loop if tracer is None
                else tracer.wrap(self._loop, "pass", "bench", span=True))
        t0 = perf_counter()
        samples, outcomes, frames = loop()
        wall = perf_counter() - t0
        failed = 0
        if self.reference is None:
            self.reference = frames
        for k, (outcome, wire) in enumerate(zip(outcomes, frames)):
            expected = _CASES[k % len(_CASES)][5]
            if outcome != expected or wire != self.reference[k]:
                failed += 1
        return PassResult(wall_s=wall, attempted=self.handshakes, failed=failed,
                          digest=hashlib.sha256(b"".join(frames)).hexdigest(),
                          handshake_s=samples)

    def _loop(self):
        samples, outcomes, frames = [], [], []
        certs, rl, directory, params = (self.certs, self.rl, self.directory,
                                        self.params)
        for k in range(self.handshakes):
            _, ci, gi, cj, gj, _ = _CASES[k % len(_CASES)]
            t0 = perf_counter()
            # looked up per call so a traced pass sees the wrapped function
            tr = prif.auth.run_mutual_handshake(
                certs[ci], gi, certs[cj], gj, rl, directory, params,
                self.seed * 1_000_003 + k)
            samples.append(perf_counter() - t0)
            outcomes.append((tr["i_accepts"], tr["j_accepts"]))
            frames.append(b"".join(tr["wire"]))
        return samples, outcomes, frames


# ---------------------------------------------------------------------------
# the workload table
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Build a workload; ``tiny`` shrinks it for the benchmark's own tests
    without changing its shape."""
    if name == "desk-sweep":
        duration = 6_000 if tiny else 12_000
        return SimWorkload(
            name, workdir, routers=ROUTERS, axis="buffer", values=(2, 8),
            seeds=(seed * 10 + 1,),
            config=f"[scenario]\npreset = desk\nduration = {duration}\n")
    if name == "desk-long":
        return SimWorkload(name, workdir, routers=("prif",), axis="time",
                           values=(6_000 if tiny else 45_000,),
                           seeds=(seed * 10 + 1,))
    if name == "paper-scan":
        # Several short runs, not one long one: a pass's handshakes arrive
        # in one burst after its scan, so more runs spread them over more
        # of the measured time.
        duration = 600 if tiny else 2_000
        return SimWorkload(
            name, workdir, routers=("prif",), axis="buffer", values=(10,),
            seeds=tuple(seed * 10 + i for i in (1, 2, 3)),
            config=f"[scenario]\npreset = paper\nwarmup = 0\n"
                   f"duration = {duration}\n")
    if name == "handshake-2048":
        return HandshakeWorkload(seed, handshakes=4 if tiny else 20,
                                 min_samples=0 if tiny else 100)
    raise ValueError(f"unknown workload {name!r}; valid: {', '.join(WORKLOADS)}")


WORKLOADS = ("desk-sweep", "desk-long", "paper-scan", "handshake-2048")
