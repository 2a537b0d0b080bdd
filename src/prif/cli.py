"""Command-line surface: experiment runs, plot-data aggregation, key tooling.

Exit codes: 0 success, 1 usage error, 2 runtime error.  All randomness comes
from configured seeds; rerunning a command with the same inputs produces
byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
from pathlib import Path

import click

from . import auth
from .sim.engine import SWEEP_AXES, TRACE_SCHEMA, run_sweep
from .sim.metrics import MetricsReport
from .sim.scenario import PRESETS, ROUTERS, desk_preset, scenario_from_ini

PLOT_METRICS = ("delivery_ratio", "overhead_ratio", "avg_hop_count")


@click.group()
def cli() -> None:
    """Opportunistic-forwarding experiments with community energy routing."""


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _parse_list(text: str, conv):
    try:
        items = [conv(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise click.UsageError(f"cannot parse list {text!r}: {exc}")
    if not items:
        raise click.UsageError(f"empty list {text!r}")
    return items


@cli.command("run")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="scenario INI file")
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
              help="built-in scenario preset (default: desk)")
@click.option("--router", "routers_opt", default=None,
              help="comma-separated router list")
@click.option("--sweep", "axis", default=None,
              help=f"sweep axis: {', '.join(SWEEP_AXES)}")
@click.option("--values", default=None,
              help="comma-separated axis values (buffer in MB, ttl in min, time in s)")
@click.option("--seeds", default=None, help="comma-separated seed list")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--format", "formats", default="csv,json",
              help="any of csv,json (comma-separated)")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="parallel seed workers, with or without --sweep")
@click.option("--trace/--no-trace", "want_trace", default=False,
              help="also write per-run event traces")
def cmd_run(config_path, preset, routers_opt, axis, values, seeds, out_dir,
            formats, jobs, want_trace) -> None:
    """Execute runs or sweeps and write reports."""
    if config_path is not None:
        scenario = scenario_from_ini(config_path)
    elif preset is not None:
        scenario = PRESETS[preset]()
    else:
        scenario = desk_preset()

    routers = (_parse_list(routers_opt, str) if routers_opt
               else [scenario.router])
    for r in routers:
        if r not in ROUTERS:
            raise click.UsageError(
                f"unknown router {r!r}; valid names: {', '.join(ROUTERS)}")
    if axis is not None and axis not in SWEEP_AXES:
        raise click.UsageError(
            f"unknown sweep axis {axis!r}; valid: {', '.join(SWEEP_AXES)}")
    if (axis is None) != (values is None):
        raise click.UsageError("--sweep and --values go together")
    if axis is not None and want_trace:
        raise click.UsageError("--trace applies to single runs only, not to --sweep")
    value_list = _parse_list(values, float) if axis else [0.0]
    seed_list = _parse_list(seeds, int) if seeds else [scenario.seed]
    fmt_set = set(_parse_list(formats, str))
    if not fmt_set <= {"csv", "json"}:
        raise click.UsageError("--format accepts only csv and json")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = {} if want_trace else None
    reports = run_sweep(scenario, routers, axis or "none", value_list, seed_list,
                        jobs=jobs, trace_lines=lines)
    for (router, _, seed), run_lines in (lines or {}).items():
        (out / f"trace_{router}_seed{seed}.txt").write_text(
            f"# {TRACE_SCHEMA}\n" + "\n".join(run_lines) + "\n")
    if "csv" in fmt_set:
        write_reports_csv(out / "sweep.csv", reports)
        click.echo(f"wrote {out / 'sweep.csv'} ({len(reports)} rows)")
    if "json" in fmt_set:
        for rep in reports:
            name = f"run_{rep.router}_{rep.axis}-{rep.axis_value:g}_seed{rep.seed}.json"
            (out / name).write_text(
                json.dumps(rep.to_dict(), sort_keys=True, indent=2) + "\n")
        click.echo(f"wrote {len(reports)} JSON reports to {out}")


def write_reports_csv(path: Path, reports: list[MetricsReport]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MetricsReport.CSV_FIELDS)
        for rep in reports:
            writer.writerow(rep.csv_row())


# ---------------------------------------------------------------------------
# plotdata
# ---------------------------------------------------------------------------

@cli.command("plotdata")
@click.argument("csv_paths", nargs=-1, required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), required=True)
def cmd_plotdata(csv_paths, out_path) -> None:
    """Aggregate sweep CSVs into plot-ready mean/std series."""
    rows: list[dict] = []
    for path in csv_paths:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or set(MetricsReport.CSV_FIELDS) - set(reader.fieldnames):
                raise ValueError(f"{path}: schema mismatch, expected columns "
                                 f"{','.join(MetricsReport.CSV_FIELDS)}")
            rows.extend(reader)
    if not rows:
        raise ValueError("no data rows in input CSVs")

    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["router"], row["axis"], float(row["axis_value"]))
        groups.setdefault(key, []).append(row)

    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["router", "axis", "axis_value", "metric", "mean", "std", "n"])
        for key in sorted(groups):
            router, axis, axis_value = key
            bucket = groups[key]
            for metric in PLOT_METRICS:
                vals = [float(r[metric]) for r in bucket]
                mean = statistics.fmean(vals)
                std = statistics.stdev(vals) if len(vals) > 1 else 0.0
                writer.writerow([router, axis, f"{axis_value:g}", metric,
                                 repr(mean), repr(std), len(vals)])
    click.echo(f"wrote {out_path}")


# ---------------------------------------------------------------------------
# keytool
# ---------------------------------------------------------------------------

def _load_store(path: Path) -> dict:
    if not path.exists():
        raise ValueError(f"keystore not found: {path} (run keytool setup first)")
    return json.loads(path.read_text())


def _save_store(path: Path, store: dict) -> None:
    path.write_text(json.dumps(store, sort_keys=True, indent=2) + "\n")


def _store_params(store: dict) -> auth.SystemParams:
    p = store["params"]
    return auth.SystemParams(p=int(p["p"], 16), q=int(p["q"], 16),
                             alpha=int(p["alpha"], 16), kappa=p["kappa"])


def _next_rng(store: dict) -> "auth.random.Random":
    store["op_counter"] = store.get("op_counter", 0) + 1
    return auth.as_rng(store["seed"] * 1_000_003 + store["op_counter"])


@cli.group()
def keytool() -> None:
    """Trust-authority lifecycle: params, groups, members, revocation."""


@keytool.command("setup")
@click.option("--store", "store_path", type=click.Path(), required=True)
@click.option("--params", "params_kind", type=click.Choice(["toy", "2048", "fresh"]),
              default="toy", show_default=True)
@click.option("--bits-p", default=512, show_default=True,
              help="p size for --params fresh")
@click.option("--bits-q", default=160, show_default=True,
              help="q size for --params fresh")
@click.option("--seed", default=1, show_default=True)
def keytool_setup(store_path, params_kind, bits_p, bits_q, seed) -> None:
    """Create a keystore with system parameters."""
    if params_kind == "toy":
        params = auth.TOY_PARAMS
    elif params_kind == "2048":
        params = auth.DEFAULT_PARAMS_2048
    else:
        params = auth.ta_setup(bits_p, bits_q, seed)
    store = {
        "seed": seed,
        "op_counter": 0,
        "params": {"p": f"{params.p:x}", "q": f"{params.q:x}",
                   "alpha": f"{params.alpha:x}", "kappa": params.kappa},
        "groups": {},
        "certs": [],
        "rl": [],
    }
    _save_store(Path(store_path), store)
    click.echo(f"keystore created: {store_path} "
               f"(p: {params.p.bit_length()} bits, q: {params.q.bit_length()} bits)")


@keytool.command("group")
@click.option("--store", "store_path", type=click.Path(), required=True)
@click.option("--gid", required=True)
def keytool_group(store_path, gid) -> None:
    """Create one community group."""
    path = Path(store_path)
    store = _load_store(path)
    if gid in store["groups"]:
        raise ValueError(f"group {gid!r} already exists")
    params = _store_params(store)
    group = auth.ta_create_group(params, gid, _next_rng(store))
    store["groups"][gid] = {"y": f"{group.y:x}", "secret": f"{group.secret:x}"}
    _save_store(path, store)
    click.echo(f"group {gid}: y={group.y:x}")


@keytool.command("register")
@click.option("--store", "store_path", type=click.Path(), required=True)
@click.option("--gid", required=True)
def keytool_register(store_path, gid) -> None:
    """Issue a member certificate under a group."""
    path = Path(store_path)
    store = _load_store(path)
    if gid not in store["groups"]:
        raise ValueError(f"unknown group {gid!r}; create it with keytool group")
    params = _store_params(store)
    g = store["groups"][gid]
    group = auth.GroupParams(gid=gid, y=int(g["y"], 16), secret=int(g["secret"], 16))
    used = {c["id"] for c in store["certs"]}
    cert = auth.ta_register(group, params, _next_rng(store), used_ids=used)
    store["certs"].append({"id": cert.id, "e": f"{cert.e:x}",
                           "s": f"{cert.s:x}", "gid": gid})
    _save_store(path, store)
    click.echo(f"registered member {cert.id} in {gid}")


@keytool.command("revoke")
@click.option("--store", "store_path", type=click.Path(), required=True)
@click.option("--id", "member_id", required=True)
def keytool_revoke(store_path, member_id) -> None:
    """Add a member id to the revocation list."""
    path = Path(store_path)
    store = _load_store(path)
    if member_id not in {c["id"] for c in store["certs"]}:
        raise ValueError(f"unknown member id {member_id!r}")
    if member_id not in store["rl"]:
        store["rl"].append(member_id)
    _save_store(path, store)
    click.echo(f"revoked {member_id}")


@keytool.command("handshake-demo")
@click.option("--store", "store_path", type=click.Path(), required=True)
@click.option("--gid", "gid_a", required=True, help="initiator's group")
@click.option("--peer-gid", "gid_b", default=None,
              help="responder's group (default: same as --gid)")
def keytool_handshake_demo(store_path, gid_a, gid_b) -> None:
    """Run one annotated two-party handshake from the keystore."""
    path = Path(store_path)
    store = _load_store(path)
    gid_b = gid_b or gid_a
    params = _store_params(store)
    for gid in (gid_a, gid_b):
        if gid not in store["groups"]:
            raise ValueError(f"unknown group {gid!r}")
    certs_a = [c for c in store["certs"] if c["gid"] == gid_a]
    certs_b = [c for c in store["certs"] if c["gid"] == gid_b]
    if gid_a == gid_b:
        if len(certs_a) < 2:
            raise ValueError(f"need two registered members in {gid_a!r}")
        ca, cb = certs_a[0], certs_a[1]
    else:
        if not certs_a or not certs_b:
            raise ValueError("need a registered member in each group")
        ca, cb = certs_a[0], certs_b[0]

    def to_cert(c):
        return auth.Certificate(id=c["id"], e=int(c["e"], 16), s=int(c["s"], 16),
                                y=int(store["groups"][c["gid"]]["y"], 16))

    rl = auth.RevocationList(store["rl"])
    directory = {gid: int(g["y"], 16) for gid, g in store["groups"].items()}
    rng = _next_rng(store)
    _save_store(path, store)

    cert_a, cert_b = to_cert(ca), to_cert(cb)
    tr = auth.run_mutual_handshake(cert_a, gid_a, cert_b, gid_b, rl, directory,
                                   params, rng)
    sides = ("A -> B", "B -> A")
    click.echo(f"params: p={params.p:x} q={params.q:x} alpha={params.alpha:x}")
    for who, m in zip(sides, tr["msg1"]):
        click.echo(f"{who}: round1 gid={m.gid} id={m.id} Y={m.Y:x} B={m.B:x}")
    for who, m, reject in zip(sides, tr["msg2"], tr["reject"]):
        click.echo(f"{who}: round2 tag={m.h.hex()[:16]}.. (reject={reject})")
    click.echo(f"A verifies B: {'accept' if tr['i_accepts'] else 'reject'}")
    click.echo(f"B verifies A: {'accept' if tr['j_accepts'] else 'reject'}")
    if tr["mutual"]:
        click.echo(f"result: both accept (same group: {tr['gid_i'] == tr['gid_j']})")
    elif rl.is_revoked(cert_a.id) or rl.is_revoked(cert_b.id):
        click.echo("result: reject (revoked)")
    else:
        click.echo("result: reject (invalid)")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    """Driver mapping failures onto exit codes 1 (usage) and 2 (runtime)."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (ValueError, KeyError, OSError, auth.ParameterGenError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
