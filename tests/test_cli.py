import json

import pytest

from prif.cli import main
from prif.sim import run, scenario_from_ini
from prif.sim.engine import TRACE_SCHEMA

MINI_INI = """\
[scenario]
area = 700x500
interests = 2
message_interval = 20:40
message_size = 200000:400000
ttl_min = 600
buffer_mb = 2
duration = 3000
warmup = 200
seed = 5
router = prif

[group:walkers]
count = 8
speed = 1:2
pause = 10:30
radio = 80
link_rate = 2000000

[group:cars]
count = 8
speed = 3:8
pause = 10:30
radio = 80
link_rate = 2000000

[group:buses]
count = 2
speed = 7:10
pause = 10:30
radio = 150
link_rate = 10000000
generates = false
"""


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.ini"
    path.write_text(MINI_INI)
    return path


class TestRunCommand:
    def test_sweep_produces_expected_rows(self, mini_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(mini_config),
                     "--router", "prif,epidemic", "--sweep", "buffer",
                     "--values", "1,2", "--seeds", "1,2,3",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 3
        assert lines[0].startswith("router,axis,axis_value,seed,delivery_ratio")
        assert len(list(out.glob("run_*.json"))) == 12

    def test_rerun_is_byte_identical(self, mini_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["run", "--config", str(mini_config), "--router", "prif",
                "--sweep", "buffer", "--values", "2", "--seeds", "1,2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_unknown_router_usage_error(self, mini_config, tmp_path, capsys):
        code = main(["run", "--config", str(mini_config), "--router", "bogus",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "prif" in err and "epidemic" in err and "prophet" in err

    def test_missing_config_is_runtime_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "absent.ini"),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_single_run_with_trace(self, mini_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(mini_config), "--seeds", "4",
                     "--out", str(out), "--trace"])
        assert code == 0
        traces = list(out.glob("trace_prif_seed4.txt"))
        assert len(traces) == 1
        assert traces[0].read_text().startswith("#")

    def test_traces_for_every_router_and_seed(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--router",
                     "prif,epidemic", "--seeds", "4,5", "--out", str(out),
                     "--trace"]) == 0
        assert len(list(out.glob("trace_*.txt"))) == 4
        base = scenario_from_ini(mini_config)
        for router in ("prif", "epidemic"):
            for seed in (4, 5):
                lines = []
                run(base.with_overrides(router=router, seed=seed),
                    trace_lines=lines)
                expected = f"# {TRACE_SCHEMA}\n" + "\n".join(lines) + "\n"
                got = (out / f"trace_{router}_seed{seed}.txt").read_text()
                assert got == expected

    def test_jobs_applies_without_sweep(self, mini_config, tmp_path, pool_sizes):
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--seeds", "4,5",
                     "--jobs", "2", "--out", str(out)]) == 0
        assert pool_sizes == [2]
        assert len(list(out.glob("run_prif_none-0_seed*.json"))) == 2

    def test_parallel_run_is_byte_identical(self, mini_config, tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(mini_config), "--router",
                         "prif,epidemic", "--seeds", "4,5", "--jobs", jobs,
                         "--trace", "--out", str(out)]) == 0
            outs[jobs] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert len(outs["1"]) == 1 + 4 + 4
        assert outs["1"] == outs["2"]

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_bad_jobs_is_usage_error(self, mini_config, tmp_path, pool_sizes,
                                     jobs):
        out = tmp_path / "x"
        assert main(["run", "--config", str(mini_config), "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert pool_sizes == [] and not out.exists()

    def test_sweep_none_is_usage_error(self, mini_config, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["run", "--config", str(mini_config), "--sweep", "none",
                     "--values", "0", "--out", str(out)]) == 1
        assert "unknown sweep axis" in capsys.readouterr().err
        assert not out.exists()

    def test_json_only_format(self, mini_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(mini_config), "--seeds", "4",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        assert not (out / "sweep.csv").exists()
        reports = list(out.glob("run_*.json"))
        assert len(reports) == 1
        data = json.loads(reports[0].read_text())
        assert 0.0 <= data["delivery_ratio"] <= 1.0

    @pytest.mark.parametrize("args", [["--format", ","], ["--router", ","],
                                      ["--seeds", ","],
                                      ["--sweep", "buffer", "--values", ","]])
    def test_empty_list_is_usage_error(self, mini_config, tmp_path, capsys,
                                       args):
        out = tmp_path / "x"
        assert main(["run", "--config", str(mini_config), *args,
                     "--out", str(out)]) == 1
        assert "empty list" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_needs_values(self, mini_config, tmp_path, capsys):
        code = main(["run", "--config", str(mini_config), "--sweep", "buffer",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    def test_trace_with_sweep_is_usage_error(self, mini_config, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["run", "--config", str(mini_config), "--sweep", "buffer",
                     "--values", "2", "--trace", "--out", str(out)])
        assert code == 1
        assert "--trace" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_antipacket_mode_rejected_at_load(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(MINI_INI.replace("router = prif\n",
                                        "router = prif\nantipackets = bogus\n"))
        out = tmp_path / "x"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "antipacket" in capsys.readouterr().err
        assert not out.exists()


class TestPlotdata:
    def _make_sweep(self, mini_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(mini_config), "--router", "prif",
                     "--sweep", "buffer", "--values", "1,2",
                     "--seeds", "1,2,3", "--out", str(out)]) == 0
        return out / "sweep.csv"

    def test_aggregates_means(self, mini_config, tmp_path):
        sweep = self._make_sweep(mini_config, tmp_path)
        agg = tmp_path / "agg.csv"
        assert main(["plotdata", str(sweep), "--out", str(agg)]) == 0
        lines = agg.read_text().splitlines()
        assert lines[0] == "router,axis,axis_value,metric,mean,std,n"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 3   # 2 axis values x 3 metrics
        assert all(r[6] == "3" for r in rows)

    def test_single_seed_std_zero(self, mini_config, tmp_path):
        out = tmp_path / "o2"
        assert main(["run", "--config", str(mini_config), "--router", "prif",
                     "--sweep", "buffer", "--values", "2", "--seeds", "9",
                     "--out", str(out)]) == 0
        agg = tmp_path / "agg2.csv"
        assert main(["plotdata", str(out / "sweep.csv"), "--out", str(agg)]) == 0
        for line in agg.read_text().splitlines()[1:]:
            assert line.split(",")[5] == "0.0"

    def test_schema_mismatch_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        assert main(["plotdata", str(bad), "--out", str(tmp_path / "agg.csv")]) == 2
        assert "schema mismatch" in capsys.readouterr().err

    def test_empty_input_is_error(self, tmp_path):
        from prif.sim.metrics import MetricsReport
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(MetricsReport.CSV_FIELDS) + "\n")
        assert main(["plotdata", str(empty), "--out", str(tmp_path / "agg.csv")]) == 2


class TestKeytool:
    def _setup(self, tmp_path):
        store = tmp_path / "ks.json"
        assert main(["keytool", "setup", "--store", str(store),
                     "--params", "toy", "--seed", "3"]) == 0
        assert main(["keytool", "group", "--store", str(store), "--gid", "G1"]) == 0
        assert main(["keytool", "register", "--store", str(store), "--gid", "G1"]) == 0
        assert main(["keytool", "register", "--store", str(store), "--gid", "G1"]) == 0
        return store

    def test_demo_both_accept(self, tmp_path, capsys):
        store = self._setup(tmp_path)
        assert main(["keytool", "handshake-demo", "--store", str(store),
                     "--gid", "G1"]) == 0
        out = capsys.readouterr().out
        assert "both accept" in out
        assert "round1" in out and "round2" in out

    def test_demo_after_revocation(self, tmp_path, capsys):
        store = self._setup(tmp_path)
        member = json.loads(store.read_text())["certs"][0]["id"]
        assert main(["keytool", "revoke", "--store", str(store),
                     "--id", member]) == 0
        capsys.readouterr()
        assert main(["keytool", "handshake-demo", "--store", str(store),
                     "--gid", "G1"]) == 0
        assert "reject (revoked)" in capsys.readouterr().out

    def test_cross_group_demo_accepts_but_different(self, tmp_path, capsys):
        store = self._setup(tmp_path)
        assert main(["keytool", "group", "--store", str(store), "--gid", "G2"]) == 0
        assert main(["keytool", "register", "--store", str(store), "--gid", "G2"]) == 0
        capsys.readouterr()
        assert main(["keytool", "handshake-demo", "--store", str(store),
                     "--gid", "G1", "--peer-gid", "G2"]) == 0
        assert "same group: False" in capsys.readouterr().out

    def test_register_unknown_gid_is_runtime_error(self, tmp_path, capsys):
        store = self._setup(tmp_path)
        assert main(["keytool", "register", "--store", str(store),
                     "--gid", "NOPE"]) == 2
        assert "unknown group" in capsys.readouterr().err

    def test_parameter_search_failure_is_runtime_error(self, tmp_path, capsys):
        store = tmp_path / "fresh.json"
        assert main(["keytool", "setup", "--store", str(store),
                     "--params", "fresh", "--bits-p", "8", "--bits-q", "4"]) == 2
        assert "retry budget" in capsys.readouterr().err
        assert not store.exists()

    def test_fresh_params_setup(self, tmp_path, capsys):
        store = tmp_path / "fresh.json"
        assert main(["keytool", "setup", "--store", str(store),
                     "--params", "fresh", "--bits-p", "64", "--bits-q", "32",
                     "--seed", "11"]) == 0
        data = json.loads(store.read_text())
        assert int(data["params"]["p"], 16).bit_length() == 64
