import csv
import json
import shlex
from contextlib import closing
from pathlib import Path

import pytest

import basketsim.cli as cli
import basketsim.simulate as simulate
from basketsim.config import default_delta_grid, load_config
from basketsim.tune import TuningGrid
from basketsim.weights import NumericError

from conftest import BRAF_N, BRAF_NAMES, BRAF_Y, assert_matrix_close


def _write(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def _streams_failing(exc, taken=0, calls=None):
    """A ``cli.run_streams`` that raises ``exc`` once ``taken`` streams were
    taken; each stream taken after the first is appended to ``calls``."""
    real = cli.run_streams

    def run_streams(*args, **kwargs):
        with closing(real(*args, **kwargs)) as results:
            for k, sets in enumerate(results):
                if k and calls is not None:
                    calls.append(1)
                if k == taken:
                    raise exc
                yield sets

    return run_streams


def _base_config(
    method=None,
    n_baskets=5,
    n_max=25,
    looks=({"size": 10, "futility_max_responses": 1},),
    scenarios=None,
    m=200,
    seed=20250809,
    workers=1,
    extra=None,
):
    cfg = {
        "design": {
            "baskets": [
                {"name": f"b{i+1}", "n_max": n_max, "looks": list(looks)}
                for i in range(n_baskets)
            ],
            "p0": 0.15,
            "alpha": 0.1,
        },
        "method": method or {"type": "im"},
        "prior": {"b1": 0.15, "b2": 0.85},
        "scenarios": scenarios
        if scenarios is not None
        else [
            {"name": "S1", "orr": [0.15] * n_baskets},
            {"name": "S3", "orr": [0.15] + [0.30] * (n_baskets - 1)},
        ],
        "run": {"M": m, "seed": seed, "workers": workers},
    }
    if extra:
        cfg.update(extra)
    return cfg


@pytest.fixture
def braf_files(tmp_path):
    config = {
        "design": {
            "baskets": [{"name": nm, "n_max": n, "looks": []} for nm, n in zip(BRAF_NAMES, BRAF_N)],
            "p0": 0.15,
            "alpha": 0.05,
        },
        "method": {"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4},
        "prior": {"b1": 0.15, "b2": 0.85},
        "scenarios": [],
        "run": {"M": 100, "seed": 1, "workers": 1},
        "cutoffs": [0.933, 0.925, 0.942, 0.908, 0.928, 0.930],
    }
    data = {"baskets": [{"name": nm, "y": y, "n": n} for nm, y, n in zip(BRAF_NAMES, BRAF_Y, BRAF_N)]}
    return (
        _write(tmp_path / "config.json", config),
        _write(tmp_path / "data.json", data),
    )


class TestAnalyze:
    def test_braf_local_pp(self, tmp_path, braf_files, capsys):
        cfg, data = braf_files
        rc = cli.main(["analyze", "--config", cfg, "--data", data, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        expected_w = [
            [1.00, 0.00, 0.00, 0.09, 0.29, 0.29],
            [0.00, 1.00, 0.03, 0.00, 0.00, 0.00],
            [0.01, 0.15, 1.00, 0.45, 0.02, 0.07],
            [0.01, 0.01, 0.11, 1.00, 0.01, 0.11],
            [0.20, 0.00, 0.00, 0.07, 1.00, 0.20],
            [0.09, 0.00, 0.00, 0.09, 0.09, 1.00],
        ]
        assert_matrix_close(payload["weights"], expected_w, atol=0.01)
        assert payload["prob_exceed"][5] == pytest.approx(0.879, abs=0.01)
        assert payload["decisions"] == [True, False, False, False, True, False]
        stdout = capsys.readouterr().out
        assert "borrowing weights" in stdout
        assert "# reproduce: basketsim analyze" in stdout

    def test_pairwise_matrix_via_cli(self, tmp_path):
        cfg = _base_config(method={"type": "pp_peb"})
        cfg["prior"] = {"b1": 0.5, "b2": 0.5}
        cfg_path = _write(tmp_path / "c.json", cfg)
        data_path = _write(
            tmp_path / "d.json",
            {"baskets": [{"y": y, "n": 25} for y in (2, 9, 11, 13, 20)]},
        )
        rc = cli.main(["analyze", "--config", cfg_path, "--data", data_path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        expected = [
            [1.00, 0.04, 0.02, 0.00, 0.00],
            [0.06, 1.00, 1.00, 0.58, 0.02],
            [0.04, 1.00, 1.00, 1.00, 0.05],
            [0.02, 0.57, 1.00, 1.00, 0.10],
            [0.00, 0.02, 0.04, 0.09, 1.00],
        ]
        assert_matrix_close(payload["weights"], expected, atol=0.01)
        # no cutoffs configured: no decisions claimed
        assert payload["decisions"] is None

    def test_missing_data_flag(self, tmp_path, braf_files, capsys):
        cfg, _ = braf_files
        rc = cli.main(["analyze", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "--data" in capsys.readouterr().err

    def test_mismatched_basket_count(self, tmp_path, braf_files, capsys):
        cfg, _ = braf_files
        bad = _write(tmp_path / "bad.json", {"baskets": [{"y": 1, "n": 10}]})
        rc = cli.main(["analyze", "--config", cfg, "--data", bad, "--out", str(tmp_path)])
        assert rc == 2
        assert "baskets" in capsys.readouterr().err

    def test_reordered_baskets_rejected(self, tmp_path, braf_files, capsys):
        # priors and cutoffs apply by position, so a swap would pair each of
        # the two baskets with the other's cutoff
        cfg, _ = braf_files
        baskets = [{"name": nm, "y": y, "n": n} for nm, y, n in zip(BRAF_NAMES, BRAF_Y, BRAF_N)]
        baskets[0], baskets[3] = baskets[3], baskets[0]
        swapped = _write(tmp_path / "swapped.json", {"baskets": baskets})
        rc = cli.main(["analyze", "--config", cfg, "--data", swapped, "--out", str(tmp_path)])
        assert rc == 2
        assert "config error: baskets:" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_draws_nothing_so_takes_no_seed_or_workers(self, tmp_path, braf_files, flag, capsys):
        cfg, data = braf_files
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--config", cfg, "--data", data, "--out", str(tmp_path), flag, "2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_ignores_the_workers_variable(self, tmp_path, braf_files, capsys, monkeypatch):
        monkeypatch.setenv("BASKETSIM_WORKERS", "0")
        cfg, data = braf_files
        rc = cli.main(["analyze", "--config", cfg, "--data", data, "--out", str(tmp_path)])
        assert rc == 0
        assert "--workers" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_reproduce_line_pastes_back(tmp_path, braf_files, command, capsys):
    # paths with spaces come back as one argument each
    folder = tmp_path / "a study"
    folder.mkdir()
    config = folder / "my config.json"
    if command == "analyze":
        cfg, data = braf_files
        config.write_text(Path(cfg).read_text())
        argv = ["analyze", "--config", str(config), "--data", data]
    else:
        argv = ["simulate", "--config", _write(config, _base_config(m=50))]
    argv += ["--out", str(folder / "an out dir")]
    if command == "simulate":
        argv += ["--seed", "7", "--workers", "1", "--format", "csv"]
    assert cli.main(argv) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("# reproduce: ")
    assert shlex.split(line[len("# reproduce: "):]) == ["basketsim"] + argv


class TestConfigErrors:
    def test_schema_violation_names_field(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["design"]["baskets"][2]["n_max"] = -5
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["calibrate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert not (tmp_path / "cutoffs.json").exists()

    def test_unknown_method(self, tmp_path, capsys):
        cfg = _base_config(method={"type": "magic"})
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["calibrate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "method.type" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        rc = cli.main(["calibrate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["calibrate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2

    def test_scenario_length_mismatch(self, tmp_path, capsys):
        cfg = _base_config(scenarios=[{"name": "S1", "orr": [0.15, 0.15]}])
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "scenarios[0].orr" in capsys.readouterr().err

    def test_duplicate_basket_name_in_design(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["design"]["baskets"][3]["name"] = "b2"
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "design.baskets[3].name" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    def test_duplicate_basket_name_in_data(self, tmp_path, braf_files, capsys):
        cfg, _ = braf_files
        baskets = [{"name": nm, "y": y, "n": n} for nm, y, n in zip(BRAF_NAMES, BRAF_Y, BRAF_N)]
        baskets[4]["name"] = BRAF_NAMES[0]
        bad = _write(tmp_path / "bad.json", {"baskets": baskets})
        rc = cli.main(["analyze", "--config", cfg, "--data", bad, "--out", str(tmp_path)])
        assert rc == 2
        assert "baskets[4].name" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    def test_looks_not_a_list(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["design"]["baskets"][1]["looks"] = 5
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "design.baskets[1].looks" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    def test_scenarios_not_a_list(self, tmp_path, capsys):
        cfg = _base_config(scenarios=5)
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "scenarios: expected a list" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "calibrate", "tune"])
    def test_format_only_on_simulate(self, tmp_path, braf_files, command, capsys):
        # only simulate writes a report whose format can be chosen
        cfg, data = braf_files
        argv = [command, "--config", cfg, "--out", str(tmp_path), "--format", "json"]
        if command == "analyze":
            argv += ["--data", data]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_writes_cutoffs(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config(m=500))
        rc = cli.main(["calibrate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "cutoffs.json").read_text())
        assert payload["alpha"] == 0.1
        assert payload["M"] == 500
        assert len(payload["cutoffs"]) == 5
        assert len(set(payload["cutoffs"])) == 1  # shared across the equal group
        assert "# reproduce: basketsim calibrate" in capsys.readouterr().out

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config(m=500))
        cli.main(["calibrate", "--config", path, "--out", str(tmp_path), "--seed", "7"])
        assert "--seed 7" in capsys.readouterr().out


class TestSimulateCommand:
    def test_smoke_single_replicate(self, tmp_path):
        # M=1 cannot support calibration, so the cutoffs come from the config
        cfg = _base_config(m=1, extra={"cutoffs": [0.9] * 5})
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "oc.csv").exists()
        with open(tmp_path / "oc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["value"] == "NA" or 0.0 <= float(r["value"]) <= 1.0 for r in rows)
        one_rep = [r for r in rows if r["metric"] == "rejection_rate"]
        assert all(r["value"] in ("0.0000", "1.0000") for r in one_rep)

    def test_auto_calibration_writes_cutoffs(self, tmp_path):
        path = _write(tmp_path / "c.json", _base_config(m=200))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "oc.csv").exists()
        assert (tmp_path / "cutoffs.json").exists()

    def test_csv_round_trips(self, tmp_path):
        path = _write(tmp_path / "c.json", _base_config(m=300))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "oc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["metric"] for r in rows} >= {
            "rejection_rate", "FPR", "FWER", "FDR", "TPR", "CCR",
            "BWER_avg", "BWER_max", "TPR_avg", "CCR_avg",
        }
        for r in rows:
            assert r["value"] == "NA" or 0.0 <= float(r["value"]) <= 1.0
        s1_tpr = [r for r in rows if r["scenario"] == "S1" and r["metric"] == "TPR"]
        assert s1_tpr[0]["value"] == "NA"

    def test_worker_count_leaves_output_bytes_unchanged(self, tmp_path):
        path = _write(tmp_path / "c.json", _base_config(m=200))
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert cli.main(["simulate", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(["simulate", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "oc.csv").read_bytes() == (out2 / "oc.csv").read_bytes()
        assert (out1 / "cutoffs.json").read_bytes() == (out2 / "cutoffs.json").read_bytes()

    def test_at_most_one_pool_per_simulate(self, tmp_path, monkeypatch):
        # the calibration stream and every scenario share one pool
        pools = []

        class CountingPool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
        path = _write(tmp_path / "c.json", _base_config(m=100))
        reports = []
        for workers in (1, 2, 3):
            pools.clear()
            out = tmp_path / f"w{workers}"
            argv = ["simulate", "--config", path, "--out", str(out), "--workers", str(workers)]
            assert cli.main(argv) == 0
            assert pools == ([workers] if workers > 1 else [])
            reports.append([(out / f).read_bytes() for f in ("oc.csv", "cutoffs.json")])
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_json_format(self, tmp_path):
        path = _write(tmp_path / "c.json", _base_config(m=100))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path), "--format", "json"])
        assert rc == 0
        payload = json.loads((tmp_path / "oc.json").read_text())
        assert {s["scenario"] for s in payload["scenarios"]} == {"S1", "S3"}
        assert "aggregates" in payload

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("orr", [[0.15] * 5, [0.30] * 5], ids=["all-null", "all-alt"])
    def test_no_aggregates_without_both_truth_classes(self, tmp_path, fmt, orr):
        # BWER needs a truly non-promising basket and TPR a promising one
        cfg = _base_config(m=100, scenarios=[{"name": "only", "orr": orr}])
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path), "--format", fmt])
        assert rc == 0
        if fmt == "json":
            payload = json.loads((tmp_path / "oc.json").read_text())
            assert [s["scenario"] for s in payload["scenarios"]] == ["only"]
            assert "aggregates" not in payload
        else:
            with open(tmp_path / "oc.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert {r["scenario"] for r in rows} == {"only"}

    def test_supplied_cutoffs_skip_calibration(self, tmp_path):
        cfg = _base_config(m=100, extra={"cutoffs": [0.9] * 5})
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert not (tmp_path / "cutoffs.json").exists()

    def test_independent_model_benchmark_through_cli(self, tmp_path):
        # end to end at benchmark scale: the equal five-basket design with
        # one interim, independent analysis, M=5000, known operating
        # characteristics
        scenarios = [
            {"name": "S1", "orr": [0.15] * 5},
            {"name": "S2", "orr": [0.15, 0.15, 0.15, 0.30, 0.30]},
            {"name": "S3", "orr": [0.15, 0.30, 0.30, 0.30, 0.30]},
            {"name": "S4", "orr": [0.15, 0.30, 0.30, 0.45, 0.45]},
            {"name": "S5", "orr": [0.15, 0.45, 0.45, 0.45, 0.45]},
            {"name": "S6", "orr": [0.30] * 5},
        ]
        path = _write(tmp_path / "c.json", _base_config(m=5000, scenarios=scenarios))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "oc.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))

        def value(scenario, metric, basket=""):
            hits = [
                float(r["value"])
                for r in rows
                if r["scenario"] == scenario and r["metric"] == metric and r["basket"] == basket
            ]
            assert len(hits) == 1
            return hits[0]

        cutoffs = json.loads((tmp_path / "cutoffs.json").read_text())
        assert cutoffs["cutoffs"][0] == pytest.approx(0.857, abs=0.01)
        for i in range(1, 6):
            assert value("S1", "rejection_rate", f"b{i}") == pytest.approx(0.064, abs=0.015)
        assert value("S1", "FDR") == pytest.approx(0.283, abs=0.02)
        assert value("S2", "rejection_rate", "b4") == pytest.approx(0.621, abs=0.02)
        assert value("S2", "CCR") == pytest.approx(0.811, abs=0.02)
        assert value("aggregate", "BWER_max") == pytest.approx(0.067, abs=0.02)
        assert value("aggregate", "TPR_avg") == pytest.approx(0.724, abs=0.02)
        assert value("aggregate", "CCR_avg") == pytest.approx(0.779, abs=0.02)

    def test_negative_seed_rejected(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path), "--seed", "-1"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_workers_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BASKETSIM_WORKERS", "3")
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert "--workers 3" in capsys.readouterr().out

    def test_workers_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BASKETSIM_WORKERS", "3")
        path = _write(tmp_path / "c.json", _base_config(m=50))
        cli.main(["simulate", "--config", path, "--out", str(tmp_path), "--workers", "2"])
        assert "--workers 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, env, config_workers, source",
        [
            (["--workers", "0"], None, 1, "--workers"),
            (["--workers", "-2"], None, 1, "--workers"),
            ([], "0", 1, "BASKETSIM_WORKERS"),
            ([], None, 0, "run.workers"),
        ],
    )
    def test_workers_below_one_rejected(
        self, tmp_path, capsys, monkeypatch, flags, env, config_workers, source
    ):
        if env is None:
            monkeypatch.delenv("BASKETSIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("BASKETSIM_WORKERS", env)
        path = _write(tmp_path / "c.json", _base_config(m=50, workers=config_workers))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)] + flags)
        assert rc == 2
        captured = capsys.readouterr()
        assert f"config error: {source}:" in captured.err
        assert "reproduce" not in captured.out
        assert not (tmp_path / "oc.csv").exists()


LOCAL_PP = {"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4}
JSD = {"type": "jsd", "epsilon": 2.0, "tau": 0.3}


class TestTuneCommand:
    def test_tiny_grid(self, tmp_path):
        cfg = _base_config(
            method={"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4},
            m=150,
            extra={
                "tuning": {
                    "strategy": "match_target",
                    "match_bwer_max": 0.15,
                    "scenarios": ["S1", "S3"],
                    "a_values": [0.0, 0.5],
                    "delta_values": [0.4],
                }
            },
        )
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["tune", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "grid_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["a"] for r in rows} == {"0", "0.5"}
        chosen = json.loads((tmp_path / "chosen_params.json").read_text())
        assert chosen["params"]["a"] in (0.0, 0.5)
        assert len(chosen["cutoffs"]) == 5

    def test_worker_count_leaves_output_bytes_unchanged(self, tmp_path):
        # three candidates over two workers: groups of one and two
        cfg = _base_config(
            method={"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4},
            m=150,
            extra={
                "tuning": {
                    "strategy": "match_target",
                    "match_bwer_max": 0.15,
                    "scenarios": ["S1", "S3"],
                    "a_values": [0.0, 0.5, 1.0],
                    "delta_values": [0.4],
                }
            },
        )
        path = _write(tmp_path / "c.json", cfg)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert cli.main(["tune", "--config", path, "--out", str(out1), "--workers", "1"]) == 0
        assert cli.main(["tune", "--config", path, "--out", str(out2), "--workers", "2"]) == 0
        for name in ("grid_report.csv", "chosen_params.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_tuning_is_a_grid_in_listed_order(self, tmp_path):
        tuning = {"strategy": "match_target", "match_bwer_max": 0.15, "a_values": [0.5]}
        cfg = _base_config(
            method={"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4},
            extra={"tuning": dict(tuning, scenarios=["S3", "S1"])},
        )
        grid = load_config(_write(tmp_path / "c.json", cfg)).tuning
        assert isinstance(grid, TuningGrid)
        assert [s.name for s in grid.scenario_set] == ["S3", "S1"]
        assert grid.scenario_set[0].true_orr == (0.15, 0.30, 0.30, 0.30, 0.30)
        assert (grid.strategy, grid.constraint, grid.a_values) == ("match_target", 0.15, (0.5,))
        assert grid.delta_values == default_delta_grid()
        # without a list, every scenario in config order
        cfg["tuning"] = tuning
        grid = load_config(_write(tmp_path / "c.json", cfg)).tuning
        assert [s.name for s in grid.scenario_set] == ["S1", "S3"]

    def test_duplicate_tuning_scenario_rejected(self, tmp_path, capsys):
        # a repeated scenario would count twice in BWER_max, TPR_avg and CCR_avg
        cfg = _base_config(
            method={"type": "local_pp", "base": "peb", "a": 1.0, "delta": 0.4},
            m=50,
            extra={
                "tuning": {
                    "strategy": "match_target",
                    "match_bwer_max": 0.15,
                    "scenarios": ["S1", "S3", "S3"],
                    "a_values": [0.5],
                    "delta_values": [0.4],
                }
            },
        )
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["tune", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "tuning.scenarios" in capsys.readouterr().err
        assert not (tmp_path / "grid_report.csv").exists()

    @pytest.mark.parametrize(
        "method, values, field",
        [
            (LOCAL_PP, {"a_values": [-0.5, 0.35]}, "a_values[0]"),
            (LOCAL_PP, {"delta_values": [0.2, 1.5]}, "delta_values[1]"),
            (JSD, {"epsilon_values": [0.5]}, "epsilon_values[0]"),
            (JSD, {"tau_values": [0.3, -0.1]}, "tau_values[1]"),
        ],
        ids=["a", "delta", "epsilon", "tau"],
    )
    def test_out_of_bounds_tuning_value_rejected(self, tmp_path, capsys, method, values, field):
        # an entry the method would refuse is a config error, not an internal one
        tuning = {"strategy": "match_target", "match_bwer_max": 0.15, **values}
        cfg = _base_config(method=method, m=50, extra={"tuning": tuning})
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["tune", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert f"tuning.{field}" in capsys.readouterr().err
        assert not (tmp_path / "grid_report.csv").exists()

    @pytest.mark.parametrize(
        "method, values, field",
        [
            (LOCAL_PP, {"a_values": [0.5, 0.5]}, "a_values[1]"),
            (LOCAL_PP, {"delta_values": [0.2, 0.4, 0.2]}, "delta_values[2]"),
            (JSD, {"epsilon_values": [2, 2.0]}, "epsilon_values[1]"),
            (JSD, {"tau_values": [0.3, 0.3]}, "tau_values[1]"),
        ],
        ids=["a", "delta", "epsilon", "tau"],
    )
    def test_repeated_tuning_value_rejected(self, tmp_path, capsys, method, values, field):
        # a repeated value would be simulated twice and reported as two rows
        tuning = {"strategy": "match_target", "match_bwer_max": 0.15, **values}
        cfg = _base_config(method=method, m=50, extra={"tuning": tuning})
        path = _write(tmp_path / "c.json", cfg)
        rc = cli.main(["tune", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"tuning.{field}" in err
        assert "duplicate value" in err
        assert not (tmp_path / "grid_report.csv").exists()

    def test_requires_tuning_section(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config())
        rc = cli.main(["tune", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "tuning" in capsys.readouterr().err


class TestFailureHandling:
    def test_numeric_error_exit_code_and_cleanup(self, tmp_path, capsys, monkeypatch):
        # the calibration stream, the first one taken, fails
        boom = NumericError("quadrature failed for shapes (1, 2) vs (3, 4)")
        monkeypatch.setattr(cli, "run_streams", _streams_failing(boom))
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err
        assert not (tmp_path / "oc.csv").exists()
        assert not (tmp_path / "cutoffs.json").exists()

    def test_jsd_past_its_shape_range_exits_3(self, tmp_path, capsys):
        # a prior worth a million subjects puts every posterior shape sum past 1e6
        cfg = _base_config(method={"type": "jsd", "epsilon": 2.0, "tau": 0.3})
        cfg["prior"] = {"b1": 150000.0, "b2": 850000.0}
        data = {"baskets": [{"y": y, "n": 25} for y in (2, 9, 11, 13, 20)]}
        rc = cli.main([
            "analyze", "--config", _write(tmp_path / "c.json", cfg),
            "--data", _write(tmp_path / "d.json", data), "--out", str(tmp_path),
        ])
        assert rc == 3
        assert "past 1e6" in capsys.readouterr().err
        assert not (tmp_path / "analysis.json").exists()

    def test_partial_outputs_removed_on_late_failure(self, tmp_path, monkeypatch):
        # the calibration has succeeded, but its cutoffs.json is not written
        # before every scenario has
        boom = NumericError("late failure")
        monkeypatch.setattr(cli, "run_streams", _streams_failing(boom, taken=1))
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 3
        assert not (tmp_path / "cutoffs.json").exists()
        assert not (tmp_path / "oc.csv").exists()

    def test_nothing_written_when_a_later_scenario_fails(self, tmp_path, monkeypatch):
        # calls counts the scenario streams taken, after the calibration's
        calls = []
        second_fails = _streams_failing(NumericError("late failure"), taken=2, calls=calls)
        monkeypatch.setattr(cli, "run_streams", second_fails)
        out = tmp_path / "out"
        out.mkdir()
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(out)])
        assert rc == 3
        assert len(calls) == 2
        assert list(out.iterdir()) == []

    def test_out_is_a_regular_file(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config(m=50))
        out = tmp_path / "taken"
        out.write_text("not a directory")
        rc = cli.main(["calibrate", "--config", path, "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "config error: --out" in captured.err
        assert captured.out == ""
        assert out.read_text() == "not a directory"

    def test_report_path_taken_by_a_directory(self, tmp_path, capsys):
        # oc.csv is a directory: cutoffs.json, written first, goes again
        path = _write(tmp_path / "c.json", _base_config(m=50))
        (tmp_path / "oc.csv").mkdir()
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "config error: --out" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "oc.csv.tmp").exists()
        assert not (tmp_path / "cutoffs.json").exists()
        assert (tmp_path / "oc.csv").is_dir()

    def test_internal_value_error_exit_code_and_cleanup(self, tmp_path, capsys, monkeypatch):
        # a ValueError that no configuration check raised is a program fault,
        # not a user's configuration mistake
        boom = ValueError("shapes disagree")
        monkeypatch.setattr(cli, "run_streams", _streams_failing(boom, taken=1))
        path = _write(tmp_path / "c.json", _base_config(m=50))
        rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path)])
        assert rc == 4
        assert "internal error: shapes disagree" in capsys.readouterr().err
        assert not (tmp_path / "cutoffs.json").exists()
        assert not (tmp_path / "oc.csv").exists()

    def test_too_few_replicates_is_a_config_error(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", _base_config(m=1))
        rc = cli.main(["calibrate", "--config", path, "--out", str(tmp_path)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "cutoffs.json").exists()
