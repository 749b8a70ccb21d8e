"""Command-line tests: exit codes, override precedence, artifact layout,
and the cross-command reproduction contracts."""

import csv
import os
import re

import numpy as np
import pytest

from hypercf import data as D
from hypercf.cli import main

FAST = ["--d", "8", "--hyperedges", "4", "--heads", "2", "--batch", "32",
        "--epochs", "2", "--lambda1", "1e-2", "--lambda2", "1e-4",
        "--seed", "0"]


def read_csv(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_dir_of(out: str) -> str:
    match = re.search(r"run dir: (\S+)", out)
    assert match, f"no run dir line in output:\n{out}"
    return match.group(1)


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "interactions.tsv"
    ds = D.synthetic_blocks(num_users=48, num_items=24, num_blocks=4,
                            edges_per_user=8, seed=0)
    D.write_interactions(str(path), ds)
    return str(path)


@pytest.fixture(scope="module")
def trained(data_path, tmp_path_factory, capsys_module=None):
    out_root = str(tmp_path_factory.mktemp("train-out"))
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["train", "--data", data_path, "--out", out_root] + FAST)
    assert rc == 0
    run_dir = run_dir_of(buf.getvalue())
    return {"run_dir": run_dir, "data": data_path,
            "checkpoint": os.path.join(run_dir, "best.ckpt")}


class TestUsageErrors:
    def test_missing_data_names_key(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path)] + FAST)
        assert rc == 1
        assert "'data'" in capsys.readouterr().err

    def test_nonexistent_data_names_key(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.tsv")] + FAST)
        assert rc == 1
        assert "'data'" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, data_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        rc = main(["train", "--config", str(cfg), "--data", data_path])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_missing_command(self, capsys):
        assert main([]) == 1
        assert "command" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["train", "--frobnicate", "1"]) == 1

    def test_invalid_config_value(self, data_path, capsys):
        rc = main(["train", "--data", data_path, "--batch", "7"])
        assert rc == 1
        assert "batch" in capsys.readouterr().err

    def test_validation_interval_below_one(self, tmp_path, data_path,
                                           capsys):
        rc = main(["train", "--data", data_path, "--out", str(tmp_path),
                   "--eval_every", "0"] + FAST)
        assert rc == 1
        assert "eval_every" in capsys.readouterr().err

    def test_non_numeric_flag_names_key(self, tmp_path, data_path, capsys):
        rc = main(["train", "--data", data_path, "--out", str(tmp_path)]
                  + FAST + ["--d", "abc"])
        assert rc == 1
        assert "d: expected int, got 'abc'" in capsys.readouterr().err

    def test_non_numeric_file_line_names_key(self, tmp_path, data_path,
                                             capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lr = fast\n")
        rc = main(["train", "--config", str(cfg), "--data", data_path,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "lr: expected float, got 'fast'" in capsys.readouterr().err

    def test_bad_ratio_list(self, data_path, capsys):
        rc = main(["noise-test", "--data", data_path, "--ratios", "abc"]
                  + FAST)
        assert rc == 1
        assert "--ratios" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, data_path,
                                                 capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        rc = main(["evaluate", str(bad), "--data", data_path])
        assert rc == 2


class TestTrainArtifacts:
    def test_run_dir_contents(self, trained):
        names = set(os.listdir(trained["run_dir"]))
        assert {"config.txt", "epochs.csv", "metrics.csv", "best.ckpt",
                "last.ckpt"} <= names

    def test_epoch_log_rows(self, trained):
        rows = read_csv(os.path.join(trained["run_dir"], "epochs.csv"))
        assert len(rows) == 2
        assert [r["epoch"] for r in rows] == ["0", "1"]

    def test_effective_config_echoed(self, trained):
        text = open(os.path.join(trained["run_dir"], "config.txt")).read()
        assert "d = 8" in text
        assert "hyperedges = 4" in text
        assert "decay = 0.96" in text  # untouched default still present


class TestPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path, data_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch = 64\nd = 8\nhyperedges = 4\n"
                       "heads = 2\n")
        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["train", "--config", str(cfg), "--data", data_path,
                       "--out", str(tmp_path), "--batch", "32"])
        assert rc == 0
        text = open(os.path.join(run_dir_of(buf.getvalue()),
                                 "config.txt")).read()
        assert "batch = 32" in text      # flag beats file
        assert "epochs = 1" in text      # file beats default
        assert "layers = 2" in text      # default survives


class TestEvaluateReproduces:
    def test_validation_metrics_match_train_log(self, trained, tmp_path,
                                                capsys):
        rc = main(["evaluate", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path),
                   "--split", "validation"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = read_csv(os.path.join(run_dir_of(out), "metrics.csv"))
        train_rows = [r for r in
                      read_csv(os.path.join(trained["run_dir"], "metrics.csv"))
                      if r["split"] == "validation"]
        assert rows == train_rows

    def test_bad_split_name(self, trained, tmp_path, capsys):
        rc = main(["evaluate", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path),
                   "--split", "nope"])
        assert rc == 1


class TestNoiseCommand:
    def test_ratio_zero_equals_train_evaluate(self, trained, tmp_path,
                                              capsys):
        rc = main(["noise-test", "--data", trained["data"], "--out",
                   str(tmp_path), "--ratios", "0"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        noise_rows = read_csv(os.path.join(run_dir_of(out), "noise.csv"))
        assert len(noise_rows) == 1 and noise_rows[0]["ratio"] == "0.0"
        test_row = [r for r in
                    read_csv(os.path.join(trained["run_dir"], "metrics.csv"))
                    if r["split"] == "test" and r["cutoff"] == "20"][0]
        assert float(noise_rows[0]["recall"]) == float(test_row["recall"])
        assert float(noise_rows[0]["ndcg"]) == float(test_row["ndcg"])


class TestReportCommands:
    def test_sparsity_report(self, trained, tmp_path, capsys):
        rc = main(["sparsity-report", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path),
                   "--user-bounds", "6"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sparsity.csv"))
        assert all(r["axis"] == "user" for r in rows)

    def test_sparsity_requires_bounds(self, trained, tmp_path, capsys):
        rc = main(["sparsity-report", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path)])
        assert rc == 1

    def test_ablate(self, data_path, tmp_path, capsys):
        rc = main(["ablate", "--data", data_path, "--out", str(tmp_path),
                   "--flags", "sal"] + FAST[:-2] + ["--epochs", "1"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "ablation.csv"))
        assert [r["variant"] for r in rows] == ["full", "-sal"]

    def test_sweep(self, data_path, tmp_path, capsys):
        rc = main(["sweep", "--data", data_path, "--out", str(tmp_path),
                   "--vary", "layers=1"] + FAST[:-2] + ["--epochs", "1"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sweep.csv"))
        assert [r["param"] for r in rows] == ["base", "layers"]

    def test_sweep_requires_vary(self, data_path, tmp_path, capsys):
        rc = main(["sweep", "--data", data_path, "--out", str(tmp_path)]
                  + FAST)
        assert rc == 1

    def test_bench(self, tmp_path, capsys):
        rc = main(["bench", "--nodes", "500", "--repeats", "1", "--out",
                   str(tmp_path), "--d", "8", "--hyperedges", "4",
                   "--heads", "2"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "bench.csv"))
        assert len(rows) == 1
        assert float(rows[0]["max_abs_diff"]) < 1e-3

    def test_colorize(self, trained, tmp_path, capsys):
        rc = main(["colorize", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path), "--steps", "20"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "colors.csv"))
        assert len(rows) == 24
        values = np.array([[float(r["r"]), float(r["g"]), float(r["b"])]
                           for r in rows])
        assert values.min() >= 0.0 and values.max() <= 1.0


class TestOutputRoot:
    def test_env_var_default_root(self, data_path, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.setenv("HYPERCF_OUT", str(tmp_path))
        rc = main(["train", "--data", data_path] + FAST + ["--epochs", "1"])
        assert rc == 0
        run_dir = run_dir_of(capsys.readouterr().out)
        assert os.path.commonpath([run_dir, str(tmp_path)]) == str(tmp_path)
