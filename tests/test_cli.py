"""Command-line tests: exit codes, override precedence, artifact layout,
and the cross-command reproduction contracts."""

import argparse
import csv
import os
import re
import resource

import numpy as np
import pytest

from hypercf import data as D
from hypercf import experiments
from hypercf.cli import _epoch_log, build_parser, main
from hypercf.evaluation import evaluate_model
from hypercf.model import Model

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
        # the message lists exactly the registered commands
        registered = next(a.choices for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert main([]) == 1
        listed = capsys.readouterr().err.split("missing command; expected "
                                               "one of ")[1]
        assert listed.strip().split(", ") == list(registered) == [
            "train", "evaluate", "noise-test", "sparsity-report", "ablate",
            "sweep"]

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_removed_bench_command_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bench", "--nodes", "500", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "invalid choice" in err
        assert "'bench'" in err
        assert not out.exists()

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

    def test_deleted_sum_switch_is_an_unknown_flag(self, tmp_path,
                                                   data_path, capsys):
        out = tmp_path / "out"
        rc = main(["train", "--data", data_path, "--out", str(out)]
                  + FAST + ["--include_input_in_sum", "true"])
        assert rc == 1
        assert "include_input_in_sum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--init_scale", "nan"), ("--lambda1", "inf"),
        ("--seed", "-1")])
    def test_non_finite_or_negative_value_rejected_before_run_dir(
            self, tmp_path, data_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = main(["train", "--data", data_path, "--out", str(out)]
                  + FAST + [flag, value])
        assert rc == 1
        assert f"usage error: {flag[2:]} must be" in capsys.readouterr().err
        assert not out.exists()

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

    def test_non_utf8_data_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.tsv"
        bad.write_bytes(b"a\tx\nb\ty\ncaf\xe9\tx\n")
        out = tmp_path / "out"
        rc = main(["train", "--data", str(bad), "--out", str(out)] + FAST)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: DataError: {bad}:3: " in err, err
        assert not out.exists()


class TestBadFlagValues:
    """A bad value is a usage error naming its flag, raised before any
    training and before the run directory exists."""

    @pytest.mark.parametrize("argv, flag", [
        (["evaluate", "CKPT", "--cutoffs", "0,20"], "--cutoffs"),
        (["sparsity-report", "CKPT", "--user-bounds", "30,15"],
         "--user-bounds"),
        (["noise-test", "--ratios", "0.1,0.6"], "--ratios"),
        (["noise-test", "--cutoff", "0"], "--cutoff"),
        (["sweep", "--vary", "batch=64,16"], "--vary batch"),
        (["ablate", "--flags", "sal,bogus"], "--flags"),
        # the sweep loads and splits the data once and writes one run dir
        (["sweep", "--vary", "data=other.tsv"], "--vary data"),
        (["sweep", "--vary", "d=16", "--vary", "out=elsewhere"],
         "--vary out"),
    ])
    def test_rejected_before_any_work(self, argv, flag, trained, tmp_path,
                                      capsys):
        out = tmp_path / "out"
        argv = [trained["checkpoint"] if a == "CKPT" else a for a in argv]
        rc = main(argv + ["--data", trained["data"], "--out", str(out)]
                  + FAST)
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


def checkpoint_argv(command, trained, out):
    """A checkpoint command on the trained run, with its required flags."""
    argv = [command, trained["checkpoint"], "--data", trained["data"],
            "--out", str(out)]
    return argv + (["--user-bounds", "6"] if command == "sparsity-report"
                   else [])


class TestCheckpointOverrides:
    """A checkpoint command evaluates the checkpoint's model on its split:
    an override that would change either is a usage error naming its key,
    raised before the run directory exists."""

    @pytest.mark.parametrize("command", ["evaluate", "sparsity-report"])
    @pytest.mark.parametrize("extra, key", [
        (["--seed", "3"], "seed"),
        (["--d", "64"], "d"),
        (["--config", "FILE"], "hyperedges"),
    ], ids=["seed", "d", "config-file"])
    def test_rejected_before_any_work(self, command, extra, key, trained,
                                      tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("d = 8\nhyperedges = 16\n")
        extra = [str(config) if a == "FILE" else a for a in extra]
        out = tmp_path / "out"
        rc = main(checkpoint_argv(command, trained, out) + extra)
        assert rc == 1
        assert f"usage error: {key} = " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sparsity-report"])
    def test_matching_values_and_paths_are_accepted(self, command, trained,
                                                    tmp_path, capsys):
        rc = main(checkpoint_argv(command, trained, tmp_path) + FAST)
        assert rc == 0, capsys.readouterr().err


class TestTrainArtifacts:
    def test_run_dir_contents(self, trained):
        names = set(os.listdir(trained["run_dir"]))
        assert {"config.txt", "epochs.csv", "metrics.csv", "best.ckpt",
                "last.ckpt"} <= names

    def test_epoch_log_rows(self, trained):
        rows = read_csv(os.path.join(trained["run_dir"], "epochs.csv"))
        assert len(rows) == 2
        assert [r["epoch"] for r in rows] == ["0", "1"]
        for r in rows:
            assert float(r["tape_nodes"]) > 0
            assert float(r["peak_rss_mb"]) > 0
            assert int(r["minor_faults"]) >= 0

    def test_epoch_log_leaves_history_row_alone(self, tmp_path, capsys):
        log, flush = _epoch_log(str(tmp_path))
        row = {"epoch": 0, "loss": 1.5}
        log(row)
        fresh = np.ones(1 << 21)  # 16 MB of new pages, faulted in here
        log({"epoch": 1, "loss": float(fresh[-1])})
        flush()
        assert row == {"epoch": 0, "loss": 1.5}
        printed = capsys.readouterr().out
        assert "peak_rss_mb=" in printed and "minor_faults=" in printed
        written = read_csv(str(tmp_path / "epochs.csv"))
        assert list(written[0]) == ["epoch", "loss", "peak_rss_mb",
                                    "minor_faults"]
        # the faults since the previous row, not the process's total
        total = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert 0 < int(written[1]["minor_faults"]) < total

    def test_ranks_once_for_both_splits(self, data_path, tmp_path,
                                        monkeypatch, capsys):
        # the validation and test rows share one embedding pass and one
        # ranking, and read as evaluate_model reads each split
        fitted, calls = [], []
        fit, tables = experiments.fit, Model.embedding_tables

        def logged_fit(*args, **kwargs):
            result = fit(*args, **kwargs)
            fitted.append(True)
            return result

        def logged_tables(model, adj):
            if fitted:
                calls.append((model, adj))
            return tables(model, adj)

        monkeypatch.setattr(experiments, "fit", logged_fit)
        monkeypatch.setattr(Model, "embedding_tables", logged_tables)
        rc = main(["train", "--data", data_path, "--out", str(tmp_path)]
                  + FAST)
        assert rc == 0 and len(calls) == 1
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "metrics.csv"))
        model, adj = calls[0]
        splits = D.split(D.load_interactions(data_path), 0)
        want = []
        for name in ("validation", "test"):
            metrics = evaluate_model(model, adj, splits.train,
                                     getattr(splits, name), (20, 40))
            want += [{"split": name, "cutoff": str(c),
                      "recall": str(metrics[f"recall@{c}"]),
                      "ndcg": str(metrics[f"ndcg@{c}"])} for c in (20, 40)]
        assert rows == want

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

    def test_zero_given_last_still_runs_first(self, data_path, tmp_path,
                                              capsys):
        rc = main(["noise-test", "--data", data_path, "--out",
                   str(tmp_path), "--ratios", "0.1,0"] + FAST)
        assert rc == 0, capsys.readouterr().err
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "noise.csv"))
        assert [r["ratio"] for r in rows] == ["0.0", "0.1"]


class TestReportCommands:
    def test_sparsity_report(self, trained, tmp_path, capsys):
        rc = main(["sparsity-report", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path),
                   "--user-bounds", "6"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sparsity.csv"))
        assert all(r["axis"] == "user" for r in rows)

    def test_sparsity_report_rows_every_bound(self, trained, tmp_path,
                                              capsys):
        # no user has more than 100 training edges: the last bucket is
        # empty and still gets its row
        rc = main(["sparsity-report", trained["checkpoint"], "--data",
                   trained["data"], "--out", str(tmp_path),
                   "--user-bounds", "2,100,200"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sparsity.csv"))
        assert [r["bound"] for r in rows] == ["2", "100", "200"]
        assert [rows[2][k] for k in ("test_edges", "users", "recall",
                                     "ndcg")] == ["0", "0", "nan", "nan"]

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

    def test_sweep_trains_each_distinct_value_once(self, data_path,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        # a second --vary of a key adds to it, and a repeated or re-spelled
        # value trains once; each value reads as config.txt spells it
        trained = []
        fit_and_score = experiments._test_metrics

        def counted(splits, cfg, cutoffs):
            trained.append((cfg.d, cfg.ablate))
            return fit_and_score(splits, cfg, cutoffs)

        monkeypatch.setattr(experiments, "_test_metrics", counted)
        rc = main(["sweep", "--data", data_path, "--out", str(tmp_path),
                   "--vary", "d=4", "--vary", "ablate=sal, -SAL,hyper",
                   "--vary", "d=6,4"] + FAST[:-2] + ["--epochs", "1"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sweep.csv"))
        assert [(r["param"], r["value"]) for r in rows] == [
            ("base", ""), ("ablate", "sal"), ("ablate", "hyper"),
            ("d", "4"), ("d", "6")]
        assert trained == [(8, ()), (8, ("sal",)), (8, ("hyper",)),
                           (4, ()), (6, ())]

    def test_sweep_value_pastes_back_as_a_flag(self, data_path, tmp_path,
                                               capsys):
        rc = main(["sweep", "--data", data_path, "--out", str(tmp_path),
                   "--vary", "ablate=-sal", "--vary", "lr=0.002"]
                  + FAST[:-2] + ["--epochs", "1"])
        assert rc == 0
        rows = read_csv(os.path.join(run_dir_of(capsys.readouterr().out),
                                     "sweep.csv"))
        assert [(r["param"], r["value"]) for r in rows[1:]] == [
            ("ablate", "sal"), ("lr", "0.002")]
        # the row's value as a flag trains the row's model again
        capsys.readouterr()
        rc = main(["ablate", "--data", data_path, "--out", str(tmp_path),
                   "--flags", rows[1]["value"]] + FAST[:-2]
                  + ["--epochs", "1"])
        assert rc == 0
        ablation = read_csv(os.path.join(
            run_dir_of(capsys.readouterr().out), "ablation.csv"))
        assert ablation[1]["recall@20"] == rows[1]["recall"]

    def test_sweep_requires_vary(self, data_path, tmp_path, capsys):
        rc = main(["sweep", "--data", data_path, "--out", str(tmp_path)]
                  + FAST)
        assert rc == 1


class TestOutputRoot:
    def test_env_var_default_root(self, data_path, tmp_path, monkeypatch,
                                  capsys):
        monkeypatch.setenv("HYPERCF_OUT", str(tmp_path))
        rc = main(["train", "--data", data_path] + FAST + ["--epochs", "1"])
        assert rc == 0
        run_dir = run_dir_of(capsys.readouterr().out)
        assert os.path.commonpath([run_dir, str(tmp_path)]) == str(tmp_path)
