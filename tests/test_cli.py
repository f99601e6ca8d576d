import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabmem
from tabmem.cli import argv_from_run_config, main
from tabmem.scorelab import LatentSet, SigmaSchedule, backward_sample
from tabmem.table import FeatureKind, Schema, Table, load_csv, save_schema, write_csv

from conftest import random_mixed_table

NUM = FeatureKind.NUMERICAL
CAT = FeatureKind.CATEGORICAL


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    train = random_mixed_table(rng, 40, with_target=True)
    synthetic = Table(train.schema, [train.row(int(i)) for i in rng.integers(40, size=30)])
    holdout = random_mixed_table(rng, 25, with_target=True)
    paths = {
        "schema": tmp_path / "schema.json",
        "train": tmp_path / "train.csv",
        "synthetic": tmp_path / "synthetic.csv",
        "holdout": tmp_path / "holdout.csv",
        "dir": tmp_path,
    }
    save_schema(train.schema, paths["schema"])
    write_csv(train, paths["train"])
    write_csv(synthetic, paths["synthetic"])
    write_csv(holdout, paths["holdout"])
    return paths, train


class TestAudit:
    def test_copy_reports_full_memorization(self, workspace, capsys):
        paths, train = workspace
        out = paths["dir"] / "report.json"
        synthetic_copy = paths["dir"] / "copy.csv"
        write_csv(train, synthetic_copy)
        code = main(
            [
                "audit",
                "--train", str(paths["train"]),
                "--synthetic", str(synthetic_copy),
                "--schema", str(paths["schema"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mem_ratio 100.00%" in printed
        report = json.loads(out.read_text())
        assert report["mem_ratio"] == 1.0
        assert report["mem_auc"] == 1.0
        assert report["run_config"]["command"] == "audit"

    def test_threshold_plumbed_through(self, workspace):
        paths, _ = workspace
        out = paths["dir"] / "report.json"
        code = main(
            [
                "audit",
                "--train", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["schema"]),
                "--threshold", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["threshold"] == 0.5

    def test_missing_schema_is_usage_error(self, workspace):
        paths, _ = workspace
        code = main(
            [
                "audit",
                "--train", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["dir"] / "nope.json"),
                "--out", str(paths["dir"] / "r.json"),
            ]
        )
        assert code == 2

    def test_bad_data_is_data_error(self, workspace):
        paths, _ = workspace
        bad = paths["dir"] / "bad.csv"
        header = load_csv(paths["train"], load_schema_for(paths)).schema.column_names
        bad.write_text(",".join(header) + "\nnot_a_number," + ",".join(["x"] * (len(header) - 1)) + "\n")
        code = main(
            [
                "audit",
                "--train", str(bad),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["schema"]),
                "--out", str(paths["dir"] / "r.json"),
            ]
        )
        assert code == 1

    def test_histogram_csv_export(self, workspace):
        paths, _ = workspace
        out = paths["dir"] / "report.json"
        hist = paths["dir"] / "hist.csv"
        main(
            [
                "audit",
                "--train", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["schema"]),
                "--bins", "10",
                "--out", str(out),
                "--histogram-csv", str(hist),
            ]
        )
        lines = hist.read_text().strip().splitlines()
        assert lines[0] == "bin_left,count"
        assert len(lines) == 11


def load_schema_for(paths):
    from tabmem.table import load_schema

    return load_schema(paths["schema"])


class TestAugmentCommand:
    def test_ratio_zero_identity_rows(self, workspace, capsys):
        paths, train = workspace
        out = paths["dir"] / "aug.csv"
        code = main(
            [
                "augment",
                "--train", str(paths["train"]),
                "--schema", str(paths["schema"]),
                "--mode", "cutmix",
                "--ratio", "0",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert load_csv(out, train.schema) == load_csv(paths["train"], train.schema)

    def test_replay_from_embedded_config(self, workspace):
        paths, train = workspace
        out = paths["dir"] / "aug.csv"
        argv = [
            "augment",
            "--train", str(paths["train"]),
            "--schema", str(paths["schema"]),
            "--mode", "cutmixplus",
            "--ratio", "0.5",
            "--seed", "9",
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        run_config = json.loads((paths["dir"] / "aug.csv.json").read_text())["run_config"]
        assert main(argv_from_run_config(run_config)) == 0
        assert out.read_bytes() == first


    def test_output_is_byte_identical_across_thread_counts(self, workspace):
        # 40 rows at ratio 250 make 10 000 new rows: three blocks of streams.
        paths, _ = workspace
        for mode in ("cutmix", "cutmixplus", "ijf"):
            outputs, sidecars = [], []
            for threads in ("1", "2", "4"):
                out = paths["dir"] / f"aug-{mode}-{threads}.csv"
                argv = ["--threads", threads, *_command_argv(paths, "augment", out)]
                assert main([*argv, "--mode", mode, "--ratio", "250", "--seed", "5"]) == 0
                outputs.append(out.read_bytes())
                sidecar = json.loads(Path(f"{out}.json").read_text())
                assert sidecar["run_config"].pop("threads") == int(threads)
                sidecar["run_config"].pop("out")
                sidecars.append(sidecar)
            assert outputs[0].count(b"\n") == 1 + 40 + 10_000
            assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
            assert sidecars[1] == sidecars[0] and sidecars[2] == sidecars[0]

    def test_augment_receives_the_thread_count(self, workspace, monkeypatch):
        from tabmem import cli

        seen = []
        real_augment = cli.run_augment

        def recording_augment(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return real_augment(*args, **kwargs)

        monkeypatch.setattr(cli, "run_augment", recording_augment)
        paths, _ = workspace
        assert main(["--threads", "3", *_command_argv(paths, "augment", paths["dir"] / "a.csv")]) == 0
        assert seen == [3]


class TestFidelityCommand:
    def test_report_fields(self, workspace):
        paths, _ = workspace
        out = paths["dir"] / "fid.json"
        code = main(
            [
                "fidelity",
                "--real", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["schema"]),
                "--holdout", str(paths["holdout"]),
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("shape_score", "trend_score", "c2st_score", "alpha_precision", "beta_recall", "dcr_probability"):
            assert 0.0 <= report[key] <= 1.0

    def test_dcr_omitted_without_holdout(self, workspace):
        paths, _ = workspace
        out = paths["dir"] / "fid.json"
        main(
            [
                "fidelity",
                "--real", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--schema", str(paths["schema"]),
                "--out", str(out),
            ]
        )
        assert "dcr_probability" not in json.loads(out.read_text())


class TestClusterCommand:
    def test_linked_pair_grouped(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        schema = Schema(features=(("f1", CAT), ("f2", CAT), ("f3", NUM)))
        rows = []
        for _ in range(80):
            f1 = "a" if rng.random() < 0.5 else "b"
            rows.append((f1, f1.upper(), float(rng.normal())))
        table = Table(schema, rows)
        schema_path = tmp_path / "s.json"
        train_path = tmp_path / "t.csv"
        save_schema(schema, schema_path)
        write_csv(table, train_path)
        code = main(
            ["cluster", "--train", str(train_path), "--schema", str(schema_path), "--threshold", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["threshold"] == 0.5
        assert sorted(map(sorted, payload["clusters"])) == [["f1", "f2"], ["f3"]]


class TestClusterEtaMapping:
    def test_squared_mapping_weakens_mixed_association(self, tmp_path, capsys):
        # eta^2 < sqrt(eta^2) for partial association, so the squared mapping
        # can leave a num-cat pair unmerged where the sqrt mapping merges it.
        rng = np.random.default_rng(7)
        schema = Schema(features=(("n", NUM), ("c", CAT)))
        rows = [
            (float(i % 3) + 0.4 * float(rng.normal()), f"g{i % 3}")
            for i in range(120)
        ]
        save_schema(schema, tmp_path / "s.json")
        write_csv(Table(schema, rows), tmp_path / "t.csv")
        merged = {}
        for mapping in ("sqrt", "squared"):
            assert main(
                [
                    "cluster",
                    "--train", str(tmp_path / "t.csv"),
                    "--schema", str(tmp_path / "s.json"),
                    "--threshold", "0.1",
                    "--eta-mapping", mapping,
                ]
            ) == 0
            merged[mapping] = len(json.loads(capsys.readouterr().out)["clusters"])
        assert merged["sqrt"] == 1
        assert merged["squared"] == 2


class TestSimulateCommand:
    def test_emits_replication_stats(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        traj = tmp_path / "traj.csv"
        code = main(
            [
                "simulate",
                "--n-latents", "4",
                "--dim", "2",
                "--steps", "200",
                "--trajectories", "6",
                "--seed", "1",
                "--out", str(out),
                "--emit-trajectories", str(traj),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["replication_fraction"] >= 0.99
        lines = traj.read_text().strip().splitlines()
        assert lines[0] == "trajectory,step,t,x0,x1"
        assert len(lines) == 1 + 6 * 201


    @pytest.mark.parametrize(
        "steps, trajectories, dim, horizon",
        [(1, 3, 2, 1.0), (300, 4, 3, 2.5)],
    )
    def test_trajectories_match_per_stream_emission(self, tmp_path, capsys, steps, trajectories,
                                                    dim, horizon):
        traj = tmp_path / "traj.csv"
        assert main([
            "simulate", "--n-latents", "5", "--dim", str(dim), "--steps", str(steps),
            "--trajectories", str(trajectories), "--seed", "3", "--horizon", str(horizon),
            "--emit-trajectories", str(traj),
        ]) == 0
        reference = tmp_path / "reference.csv"
        _emit_per_stream(reference, 5, dim, steps, trajectories, 3, horizon)
        assert traj.read_bytes() == reference.read_bytes()


def _emit_per_stream(path, n_latents, dim, steps, trajectories, seed, horizon):
    """Trajectory emission as one single-trajectory rerun per stream, formatting
    each coordinate of each numpy row."""
    latents = LatentSet(np.random.default_rng(seed).standard_normal((n_latents, dim)))
    schedule = SigmaSchedule(horizon=horizon)
    streams = np.random.SeedSequence(seed).spawn(trajectories)
    times = np.linspace(0.0, horizon, steps + 1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trajectory", "step", "t"] + [f"x{i}" for i in range(dim)])
        for j, stream in enumerate(streams):
            _, trajectory = backward_sample(
                latents, schedule, steps, np.random.default_rng(stream), return_trajectory=True
            )
            for k, state in enumerate(trajectory):
                t = float(times[steps - k]) if k < len(trajectory) - 1 else 0.0
                writer.writerow([j, k, repr(t)] + [repr(float(v)) for v in state])


class TestReplayHelper:
    def test_round_trips_all_commands(self, workspace, capsys):
        paths, _ = workspace
        out = paths["dir"] / "report.json"
        argv = [
            "--threads", "2",
            "audit",
            "--train", str(paths["train"]),
            "--synthetic", str(paths["synthetic"]),
            "--schema", str(paths["schema"]),
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        cfg = json.loads(out.read_text())["run_config"]
        replay = argv_from_run_config(cfg)
        assert replay[:2] == ["--threads", "2"]
        assert main(replay) == 0
        assert out.read_bytes() == first


def _audit_argv(paths, out):
    return [
        "audit",
        "--train", str(paths["train"]),
        "--synthetic", str(paths["synthetic"]),
        "--schema", str(paths["schema"]),
        "--out", str(out),
    ]


class TestThreadCounts:
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_bad_flag_is_usage_error(self, workspace, capsys, value):
        paths, _ = workspace
        with pytest.raises(SystemExit) as exc:
            main(["--threads", value, *_audit_argv(paths, paths["dir"] / "r.json")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "1.5"])
    def test_bad_environment_is_usage_error(self, workspace, capsys, monkeypatch, value):
        paths, _ = workspace
        monkeypatch.setenv("TABMEM_THREADS", value)
        assert main(_audit_argv(paths, paths["dir"] / "r.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: $TABMEM_THREADS")
        assert "Traceback" not in err

    def test_environment_value_is_recorded(self, workspace, monkeypatch):
        paths, _ = workspace
        out = paths["dir"] / "r.json"
        monkeypatch.setenv("TABMEM_THREADS", "3")
        assert main(_audit_argv(paths, out)) == 0
        assert json.loads(out.read_text())["run_config"]["threads"] == 3

    def test_fidelity_receives_the_thread_count(self, workspace, monkeypatch):
        from tabmem import cli

        seen = []
        real_report = cli.full_report

        def recording_report(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return real_report(*args, **kwargs)

        monkeypatch.setattr(cli, "full_report", recording_report)
        paths, _ = workspace
        code = main(
            [
                "--threads", "3",
                "fidelity",
                "--real", str(paths["train"]),
                "--synthetic", str(paths["synthetic"]),
                "--holdout", str(paths["holdout"]),
                "--schema", str(paths["schema"]),
                "--out", str(paths["dir"] / "fid.json"),
            ]
        )
        assert code == 0
        assert seen == [3]


class TestNonFiniteOutput:
    def test_nan_is_a_data_error_and_writes_nothing(self, workspace, capsys, monkeypatch):
        from tabmem import memorization

        real_audit = memorization.audit

        def nan_audit(*args, **kwargs):
            report = real_audit(*args, **kwargs)
            return dataclasses.replace(report, mem_auc=float("nan"))

        monkeypatch.setattr(memorization, "audit", nan_audit)
        paths, _ = workspace
        out = paths["dir"] / "r.json"
        assert main(_audit_argv(paths, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "non-finite" in err
        assert not out.exists()

    def test_huge_magnitudes_give_a_finite_report(self, workspace):
        paths, train = workspace
        num = set(train.schema.numerical_indices)
        huge = Table(
            train.schema,
            [tuple(v * 1e200 if i in num else v for i, v in enumerate(row)) for row in train.rows],
        )
        write_csv(huge, paths["train"])
        write_csv(Table(huge.schema, huge.rows[:15]), paths["synthetic"])
        out = paths["dir"] / "r.json"
        assert main(_audit_argv(paths, out)) == 0
        report = json.loads(out.read_text())
        assert report["mem_auc"] == 1.0
        assert all(r == 0.0 for r in report["ratios"])


def _command_argv(paths, command, out):
    files = {
        "audit": ["--train", paths["train"], "--synthetic", paths["synthetic"],
                  "--schema", paths["schema"]],
        "augment": ["--train", paths["train"], "--schema", paths["schema"], "--mode", "cutmix"],
        "cluster": ["--train", paths["train"], "--schema", paths["schema"]],
        "fidelity": ["--real", paths["train"], "--synthetic", paths["synthetic"],
                     "--schema", paths["schema"]],
        "simulate": ["--steps", "10", "--trajectories", "2"],
    }
    return [command, *map(str, files[command]), "--out", str(out)]


class TestBadArgumentValues:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--steps", "0"),
            ("simulate", "--trajectories", "0"),
            ("simulate", "--horizon", "0"),
            ("simulate", "--horizon", "nan"),
            ("simulate", "--n-latents", "0"),
            ("simulate", "--dim", "0"),
            ("simulate", "--seed", "-1"),
            ("simulate", "--tolerance", "-1"),
            ("simulate", "--tolerance", "nan"),
            ("simulate", "--tolerance", "inf"),
            ("audit", "--threshold", "0"),
            ("audit", "--threshold", "nan"),
            ("audit", "--bins", "0"),
            ("augment", "--ratio", "-1"),
            ("augment", "--ratio", "nan"),
            ("augment", "--ratio", "1001"),
            ("augment", "--ratio", "1e300"),
            ("augment", "--cluster-threshold", "2"),
            ("augment", "--seed", "-1"),
            ("cluster", "--threshold", "-0.5"),
            ("cluster", "--threshold", "nan"),
        ],
    )
    def test_usage_error_before_any_input(self, workspace, capsys, command, flag, value):
        paths, _ = workspace
        out = paths["dir"] / "out.file"
        with pytest.raises(SystemExit) as exc:
            main([*_command_argv(paths, command, out), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestHashSeedIndependence:
    def test_fidelity_report_is_identical_under_two_hash_seeds(self, tmp_path):
        # 60 categories give joint contingency tables large enough that a
        # sum taken in string-hash order differs between hash seeds.
        schema = Schema(features=(("x", NUM), ("c", CAT)), target="y")
        rng = np.random.default_rng(1)

        def table(n):
            return Table(schema, [
                (float(rng.normal()), f"k{int(rng.integers(60))}", "A" if rng.random() < 0.5 else "B")
                for _ in range(n)
            ])

        write_csv(table(997), tmp_path / "real.csv")
        write_csv(table(1013), tmp_path / "syn.csv")
        save_schema(schema, tmp_path / "schema.json")
        src = str(Path(tabmem.__file__).resolve().parents[1])
        reports = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            result = subprocess.run(
                [sys.executable, "-m", "tabmem", "--threads", "1", "fidelity",
                 "--real", "real.csv", "--synthetic", "syn.csv", "--schema", "schema.json",
                 "--out", "fidelity.json"],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert result.returncode == 0, result.stderr
            reports.append((tmp_path / "fidelity.json").read_bytes())
        assert reports[0] == reports[1]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command", ["augment", "audit", "fidelity"])
    @pytest.mark.parametrize("broken", ["schema", "train", "names"])
    def test_data_error_without_traceback(self, workspace, command, broken):
        # A schema that is not JSON, or a CSV that is not UTF-8 (a Latin-1
        # byte in a data row), is a data error naming the file; so is a
        # schema whose column names are not strings.
        paths, _ = workspace
        if broken == "train":
            bad = paths["dir"] / "bad.csv"
            header, body = paths["train"].read_bytes().split(b"\n", 1)
            bad.write_bytes(header + b"\n" + body.replace(b",", b",caf\xe9", 1))
            expected = str(bad)
        elif broken == "schema":
            bad = paths["dir"] / "bad.json"
            bad.write_text('{"features": [{"name": "x", ', encoding="utf-8")
            expected = str(bad)
        else:
            bad = paths["dir"] / "names.json"
            bad.write_text('{"features": [{"name": 5, "kind": "numerical"}]}', encoding="utf-8")
            broken, expected = "schema", "names must be non-empty strings"
        out = paths["dir"] / "out.file"
        argv = _command_argv(dict(paths, **{broken: bad}), command, out)
        src = str(Path(tabmem.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run([sys.executable, "-m", "tabmem", *argv],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr.startswith("error: ") and expected in result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()
