"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import gen
import spans
from proc import Spawner, child_env
from run import ROOT, Bench, same_except_threads
from workloads import Invocation, Workload


def _write_audit_inputs(seed: int, out: Path) -> None:
    train, syn = gen.audit_inputs(seed, n_syn=300, n_train=500, n_dup=5)
    out.mkdir()
    gen.write_rows(train, out / "train.csv")
    gen.write_rows(syn.rows, out / "syn.csv")
    gen.write_schema(out / "schema.json")


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    _write_audit_inputs(3, tmp_path / "a")
    _write_audit_inputs(3, tmp_path / "b")
    _write_audit_inputs(4, tmp_path / "c")
    for name in ("train.csv", "syn.csv", "schema.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "syn.csv").read_bytes() != (tmp_path / "c" / "syn.csv").read_bytes()


def test_generator_plants_exact_copies():
    train, syn = gen.audit_inputs(0, n_syn=300, n_train=500, n_dup=5)
    assert len(syn.exact) == 60
    train_rows = {tuple(r) for r in train.num.tolist()}
    assert all(tuple(syn.rows.num[i]) in train_rows for i in syn.exact)


def test_self_time_on_a_hand_built_tree():
    tree = [
        spans.Span("root", None, 0.0, 10.0),
        spans.Span("a", 0, 1.0, 3.0),
        spans.Span("b", 0, 2.0, 5.0),  # overlaps a: covered once
        spans.Span("leaf", 2, 2.5, 4.0),
        spans.Span("c", 0, 8.0, 9.0),
    ]
    assert np.allclose(spans.self_times(tree), [10.0 - 4.0 - 1.0, 2.0, 1.5, 1.5, 1.0])
    totals = spans.summarize([
        spans.Span("cli.main", None, 0.0, 4.0),
        spans.Span("table.load_csv", 0, 0.0, 1.0, {"rows": 7}),
        spans.Span("table.load_csv", 0, 2.0, 3.0, {"rows": 5}),
    ])
    assert totals["cli.main.self_s"] == 2.0
    assert totals["table.load_csv.calls"] == 2 and totals["table.load_csv.rows"] == 12


def test_tracer_restores_the_patched_functions():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tabmem.memorization as memorization
        import tabmem.scorelab as scorelab

        before = memorization.fit_normalizer, scorelab.optimal_score
        tracer = spans.Tracer()
        tracer.install()
        assert memorization.fit_normalizer is not before[0]
        tracer.remove()
        assert (memorization.fit_normalizer, scorelab.optimal_score) == before
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_failed_invocation_is_counted_and_the_run_continues(tmp_path):
    def no_problems(run_dir, inputs):
        return []

    workload = Workload(
        name="probe",
        prepare=lambda seed, run_dir: None,
        invocations=[
            Invocation(["audit", "--train", "missing.csv", "--synthetic", "missing.csv",
                        "--schema", "missing.json", "--out", "audit.json"],
                       ["audit.json"], no_problems),
            Invocation(["simulate", "--steps", "5", "--trajectories", "2", "--out", "sim.json"],
                       ["sim.json"], no_problems, {"sim.json": "simulate.schema.json"}),
        ],
    )
    with Spawner() as spawner:
        bench = Bench(workload, 0, tmp_path, spawner)
        bench.e2e_pass()
    assert (bench.attempted, bench.failed) == (2, 1)
    assert (tmp_path / "sim.json").is_file()


def test_peak_rss_is_per_child(tmp_path):
    env = child_env(ROOT / "src")
    ballast = bytearray(150 * 2**20)  # the benchmark's own memory must not count
    with Spawner() as spawner:
        big = spawner.run([sys.executable, "-c", "b = bytearray(150 * 2**20)"], tmp_path, env)
        small = spawner.run([sys.executable, "-c", "pass"], tmp_path, env)
    del ballast
    assert big.ok and small.ok
    assert big.peak_rss_mb > 150
    assert small.peak_rss_mb < 60


def test_thread_count_is_ignored_only_in_run_config():
    a = b'{"mem_auc": 0.5, "run_config": {"threads": 1}}'
    b = b'{"mem_auc": 0.5, "run_config": {"threads": 2}}'
    assert same_except_threads(a, b, "audit.json")
    assert not same_except_threads(a, b.replace(b"0.5", b"0.6"), "audit.json")
    assert not same_except_threads(b"x,1\n", b"x,2\n", "out.csv")
