"""tabmem benchmark: one workload of CLI commands per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload audit_fidelity --seed 1 --seconds 60 --trace 0

``--trace 0`` runs the workload's ``python -m tabmem --threads 2 ...``
commands back to back (one client, closed loop) until their summed wall time
would pass ``--seconds``, checks every output, and reports the end-to-end
metrics: ``norm_wall_s`` (median over runs of the summed child wall time,
scaled to the reference speed of the machine, see ``probe``),
``peak_rss_mb`` (median over runs of the summed child peak RSS) and
``setup_s`` (median over set-ups of input generation plus one fresh
``import tabmem``). The run record holds the raw wall times.

``--trace 1`` runs the same argvs in-process through ``tabmem.cli.main``, in a
child interpreter per pass: traced at 2 threads, untraced at 2 threads (the
tracing overhead) and traced at 1 thread (the parallel speedup, and a check
that ``--threads`` changes no result). It reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, sample counts and machine. ``--workload all`` runs every
workload in turn and prefixes each metric with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
from proc import Spawner, child_env
from workloads import Schemas, Workload, check_invocation, workloads

THREADS = 2  # the reference box has 2 cores; fixed, so boxes with more still compare
SETUP_REPEATS = 5
PROBE_REPEATS = 10  # probes before and after every child
PROBE_REF_S = 0.012  # the probe's median time on the reference 2-core Xeon; sets the unit only
ROOT = Path(__file__).resolve().parent.parent
TRACED_SCRIPT = Path(__file__).resolve().parent / "traced.py"

E2E_UNITS = {"norm_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in spans.SPAN_NAMES:
        units |= {f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"}
        if name in spans.RESOURCE_SPANS:
            units |= {f"{name}.cpu_s": "s", f"{name}.rss_growth_mb": "MB"}
    units |= {
        "table.load_csv.rows": "count",
        "table.write_csv.rows": "count",
        "distance.fit_normalizer.pairs": "count",
        "distance.two_nearest.pairs": "count",
        "distance.pairwise_mixed.pairs": "count",
        "distance.pairwise_mixed.bytes": "bytes",
        "distance.pairs_per_s": "1/s",
        "distance.pair_redundancy": "ratio",
        "parallel.map_blocks.blocks": "count",
        "parallel.map_blocks.threads": "count",
        "parallel.map_blocks.cpu_util": "ratio",
        "parallel.speedup": "ratio",
        "scorelab.optimal_score.rows": "count",
        "scorelab.trajectory_steps": "count",
        "cli.import_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead_frac": "ratio",
        "failed_frac": "ratio",
    }
    return units


_SMALL = np.ones(4)
_BIG = np.ones((1000, 1000))
_BIG_OUT = np.empty_like(_BIG)


def probe() -> float:
    """Seconds taken by a fixed loop of interpreter, small-array and
    large-array numpy work, the three kinds of work tabmem's commands do.

    The shared host's CPU speed drifts by tens of percent over seconds to
    minutes, and a child's wall time drifts with it. The probe does no tabmem
    work, so dividing the children's time by the probe's median over the same
    run takes out much of the drift and nothing a change to tabmem does.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20_000):
        acc += i * i
        table[i & 255] = acc
    a = _SMALL
    for _ in range(1500):
        a = a * 1.0001 + 1.0
    for _ in range(4):
        np.multiply(_BIG, 1.5, out=_BIG_OUT)
        _BIG_OUT.sum()
    return time.perf_counter() - start


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, plain: dict, single: dict, n_pairs_base: int) -> dict[str, float]:
    """Per-layer metrics of one pass from the traced 2-thread, untraced
    2-thread and traced 1-thread results of ``traced.py``."""
    m = dict(traced["metrics"])
    distance = ("distance.fit_normalizer", "distance.two_nearest", "distance.pairwise_mixed")
    pairs = sum(m.get(f"{d}.pairs", 0) for d in distance)
    m["distance.pairwise_mixed.bytes"] = m.get("distance.pairwise_mixed.pairs", 0) * 8
    m["distance.pairs_per_s"] = _ratio(pairs, sum(m[f"{d}.s"] for d in distance))
    m["distance.pair_redundancy"] = _ratio(pairs, n_pairs_base)
    m["parallel.map_blocks.cpu_util"] = _ratio(m["parallel.map_blocks.cpu_s"],
                                               m["parallel.map_blocks.s"])
    m["parallel.speedup"] = _ratio(single["metrics"]["parallel.map_blocks.s"],
                                   m["parallel.map_blocks.s"])
    m["scorelab.trajectory_steps"] = (m.pop("scorelab.run_replication.trajectory_steps", 0)
                                      + m.pop("scorelab.backward_sample.trajectory_steps", 0))
    m["cli.import_s"] = plain["import_s"]
    m["trace.coverage"] = 1.0 - _ratio(m["cli.main.self_s"], m["cli.main.s"])
    plain_s = sum(inv["wall_s"] for inv in plain["invocations"])
    m["trace.overhead_frac"] = _ratio(m["cli.main.s"], plain_s) - 1.0
    return m


def _without_threads(report: bytes) -> dict:
    payload = json.loads(report)
    payload.get("run_config", {}).pop("threads", None)
    return payload


def same_except_threads(a: bytes, b: bytes, name: str) -> bool:
    """Outputs equal byte for byte, or for JSON reports, equal once
    ``run_config.threads`` is dropped."""
    if a == b:
        return True
    if not name.endswith(".json"):
        return False
    try:
        return _without_threads(a) == _without_threads(b)
    except ValueError:
        return False


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Bench:
    """One benchmark run of a workload: its inputs, children and failures."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, spawner: Spawner):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.spawner = spawner
        self.env = child_env(ROOT / "src")
        self.schemas = Schemas(ROOT / "docs" / "report-schemas")
        self.reference: dict[str, bytes] = {}  # first bytes of every output
        self.passed: set[tuple] = set()  # output sets that passed their check
        self.attempted = 0
        self.failed = 0
        self.probe_s: list[float] = []  # every probe around the e2e children
        self.inputs = None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)

    def setup(self) -> float:
        start = time.perf_counter()
        self.inputs = self.workload.prepare(self.seed, self.run_dir)
        child = self.spawner.run([sys.executable, "-c", "import tabmem"], self.run_dir, self.env)
        if not child.ok:
            raise SystemExit(f"cannot import tabmem from {ROOT / 'src'}:\n{child.stderr}")
        return time.perf_counter() - start

    def clear_outputs(self) -> None:
        for inv in self.workload.invocations:
            for name in inv.outputs:
                (self.run_dir / name).unlink(missing_ok=True)

    def judge(self, inv, status_problems: list[str], threads: int = THREADS) -> dict[str, bytes]:
        """Count one invocation; fail it on a bad exit, a failed check, or
        output bytes that differ from the first run's. Outputs byte-identical
        to ones that already passed their check are not checked again."""
        self.attempted += 1
        outputs = {}
        for name in inv.outputs:
            path = self.run_dir / name
            outputs[name] = path.read_bytes() if path.is_file() else b""
        problems = list(status_problems)
        key = tuple(outputs.items())
        if not problems and key not in self.passed:
            problems = check_invocation(inv, self.run_dir, self.inputs, self.schemas)
            if not problems:
                self.passed.add(key)
        if not problems and threads == THREADS:
            for name, data in outputs.items():
                if self.reference.setdefault(name, data) != data:
                    problems.append(f"{name}: bytes differ from the first run's")
        if problems:
            self.fail(problems)
        return outputs

    def e2e_pass(self) -> tuple[float, float]:
        """One closed-loop pass over the workload's commands; returns the
        summed child wall time and the summed child peak RSS."""
        wall, peak = 0.0, 0.0
        self.clear_outputs()
        for inv in self.workload.invocations:
            argv = [sys.executable, "-m", "tabmem", "--threads", str(THREADS), *inv.args]
            self.probe_s += [probe() for _ in range(PROBE_REPEATS)]
            child = self.spawner.run(argv, self.run_dir, self.env)
            self.probe_s += [probe() for _ in range(PROBE_REPEATS)]
            status = [] if child.ok else [
                f"{inv.args[0]}: exit {child.returncode}: {child.stderr.strip()[-400:]}"]
            self.judge(inv, status)
            wall += child.wall_s
            peak += child.peak_rss_mb
        return wall, peak

    def traced_pass(self, threads: int, trace: bool) -> tuple[dict, dict[str, bytes]]:
        """All commands in one fresh interpreter through ``tabmem.cli.main``."""
        self.clear_outputs()
        plan = self.run_dir / ".plan.json"
        result_path = self.run_dir / ".result.json"
        result_path.unlink(missing_ok=True)
        argvs = [["--threads", str(threads), *inv.args] for inv in self.workload.invocations]
        plan.write_text(json.dumps({"trace": trace, "argvs": argvs}), encoding="utf-8")
        child = self.spawner.run(
            [sys.executable, str(TRACED_SCRIPT), plan.name, result_path.name],
            self.run_dir, self.env)
        if not child.ok or not result_path.is_file():
            raise SystemExit(f"traced run failed (exit {child.returncode}):\n{child.stderr}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        outputs = {}
        for inv, rec in zip(self.workload.invocations, result["invocations"]):
            status = [] if rec["code"] == 0 and not rec["error"] else [
                f"{inv.args[0]}: exit {rec['code']} {rec['error'][-400:]}"]
            outputs |= self.judge(inv, status, threads)
        return result, outputs


def measure_e2e(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    if bench.workload.oracle:
        bench.workload.oracle(bench.inputs)
    walls, peaks = [], []
    # Passes go on while the children's measured time, plus one more pass
    # of the mean length, fits in ``seconds``; checks and probes are not counted.
    while not walls or sum(walls) * (1 + 1 / len(walls)) <= seconds:
        wall, peak = bench.e2e_pass()
        walls.append(wall)
        peaks.append(peak)
    wall_s, probe_s = statistics.median(walls), statistics.median(bench.probe_s)
    metrics = {
        "norm_wall_s": wall_s * PROBE_REF_S / probe_s,
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setups),
    }
    info = {"runs": len(walls), "setups": len(setups), "probes": len(bench.probe_s),
            "wall_s": wall_s, "probe_s": probe_s, "wall_s_runs": walls,
            "peak_rss_mb_runs": peaks, "setup_s_runs": setups}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, info


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.setup()
    if bench.workload.oracle:
        bench.workload.oracle(bench.inputs)
    units = per_layer_units()
    passes = []
    start = time.perf_counter()
    while True:
        traced, outputs2 = bench.traced_pass(THREADS, trace=True)
        plain, _ = bench.traced_pass(THREADS, trace=False)
        single, outputs1 = bench.traced_pass(1, trace=True)
        bench.attempted += 1
        differ = [n for n in outputs2 if not same_except_threads(outputs1[n], outputs2[n], n)]
        if differ:
            bench.fail([f"{n}: --threads 1 output differs from --threads {THREADS}"
                        for n in differ])
        w = bench.workload
        passes.append(layer_metrics(traced, plain, single, w.n_pairs))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    metrics = {}
    for name, unit in units.items():
        if name == "failed_frac":
            value = bench.failed / bench.attempted
        else:
            value = statistics.median(p.get(name, 0) for p in passes)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, {"runs": len(passes), "missing_targets": traced["missing_targets"]}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads(0), "all"])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Measure one workload; print its run record and return its result."""
    run_dir = ROOT / ".perfbench_run" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    measure = measure_layers if args.trace else measure_e2e
    with Spawner() as spawner:
        bench = Bench(workloads(args.seed)[name], args.seed, run_dir, spawner)
        metrics, info = measure(bench, args.seconds)
    shutil.rmtree(run_dir, ignore_errors=True)
    info |= {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": THREADS, "nproc": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(), "numpy": np.__version__,
    }
    print(json.dumps({"run_info": info}), flush=True)
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "tabmem" / "cli.py", ROOT / "docs" / "report-schemas"):
        if not needed.exists():
            print(f"error: {needed} not found; run from a tabmem checkout", file=sys.stderr)
            return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args)))
        return 0
    # Every workload in turn; metric names get the workload as a prefix.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads(args.seed):
        result = run_workload(name, args)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
