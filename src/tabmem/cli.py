"""Command-line front end: audit, augment, fidelity, cluster, simulate.

Every command emits machine-readable JSON that embeds the fully resolved
run configuration; re-running a command from that configuration reproduces
its outputs byte for byte. Exit code 2 flags usage errors (bad flags or
flag values outside the library's ranges, missing input files), 1 flags data
errors, 0 success.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import memorization
from .association import DEFAULT_CLUSTER_THRESHOLD, association_matrix, cluster_features
from .augment import DEFAULT_RATIO, MAX_RATIO, AugmentConfig, AugmentMode, augment as run_augment
from .errors import NonFiniteValueError, TabmemError
from .fidelity import full_report
from .parallel import resolve_threads
from .scorelab import LatentSet, SdeConfig, SigmaSchedule, run_replication
from .table import load_csv, load_schema, write_csv


def _dump_json(obj: dict, path: str | None) -> str:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteValueError(f"refusing to write a non-finite value: {exc}") from exc
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _require_files(*paths: str | None) -> None:
    for p in paths:
        if p is not None and not Path(p).is_file():
            raise _UsageError(f"input file not found: {p}")


class _UsageError(Exception):
    pass


def _run_config(args: argparse.Namespace) -> dict:
    """The resolved flags of a command, which replay it; display flags are left out."""
    return {k: v for k, v in vars(args).items() if k not in ("handler", "pretty")}


def _checked(convert, accept, requirement: str):
    """An argparse type that converts the text and requires ``accept`` (which NaN fails)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    return parse


# The ranges the library enforces, checked before any input is read.
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_seed = _checked(int, lambda v: v >= 0, "an integer >= 0")
_ratio_threshold = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_unit_interval = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_ratio = _checked(float, lambda v: 0.0 <= v <= MAX_RATIO, f"a number in [0, {MAX_RATIO:g}]")


def _cmd_audit(args: argparse.Namespace) -> int:
    _require_files(args.train, args.synthetic, args.schema)
    schema = load_schema(args.schema)
    train = load_csv(args.train, schema)
    synthetic = load_csv(args.synthetic, schema)
    report = memorization.audit(
        synthetic, train, threshold=args.threshold, bins=args.bins, threads=args.threads
    )
    payload = report.to_dict()
    payload["run_config"] = _run_config(args)
    _dump_json(payload, args.out)
    if args.histogram_csv:
        report.write_histogram_csv(args.histogram_csv)
    print(f"mem_ratio {report.mem_ratio * 100:.2f}%")
    print(f"mem_auc {report.mem_auc:.6f}")
    if args.pretty:
        print(f"  samples: {len(report.ratios)}  threshold: {report.threshold}")
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    _require_files(args.train, args.schema)
    schema = load_schema(args.schema)
    train = load_csv(args.train, schema)
    config = AugmentConfig(
        mode=AugmentMode(args.mode),
        ratio=args.ratio,
        seed=args.seed,
        cluster_threshold=args.cluster_threshold,
    )
    augmented = run_augment(train, config, threads=args.threads)
    write_csv(augmented, args.out)
    _dump_json(
        {
            "run_config": _run_config(args),
            "rows_in": train.n_rows,
            "rows_out": augmented.n_rows,
        },
        args.out + ".json",
    )
    print(f"augmented {train.n_rows} -> {augmented.n_rows} rows ({args.mode})")
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    _require_files(args.real, args.synthetic, args.schema, args.holdout)
    schema = load_schema(args.schema)
    real = load_csv(args.real, schema)
    synthetic = load_csv(args.synthetic, schema)
    holdout = load_csv(args.holdout, schema) if args.holdout else None
    report = full_report(real, synthetic, holdout=holdout, seed=args.seed, threads=args.threads)
    payload = report.to_dict()
    payload["run_config"] = _run_config(args)
    _dump_json(payload, args.out)
    if args.pretty:
        for key, value in sorted(report.to_dict().items()):
            print(f"{key} {value:.4f}")
    else:
        print(f"shape_score {report.shape_score:.4f} trend_score {report.trend_score:.4f}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    _require_files(args.train, args.schema)
    schema = load_schema(args.schema)
    train = load_csv(args.train, schema)
    assoc = association_matrix(train, eta_mapping=args.eta_mapping)
    clusters = cluster_features(assoc, args.threshold)
    payload = {
        "clusters": clusters.member_names(schema.feature_names),
        "threshold": args.threshold,
        "run_config": _run_config(args),
    }
    print(_dump_json(payload, args.out), end="")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    latents = LatentSet(
        np.random.default_rng(args.seed).standard_normal((args.n_latents, args.dim))
    )
    schedule = SigmaSchedule(horizon=args.horizon)
    config = SdeConfig(steps=args.steps, seed=args.seed, trajectories=args.trajectories)
    emit = bool(args.emit_trajectories)
    outcome = run_replication(
        latents, schedule, config, tolerance=args.tolerance, return_trajectories=emit
    )
    result, paths = outcome if emit else (outcome, None)
    payload = result.to_dict()
    payload["run_config"] = _run_config(args)
    text = _dump_json(payload, args.out)
    print(text, end="")

    if emit:
        # The state at step k sits at grid time times[steps - k]; the last is t = 0.
        times = np.linspace(0.0, args.horizon, args.steps + 1)[::-1].tolist()
        with open(args.emit_trajectories, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["trajectory", "step", "t"] + [f"x{i}" for i in range(args.dim)])
            for j, path in enumerate(paths):
                writer.writerows(
                    [j, k, t, *state] for k, (t, state) in enumerate(zip(times, path.tolist()))
                )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabmem",
        description="Memorization auditing and augmentation toolkit for synthetic tabular data.",
    )
    parser.add_argument(
        "--threads",
        type=_positive_int,
        default=None,
        help="worker cap (default: $TABMEM_THREADS or all cores); results do not depend on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("audit", help="memorization audit of synthetic vs train data")
    p.add_argument("--train", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--threshold", type=_ratio_threshold, default=memorization.DEFAULT_THRESHOLD)
    p.add_argument("--bins", type=_positive_int, default=memorization.DEFAULT_BINS)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--histogram-csv", default=None, help="optional (bin_left, count) CSV")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("augment", help="augment a training table")
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--mode", choices=[m.value for m in AugmentMode], required=True)
    p.add_argument("--ratio", type=_ratio, default=DEFAULT_RATIO)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--cluster-threshold", type=_unit_interval, default=DEFAULT_CLUSTER_THRESHOLD)
    p.add_argument("--out", required=True, help="augmented CSV path")
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("fidelity", help="synthetic-data quality report")
    p.add_argument("--real", required=True)
    p.add_argument("--synthetic", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--holdout", default=None, help="enables the DCR protocol")
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_fidelity)

    p = sub.add_parser("cluster", help="inspect correlation-based feature clusters")
    p.add_argument("--train", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--threshold", type=_unit_interval, default=DEFAULT_CLUSTER_THRESHOLD)
    p.add_argument("--eta-mapping", choices=["sqrt", "squared"], default="sqrt")
    p.add_argument("--out", default=None, help="optional JSON path (also printed)")
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("simulate", help="replication check for the optimal-score SDE")
    p.add_argument("--n-latents", type=_positive_int, default=16)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--steps", type=_positive_int, default=10_000)
    p.add_argument("--trajectories", type=_positive_int, default=256)
    p.add_argument("--seed", type=_seed, default=1)
    p.add_argument("--horizon", type=_positive, default=1.0)
    p.add_argument("--tolerance", type=_positive, default=1e-2)
    p.add_argument("--out", default=None, help="optional JSON path (also printed)")
    p.add_argument("--emit-trajectories", default=None, help="optional per-step CSV path")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def argv_from_run_config(run_config: dict) -> list[str]:
    """Rebuild the argv that reproduces a report's embedded run configuration."""
    argv = ["--threads", str(run_config["threads"]), run_config["command"]]
    skip = {"command", "threads"}
    for key, value in run_config.items():
        if key in skip or value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = resolve_threads(args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TabmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
