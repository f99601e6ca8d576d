"""The two benchmark workloads: inputs, CLI invocations and output checks.

Each workload joins two parts: ``audit_fidelity`` runs the audit and the
fidelity commands, ``augment_sde`` the augment and the simulate commands.
Joined, a run holds more children, so its median moves less with the shared
host's speed than one of a single part would.

Every invocation runs from the workload's run directory with relative paths,
so the ``run_config`` embedded in each report is the same in every run.
A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import gen

SCHEMA = "schema.json"
SCORE_KEYS = ("shape_score", "trend_score", "c2st_score", "alpha_precision",
              "beta_recall", "dcr_probability")
ORACLE_ROWS = 64
RATIO_TOL = 1e-12  # the M1 oracle tolerance of the acceptance suite
REPLICATION_MIN = 0.99  # T1's bound
EMIT_STEPS = 2000
EMIT_TRAJECTORIES = 32


@dataclass
class Invocation:
    args: list[str]  # tabmem argv after ``--threads N``
    outputs: list[str]  # files written, compared byte for byte across runs
    check: Callable[[Path, object], list[str]]
    reports: dict[str, str] = field(default_factory=dict)  # JSON output -> schema file


@dataclass
class Workload:
    name: str
    prepare: Callable[[int, Path], object]  # writes inputs, returns what checks need
    invocations: list[Invocation]
    n_pairs: int = 0  # synthetic x reference rows, summed: the base of pair_redundancy
    oracle: Callable[[object], None] | None = None  # untimed per-seed preparation


# --- report schemas ----------------------------------------------------------


class Schemas:
    """Validators for the report schemas in ``docs/report-schemas``."""

    def __init__(self, schema_dir: Path):
        docs = {p.name: json.loads(p.read_text()) for p in schema_dir.glob("*.schema.json")}
        registry = Registry().with_resources(
            (name, Resource.from_contents(doc)) for name, doc in docs.items())
        self.validators = {name: Draft202012Validator(doc, registry=registry)
                           for name, doc in docs.items()}

    def problems(self, path: Path, schema_file: str) -> list[str]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return [f"{path.name}: unreadable report ({exc})"]
        return [f"{path.name}: {e.message}"
                for e in self.validators[schema_file].iter_errors(payload)]


def check_invocation(inv: Invocation, run_dir: Path, inputs, schemas: Schemas) -> list[str]:
    """Schema problems of the invocation's reports, then its own check."""
    problems = []
    for report, schema_file in inv.reports.items():
        problems += schemas.problems(run_dir / report, schema_file)
    if problems:
        return problems
    try:
        return inv.check(run_dir, inputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{inv.args[0]}: malformed output ({exc!r})"]


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- audit part: audit_5kx10k ------------------------------------------------


@dataclass
class AuditInputs:
    train: gen.Rows
    syn: gen.Synthetic
    oracle_rows: np.ndarray
    oracle_ratios: np.ndarray | None = None


def prepare_audit(seed: int, run_dir: Path) -> AuditInputs:
    train, syn = gen.audit_inputs(seed)
    gen.write_rows(train, run_dir / "train.csv")
    gen.write_rows(syn.rows, run_dir / "syn.csv")
    gen.write_schema(run_dir / SCHEMA)
    rows = np.linspace(0, len(syn.rows) - 1, ORACLE_ROWS).astype(int)
    return AuditInputs(train, syn, rows)


def oracle_ratios(syn: gen.Rows, train: gen.Rows, rows: np.ndarray, block: int = 200) -> np.ndarray:
    """Distance ratios of ``syn`` rows ``rows`` by plain numpy.

    The normalizer is the min/max of raw Euclidean distances over all
    syn x train pairs, found on squared distances accumulated per column
    (sqrt is monotone, so only the two extremes need it).
    """
    lo2, hi2 = np.inf, 0.0
    for start in range(0, len(syn), block):
        q = syn.num[start:start + block]
        acc = np.zeros((q.shape[0], len(train)))
        for j in range(q.shape[1]):
            d = q[:, j:j + 1] - train.num[None, :, j]
            acc += d * d
        lo2, hi2 = min(lo2, acc.min()), max(hi2, acc.max())
    d_min, d_max = np.sqrt(lo2), np.sqrt(hi2)
    n_features = syn.num.shape[1] + syn.cat.shape[1]
    raw = np.sqrt(((syn.num[rows][:, None, :] - train.num[None, :, :]) ** 2).sum(axis=-1))
    numeric = np.zeros_like(raw) if d_max == d_min else np.clip((raw - d_min) / (d_max - d_min), 0, 1)
    hamming = (syn.cat[rows][:, None, :] != train.cat[None, :, :]).sum(axis=-1)
    dist = np.sort((numeric + hamming) / n_features, axis=1)
    d1, d2 = dist[:, 0], dist[:, 1]
    return np.where(d2 == 0.0, 0.0, d1 / np.where(d2 == 0.0, 1.0, d2))


def _audit_oracle(inputs: AuditInputs) -> None:
    inputs.oracle_ratios = oracle_ratios(inputs.syn.rows, inputs.train, inputs.oracle_rows)


def check_audit(run_dir: Path, inputs: AuditInputs) -> list[str]:
    report = _load_json(run_dir / "audit.json")
    ratios = np.asarray(report["ratios"], dtype=np.float64)
    problems = []
    if ratios.shape != (len(inputs.syn.rows),):
        return [f"audit: {ratios.size} ratios for {len(inputs.syn.rows)} synthetic rows"]
    bad = np.flatnonzero(ratios[inputs.syn.exact] != 0.0)
    if bad.size:
        problems.append(f"audit: {bad.size} planted exact copies have a nonzero ratio")
    if abs(report["mem_auc"] - float(np.mean(1.0 - ratios))) > 1e-12:
        problems.append("audit: mem_auc differs from mean(1 - ratios)")
    err = np.abs(ratios[inputs.oracle_rows] - inputs.oracle_ratios)
    if not (err <= RATIO_TOL).all():
        problems.append(f"audit: ratios differ from the numpy oracle by up to {err.max():.3g}")
    return problems


# --- fidelity part: fidelity_2k ----------------------------------------------


def prepare_fidelity(seed: int, run_dir: Path) -> None:
    real, syn, holdout = gen.fidelity_inputs(seed)
    gen.write_rows(real, run_dir / "real.csv")
    gen.write_rows(syn.rows, run_dir / "fidelity_syn.csv")
    gen.write_rows(holdout, run_dir / "holdout.csv")
    gen.write_schema(run_dir / SCHEMA)


def check_fidelity(run_dir: Path, _inputs) -> list[str]:
    report = _load_json(run_dir / "fidelity.json")
    problems = [f"fidelity: {k} = {report.get(k)!r} outside [0, 1]"
                for k in SCORE_KEYS if not 0.0 <= report.get(k, -1.0) <= 1.0]
    if not report.get("dcr_probability", 0.0) > 0.5:
        problems.append(f"fidelity: dcr_probability {report.get('dcr_probability')!r} <= 0.5")
    return problems


# --- augment part: augment_20k -----------------------------------------------


def prepare_augment(seed: int, run_dir: Path) -> gen.Rows:
    train = gen.augment_inputs(seed)
    gen.write_rows(train, run_dir / "train.csv")
    gen.write_schema(run_dir / SCHEMA)
    return train


def check_augmented(name: str, run_dir: Path, train: gen.Rows) -> list[str]:
    """2n rows, the input first, then rows of known labels and categories."""
    with open(run_dir / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n, n_num = len(train), train.num.shape[1]
    if header != list(gen.NUM_NAMES + gen.CAT_NAMES + (gen.TARGET,)):
        return [f"{name}: unexpected header {header}"]
    if len(body) != 2 * n:
        return [f"{name}: {len(body)} rows, expected {2 * n}"]
    problems = []
    num = np.asarray([r[:n_num] for r in body], dtype=np.float64)
    text = np.asarray([r[n_num:] for r in body])
    if not (np.array_equal(num[:n], train.num) and np.array_equal(text[:n, :-1], train.cat)
            and np.array_equal(text[:n, -1], train.label)):
        problems.append(f"{name}: the first {n} rows differ from the input")
    if not np.isin(text[n:, -1], np.unique(train.label)).all():
        problems.append(f"{name}: a new row has a label not in the train table")
    for j in range(train.cat.shape[1]):
        if not np.isin(text[n:, j], np.unique(train.cat[:, j])).all():
            problems.append(f"{name}: a new row has a category unseen in column {gen.CAT_NAMES[j]}")
    return problems


# --- sde part: sde_replicate -------------------------------------------------


def prepare_sde(seed: int, run_dir: Path) -> np.ndarray:
    """No files: the inputs are the CLI's latents, drawn from ``--seed``."""
    return np.random.default_rng(seed).standard_normal((16, 2))


def check_replication(run_dir: Path, _latents) -> list[str]:
    fraction = _load_json(run_dir / "simulate.json")["replication_fraction"]
    if fraction < REPLICATION_MIN:
        return [f"simulate: replication_fraction {fraction} < {REPLICATION_MIN}"]
    return []


def check_trajectories(run_dir: Path, latents: np.ndarray) -> list[str]:
    with open(run_dir / "trajectories.csv", newline="", encoding="utf-8") as fh:
        body = list(csv.reader(fh))[1:]
    expected = EMIT_TRAJECTORIES * (EMIT_STEPS + 1)
    if len(body) != expected:
        return [f"trajectories.csv: {len(body)} rows, expected {expected}"]
    ends = np.asarray([r[3:] for r in body[EMIT_STEPS::EMIT_STEPS + 1]], dtype=np.float64)
    on_latent = (ends[:, None, :] == latents[None, :, :]).all(axis=-1).any(axis=1)
    if not on_latent.all():
        return [f"trajectories.csv: {np.count_nonzero(~on_latent)} trajectories end off the latents"]
    return []


def _part_check(index: int, check: Callable, run_dir: Path, inputs: list) -> list[str]:
    return check(run_dir, inputs[index])


def join(name: str, *parts: Workload) -> Workload:
    """One workload that runs the parts' commands in turn in one directory;
    their input and output files must not share names."""

    def prepare(seed: int, run_dir: Path) -> list:
        return [part.prepare(seed, run_dir) for part in parts]

    def oracle(inputs: list) -> None:
        for part, part_inputs in zip(parts, inputs):
            if part.oracle:
                part.oracle(part_inputs)

    return Workload(
        name=name,
        prepare=prepare,
        invocations=[replace(inv, check=partial(_part_check, i, inv.check))
                     for i, part in enumerate(parts) for inv in part.invocations],
        n_pairs=sum(part.n_pairs for part in parts),
        oracle=oracle,
    )


def workloads(seed: int) -> dict[str, Workload]:
    audit_files = ["--train", "train.csv", "--synthetic", "syn.csv", "--schema", SCHEMA]
    aug = ["augment", "--train", "train.csv", "--schema", SCHEMA, "--ratio", "1.0", "--seed", "7"]
    audit, fidelity, augment, sde = [
        Workload(
            name="audit_5kx10k",
            prepare=prepare_audit,
            invocations=[Invocation(["audit", *audit_files, "--out", "audit.json"],
                                    ["audit.json"], check_audit,
                                    {"audit.json": "audit.schema.json"})],
            n_pairs=5000 * 10_000,
            oracle=_audit_oracle,
        ),
        Workload(
            name="fidelity_2k",
            prepare=prepare_fidelity,
            invocations=[Invocation(
                ["fidelity", "--real", "real.csv", "--synthetic", "fidelity_syn.csv", "--holdout",
                 "holdout.csv", "--schema", SCHEMA, "--out", "fidelity.json"],
                ["fidelity.json"], check_fidelity,
                {"fidelity.json": "fidelity.schema.json"})],
            n_pairs=2000 * 2000,
        ),
        Workload(
            name="augment_20k",
            prepare=prepare_augment,
            invocations=[
                Invocation([*aug, "--mode", "cutmixplus", "--out", "cutmixplus.csv"],
                           ["cutmixplus.csv", "cutmixplus.csv.json"],
                           partial(check_augmented, "cutmixplus.csv"),
                           {"cutmixplus.csv.json": "augment.schema.json"}),
                Invocation([*aug, "--mode", "ijf", "--out", "ijf.csv"],
                           ["ijf.csv", "ijf.csv.json"],
                           partial(check_augmented, "ijf.csv"),
                           {"ijf.csv.json": "augment.schema.json"}),
            ],
        ),
        Workload(
            name="sde_replicate",
            prepare=prepare_sde,
            invocations=[
                Invocation(["simulate", "--seed", str(seed), "--out", "simulate.json"],
                           ["simulate.json"], check_replication,
                           {"simulate.json": "simulate.schema.json"}),
                Invocation(["simulate", "--seed", str(seed), "--steps", str(EMIT_STEPS),
                            "--trajectories", str(EMIT_TRAJECTORIES),
                            "--emit-trajectories", "trajectories.csv", "--out", "emit.json"],
                           ["emit.json", "trajectories.csv"], check_trajectories,
                           {"emit.json": "simulate.schema.json"}),
            ],
        ),
    ]
    return {w.name: w for w in [join("audit_fidelity", audit, fidelity),
                                join("augment_sde", augment, sde)]}
