"""File formats for the command-line surface.

Tabular inputs (history, target) are comma-separated text with a header so
aggregate data stays hand-editable and auditable. Fitted models and simulation
configs are ``key = value`` text. Every command writes a JSON run manifest
next to its output recording the resolved parameters and input/output digests;
nothing in the manifest or outputs depends on wall-clock state.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import asdict
from pathlib import Path

from .core import BiasModel, DomainRecord, InvalidRecordError, TargetRecord
from .simulation import CellResult, SimConfig

TOOL_VERSION = "0.1.0"

HISTORY_COLUMNS = (
    "domain_id",
    "theta_hat",
    "theta_star_hat",
    "var_primary",
    "var_proxy",
    "cov_primary_proxy",
)
TARGET_COLUMNS = ("domain_id", "theta_star_hat", "var_proxy")

# results header: K is the domain count, n the per-domain sample size
RESULT_COLUMNS = ("kappa", "K", "n", "estimator", "adjustment", "coverage", "mean_length", "replicates")
_RESULT_FIELDS = {"K": "n_domains", "n": "n_per_domain"}

MODEL_FORMAT = "proxycal-bias-model-v1"

# Config keys that may carry comma-separated grids.
_GRID_KEYS = ("kappa", "n_domains", "n_per_domain")

_INT_KEYS = {
    "n_domains",
    "n_per_domain",
    "dim_p",
    "replicates",
    "mc_truth_samples",
    "seed",
    "bootstrap_draws",
    "workers",
}
_FLOAT_KEYS = {"kappa", "lambda1", "phi1", "lambda2", "phi2", "alpha"}
_LIST_KEYS = {"mu_target", "estimators", "adjustments"}


class SchemaError(ValueError):
    """An input file fails validation; the message locates the offense."""


def _parse_float(value: str, path: str, row: int, column: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise SchemaError(
            f"{path}: row {row}, column {column!r}: cannot parse {value!r} as a number"
        ) from None
    if not math.isfinite(number):
        raise SchemaError(f"{path}: row {row}, column {column!r}: {value!r} is not finite")
    return number


def _read_table(path: str | Path, required: tuple[str, ...]) -> tuple[list[dict], list[str], str | None]:
    """Rows, context column names (header order), and the timestamp column if any."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: file is empty")
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
        known = set(required) | {"timestamp"}
        unknown = [c for c in header if c not in known and not c.startswith("context_")]
        if unknown:
            raise SchemaError(f"{path}: unknown column(s): {', '.join(unknown)}")
        context_cols = [c for c in header if c.startswith("context_")]
        ts_col = "timestamp" if "timestamp" in header else None
        rows = list(reader)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return rows, context_cols, ts_col


def _row_extras(
    row: dict, context_cols: list[str], ts_col: str | None, path: str, rownum: int
) -> tuple[tuple[float, ...] | None, float | None]:
    context = None
    if context_cols:
        context = tuple(_parse_float(row[c], path, rownum, c) for c in context_cols)
    timestamp = None
    if ts_col is not None:
        timestamp = _parse_float(row[ts_col], path, rownum, ts_col)
    return context, timestamp


def load_history(path: str | Path) -> list[DomainRecord]:
    """Parse and validate a history table into domain records."""
    rows, context_cols, ts_col = _read_table(path, HISTORY_COLUMNS)
    records = []
    seen = set()
    for i, row in enumerate(rows, start=2):
        domain_id = row["domain_id"]
        if domain_id in seen:
            raise SchemaError(f"{path}: duplicate domain_id {domain_id!r} at row {i}")
        seen.add(domain_id)
        context, timestamp = _row_extras(row, context_cols, ts_col, str(path), i)
        # the numeric columns are named after the record fields they fill
        fields = {c: _parse_float(row[c], str(path), i, c) for c in HISTORY_COLUMNS[1:]}
        try:
            records.append(DomainRecord(domain_id, **fields, context=context, timestamp=timestamp))
        except InvalidRecordError as exc:
            raise SchemaError(f"{path}: row {i}: {exc}") from None
    return records


def load_target(path: str | Path) -> TargetRecord:
    """Parse the single-row target table."""
    rows, context_cols, ts_col = _read_table(path, TARGET_COLUMNS)
    if len(rows) != 1:
        raise SchemaError(f"{path}: expected exactly 1 target row, found {len(rows)}")
    row = rows[0]
    context, timestamp = _row_extras(row, context_cols, ts_col, str(path), 2)
    fields = {c: _parse_float(row[c], str(path), 2, c) for c in TARGET_COLUMNS[1:]}
    try:
        return TargetRecord(row["domain_id"], **fields, context=context, timestamp=timestamp)
    except InvalidRecordError as exc:
        raise SchemaError(f"{path}: row 2: {exc}") from None


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_model(path: str | Path, model: BiasModel) -> None:
    lines = [
        f"format = {MODEL_FORMAT}",
        f"rho = {model.rho!r}",
        f"gamma2 = {model.gamma2!r}",
        f"n_domains = {model.n_domains}",
        f"warnings = {','.join(model.warnings)}",
        f"diffs = {_fmt_floats(model.diffs)}",
        f"diff_vars = {_fmt_floats(model.diff_vars)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_kv(path: str | Path) -> dict[str, str]:
    pairs = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise SchemaError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise SchemaError(f"{path}: line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def load_model(path: str | Path) -> BiasModel:
    pairs = _parse_kv(path)
    if pairs.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path}: not a {MODEL_FORMAT} file")
    try:
        warnings = tuple(w for w in pairs["warnings"].split(",") if w)
        diffs = tuple(float(x) for x in pairs["diffs"].split(",") if x)
        diff_vars = tuple(float(x) for x in pairs["diff_vars"].split(",") if x)
        return BiasModel(
            rho=float(pairs["rho"]),
            gamma2=float(pairs["gamma2"]),
            n_domains=int(pairs["n_domains"]),
            diffs=diffs,
            diff_vars=diff_vars,
            warnings=warnings,
        )
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc}") from None


def load_sim_configs(path: str | Path) -> list[SimConfig]:
    """Parse a simulation config, expanding any grid keys into a cell list.

    ``kappa``, ``n_domains`` and ``n_per_domain`` accept comma-separated
    grids; the cells are emitted in deterministic product order. All cells
    share the master seed (replicate streams are keyed per replicate index).
    """
    pairs = _parse_kv(path)
    known = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise SchemaError(f"{path}: unknown config key(s): {', '.join(unknown)}")

    kwargs: dict = {}
    grids: dict[str, list] = {}
    for key, value in pairs.items():
        caster = int if key in _INT_KEYS else float
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if key in _GRID_KEYS and not parts:
            raise SchemaError(f"{path}: empty value for {key!r}")
        try:
            if key in _GRID_KEYS:
                grids[key] = [caster(p) for p in parts]
            elif key == "mu_target":
                kwargs[key] = tuple(float(p) for p in value.split(","))
            elif key in ("estimators", "adjustments"):
                kwargs[key] = tuple(parts)
            else:
                kwargs[key] = caster(value)
        except ValueError:
            raise SchemaError(f"{path}: cannot parse {key} value {value!r}") from None

    for key in _GRID_KEYS:
        if key not in grids:
            if key == "kappa":
                grids[key] = [0.0]
            else:
                raise SchemaError(f"{path}: required key {key!r} missing")

    cells = []
    try:
        for kappa, n_dom, n_per in itertools.product(
            grids["kappa"], grids["n_domains"], grids["n_per_domain"]
        ):
            cells.append(
                SimConfig(kappa=kappa, n_domains=n_dom, n_per_domain=n_per, **kwargs)
            )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return cells


def write_results(path: str | Path, cells: list[CellResult]) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for cell in cells:
            row = asdict(cell)
            values = [row[_RESULT_FIELDS.get(c, c)] for c in RESULT_COLUMNS]
            writer.writerow([repr(v) if isinstance(v, float) else v for v in values])


def file_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def manifest_path(out_path: str | Path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(
    out_path: str | Path,
    command: str,
    params: dict,
    inputs: dict[str, str | Path],
    outputs: dict[str, str | Path],
) -> Path:
    """Write the run manifest for ``out_path`` and return its location."""
    manifest = {
        "command": command,
        "version": TOOL_VERSION,
        "params": params,
        "inputs": {name: file_digest(p) for name, p in inputs.items()},
        "outputs": {name: file_digest(p) for name, p in outputs.items()},
    }
    dest = manifest_path(out_path)
    dest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return dest
