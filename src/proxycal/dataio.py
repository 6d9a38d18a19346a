"""File formats for the command-line surface.

Tabular inputs (history, target) are comma-separated text with a header so
aggregate data stays hand-editable and auditable. Fitted models, simulation
configs and the ``adjust`` and ``tune-context`` outputs are ``key = value``
text. Every command writes a JSON run manifest
next to its output recording the resolved parameters and input/output digests;
nothing in the manifest or outputs depends on wall-clock state.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, get_type_hints

import numpy as np

from .core import BiasModel, DomainRecord, InvalidRecordError, TargetRecord, _bias_model, _check_fit

if TYPE_CHECKING:  # the simulator is imported only inside load_sim_configs
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


def _utf8_lines(path: str | Path):
    """Lines, endings kept, of a UTF-8 text file whatever the locale; a leading BOM is dropped."""
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None


def _read_records(path: str | Path, required: tuple[str, ...], record_type) -> list:
    """One ``record_type`` per data row of a validated table.

    ``required`` starts with ``domain_id``; every other column is numeric and
    the required ones are named after the record fields they fill. Blank lines
    are skipped, and a row is named by its line number in the file.
    """
    reader = csv.reader(_utf8_lines(path))
    header = next(reader, None)
    if header is None:
        raise SchemaError(f"{path}: file is empty")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SchemaError(f"{path}: repeated column name(s) in header: {', '.join(repeated)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{path}: missing required column(s): {', '.join(missing)}")
    known = set(required) | {"timestamp"}
    unknown = [c for c in header if c not in known and not c.startswith("context_")]
    if unknown:
        raise SchemaError(f"{path}: unknown column(s): {', '.join(unknown)}")
    id_col = header.index("domain_id")
    context_cols = [c for c in header if c.startswith("context_")]
    records, seen = [], set()
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {line}: {len(row)} field(s), but the header has {len(header)}"
            )
        values = {c: _parse_float(v, str(path), line, c)
                  for c, v in zip(header, row) if c != "domain_id"}
        context = tuple(values.pop(c) for c in context_cols) if context_cols else None
        timestamp = values.pop("timestamp", None)
        try:
            record = record_type(row[id_col], **values, context=context, timestamp=timestamp)
        except InvalidRecordError as exc:
            raise SchemaError(f"{path}: row {line}: {exc}") from None
        if record.domain_id in seen:
            raise SchemaError(f"{path}: duplicate domain_id {record.domain_id!r} at row {line}")
        seen.add(record.domain_id)
        records.append(record)
    if not records:
        raise SchemaError(f"{path}: no data rows")
    return records


def load_history(path: str | Path) -> list[DomainRecord]:
    """Parse and validate a history table into domain records."""
    return _read_records(path, HISTORY_COLUMNS, DomainRecord)


def load_target(path: str | Path) -> TargetRecord:
    """Parse the single-row target table."""
    records = _read_records(path, TARGET_COLUMNS, TargetRecord)
    if len(records) != 1:
        raise SchemaError(f"{path}: expected exactly 1 target row, found {len(records)}")
    return records[0]


def _fmt_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_model(path: str | Path, model: BiasModel) -> None:
    write_kv(path, {
        "format": MODEL_FORMAT,
        "rho": model.rho,
        "gamma2": model.gamma2,
        "n_domains": model.n_domains,
        "warnings": ",".join(model.warnings),
        "diffs": model.diffs,
        "diff_vars": model.diff_vars,
    })


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (tuple, list)):
        return _fmt_floats(value)
    return str(value)


def write_kv(path: str | Path, pairs: dict) -> list[str]:
    """Write ``key = value`` lines and return them.

    Floats are written at round-trip precision, tuples and lists as
    comma-separated floats, anything else as its ``str``.
    """
    lines = [f"{key} = {_fmt_value(value)}" for key, value in pairs.items()]
    Path(path).write_text("\n".join(lines) + "\n")
    return lines


def _parse_kv(path: str | Path) -> dict[str, str]:
    pairs = {}
    for lineno, line in enumerate("".join(_utf8_lines(path)).splitlines(), start=1):
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
    """The moment fit of a model file's ``diffs`` and ``diff_vars``.

    The file holds exactly the keys that :func:`write_model` writes, and the
    stored ``rho``, ``gamma2``, ``n_domains`` and ``warnings`` must equal that
    refit exactly, as they do in every file it writes.
    """
    pairs = _parse_kv(path)
    if pairs.get("format") != MODEL_FORMAT:
        raise SchemaError(f"{path}: not a {MODEL_FORMAT} file")
    known = {"format", "rho", "gamma2", "n_domains", "warnings", "diffs", "diff_vars"}
    unknown = sorted(set(pairs) - known)
    if unknown:
        raise SchemaError(f"{path}: unknown model key(s): {', '.join(unknown)}")
    try:
        stored = {
            "rho": float(pairs["rho"]),
            "gamma2": float(pairs["gamma2"]),
            "n_domains": int(pairs["n_domains"]),
            "warnings": tuple(w for w in pairs["warnings"].split(",") if w),
        }
        diffs = tuple(float(x) for x in pairs["diffs"].split(",") if x)
        diff_vars = tuple(float(x) for x in pairs["diff_vars"].split(",") if x)
        if not all(map(math.isfinite, diffs)):
            raise ValueError(f"diffs must be finite, got {pairs['diffs']!r}")
        if not all(math.isfinite(v) and v >= 0 for v in diff_vars):
            raise ValueError(f"diff_vars must be finite and >= 0, got {pairs['diff_vars']!r}")
        _check_fit(stored["rho"], stored["gamma2"])
        if not diffs:
            raise ValueError("diffs must be non-empty")
        model = _bias_model(np.array(diffs), np.array(diff_vars))
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc}") from None
    for key, value in stored.items():
        if getattr(model, key) != value:
            raise SchemaError(f"{path}: stored {key} = {pairs[key]!r}, but the fit of its "
                              f"diffs and diff_vars gives {getattr(model, key)!r}")
    return model


# Parser of a config value, by the type of its SimConfig field.
_CONFIG_PARSERS = {
    int: int,
    float: float,
    tuple[float, ...]: lambda value: tuple(float(p) for p in value.split(",")),
    tuple[str, ...]: lambda value: tuple(p.strip() for p in value.split(",") if p.strip()),
}


def load_sim_configs(path: str | Path) -> list[SimConfig]:
    """Parse a simulation config, expanding any grid keys into a cell list.

    The keys are the ``SimConfig`` fields: a field without a default is
    required, any other omitted key takes its default. ``kappa``,
    ``n_domains`` and ``n_per_domain`` accept
    comma-separated grids; the cells are emitted in deterministic product
    order. All cells share the master seed (replicate streams are keyed per
    replicate index).
    """
    from .simulation import SimConfig

    pairs = _parse_kv(path)
    defaults = {f.name: f.default for f in fields(SimConfig)}
    unknown = sorted(set(pairs) - set(defaults))
    if unknown:
        raise SchemaError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    for key, default in defaults.items():
        if default is MISSING and key not in pairs:
            raise SchemaError(f"{path}: required key {key!r} missing")

    types = get_type_hints(SimConfig)
    kwargs: dict = {}
    for key, value in pairs.items():
        parse = _CONFIG_PARSERS[types[key]]
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if key in _GRID_KEYS and not parts:
            raise SchemaError(f"{path}: empty value for {key!r}")
        try:
            kwargs[key] = [parse(p) for p in parts] if key in _GRID_KEYS else parse(value)
        except ValueError:
            raise SchemaError(f"{path}: cannot parse {key} value {value!r}") from None

    grids = [kwargs.pop(key, [defaults[key]]) for key in _GRID_KEYS]
    cells = []
    try:
        for cell in itertools.product(*grids):
            cells.append(SimConfig(**dict(zip(_GRID_KEYS, cell)), **kwargs))
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
            writer.writerow([_fmt_value(v) for v in values])


def write_loo_table(path: str | Path, rows: list[tuple[float, str, float, float]]) -> None:
    """Write ``(alpha, method, overlap_rate, normalized_width)`` rows as CSV."""
    with Path(path).open("w", newline="") as fh:
        fh.write("alpha,method,overlap_rate,normalized_width\n")
        for alpha, method, rate, width in rows:
            fh.write(f"{alpha!r},{method},{rate!r},{width!r}\n")


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
