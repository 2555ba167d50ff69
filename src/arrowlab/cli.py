"""Command-line experiment runner with reproducible, diffable output.

Every subcommand is a thin adapter over one record of
:data:`arrowlab.experiments.EXPERIMENTS`: it validates a configuration
(defaults < config file < explicit flags), runs the experiment with all
randomness derived from ``--seed``, checks the record's invariants in nats
on the named columns the run returns, picks the record's columns, in the
record's order, from them, and serializes a result record as CSV or JSON,
with each invariant's worst value, tolerance and pass/fail in the metadata.
Rows are built only where they are written: the JSON writer reads
:attr:`ResultRecord.rows`, and the CSV writer zips the formatted columns.
Metric rows are deterministic functions of the echoed configuration, so a
rerun with the same flags reproduces them byte for byte.

Exit codes: 0 success; 1 for a usage or configuration error, an input the
library rejects, or an output path that cannot be opened or written; 2 when
at least one run invariant failed its tolerance (rows are still written).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import stat
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, experiments
from .core import RNG_ALGORITHM
from .experiments import THREAD_VARIABLES, Param

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Configuration rejected; carries the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"invalid value for {key!r}: {message}")
        self.key = key


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parameter schemas
# ---------------------------------------------------------------------------

GLOBAL_PARAMS = (
    Param("seed", "int", 0, "root seed for all randomness", (0, 2**64 - 1)),
    Param("format", "choice", "csv", "output format", ("csv", "json")),
    Param("out", "str", "-", "output path, '-' for stdout"),
    Param("units", "choice", "nats", "display units for entropy-valued columns", ("nats", "bits")),
)


def _schema(experiment: str) -> tuple[Param, ...]:
    return (*experiments.EXPERIMENTS[experiment].params, *GLOBAL_PARAMS)


def _parse_value(param: Param, raw: str):
    try:
        if param.kind == "int":
            return int(raw)
        if param.kind == "float":
            return float(raw)
        if param.kind == "float_list":
            # a blank text is the empty list; an empty entry in a list is a typo
            return tuple(float(x) for x in raw.split(",")) if raw.strip() else ()
        if param.kind == "dims":
            parts = raw.lower().split("x")
            if len(parts) != 2:
                raise ValueError("expected AxB")
            return int(parts[0]), int(parts[1])
        return raw
    except ValueError:
        raise ConfigError(param.key, f"{param.rule()}, not {raw!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully defaulted parameters of one experiment run."""

    experiment: str
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]


def parse_config_text(text: str) -> dict[str, str]:
    """'key = value' lines; '#' starts a comment; blank lines ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def validate_config(experiment: str, raw_text: str = "", overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse, default and range-check one experiment configuration.

    ``raw_text`` is the optional config-file body; ``overrides`` are explicit
    flag values (highest precedence).  Unknown keys are rejected by name.
    """
    if experiment not in experiments.EXPERIMENTS:
        raise UsageError(f"unknown experiment {experiment!r}")
    schema = {p.key: p for p in _schema(experiment)}
    values = {p.key: p.default for p in schema.values()}
    for source in (parse_config_text(raw_text), overrides or {}):
        for key, raw in source.items():
            if key not in schema:
                raise ConfigError(key, f"unknown parameter for experiment {experiment!r}")
            values[key] = _parse_value(schema[key], raw)
    for param in schema.values():
        message = param.check(values[param.key])
        if message is not None:
            raise ConfigError(param.key, message)
    return ExperimentConfig(experiment=experiment, values=values)


# ---------------------------------------------------------------------------
# execution and serialization
# ---------------------------------------------------------------------------

@dataclass
class ResultRecord:
    """One run's result.  ``table`` maps each column name to a 1-D array of
    the column's cells in display units; ``columns`` and ``rows`` read it."""

    experiment: str
    config: dict
    table: dict[str, np.ndarray]
    invariant_failures: list[str]
    extra: dict = field(default_factory=dict)
    invariants: dict = field(default_factory=dict)
    duration_seconds: float = 0.0

    @property
    def columns(self) -> list[str]:
        return list(self.table)

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row, each a built-in Python value."""
        return list(zip(*(column.tolist() for column in self.table.values())))


def _table_in_bits(powers: dict[str, int], table: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: column / math.log(2.0) ** powers[name] if powers[name] else column for name, column in table.items()}


def run(config: ExperimentConfig) -> tuple[int, ResultRecord]:
    """Execute one validated configuration, check its invariants in nats
    on every column the run returns and keep the record's columns in the
    record's order; exit code 2 flags invariant failures."""
    start = time.perf_counter()
    experiment = experiments.EXPERIMENTS[config.experiment]
    columns, extra = experiment.run(config.values)
    table = {name: columns[name] for name in experiment.columns}
    invariants, failures = experiments.check_invariants(experiment, columns, extra, config.values)
    if config["units"] == "bits":
        table = _table_in_bits(experiment.columns, table)
    record = ResultRecord(
        experiment=config.experiment,
        config=dict(config.values),
        table=table,
        invariant_failures=failures,
        extra=extra,
        invariants=invariants,
        duration_seconds=time.perf_counter() - start,
    )
    return (2 if failures else 0), record


# the characters that make csv.writer quote a cell, with "\r" quoted by
# some Python versions and not by others
_CSV_QUOTED = (",", '"', "\r", "\n")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _column_text(column: np.ndarray) -> list[str]:
    """The CSV cells of one column, unquoted, by :func:`_format_cell`'s
    rules, with one call over a float or an int column and none per cell
    over a str or a bool one."""
    cells = column.tolist()
    kind = column.dtype.kind
    if kind == "f":
        return list(map(float.__repr__, cells))
    if kind == "i":
        return list(map(int.__repr__, cells))
    if kind == "U":
        return cells
    if kind == "b":
        return [("false", "true")[cell] for cell in cells]
    return list(map(_format_cell, cells))


def _config_text(param: Param, value) -> str:
    """A value in the text form its config-file line and its flag accept."""
    if param.kind == "dims":
        return "x".join(map(str, value))
    if param.kind == "float_list":
        return ",".join(map(repr, value))
    return _format_cell(value)


@functools.cache
def numerics_env() -> dict:
    """The numerics behind this process's rows, read once: numpy's version,
    the BLAS and LAPACK that numpy reports (name and version, None where it
    reports neither) and each of :data:`THREAD_VARIABLES` (None if unset)."""
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:
        # a numpy whose show_config takes no mode (1.24) names the
        # libraries in its config module's *_opt_info dicts, with no version
        deps = {}
        for lib in ("blas", "lapack"):
            names = getattr(np.__config__, f"{lib}_opt_info", {}).get("libraries", [])
            deps[lib] = {"name": ",".join(dict.fromkeys(names))}
    env = {"numpy": np.__version__}
    for lib in ("blas", "lapack"):
        info = deps.get(lib, {})
        env[lib] = " ".join(str(info[k]) for k in ("name", "version") if info.get(k)) or None
    return env | {var: os.environ.get(var) for var in THREAD_VARIABLES}


def _metadata(record: ResultRecord) -> dict:
    """The metadata that leads both output formats."""
    return {"experiment": record.experiment, "schema_version": SCHEMA_VERSION, "library_version": __version__,
            "rng_algorithm": RNG_ALGORITHM, "duration_seconds": record.duration_seconds}


def serialize_csv(record: ResultRecord) -> str:
    r"""The record as CSV: ``#`` metadata lines, then the header and the rows
    as ``csv.writer`` writes them with a ``\n`` line terminator.

    Each column is formatted once (:func:`_column_text`).  Where the table
    has more than one column and no text cell holds a character the writer
    may quote (``,``, ``"``, ``\r`` or ``\n``), no cell is quoted, so the
    body is written as one join of the cells; any other table goes through
    ``csv.writer``, whose quoting of ``\r`` differs between Python
    versions.  (A lone empty cell is quoted: hence the two columns.)"""
    buf = io.StringIO()
    for key, value in _metadata(record).items():
        buf.write(f"# {key}={_format_cell(value)}\n")
    for key, value in numerics_env().items():
        buf.write(f"# env.{key}={_format_cell(value)}\n")
    for param in _schema(record.experiment):
        buf.write(f"# config.{param.key}={_config_text(param, record.config[param.key])}\n")
    for key, value in record.extra.items():
        buf.write(f"# extra.{key}={_format_cell(value)}\n")
    for name, summary in record.invariants.items():
        for key, value in summary.items():
            buf.write(f"# invariant.{name}.{key}={_format_cell(value)}\n")
    buf.write(f"# invariant_failures={len(record.invariant_failures)}\n")
    for i, failure in enumerate(record.invariant_failures):
        buf.write(f"# failure.{i}={failure}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.table)
    texts = [_column_text(column) for column in record.table.values()]
    text_cells = "".join(
        cell for column, cells in zip(record.table.values(), texts) if column.dtype.kind not in "fi" for cell in cells
    )
    if len(texts) > 1 and not any(char in text_cells for char in _CSV_QUOTED):
        body = "\n".join(map(",".join, zip(*texts)))
        buf.write(f"{body}\n" if body else "")
    else:
        writer.writerows(zip(*texts))
    return buf.getvalue()


def _finite_or_text(value):
    """``value`` with every non-finite float in it written as CSV writes it
    (``nan``, ``inf``, ``-inf``), so that strict JSON parsers accept it."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(float(value))
    if isinstance(value, dict):
        return {key: _finite_or_text(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_text(v) for v in value]
    return value


def serialize_json(record: ResultRecord) -> str:
    payload = {
        "metadata": {
            **_metadata(record),
            "env": numerics_env(),
            # a scalar config value stays a JSON scalar
            "config": {
                p.key: _config_text(p, v) if isinstance(v := record.config[p.key], tuple) else v for p in _schema(record.experiment)
            },
            "extra": record.extra,
            "invariants": record.invariants,
            "invariant_failures": record.invariant_failures,
        },
        "columns": record.columns,
        "rows": record.rows,
    }
    return json.dumps(_finite_or_text(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise UsageError(message)


@functools.cache
def build_parser(experiment: str | None = None) -> argparse.ArgumentParser:
    """The parser of every experiment, or of ``experiment`` alone: one
    subparser parses and prints the same as it does within the full parser.

    Built once per process: parsing leaves a parser unchanged, while a
    fresh one per call is cyclic garbage that waits for the collector and
    lifts the peak memory of a process that runs many invocations."""
    parser = _Parser(prog="arrowlab", description="Entropy-balance and fluctuation experiments on small bipartite quantum systems.")
    sub = parser.add_subparsers(dest="experiment", metavar="experiment")
    for name in experiments.EXPERIMENTS if experiment is None else (experiment,):
        p = sub.add_parser(name, help=f"run the {name} experiment", description=f"Run the {name} experiment.")
        for param in _schema(name):
            rule = f"; {param.rule()}" if param.domain else ""
            text = f"{param.help}{rule} (default {_config_text(param, param.default)})"
            p.add_argument(f"--{param.key}", dest=param.key, default=None, metavar="V", help=text)
        p.add_argument("--config", dest="config", default=None, metavar="PATH", help="optional key=value config file")
    return parser


def _open_output(path: str):
    """Open the output before computing, so that an unwritable path fails
    early, but truncate nothing yet.  Returns the file and whether this call
    created it."""
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "x", encoding="utf-8"), True
    except FileExistsError:
        return open(path, "a", encoding="utf-8"), False


def _discard_output(out, created: bool) -> None:
    """After a failed run, leave the output path as it was: close the file
    and remove it if this run created it."""
    if out is sys.stdout:
        return
    try:
        out.close()
    finally:
        if created:
            os.remove(out.name)


def _write_output(out, text: str) -> None:
    """Replace a regular file's contents with the result (a device is just
    written to) and close a file output even when the write fails; a full
    device often fails only at the close, which flushes the buffer."""
    try:
        if out is not sys.stdout and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(0)
        out.write(text)
    finally:
        if out is not sys.stdout:
            out.close()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # build only the subparser dispatched to; --help, a missing or an unknown
    # subcommand need the full parser
    parser = build_parser(argv[0] if argv and argv[0] in experiments.EXPERIMENTS else None)
    try:
        args = parser.parse_args(argv)
        if args.experiment is None:
            raise UsageError("an experiment subcommand is required")
        raw_text = ""
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw_text = fh.read()
        overrides = {
            param.key: getattr(args, param.key)
            for param in _schema(args.experiment)
            if getattr(args, param.key) is not None
        }
        config = validate_config(args.experiment, raw_text, overrides)
    except (UsageError, ConfigError) as exc:
        print(f"arrowlab: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"arrowlab: error: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        out, created = _open_output(config["out"])
    except OSError as exc:
        print(f"arrowlab: error: cannot open output: {exc}", file=sys.stderr)
        return 1
    try:
        code, record = run(config)
        text = serialize_csv(record) if config["format"] == "csv" else serialize_json(record)
    except ValueError as exc:
        print(f"arrowlab: error: {exc}", file=sys.stderr)
        _discard_output(out, created)
        return 1
    except MemoryError as exc:
        # the last resort for a configuration too large for this machine
        print(f"arrowlab: error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        _discard_output(out, created)
        return 1
    try:
        _write_output(out, text)
    except OSError as exc:
        print(f"arrowlab: error: cannot write output: {exc}", file=sys.stderr)
        _discard_output(out, created)
        return 1
    for failure in record.invariant_failures:
        print(f"arrowlab: invariant failure: {failure}", file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
