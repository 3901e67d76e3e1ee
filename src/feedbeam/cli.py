"""Command-line front end: config loading, orchestration, serialization.

An experiment is described by a JSON document::

    {
      "command": "outage",
      "config": { "M": 2, "N": 200, "P": 100.0, "N_o": 1.0, "T_f": 50,
                  "k_o": 10.0, "epsilon_o": 0.05, "delta": 0.5,
                  "seed": 42, "estimation_mode": "perfect", "trials": 100000 },
      "sweep": [50, 100, 200],        # optional list of N values
      "output_path": "outage.csv",    # optional
      "format": "csv"                 # optional, "csv" or "json"
    }

The file must be UTF-8, and unknown or repeated keys are rejected at any
level. ``--command``, ``--out``, ``--format`` and ``--seed`` override the
file. A spec checks its values when it is built, so one built in code gets
the same checks as a spec file; the flags of ``run`` check theirs the same
way. The parser only parses: the spec and ``run`` hold every valid value
and default, and ``main`` passes ``run`` only the flags given. A flag the
parser cannot read is a ``ConfigError`` too, so ``main`` returns the code of
any bad input with one JSON line on stderr and never raises; only
``--help`` exits. Results are written atomically (temp file + rename, mode
0o666 less the umask) and reruns with the same spec produce byte-identical
artifacts at any worker count.

A runner computes; it returns the column table its CSV is written from
(``_table``: names mapped to contiguous typed 1-D arrays of one length), its
JSON document and its summary lines. ``run`` alone picks the writer:
``_json_text`` of the document or ``_csv_text`` of the rows. ``_jsonable``
alone maps other values to JSON: a dataclass as its fields, a non-finite
float as null, where CSV writes ``nan``/``inf``/``-inf``. One block writer,
``_row_blocks``, writes a column table in both formats: in CSV one line per
row, in JSON one object per row, keys sorted, indented as
``json.dumps(indent=2, sort_keys=True)`` indents it at its depth in the
document, with the same bytes. Every column is a typed array, and the writer
picks one conversion per column from its dtype and the format: in CSV ``%d``
for bools and integers, ``%.17g`` for floats and text as is; in JSON
``true``/``false``, decimal integers, ``repr`` of a float or null, and
``json.dumps`` of text. Each block of rows is built as bytes in numpy, with
no Python string per cell or per row. A bool or integer column whose values
span fewer values than one block has rows is read from a lookup table that
formats each value from its minimum to its maximum once for the whole table.
Any other column formats each distinct value of a block once: only the first
row of each run of equal consecutive values is sorted and formatted, and its
cell is repeated along the run, so a trace whose gain changes only at
accepted frames formats and sorts few values. Floats are told apart by their
bits, so ``-0.0`` and ``0.0`` keep their own cells. The cells and the
constant pieces between them (a comma and a newline in CSV; keys, indents
and braces in JSON) go into one fixed-width byte matrix, and one pass per
block drops the NUL padding. So a CSV text cell that holds a NUL, or a lone
surrogate with no UTF-8 form, is refused with exit 2; JSON escapes both.
Each block is then decoded and appended to the one ``str`` of the artifact,
which grows in place: the whole text is held once, plus one block's
temporaries, and never also as bytes. A text cell that ends in NUL is
refused in both formats, since a numpy text column cannot hold it. The
columns of a per-N command are the fields of its result dataclass, in field
order, and named extras: ``slope`` after ``ProbeRow``, ``N`` and ``M``
before ``ProtocolReport`` and ``rate_assumed`` after it. JSON rows of
``outage`` add ``link``; the probe's JSON is its ``ProbeResult``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .bounds import BoundReport, epsilon_max, outage_bound
from .config import NetworkConfig
from .errors import CapacityError, ConfigError, FeedbeamError
from .markov import STATE_LIMIT, build_markov, gain_moments_exact, one_step_absorb_probability
from .outage import WEIGHTS_MODES, OutageResult, ProbeRow
from .outage import estimate_outage, interference_scaling_probe, plan_outage
from .protocol import ProtocolReport, compare_protocols, expected_interference_power
from .rng import RandomStream
from .training import ensemble_gain_stats, run_convergence

__all__ = [
    "COMMANDS", "FORMATS", "ExperimentSpec",
    "load_config", "loads_config", "serialize", "run", "main",
]

FORMATS = ("csv", "json")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN_COMMAND = 3
EXIT_UNWRITABLE = 4


class UnknownCommandError(FeedbeamError):
    pass


class UnwritablePathError(FeedbeamError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a command, its scenario, and output disposition.

    Checked when built: from a file, in code or by ``dataclasses.replace``.
    """

    command: str | None
    config: NetworkConfig
    sweep: tuple[int, ...] | None = None
    output_path: str | None = None
    format: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, NetworkConfig):
            raise ConfigError(f"config must be a NetworkConfig, got {type(self.config).__name__}")
        if self.sweep is not None:
            if not isinstance(self.sweep, (list, tuple)) or not self.sweep:
                raise ConfigError("sweep must be a nonempty list of integers")
            for n in self.sweep:
                if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                    raise ConfigError(f"sweep entries must be integers >= 1, got {n!r}")
            if len(set(self.sweep)) < len(self.sweep):
                raise ConfigError(f"sweep entries must be distinct, got {list(self.sweep)!r}")
            object.__setattr__(self, "sweep", tuple(self.sweep))
        if self.format is not None and self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.format!r}")
        # A NUL cannot be in a file name; the OS calls would raise ValueError for it.
        if self.output_path is not None and (
            not isinstance(self.output_path, str) or "\0" in self.output_path
        ):
            raise ConfigError(f"output_path must be a string with no NUL, got {self.output_path!r}")
        if self.command is None:
            return
        # Membership in the tuple, not the table: an unhashable command is unknown too.
        if self.command not in COMMANDS:
            raise UnknownCommandError(
                f"unknown command {self.command!r}; expected one of: {', '.join(COMMANDS)}"
            )
        if self.sweep is not None and not _TABLE[self.command].sweepable:
            raise ConfigError(f"command {self.command!r} does not support an N sweep")
        if self.command in ("bounds", "outage") and not self.config.epsilon_o < epsilon_max():
            raise ConfigError(
                f"epsilon_o={self.config.epsilon_o} is infeasible for command {self.command!r}: "
                f"it must be below the feasibility threshold epsilon_max() = {epsilon_max():.5f}"
            )

    def resolved(self) -> "ExperimentSpec":
        """Fill per-command defaults for format and output path."""
        if self.command is None:
            raise ConfigError("no command given (set it in the config file or with --command)")
        fmt = self.format or _TABLE[self.command].default_format
        out = self.output_path or f"{self.command}.{fmt}"
        return dataclasses.replace(self, format=fmt, output_path=out)


_TOP_LEVEL_KEYS = ("command", "config", "sweep", "output_path", "format")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a key given twice is an error, not the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def loads_config(text: str) -> ExperimentSpec:
    """Parse an experiment document (no key repeated) from JSON; the spec checks its values."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}")
    except (ValueError, RecursionError) as e:  # a repeated key, an over-long integer, deep nesting
        raise ConfigError(f"config parse error: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("experiment document must be a JSON object")
    unknown = sorted(set(doc) - set(_TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    if "config" not in doc:
        raise ConfigError("missing key: config")
    return ExperimentSpec(
        command=doc.get("command"),
        config=NetworkConfig.from_dict(doc["config"]),
        sweep=doc.get("sweep"),
        output_path=doc.get("output_path"),
        format=doc.get("format"),
    )


def load_config(path: str) -> ExperimentSpec:
    """Load an experiment spec from a JSON file (strict schema)."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path!r} is not valid UTF-8: {e}")
    return loads_config(text)


def serialize(spec: ExperimentSpec) -> str:
    """JSON text such that loads_config(serialize(spec)) == spec."""
    doc: dict[str, Any] = {"command": spec.command, "config": dataclasses.asdict(spec.config)}
    for key in ("sweep", "output_path", "format"):
        value = getattr(spec, key)
        if value is not None:
            doc[key] = list(value) if key == "sweep" else value
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# serialization helpers


# The cell conversion of each numpy dtype kind a column may have, per format.
# CSV: "%.17g" % x == format(x, ".17g") for every float, a bool is its 0/1
# and text its UTF-8 bytes. JSON: what json.dumps writes of the Python value,
# a float by repr and a non-finite one as null, a bool as true/false and text
# escaped to ASCII.
_CELL = {
    "csv": {
        "b": "%d".__mod__,
        "i": "%d".__mod__,
        "u": "%d".__mod__,
        "f": "%.17g".__mod__,
        "U": str,
    },
    "json": {
        "b": lambda v: "true" if v else "false",
        "i": "%d".__mod__,
        "u": "%d".__mod__,
        "f": lambda x: repr(x) if math.isfinite(x) else "null",
        "U": json.dumps,
    },
}
# Rows per block of `_row_blocks`, and the span below which a bool or
# integer column gets a lookup table. Beside the text, the writer holds one
# block's cells, bytes and decoded text at a time. On the 512 000 rows of a
# benchmark trace, blocks of 8192 to 32768 rows wrote CSV equally fast and
# 65536 was slower. 16384 rows peaked 1-2 MB lower than 32768 as CSV and
# about 15 MB lower as JSON, whose rows are four times wider; 8192 peaked
# 9 MB higher at one seed of six (glibc heap layout) and would send a `t`
# column of more than 8192 frames to the distinct path.
_BLOCK_ROWS = 16384
# Characters per slice of the text that `_atomic_write` encodes and writes.
_WRITE_CHARS = 1 << 20
# A NUL would go with the padding of the byte matrix, and a lone surrogate has
# no UTF-8 bytes: no CSV cell may hold either. (The patterns are compiled on
# first use, by `re`'s cache, and not at import.)
_NOT_CSV_TEXT = r"[\x00\ud800-\udfff]"
# Where json.dumps wrote the bare NaN that stands for a column table. No other
# value of a `_jsonable` document is written as NaN, and inside a string NaN is
# never followed by a raw newline or the end of the text.
_RECORDS_MARK = r"NaN(?=,?\n|\Z)"


class _Table:
    """Named columns of one length: ``table[name]`` is a contiguous typed 1-D
    array, ``names`` the column order and ``len(table)`` the row count."""

    __slots__ = ("names", "_columns")

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self.names, self._columns = tuple(columns), columns

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name]

    def __len__(self) -> int:
        return len(self._columns[self.names[0]])


def _table(columns: Sequence[str], values: Sequence[Any]) -> _Table:
    """Column table with one typed column per entry of ``values``: an array
    keeps its dtype, and a list of cells becomes the array numpy makes of it.

    A numpy text column drops a cell's trailing NULs, so a text cell that ends
    in NUL is refused rather than written short.
    """
    arrays = {}
    for name, v in zip(columns, values):
        col = np.ascontiguousarray(v)
        if col.dtype.kind == "U" and not isinstance(v, np.ndarray):
            bad = [s for s in v if isinstance(s, str) and s.endswith("\0")]
            if bad:
                raise CapacityError(
                    f"column {name!r} has a text cell ending in NUL, "
                    f"which a text column cannot hold: {bad[0]!r}"
                )
        arrays[name] = col
    if len({col.shape for col in arrays.values()}) != 1 or arrays[columns[0]].ndim != 1:
        raise ValueError(f"columns must be 1-D and of one length: {list(columns)}")
    return _Table(arrays)


def _lookup(col: np.ndarray, conversion: Callable[[Any], str]) -> tuple[np.ndarray, Any] | None:
    """The lookup table of an integer column whose values span fewer values
    than one block has rows, and its minimum; None for any other column.

    The table formats each value from the minimum to the maximum once, for
    all the column's blocks.
    """
    if col.dtype.kind not in "iu" or len(col) == 0:
        return None
    lo, hi = int(col.min()), int(col.max())
    if hi - lo >= min(len(col), _BLOCK_ROWS):
        return None
    return np.array([conversion(v).encode() for v in range(lo, hi + 1)]), col.dtype.type(lo)


def _cells(
    col: np.ndarray, conversion: Callable[[Any], str], lookup: tuple[np.ndarray, Any] | None
) -> np.ndarray:
    """The cells of one block of a column as a byte-string (`S`) array."""
    if lookup is not None:
        # Looked up at v - lo. The difference may wrap in the column's dtype,
        # but its unsigned view of the same width is exact.
        table, lo = lookup
        return table.take((col - lo).view(f"u{col.itemsize}"))
    # Each distinct value formatted once, found among the heads of the runs
    # of equal consecutive keys only. Floats are told apart by their bits, so
    # -0.0 and 0.0 keep their own cells.
    keys = col.view(f"u{col.itemsize}") if col.dtype.kind == "f" else col
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    _, first, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
    table = np.array([conversion(x).encode() for x in col[heads[first]].tolist()])
    return table.take(inverse).repeat(np.diff(heads, append=len(keys)))


def _row_blocks(
    rows: _Table, names: Sequence[str], fmt: str, pieces: Sequence[bytes]
) -> Iterator[bytearray]:
    """Each block of rows of ``rows`` as bytes, one row as ``pieces[0]``, the
    cell of ``names[0]``, ``pieces[1]``, ..., the cell of ``names[-1]``,
    ``pieces[-1]``.

    Each column's conversion, and its `_lookup` table, is picked once from its
    dtype and ``fmt``; a column of a kind without one is refused. Each block
    of rows is built as bytes: the `_cells` of every column go between the
    pieces into one fixed-width byte matrix, one matrix row per row, and one
    pass drops the NUL padding. So no cell or piece may hold a NUL byte.
    """
    fields = []
    for name in names:
        col = rows[name]
        if col.dtype.kind not in _CELL[fmt]:  # an integer beyond 64 bits makes objects
            raise CapacityError(f"column {name!r} has no {fmt.upper()} cell type: {col.dtype}")
        conversion = _CELL[fmt][col.dtype.kind]
        if col.dtype.kind == "b":  # converted as its 0 or 1
            col = col.view(np.uint8)
        fields.append((col, conversion, _lookup(col, conversion)))
    for lo in range(0, len(rows), _BLOCK_ROWS):
        cells = [_cells(col[lo : lo + _BLOCK_ROWS], *field) for col, *field in fields]
        n = len(cells[0])
        widths = [c.itemsize for c in cells]
        template = bytearray(b"".join(p + bytes(w) for p, w in zip(pieces, [*widths, 0])))
        # One row of pieces repeated n times, as fast as a fill; a broadcast
        # copy of the row into the matrix is several times slower.
        block = template * n
        start = 0
        for piece, c in zip(pieces, cells):
            start += len(piece)
            # The column of the matrix as one strided `S` array: a copy of
            # whole cells, twice as fast as a copy of a (n, itemsize) uint8 slice.
            np.ndarray((n,), c.dtype, block, start, (len(template),))[...] = c
            start += c.itemsize
        packed = block.translate(None, b"\0")
        del cells, block  # freed before the caller decodes the block
        yield packed


def _csv_text(rows: _Table) -> str:
    """CSV text of the column table ``rows``.

    A text cell that holds a NUL or has no UTF-8 form is refused.
    """
    columns = rows.names
    for name in columns:
        if rows[name].dtype.kind == "U":
            bad = [s for s in np.unique(rows[name]).tolist() if re.search(_NOT_CSV_TEXT, s)]
            if bad:
                raise CapacityError(
                    f"column {name!r} has a cell with a NUL or a lone surrogate, "
                    f"which CSV cannot hold: {bad[0]!r}"
                )
    # The text is one local `str` that each decoded block is appended to.
    # CPython grows a `str` that nothing else references in place, so the
    # artifact is held once, plus one block's temporaries. (Were another
    # reference to hold it, each `+=` would copy the whole text: quadratic in
    # the blocks. CPython 3.11 grows it in place only once it has specialized
    # the `+=`, about eight loop iterations into a process, so a first call
    # copies the text at its first few blocks.)
    text = ",".join(columns) + "\n"
    for block in _row_blocks(rows, columns, "csv", [b"", *[b","] * (len(columns) - 1), b"\n"]):
        text += block.decode()
    return text


def _record_blocks(rows: _Table, outer: str) -> Iterator[bytes | bytearray]:
    """The column table ``rows`` in blocks of bytes, as ``json.dumps(indent=2,
    sort_keys=True)`` writes a list of one object per row at the depth whose
    indent is ``outer``."""
    if len(rows) == 0:
        yield b"[]"
        return
    names = sorted(rows.names)
    item, field = outer + "  ", outer + "    "
    keys = [json.dumps(name) + ": " for name in names]
    pieces = [f"{item}{{\n{field}{keys[0]}", *(f",\n{field}{k}" for k in keys[1:])]
    pieces.append(f"\n{item}}},\n")
    yield b"[\n"
    blocks = _row_blocks(rows, names, "json", [p.encode() for p in pieces])
    last = next(blocks)
    for block in blocks:
        yield last
        last = block
    del last[-2:]  # the last object's ",\n", trimmed from the last block only
    yield last
    yield f"\n{outer}]".encode()


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _json_text(doc: Any) -> str:
    """``json.dumps(indent=2, sort_keys=True)`` of ``doc`` as `_jsonable` maps
    it, with a column table as a list of one object per row.

    json.dumps writes the document with a bare NaN in place of each column
    table, and each one's rows are then appended at its depth, which is the
    indent of the line its NaN is on.
    """
    records = []

    def mark(obj: Any) -> float:  # json.dumps calls it in the order it writes
        if not isinstance(obj, _Table):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        records.append(obj)
        return math.nan

    dumped = json.dumps(_jsonable(doc), indent=2, sort_keys=True, default=mark)
    pieces = re.split(_RECORDS_MARK, dumped)
    # One local `str` that grows in place, as in `_csv_text`.
    text = pieces[0]
    for rows, before, after in zip(records, pieces, pieces[1:]):
        line = before[before.rfind("\n") + 1 :]
        for block in _record_blocks(rows, " " * (len(line) - len(line.lstrip(" ")))):
            text += block.decode()
        text += after
    text += "\n"
    return text


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file and a rename.

    The text is encoded to UTF-8 in slices of `_WRITE_CHARS` characters, so
    no second copy of the whole artifact is held. The artifact gets the mode
    a plain ``open`` would give it, 0o666 less the umask, not the 0o600 of
    the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".feedbeam-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                os.fchmod(f.fileno(), 0o666 & ~umask)
                for start in range(0, len(text), _WRITE_CHARS):
                    f.write(text[start : start + _WRITE_CHARS].encode())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as e:
        raise UnwritablePathError(f"cannot write output file {path!r}: {e}")


# ---------------------------------------------------------------------------
# command runners: each returns the column table the CSV is written from, the
# JSON document and the summary lines; `run` picks the writer

_Result = tuple[_Table, Any, list[str]]


@dataclass(frozen=True)
class _Flags:
    """Flags beyond the spec, checked when built; each runner reads the ones it needs."""

    workers: int
    mode: str
    channel: np.ndarray | None

    def __post_init__(self) -> None:
        if isinstance(self.workers, bool) or not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigError(f"workers must be an integer >= 1, got {self.workers!r}")
        if self.mode not in WEIGHTS_MODES:
            raise ConfigError(f"mode must be one of {WEIGHTS_MODES}, got {self.mode!r}")


def _n_values(spec: ExperimentSpec) -> list[int]:
    return list(spec.sweep) if spec.sweep else [spec.config.N]


def _fields(record: type) -> list[str]:
    return [f.name for f in dataclasses.fields(record)]


def _per_n(
    spec: ExperimentSpec, columns: Sequence[str], docs: list[dict], summary: list[str]
) -> _Result:
    """One record per N: rows of ``columns``, and all fields as the JSON
    document (a list only when N is swept).
    """
    rows = _table(columns, [[d[c] for d in docs] for c in columns])
    return rows, docs[0] if spec.sweep is None else docs, summary


def _cmd_convergence(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    res = run_convergence(cfg, RandomStream(cfg.seed, "convergence"), workers=flags.workers)
    ratio = res.gain[:, :, -1].mean() / res.abs_sum.mean()
    k = res.gain.shape[2]
    summary = [
        f"convergence N={cfg.N} M={cfg.M} trials={cfg.trials} "
        f"frames={k} final_gain_ratio={ratio:.4f}"
    ]
    # Each index column in the smallest unsigned type that holds it; the trace
    # columns are the result's own arrays, not copies.
    trial, group, t = (
        np.arange(n, dtype=np.min_scalar_type(n - 1)) for n in (cfg.trials, cfg.M, k)
    )
    rows = _table(
        ("trial", "group", "t", "gain", "aligned_count", "accepted"),
        [
            np.repeat(trial, cfg.M * k),
            np.tile(np.repeat(group, k), cfg.trials),
            np.tile(t, cfg.trials * cfg.M),
            res.gain.reshape(-1),
            res.aligned_count.reshape(-1),
            res.accepted.reshape(-1),
        ],
    )
    return rows, rows, summary


def _cmd_markov_verify(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    if cfg.N > STATE_LIMIT:  # refused before h is drawn
        raise CapacityError(f"exact chain supports 1 <= N <= {STATE_LIMIT}, got N={cfg.N}")
    if flags.channel is not None:
        h = np.asarray(flags.channel, dtype=float)
        if h.size != cfg.N:
            raise ConfigError(f"--channel has {h.size} entries but config N={cfg.N}")
    else:
        h = RandomStream(cfg.seed, "markov/h").generator().standard_normal(cfg.N)
    model = build_markov(h)
    p_abs = one_step_absorb_probability(model)

    t_checks = [1, 10, 50]
    moments = [gain_moments_exact(model, t) for t in t_checks]
    exact = np.array([m[0] for m in moments])
    # True (chain-induced) Monte Carlo standard error: sample variance
    # degenerates once every trajectory is absorbed.
    errs = np.array([m[1] for m in moments]) / math.sqrt(cfg.trials)
    sim_mean = ensemble_gain_stats(
        h, t_checks, cfg, RandomStream(cfg.seed, "markov/sim"), workers=flags.workers
    )
    # An absorbing start has std 0: floor it at the rounding of a mean, as criterion 2 does.
    floor = 1e-12 * (1.0 + np.abs(exact))
    worst = float(np.max(np.abs(sim_mean - exact) / np.maximum(errs, floor)))
    summary = [
        f"markov-verify N={cfg.N} states={model.n_states} "
        f"absorbing_code={model.absorbing_index} max_dev={worst:.2f} stderr units "
        f"over t={t_checks} ({cfg.trials} trajectories)"
    ]
    rows = _table(
        ("state_code", "gain", "p_to_absorbing"), [np.arange(model.n_states), model.gains, p_abs]
    )
    doc = {
        "N": cfg.N,
        "h": h,
        "absorbing_code": model.absorbing_index,
        "start_code": model.start_index,
        "states": rows,
        "expected_gain": [
            {"t": t, "exact": exact[k], "simulated": sim_mean[k], "stderr": errs[k]}
            for k, t in enumerate(t_checks)
        ],
    }
    return rows, doc, summary


def _cmd_bounds(spec: ExperimentSpec, flags: _Flags) -> _Result:
    reports = [outage_bound(n, spec.config) for n in _n_values(spec)]
    summary = [
        f"bounds N={r.N} M={r.M} rate={r.rate:.4f} bound_finite={r.bound_finite:.4g} "
        f"bound_asymptotic={r.bound_asymptotic:.4g}"
        for r in reports
    ]
    return _per_n(spec, _fields(BoundReport), [dataclasses.asdict(r) for r in reports], summary)


def _cmd_outage(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    points = [cfg.replace(N=n) for n in _n_values(spec)]
    # Every point's bound, and so its feasibility, and its plan are settled before any draw.
    rates = [outage_bound(p.N, p).rate for p in points]
    for p in points:
        plan_outage(p, flags.mode)
    results = [
        estimate_outage(
            p, rate, flags.mode, RandomStream(cfg.seed, f"outage/N/{p.N}"), workers=flags.workers
        )
        for p, rate in zip(points, rates)
    ]
    summary = [
        f"outage N={r.N} rate={r.rate:.4f} empirical={r.outage_empirical:.6f} ("
        + (f"+-{r.stderr:.6f}, " if 0.0 < r.outage_empirical < 1.0 else "")
        + f"95% CI [{r.ci_low:.6f}, {r.ci_high:.6f}]) "
        f"bound_finite={r.bound_finite:.4g} mode={r.mode}"
        for r in results
    ]
    # By link symmetry only link 0 is ever evaluated; the JSON rows say so.
    docs = [{**dataclasses.asdict(r), "link": 0} for r in results]
    return _per_n(spec, _fields(OutageResult), docs, summary)


def _cmd_interference_probe(spec: ExperimentSpec, flags: _Flags) -> _Result:
    cfg = spec.config
    n_values = _n_values(spec)
    probe = interference_scaling_probe(
        cfg, n_values, RandomStream(cfg.seed, "probe"), workers=flags.workers
    )
    summary = [
        f"interference-probe N={r.N} trials={r.trials} mean_sq={r.mean_sq:.3f} "
        f"control_sq={r.control_sq:.3f}"
        for r in probe.rows
    ]
    summary.append(f"interference-probe slope={probe.slope:.4f} over N={n_values}")
    cells = [(*dataclasses.astuple(r), probe.slope) for r in probe.rows]
    return _table([*_fields(ProbeRow), "slope"], list(zip(*cells))), probe, summary


def _cmd_protocol_compare(spec: ExperimentSpec, flags: _Flags) -> _Result:
    if spec.config.M < 2:
        raise ConfigError("protocol-compare requires M >= 2")
    rate_assumed = 1.0  # the ordering of the two protocols does not depend on R
    docs, summary = [], []
    for n in _n_values(spec):
        cfg_n = spec.config.replace(N=n)
        report = compare_protocols(expected_interference_power(cfg_n), cfg_n, rate_assumed)
        docs.append(
            {**dataclasses.asdict(report), "N": n, "M": cfg_n.M, "rate_assumed": rate_assumed}
        )
        summary.append(
            f"protocol-compare N={n} M={cfg_n.M} sigma_I2={report.sigma_I2:.4g} "
            f"lhs={report.condition_lhs:.4g} rhs={report.condition_rhs:.4g} "
            f"modified_better={report.modified_better}"
        )
    return _per_n(spec, ["N", "M", *_fields(ProtocolReport), "rate_assumed"], docs, summary)


class _Command(NamedTuple):
    runner: Callable[[ExperimentSpec, _Flags], _Result]
    default_format: str
    # Commands whose artifact schema has no N column cannot sweep N.
    sweepable: bool


_TABLE = {
    "convergence": _Command(_cmd_convergence, "csv", False),
    "markov-verify": _Command(_cmd_markov_verify, "csv", False),
    "bounds": _Command(_cmd_bounds, "json", True),
    "outage": _Command(_cmd_outage, "csv", True),
    "interference-probe": _Command(_cmd_interference_probe, "csv", True),
    "protocol-compare": _Command(_cmd_protocol_compare, "json", True),
}
COMMANDS = tuple(_TABLE)


def run(
    spec: ExperimentSpec,
    workers: int = 1,
    mode: str = "idealized",
    channel: np.ndarray | None = None,
) -> list[str]:
    """Execute a spec, write its artifact, return the summary lines."""
    flags = _Flags(workers=workers, mode=mode, channel=channel)
    spec = spec.resolved()
    rows, doc, summary = _TABLE[spec.command].runner(spec, flags)
    _atomic_write(spec.output_path, _json_text(doc) if spec.format == "json" else _csv_text(rows))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    """Options only, each matched by its full name: a flag left out is absent
    from the namespace, and the spec and `run` check every value and hold
    every default. (argparse is imported here, so `run` alone never loads it.)"""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:  # a bad flag is a bad config, not an exit
            raise ConfigError(message)

    default = {k: v.default for k, v in inspect.signature(run).parameters.items()}
    p = _Parser(
        prog="feedbeam",
        allow_abbrev=False,
        description="Simulate and analyze 1-bit-feedback distributed beamforming networks.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--config", required=True, help="path to the experiment JSON file")
    p.add_argument("--command", help=f"override the command ({', '.join(COMMANDS)})")
    p.add_argument("--out", help="override the output path")
    p.add_argument("--format", help=f"override the output format ({', '.join(FORMATS)})")
    p.add_argument(
        "--workers", type=int, help=f"max parallel workers (default {default['workers']})"
    )
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--mode",
        help=f"outage weights mode ({', '.join(WEIGHTS_MODES)}; default {default['mode']})",
    )
    p.add_argument(
        "--channel",
        help="comma-separated channel vector for markov-verify (length must equal N)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    """Exit code of one invocation; a failure prints one JSON line on stderr. Only --help exits."""
    try:
        flags = vars(_build_parser().parse_args(argv))
        spec = load_config(flags.pop("config"))
        spec = dataclasses.replace(
            spec,
            command=flags.pop("command", spec.command),
            config=spec.config.replace(seed=flags.pop("seed", spec.config.seed)),
            output_path=flags.pop("out", spec.output_path),
            format=flags.pop("format", spec.format),
        )
        if "channel" in flags:
            try:
                flags["channel"] = np.array([float(x) for x in flags["channel"].split(",")])
            except ValueError:
                raise ConfigError(f"cannot parse --channel {flags['channel']!r}")
        # What is left are the flags of `run` that were given; it holds the defaults.
        summary = run(spec, **flags)
    except UnknownCommandError as e:
        print(json.dumps({"error": "unknown-command", "message": str(e)}), file=sys.stderr)
        return EXIT_UNKNOWN_COMMAND
    except UnwritablePathError as e:
        print(json.dumps({"error": "unwritable-path", "message": str(e)}), file=sys.stderr)
        return EXIT_UNWRITABLE
    except FeedbeamError as e:
        print(json.dumps({"error": "invalid-config", "message": str(e)}), file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # pragma: no cover - defensive
        print(json.dumps({"error": "internal", "message": str(e)}), file=sys.stderr)
        return EXIT_INTERNAL
    for line in summary:
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
