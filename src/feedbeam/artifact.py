"""The artifact writer: the text of a column table (`_table`) as CSV or of a
document as JSON, written to its file atomically.

``_jsonable`` alone maps values to JSON: a dataclass as its fields, a
non-finite float as null, where CSV writes ``nan``/``inf``/``-inf``. One block
writer, `_row_blocks`, writes a column table in both formats: in CSV one line
per row, in JSON one object per row, keys sorted, indented as
``json.dumps(indent=2, sort_keys=True)`` indents it at its depth in the
document, with the same bytes. Each column gets one conversion, picked from
its dtype and the format (`_CELL`), and each block of rows is built as bytes
in numpy, with no Python string per cell or per row. Each block is then
decoded and appended to the one ``str`` of the artifact, which grows in place:
the whole text is held once, plus one block's temporaries, and never also as
bytes. `_atomic_write` writes it through a temp file and a rename, mode 0o666
less the umask, in slices that glibc reuses, as it reuses a block's memory.
Reruns with the same spec write byte-identical artifacts at any worker count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import tempfile
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import CapacityError, FeedbeamError

__all__ = ["FORMATS"]


class UnwritablePathError(FeedbeamError):
    pass


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
FORMATS = tuple(_CELL)
# Rows per CSV block of `_row_blocks`, and the span below which a bool or
# integer column gets a lookup table; the writer holds one block's cells,
# bytes and text at a time. On a 512 000-row trace, 8192 to 32768 rows wrote
# CSV equally fast; 16384 peaked 1-2 MB lower than 32768, and 8192 9 MB higher
# at one seed of six and would send a `t` of over 8192 frames to the distinct
# path. A JSON row is four times as wide, so a JSON block has a quarter of the
# rows, about a CSV block's 0.55 MB; 16384 JSON rows peaked 9 MB higher.
_BLOCK_ROWS = 16384
# Characters per slice that `_atomic_write` encodes and writes. glibc keeps
# 2^16, 64 KiB as ASCII, on the heap; 2^20 faulted 7 800 pages in anew on the
# trace CSV and took 19 ms to write it, against 6 ms.
_WRITE_CHARS = 1 << 16
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
    step = _BLOCK_ROWS // 4 if fmt == "json" else _BLOCK_ROWS
    for lo in range(0, len(rows), step):
        cells = [_cells(col[lo : lo + step], *field) for col, *field in fields]
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
