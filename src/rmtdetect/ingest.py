"""Loading measurement matrices, region partitions and window geometry.

A data source is an n x t block of real measurements (rows = nodes,
columns = samples). The sweep slices windows by their END index, so a
window ending at e covers columns [e - T + 1, e] and detection latency past
the window is zero samples. A window always spans every node of its block
(the whole source, or one region of a partition).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ContractError,
    MalformedInputError,
    ParameterError,
    UnrecoverableRowError,
)

MISSING_POLICIES = ("error", "forward-fill", "row-mean")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DataSource:
    """Immutable n x t measurement matrix with node labels; column j is sample j."""

    values: np.ndarray
    node_ids: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        n, t = self.values.shape
        if n < 2 or t < 2:
            raise ParameterError(f"ingest: data source must be at least 2x2, got {n}x{t}")
        if len(self.node_ids) != n:
            raise ContractError(f"ingest: {len(self.node_ids)} node ids for {n} rows")
        if len(set(self.node_ids)) != n:
            dup = next(nid for i, nid in enumerate(self.node_ids) if nid in self.node_ids[:i])
            raise ContractError(f"ingest: node ids must be unique; {dup!r} repeats")
        if not np.isfinite(self.values).all():
            raise ContractError("ingest: data source contains non-finite cells after load")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    def row_index(self, node_id: str) -> int:
        try:
            return self.node_ids.index(node_id)
        except ValueError:
            raise ContractError(f"ingest: unknown node id {node_id!r}") from None

    def restrict(self, node_subset: Sequence[str]) -> "DataSource":
        """New source containing only the given nodes, in the given order."""
        rows = [self.row_index(nid) for nid in node_subset]
        return DataSource(self.values[rows], tuple(node_subset))


@dataclass(frozen=True)
class RegionPartition:
    """Disjoint node groups, optionally with planar coordinates per node."""

    regions: Mapping[str, Tuple[str, ...]]
    layout: Optional[Mapping[str, Tuple[float, float]]] = None

    def __post_init__(self):
        regions = {str(k): tuple(v) for k, v in self.regions.items()}
        object.__setattr__(self, "regions", regions)
        seen = {}
        for name, nodes in regions.items():
            if not nodes:
                raise ContractError(f"ingest: region {name!r} is empty")
            for nid in nodes:
                if nid in seen:
                    raise ContractError(
                        f"ingest: node {nid!r} appears in regions {seen[nid]!r} and {name!r}"
                    )
                seen[nid] = name
        if self.layout is not None:
            layout = {str(k): (float(v[0]), float(v[1])) for k, v in self.layout.items()}
            object.__setattr__(self, "layout", layout)
            missing = [nid for nid in seen if nid not in layout]
            if missing:
                raise ContractError(
                    f"ingest: layout missing coordinates for partitioned nodes {missing[:5]}"
                )

    def region_of(self, node_id: str) -> Optional[str]:
        for name, nodes in self.regions.items():
            if node_id in nodes:
                return name
        return None


@dataclass(frozen=True)
class WindowSpec:
    """Moving split-window geometry: length T, stride, and the product
    depth L used by the ring pipeline."""

    T: int
    stride: int = 1
    L: int = 1

    def __post_init__(self):
        if self.T < 1:
            raise ParameterError(f"ingest: window length (--T) must be >= 1, got {self.T}")
        if self.stride < 1:
            raise ParameterError(f"ingest: stride (--stride) must be >= 1, got {self.stride}")
        if self.L < 1:
            raise ParameterError(f"ingest: ring product depth (--L) must be >= 1, got {self.L}")


def _parse_cell(text: str) -> float:
    """A cell is missing if blank or non-finite; otherwise a float."""
    s = text.strip()
    if not s:
        return math.nan
    try:
        v = float(s)
    except ValueError:
        raise MalformedInputError(f"ingest: unparseable cell {text!r}") from None
    return v


def load_csv(path, policy: str = "error") -> DataSource:
    """Parse a measurement CSV: first column node ids, one column per sample.

    The header row fixes the column count; its cells are labels that
    nothing reads.

    Missing/non-finite cells are resolved per ``policy``:

    * ``error``        -- any missing cell aborts the load;
    * ``forward-fill`` -- a missing cell takes its left neighbour's value;
    * ``row-mean``     -- missing cells take the mean of the row's finite cells.
    """
    if policy not in MISSING_POLICIES:
        raise ParameterError(f"ingest: unknown missing-data policy {policy!r}")
    path = Path(path)
    reader = _csv_rows(path, "ingest: data file")
    header = next(reader, None)
    if header is None:
        raise MalformedInputError(f"ingest: {path} is empty")
    if not header:
        raise MalformedInputError(f"ingest: {path} row 1: the header row has no cells")
    width = len(header) - 1
    first_row = {}  # node id -> its file row, in file order
    rows = []
    for r, rec in enumerate(reader, start=2):
        if not rec:
            continue
        nid = rec[0].strip()
        if not nid:
            raise MalformedInputError(f"ingest: {path} row {r}: blank node id")
        if nid in first_row:
            raise MalformedInputError(
                f"ingest: {path} rows {first_row[nid]} and {r}: node id {nid!r} repeats"
            )
        if len(rec) - 1 != width:
            raise MalformedInputError(
                f"ingest: {path} row {r}: {len(rec) - 1} cells, expected {width}"
            )
        try:
            # float strips whitespace itself, as _parse_cell does
            vals = np.array(list(map(float, rec[1:])))
        except ValueError:  # a blank or bad cell: parse cell by cell
            vals = np.empty(width)
            for j, cell in enumerate(rec[1:]):
                try:
                    vals[j] = _parse_cell(cell)
                except MalformedInputError as e:
                    raise MalformedInputError(f"{e} (row {r}, column {j + 2})") from None
        vals = _apply_policy(vals, nid, policy, path, r)
        first_row[nid] = r
        rows.append(vals)
    if not rows:
        raise MalformedInputError(f"ingest: {path} has no data rows")
    return DataSource(np.vstack(rows), tuple(first_row))


def _apply_policy(vals: np.ndarray, nid: str, policy: str, path, row: int) -> np.ndarray:
    missing = ~np.isfinite(vals)
    if not missing.any():
        return vals
    if missing.all():
        raise UnrecoverableRowError(f"ingest: {path} row {row} ({nid!r}): every cell missing")
    if policy == "error":
        j = int(np.argmax(missing))
        raise MalformedInputError(
            f"ingest: {path} row {row} ({nid!r}), column {j + 2}: missing cell under policy=error"
        )
    if policy == "forward-fill":
        if missing[0]:
            raise MalformedInputError(
                f"ingest: {path} row {row} ({nid!r}): leading cell missing, nothing to fill from"
            )
        out = vals.copy()
        for j in range(1, len(out)):
            if not np.isfinite(out[j]):
                out[j] = out[j - 1]
        return out
    # row-mean
    with np.errstate(over="ignore", invalid="ignore"):
        mean = vals[~missing].mean()
    if not np.isfinite(mean):
        raise MalformedInputError(
            f"ingest: {path} row {row} ({nid!r}): the mean of its finite cells overflows "
            "float64; policy=row-mean cannot fill its missing cells"
        )
    out = vals.copy()
    out[missing] = mean
    return out


def write_csv(src: DataSource, path) -> None:
    """Inverse of load_csv for complete sources."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", *range(src.t)])
        for nid, row in zip(src.node_ids, src.values):
            writer.writerow([nid, *map(repr, row.tolist())])


def _read_text(path: Path, error: type, what: str) -> str:
    """The UTF-8 text of the file at `path`; an unreadable file or a bad byte
    raises `error` naming `what`, the file and the bad byte's row."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise error(f"{what} {path}: no such file") from None
    except OSError as e:  # a directory, no permission, ...
        raise error(f"{what} {path} cannot be read: {e.strerror}") from None
    except UnicodeDecodeError as e:
        row = e.object.count(b"\n", 0, e.start) + 1
        raise error(f"{what} {path} row {row} is not UTF-8 text") from None


def _csv_rows(path: Path, what: str):
    """The rows of the CSV file at `path`, streamed; a file `_read_text` or the
    csv module rejects raises MalformedInputError naming the file and row."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            yield from reader
    except csv.Error as e:
        raise MalformedInputError(f"{what} {path} row {reader.line_num}: {e}") from None
    except (OSError, UnicodeDecodeError):
        _read_text(path, MalformedInputError, what)  # raises, naming the row of a bad byte
        raise


def _json_object(path, error: type, what: str) -> dict:
    """The JSON object the file at `path` holds. A missing or unreadable
    file, invalid JSON or any other JSON value raises `error`, naming
    `what` and the file."""
    path = Path(path)
    try:
        raw = json.loads(_read_text(path, error, what))
    except json.JSONDecodeError as e:
        raise error(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return raw


def load_partition(path) -> RegionPartition:
    """Partition file: JSON {region: [node_id, ...], "layout": {node: [x, y]}}."""
    raw = _json_object(path, MalformedInputError, "ingest: partition file")
    layout = raw.pop("layout", None)
    if layout is not None:
        if not isinstance(layout, dict):
            raise MalformedInputError(f'ingest: partition file {path}: "layout" must be an object')
        for nid, xy in layout.items():  # a pair of numbers that float64 holds finitely
            if not (isinstance(xy, list) and len(xy) == 2 and all(
                    type(v) in (int, float) and abs(v) <= sys.float_info.max for v in xy)):
                raise MalformedInputError(
                    f"ingest: partition file {path}: node {nid!r} needs an [x, y] pair of "
                    f"finite numbers, got {json.dumps(xy)}"
                )
    for name, nodes in raw.items():
        if not (isinstance(nodes, list) and all(isinstance(nid, str) for nid in nodes)):
            raise MalformedInputError(
                f"ingest: partition file {path}: region {name!r} needs a list of node ids "
                f"(strings), got {json.dumps(nodes)}"
            )
    if not raw and layout is None:
        raise MalformedInputError(f"ingest: {path} defines no regions and no layout")
    return RegionPartition(raw, layout)
