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
    """Immutable n x t measurement matrix with node labels and timestamps."""

    values: np.ndarray
    node_ids: Tuple[str, ...]
    timestamps: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=float)))
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        object.__setattr__(self, "timestamps", tuple(int(x) for x in self.timestamps))
        n, t = self.values.shape
        if n < 2 or t < 2:
            raise ParameterError(f"ingest: data source must be at least 2x2, got {n}x{t}")
        if len(self.node_ids) != n:
            raise ContractError(f"ingest: {len(self.node_ids)} node ids for {n} rows")
        if len(self.timestamps) != t:
            raise ContractError(f"ingest: {len(self.timestamps)} timestamps for {t} columns")
        if len(set(self.node_ids)) != n:
            raise ContractError("ingest: node ids must be unique")
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
        return DataSource(self.values[rows], tuple(node_subset), self.timestamps)


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
            raise ParameterError(f"ingest: window length must be >= 1, got {self.T}")
        if self.stride < 1:
            raise ParameterError(f"ingest: stride must be >= 1, got {self.stride}")
        if self.L < 1:
            raise ParameterError(f"ingest: product depth must be >= 1, got {self.L}")


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
    """Parse a measurement CSV: header row of timestamps, first column node ids.

    Missing/non-finite cells are resolved per ``policy``:

    * ``error``        -- any missing cell aborts the load;
    * ``forward-fill`` -- a missing cell takes its left neighbour's value;
    * ``row-mean``     -- missing cells take the mean of the row's finite cells.
    """
    if policy not in MISSING_POLICIES:
        raise ParameterError(f"ingest: unknown missing-data policy {policy!r}")
    path = Path(path)
    if not path.exists():
        raise MalformedInputError(f"ingest: no such file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInputError(f"ingest: {path} is empty") from None
        try:
            timestamps = [int(float(x)) for x in header[1:]]
        except ValueError:
            raise MalformedInputError(f"ingest: {path} header is not numeric timestamps") from None
        node_ids = []
        rows = []
        for r, rec in enumerate(reader, start=2):
            if not rec:
                continue
            nid = rec[0].strip()
            if not nid:
                raise MalformedInputError(f"ingest: {path} row {r}: blank node id")
            if len(rec) - 1 != len(timestamps):
                raise MalformedInputError(
                    f"ingest: {path} row {r}: {len(rec) - 1} cells, expected {len(timestamps)}"
                )
            try:
                # float strips whitespace itself, as _parse_cell does
                vals = np.array(list(map(float, rec[1:])))
            except ValueError:  # a blank or bad cell: parse cell by cell
                vals = np.empty(len(timestamps))
                for j, cell in enumerate(rec[1:]):
                    try:
                        vals[j] = _parse_cell(cell)
                    except MalformedInputError as e:
                        raise MalformedInputError(f"{e} (row {r}, column {j + 2})") from None
            vals = _apply_policy(vals, nid, policy, path, r)
            node_ids.append(nid)
            rows.append(vals)
    if not rows:
        raise MalformedInputError(f"ingest: {path} has no data rows")
    return DataSource(np.vstack(rows), tuple(node_ids), tuple(timestamps))


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
        writer.writerow(["node_id", *src.timestamps])
        for nid, row in zip(src.node_ids, src.values):
            writer.writerow([nid, *map(repr, row.tolist())])


def load_partition(path) -> RegionPartition:
    """Partition file: JSON {region: [node_id, ...], "layout": {node: [x, y]}}."""
    path = Path(path)
    if not path.exists():
        raise MalformedInputError(f"ingest: no such file: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise MalformedInputError(f"ingest: {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise MalformedInputError(f"ingest: {path} must hold a JSON object")
    layout = raw.pop("layout", None)
    if layout is not None:
        layout = {k: (float(v[0]), float(v[1])) for k, v in layout.items()}
    regions = {name: tuple(nodes) for name, nodes in raw.items()}
    if not regions and layout is None:
        raise MalformedInputError(f"ingest: {path} defines no regions and no layout")
    return RegionPartition(regions, layout)
