"""Directed multigraph storage and degree statistics.

Graphs are stored in in-adjacency (CSR-like) form because the score
iteration gathers over incoming edges.  Multi-edges and self-loops are
ordinary edges: every parallel edge contributes to both the source's
out-degree and the destination's in-list.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_ID_MAX = np.iinfo(np.int64).max


class EdgeListParseError(ValueError):
    """A line of an edge-list file could not be parsed."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed multigraph with dense node ids 0..n-1.

    ``in_src[in_ptr[i]:in_ptr[i+1]]`` lists the source of every edge into
    node i, with multiplicity.  ``out_deg[j]`` counts outgoing edges of j
    (multiplicity included); nodes with ``out_deg == 0`` are dangling.
    ``orig_ids`` maps dense ids back to the ids found in the input.
    """

    n: int
    m: int
    in_ptr: np.ndarray
    in_src: np.ndarray
    out_deg: np.ndarray
    orig_ids: np.ndarray

    def __post_init__(self):
        for arr in (self.in_ptr, self.in_src, self.out_deg, self.orig_ids):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, src, dst, n: int, orig_ids=None) -> "Graph":
        """Build a graph from parallel source/destination arrays of dense ids."""
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        m = int(src.size)
        if m and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError("node ids must lie in [0, n)")
        order = np.argsort(dst, kind="stable")  # group in-edges by destination
        in_src = src[order]
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=in_ptr[1:])
        out_deg = np.bincount(src, minlength=n).astype(np.int64)
        if orig_ids is None:
            orig_ids = np.arange(n, dtype=np.int64)
        return cls(n=n, m=m, in_ptr=in_ptr, in_src=in_src,
                   out_deg=out_deg, orig_ids=np.asarray(orig_ids, dtype=np.int64))

    def in_neighbors(self, i: int) -> np.ndarray:
        return self.in_src[self.in_ptr[i]:self.in_ptr[i + 1]]

    @property
    def in_deg(self) -> np.ndarray:
        return np.diff(self.in_ptr)

    @property
    def dangling(self) -> np.ndarray:
        """Boolean mask of nodes with no outgoing edges."""
        return self.out_deg == 0

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) arrays in in-adjacency order."""
        dst = np.repeat(np.arange(self.n, dtype=np.int64), self.in_deg)
        return self.in_src, dst


@dataclass(frozen=True)
class DegreeProfile:
    """Degree statistics of a graph: counts, mean degree, dangling fraction,
    and out-/in-degree histograms as fractions of nodes."""

    n: int
    m: int
    d: float
    p0: float
    p_hist: dict[int, float]
    in_hist: dict[int, float]

    def to_dict(self) -> dict:
        """The profile as JSON data.  Keys at every level are in string order,
        the order `stats` writes, so each writer of a profile gives the same
        bytes with or without sort_keys."""
        return {"d": self.d, "in_hist": dict(sorted(hist_to_json(self.in_hist).items())),
                "m": self.m, "n": self.n, "p0": self.p0,
                "p_hist": dict(sorted(hist_to_json(self.p_hist).items()))}

    @classmethod
    def from_json(cls, text: str) -> "DegreeProfile":
        return cls(**decode_fields(json.loads(text), "degree profile", {
            "n": int, "m": int, "d": float, "p0": float, "p_hist": parse_hist,
            "in_hist": parse_hist}, {"in_hist": {}}))


def decode_fields(obj, what: str, fields: dict, defaults: dict) -> dict:
    """The ``fields`` of a decoded JSON object, absent ones from ``defaults``,
    each through its converter; a ValueError names what is wrong, and where."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    obj = {**defaults, **obj}
    missing = [key for key in fields if key not in obj]
    if missing:
        raise ValueError(f"{what} missing fields: {missing}")
    out = {}
    for key, convert in fields.items():
        try:
            out[key] = convert(obj[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} field {key!r}: {exc}") from None
    return out


def parse_hist(obj) -> dict[int, float]:
    """Normalize a JSON-style histogram (string keys) to {int: float}."""
    if not isinstance(obj, dict):
        raise ValueError("histogram must be a JSON object {degree: fraction}")
    hist = {}
    for key, val in obj.items():
        try:
            hist[int(key)] = float(val)
        except (TypeError, ValueError):
            raise ValueError(f"bad histogram entry {key!r}: {val!r}") from None
    if min(hist, default=0) < 0:
        raise ValueError(f"negative degree {min(hist)} in histogram")
    return hist


def hist_to_json(hist: dict[int, float]) -> dict[str, float]:
    """A histogram as a JSON object: string keys in ascending degree order."""
    return {str(j): p for j, p in sorted(hist.items())}


@contextmanager
def open_text(target, mode: str = "r"):
    """UTF-8 text stream on a path (through gzip when it ends in ".gz"), or an
    already-open stream passed through and left open.  Writes use newline=""
    so rows keep exactly the line endings the caller wrote."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    path = os.fspath(target)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, mode + "t", encoding="utf-8",
                newline=None if mode == "r" else "") as stream:
        yield stream


def load_edge_list(source, *, drop_self_loops: bool = False) -> Graph:
    """Load a directed graph from whitespace-separated "src dst" lines.

    Lines starting with '#' are comments; blank lines are skipped.  Node ids
    are arbitrary integers in [0, 2**63) and get remapped to dense 0..n-1
    (sorted original order; the original ids are kept on the graph).
    Duplicate edges are kept as multi-edges; self-loops are kept unless
    ``drop_self_loops`` is set.

    The text is read once.  A plain ASCII table is parsed in one array pass;
    any other text goes through the per-line parser, which gives the same
    edges and reports every error.

    Raises EdgeListParseError (with the line number) on malformed lines and
    ValueError on empty input.
    """
    src, dst = _read_edges(source, drop_self_loops)
    if not src.size:
        raise ValueError("empty edge list")
    uniq, inverse = _dense_ids(np.concatenate([src, dst]))
    m = src.size
    return Graph.from_edges(inverse[:m], inverse[m:], n=int(uniq.size), orig_ids=uniq)


def _read_edges(source, drop_self_loops: bool) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) int64 id arrays of an edge list; the text is dropped on return."""
    with open_text(source) as stream:
        text = stream.read()
    table = _parse_table(text)
    if table is None:
        return _parse_lines(text, drop_self_loops)
    if drop_self_loops:
        table = table[table[:, 0] != table[:, 1]]
    return table[:, 0], table[:, 1]


def _parse_table(text: str) -> np.ndarray | None:
    """The (m, 2) int64 edge table from numpy's C parser, or None where that
    parser might not give what _parse_lines gives: non-ASCII text (on which
    numpy 2.4's loadtxt has also crashed the interpreter), a '#' that does not
    open a line, any parse failure or warning, another column count, a
    negative id."""
    if not text.isascii() or text.count("#") != text.startswith("#") + text.count("\n#"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # bytes hold ASCII at one byte a character, a StringIO at four
            table = np.loadtxt(io.BytesIO(text.encode("ascii")), dtype=np.int64,
                               comments="#", ndmin=2)
    except (ValueError, Warning):
        return None
    if table.shape[1] != 2 or table.min() < 0:
        return None
    return table


def _parse_lines(text: str, drop_self_loops: bool) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) int64 arrays parsed line by line: accepts everything int()
    does and raises EdgeListParseError with the line number on the rest."""
    src: list[int] = []
    dst: list[int] = []
    for line_no, line in enumerate(io.StringIO(text), 1):
        if line.startswith("#") or not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected 'src dst', got {line.strip()!r}")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer node id in {line.strip()!r}") from None
        if s < 0 or t < 0:
            raise EdgeListParseError(line_no, f"negative node id in {line.strip()!r}")
        if drop_self_loops and s == t:
            continue
        if max(s, t) > _ID_MAX:
            raise EdgeListParseError(line_no, f"node id out of range in {line.strip()!r}")
        src.append(s)
        dst.append(t)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


def _dense_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct ids, each id's index among them), as
    np.unique(ids, return_inverse=True) gives.  When the largest id is below
    twice the id count, a presence table of that size replaces the sort."""
    top = int(ids.max())
    if top >= 2 * ids.size:
        return np.unique(ids, return_inverse=True)
    present = np.zeros(top + 1, dtype=bool)
    present[ids] = True
    rank = np.cumsum(present)
    rank -= 1
    return np.flatnonzero(present), rank[ids]


def write_rows(dest, header: str | None, first, second, sep: str, eol: str) -> None:
    """Write two equal-length columns as "<a><sep><b><eol>" rows after an optional
    header row; cells print as Python ints and floats (str is repr for both)."""
    if len(first) != len(second):
        raise ValueError(f"columns differ in length: {len(first)} != {len(second)}")
    chunk = 1 << 16
    with open_text(dest, "w") as stream:
        if header is not None:
            stream.write(header + eol)
        for start in range(0, len(first), chunk):
            rows = zip(first[start:start + chunk].tolist(), second[start:start + chunk].tolist())
            stream.write("".join(f"{a}{sep}{b}{eol}" for a, b in rows))


def write_edge_list(g: Graph, dest) -> None:
    """Write the graph as "src<TAB>dst" lines using original node ids."""
    src, dst = g.edge_arrays()
    write_rows(dest, None, g.orig_ids[src], g.orig_ids[dst], "\t", "\n")


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree statistics: d = m/n, dangling fraction, degree histograms."""
    n = g.n
    out_counts = np.bincount(g.out_deg)
    in_counts = np.bincount(g.in_deg)
    p_hist = {int(j): float(c / n) for j, c in enumerate(out_counts) if c > 0}
    in_hist = {int(k): float(c / n) for k, c in enumerate(in_counts) if c > 0}
    return DegreeProfile(n=n, m=g.m, d=g.m / n, p0=p_hist.get(0, 0.0),
                         p_hist=p_hist, in_hist=in_hist)
