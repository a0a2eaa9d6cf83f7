"""Directed multigraph storage and degree statistics.

Graphs are stored in in-adjacency (CSR-like) form because the score
iteration gathers over incoming edges.  Multi-edges and self-loops are
ordinary edges: every parallel edge contributes to both the source's
out-degree and the destination's in-list.
"""

from __future__ import annotations

import gzip
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


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

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "m": self.m,
            "d": self.d,
            "p0": self.p0,
            "p_hist": {str(j): p for j, p in sorted(self.p_hist.items())},
            "in_hist": {str(k): p for k, p in sorted(self.in_hist.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DegreeProfile":
        obj = json.loads(text)
        return cls(n=int(obj["n"]), m=int(obj["m"]), d=float(obj["d"]),
                   p0=float(obj["p0"]),
                   p_hist=parse_hist(obj["p_hist"]),
                   in_hist=parse_hist(obj.get("in_hist", {})))


def parse_hist(obj) -> dict[int, float]:
    """Normalize a JSON-style histogram (string keys) to {int: float}."""
    hist = {}
    for key, val in obj.items():
        j = int(key)
        if j < 0:
            raise ValueError(f"negative degree {j} in histogram")
        hist[j] = float(val)
    return hist


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
    are arbitrary non-negative integers and get remapped to dense 0..n-1
    (sorted original order; the original ids are kept on the graph).
    Duplicate edges are kept as multi-edges; self-loops are kept unless
    ``drop_self_loops`` is set.

    Raises EdgeListParseError (with the line number) on malformed lines and
    ValueError on empty input.
    """
    src: list[int] = []
    dst: list[int] = []
    with open_text(source) as stream:
        for line_no, line in enumerate(stream, 1):
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
            src.append(s)
            dst.append(t)
    if not src:
        raise ValueError("empty edge list")
    src_arr = np.asarray(src, dtype=np.int64)
    dst_arr = np.asarray(dst, dtype=np.int64)
    uniq, inverse = np.unique(np.concatenate([src_arr, dst_arr]), return_inverse=True)
    m = src_arr.size
    return Graph.from_edges(inverse[:m], inverse[m:], n=int(uniq.size), orig_ids=uniq)


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
