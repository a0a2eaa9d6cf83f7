"""Directed multigraph storage and degree statistics.

Graphs are stored in in-adjacency (CSR-like) form because the score
iteration gathers over incoming edges.  Multi-edges and self-loops are
ordinary edges: every parallel edge contributes to both the source's
out-degree and the destination's in-list.

`load_edge_list` builds a graph from the id columns that `formats` parses.
`write_edge_list` and `EdgeListParseError` live in `formats` and are
re-exported here, so ``ranktail.graph`` names them as ``ranktail`` does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import (EdgeListParseError, _read_edges, decode_fields, hist_to_json,
                      parse_hist, write_edge_list)

_ID_CHUNK = 1 << 20  # ids copied at a time while a graph is built
_SORT_CHUNK = 1 << 16  # keys `_stable_group` sorts at a time


def _id_dtype(n: int) -> np.dtype:
    """The width of the node ids of an n-node graph: int32 when every id in
    [0, n) fits in it (n <= 2**31), else int64."""
    return np.dtype(np.int32 if n <= 2**31 else np.int64)


def _id_counts(ids: np.ndarray, n: int, dtype) -> np.ndarray:
    """np.bincount(ids, minlength=n) as ``dtype``, which must hold ids.size,
    for ids in [0, n).  bincount copies ids narrower than intp, so they are
    counted in pieces of max(_ID_CHUNK, n): no copy is larger than a piece,
    and the adds stay O(ids.size + n)."""
    counts = np.zeros(n, dtype)
    step = max(_ID_CHUNK, n)
    for start in range(0, ids.size, step):
        counts += np.bincount(ids[start:start + step], minlength=n)
    return counts


def _is_sorted(a: np.ndarray) -> bool:
    """Whether a is non-decreasing, checked a piece at a time, so that no
    comparison array is larger than _ID_CHUNK."""
    for start in range(1, a.size, _ID_CHUNK):
        stop = min(start + _ID_CHUNK, a.size)
        if (a[start:stop] < a[start - 1:stop - 1]).any():
            return False
    return True


def _stable_group(keys: np.ndarray, values: np.ndarray, starts: np.ndarray,
                  dtype) -> np.ndarray:
    """values as ``dtype``, in the order of a stable sort of their keys, in
    [0, starts.size), where starts[k] is the count of keys below k.  A
    counting sort, _SORT_CHUNK keys at a time: each piece is sorted on its
    own and its runs are placed after those of the pieces before it, so the
    result is the one array of one entry per key that it makes, and a
    piece's temporaries (about 44 B a key) stay near 3 MB."""
    out = np.empty(values.size, dtype)
    fill = starts.copy()  # where the next value of each key goes
    for start in range(0, keys.size, _SORT_CHUNK):
        piece = keys[start:start + _SORT_CHUNK]
        order = np.argsort(piece, kind="stable")
        ordered = piece[order]
        runs = np.flatnonzero(np.diff(ordered, prepend=-1))  # where each key's run starts
        counts = np.diff(runs, append=ordered.size)
        run_keys = ordered[runs]
        out[np.repeat(fill[run_keys] - runs, counts) + np.arange(ordered.size)] = (
            values[start:start + _SORT_CHUNK][order])
        fill[run_keys] += counts
    return out


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed multigraph with dense node ids 0..n-1.

    ``in_src[in_ptr[i]:in_ptr[i+1]]`` lists the source of every edge into
    node i, with multiplicity.  ``out_deg[j]`` counts outgoing edges of j
    (multiplicity included); nodes with ``out_deg == 0`` are dangling.
    ``orig_ids`` maps dense ids back to the ids found in the input.

    The graphs that ``from_edges``, ``load_edge_list`` and ``synth.generate``
    build hold each array at the id width (`_id_dtype`) of the values it
    holds: in_src of n, in_ptr and out_deg, whose values lie in [0, m], of
    m + 1, and orig_ids of its largest id + 1.  So each is int32 below 2**31
    nodes, edges or ids, and the graph holds 4m + 12n bytes.  An out_deg or
    orig_ids left out is made at that width; an array of another signed
    integer type passed in is taken as it is.
    """

    n: int
    m: int
    in_ptr: np.ndarray
    in_src: np.ndarray
    out_deg: np.ndarray | None = None
    orig_ids: np.ndarray | None = None

    def __post_init__(self):
        """Check the arrays against n, m and each other, then freeze them.  The
        PageRank kernel reads in_src without a bounds check, so its ids must lie
        in [0, n), and divides by out_deg, so it must count in_src's sources.
        An out_deg left out is that count, and orig_ids left out are 0..n-1."""
        n, m = self.n, self.m
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind == "i"
                   for a in (self.in_ptr, self.in_src, self.out_deg, self.orig_ids)
                   if a is not None):
            raise ValueError("in_ptr, in_src, out_deg and orig_ids must be 1-D arrays "
                             "of a signed integer type")
        ptr, src = self.in_ptr, self.in_src
        if (n < 0 or ptr.size != n + 1 or ptr[0] != 0 or ptr[-1] != m
                or (ptr[1:] < ptr[:-1]).any()):
            raise ValueError("in_ptr must hold n + 1 offsets rising from 0 to m")
        if src.size != m or (m and (src.min() < 0 or src.max() >= n)):
            raise ValueError("in_src must hold m node ids in [0, n)")
        counts = _id_counts(src, n, _id_dtype(m + 1))
        if self.out_deg is None:
            object.__setattr__(self, "out_deg", counts)
        elif not np.array_equal(self.out_deg, counts):
            raise ValueError("out_deg must count each node's appearances in in_src")
        if self.orig_ids is None:
            object.__setattr__(self, "orig_ids", np.arange(n, dtype=_id_dtype(n)))
        elif self.orig_ids.size != n or (self.orig_ids < 0).any():
            raise ValueError("orig_ids must hold n non-negative ids")
        for arr in (self.in_ptr, self.in_src, self.out_deg, self.orig_ids):
            arr.setflags(write=False)

    @classmethod
    def from_edges(cls, src, dst, n: int, orig_ids=None) -> "Graph":
        """Build a graph from parallel source/destination arrays of dense ids.

        Each array is at the id width (`_id_dtype`) of its values, whatever
        the input's integer type.  When dst is already non-decreasing, as in
        every edge list ranktail writes, the edges are in in-adjacency order
        and no sort is made: a src of the id width is in_src as it stands,
        frozen in place, as an orig_ids of its width is.  Otherwise the
        edges are grouped by a stable counting sort on dst (`_stable_group`).
        No array of one entry per edge is made that the graph does not keep.
        Ids of a dtype that is not an integer one, float or bool, are
        refused, not cast; an empty list, which numpy reads as float, holds
        no id."""
        src, dst = np.asarray(src), np.asarray(dst)
        orig_ids = None if orig_ids is None else np.asarray(orig_ids)
        if any(a.dtype.kind not in "iu" and a.size for a in (src, dst, orig_ids)
               if a is not None):
            raise ValueError("src, dst and orig_ids must be arrays of an integer type")
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        m = int(dst.size)
        # checked before the ids are cast, which would wrap one beyond the width
        if m and any(a.min() < 0 or a.max() >= n for a in (src, dst)):
            raise ValueError("node ids must lie in [0, n)")
        width = _id_dtype(n)
        if dst.dtype.kind != "i":  # bincount takes no uint64
            dst = dst.astype(width)
        in_ptr = np.zeros(n + 1, dtype=_id_dtype(m + 1))
        np.cumsum(_id_counts(dst, n, in_ptr.dtype), out=in_ptr[1:])
        if _is_sorted(dst):
            in_src = np.ascontiguousarray(src, dtype=width)
        else:  # group in-edges by destination
            in_src = _stable_group(dst, src, in_ptr[:-1], width)
        if orig_ids is not None:
            top = int(orig_ids.max(initial=0))
            orig_ids = orig_ids.astype(_id_dtype(top + 1), copy=False)
        return cls(n=n, m=m, in_ptr=in_ptr, in_src=in_src, orig_ids=orig_ids)

    @property
    def in_deg(self) -> np.ndarray:
        """Each node's in-edge count, at in_ptr's width."""
        return np.diff(self.in_ptr)


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
        """The profile as JSON data."""
        return {"n": self.n, "m": self.m, "d": self.d, "p0": self.p0,
                "p_hist": hist_to_json(self.p_hist), "in_hist": hist_to_json(self.in_hist)}

    @classmethod
    def from_dict(cls, obj) -> "DegreeProfile":
        return cls(**decode_fields(obj, "degree profile", {
            "n": int, "m": int, "d": float, "p0": float, "p_hist": parse_hist,
            "in_hist": parse_hist}, {"in_hist": {}}))


def load_edge_list(source, *, drop_self_loops: bool = False) -> Graph:
    """Load a directed graph from whitespace-separated "src dst" lines.

    Lines starting with '#' are comments; blank lines are skipped.  Node ids
    are arbitrary integers in [0, 2**63) and get remapped to dense 0..n-1
    (sorted original order; the original ids are kept on the graph).
    Duplicate edges are kept as multi-edges; self-loops are kept unless
    ``drop_self_loops`` is set, and their ids are checked either way.

    ``source`` is a path, read through gzip when it ends in ".gz", or an open
    binary stream; a text stream is refused with a TypeError.  The input is
    read in chunks of about 1 MB, each cut just after a line feed, and the
    chunks are parsed on every CPU the process may use (`_map_ordered`).
    CRLF and a lone CR end a line, as text mode reads them.  A file whose
    only line ends are lone CRs has no line feed to cut at and is read as
    one chunk.  A chunk is parsed with numpy when every line in it is in
    this grammar: "digits, blanks, digits" with spaces or tabs as blanks, no
    leading or trailing blank and at most 18 digits an id; an empty line; a
    line that opens with '#'.  Any other chunk goes through the per-line
    parser, which decodes each line as UTF-8, accepts what int() accepts and
    gives the same edges, so the fast path changes no result.

    Raises EdgeListParseError (with the line number) on malformed lines,
    UnicodeDecodeError (naming the line) on bytes that are not UTF-8, and
    EdgeListParseError "empty edge list" on input with no edge, once any
    self-loops are dropped.  The first fault in file order is raised.
    """
    if hasattr(source, "read") and not isinstance(source.read(0), bytes):
        raise TypeError("load_edge_list reads a path, a .gz path or a binary stream, "
                        f"not {type(source).__name__}")
    columns = _read_edges(source, drop_self_loops)
    if not columns[0].size:
        raise EdgeListParseError(None, "empty edge list")
    uniq = _dense_ids(columns)
    return Graph.from_edges(*columns, n=int(uniq.size), orig_ids=uniq)


def _dense_ids(columns: list[np.ndarray]) -> np.ndarray:
    """The sorted distinct ids of the id columns, each column's ids replaced
    by their indices among them, as np.unique with return_inverse=True
    gives.  When the largest id is below twice the id count, a presence
    table of that size replaces the sort, and each column is remapped in
    place, _ID_CHUNK ids at a time: numpy copies int32 indices to intp, and
    a piece's copy is all it makes.  Otherwise np.unique's indices are cast
    to the id width (`_id_dtype`)."""
    top = max(int(col.max()) for col in columns)
    if top >= 2 * sum(col.size for col in columns):
        uniq, inverse = np.unique(np.concatenate(columns), return_inverse=True)
        inverse = inverse.astype(_id_dtype(uniq.size))
        columns[:] = np.split(inverse, [columns[0].size])
        return uniq
    pieces = [col[start:start + _ID_CHUNK] for col in columns
              for start in range(0, col.size, _ID_CHUNK)]
    present = np.zeros(top + 1, dtype=bool)
    for piece in pieces:
        present[piece] = True
    rank = np.cumsum(present, dtype=columns[0].dtype)
    rank -= 1
    for piece in pieces:  # every id is in range; "clip" writes out directly
        np.take(rank, piece, out=piece, mode="clip")
    return np.flatnonzero(present)


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree statistics: d = m/n, dangling fraction, degree histograms."""
    n = g.n
    out_counts, in_counts = np.bincount(g.out_deg), np.bincount(g.in_deg)
    out_seen, in_seen = np.flatnonzero(out_counts), np.flatnonzero(in_counts)
    p_hist = dict(zip(out_seen.tolist(), (out_counts[out_seen] / n).tolist()))
    in_hist = dict(zip(in_seen.tolist(), (in_counts[in_seen] / n).tolist()))
    return DegreeProfile(n=n, m=g.m, d=g.m / n, p0=p_hist.get(0, 0.0),
                         p_hist=p_hist, in_hist=in_hist)
