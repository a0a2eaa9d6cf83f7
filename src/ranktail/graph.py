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
import re
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_ID_MAX = np.iinfo(np.int64).max
_DEGREE_KEY = re.compile("0|[1-9][0-9]*")
_CHUNK_ROWS = 1 << 16


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
        counts = np.bincount(src, minlength=n).astype(np.int64, copy=False)
        if self.out_deg is None:
            object.__setattr__(self, "out_deg", counts)
        elif not np.array_equal(self.out_deg, counts):
            raise ValueError("out_deg must count each node's appearances in in_src")
        if self.orig_ids is None:
            object.__setattr__(self, "orig_ids", np.arange(n, dtype=np.int64))
        elif self.orig_ids.size != n or (self.orig_ids < 0).any():
            raise ValueError("orig_ids must hold n non-negative ids")
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
        if m and (dst.min() < 0 or dst.max() >= n):
            raise ValueError("node ids must lie in [0, n)")
        order = np.argsort(dst, kind="stable")  # group in-edges by destination
        in_src = src[order]
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=in_ptr[1:])
        if orig_ids is not None:
            orig_ids = np.asarray(orig_ids, dtype=np.int64)
        return cls(n=n, m=m, in_ptr=in_ptr, in_src=in_src, orig_ids=orig_ids)

    @property
    def in_deg(self) -> np.ndarray:
        return np.diff(self.in_ptr)

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
        """The profile as JSON data."""
        return {"n": self.n, "m": self.m, "d": self.d, "p0": self.p0,
                "p_hist": hist_to_json(self.p_hist), "in_hist": hist_to_json(self.in_hist)}

    @classmethod
    def from_dict(cls, obj) -> "DegreeProfile":
        return cls(**decode_fields(obj, "degree profile", {
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
            out[key] = (as_number(obj[key], convert) if convert in (int, float)
                        else convert(obj[key]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what} field {key!r}: {exc}") from None
    return out


def as_number(value, kind=float):
    """A decoded JSON number as `kind` (int or float).  A number is an int or
    float that is not a bool, so true/false and numeric strings are refused;
    an int must be integral (1e6 is, 1.5 and inf are not)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (kind is float or isinstance(value, int) or value.is_integer())):
        try:
            return kind(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise TypeError(f"expected {kind.__name__}, got {value!r}")


def parse_hist(obj) -> dict[int, float]:
    """Normalize a JSON-style histogram (string keys) to {int: float}.  A key
    is a degree in canonical decimal form, "0" or [1-9][0-9]*, so "04", " 4",
    "+4" and "1_0" are refused instead of read as (or merged into) a degree."""
    if not isinstance(obj, dict):
        raise ValueError("histogram must be a JSON object {degree: fraction}")
    hist = {}
    for key, val in obj.items():
        if not (isinstance(key, str) and _DEGREE_KEY.fullmatch(key)):
            raise ValueError(f"histogram key {key!r} is not a degree "
                             "(0, or digits with no sign, space or leading zero)")
        try:
            hist[int(key)] = as_number(val)
        except TypeError:
            raise ValueError(f"bad histogram entry {key!r}: {val!r}") from None
    return hist


def hist_to_json(hist: dict[int, float]) -> dict[str, float]:
    """A histogram as a JSON object: string keys in ascending degree order."""
    return {str(j): p for j, p in sorted(hist.items())}


@contextmanager
def open_text(target, mode: str = "r"):
    """UTF-8 text stream on a path (through gzip when it ends in ".gz"), or an
    already-open stream passed through and left open.  Mode "rb" gives the
    path's bytes instead.  Writes use newline="" so rows keep exactly the line
    endings the caller wrote, and a gzip header's mtime is 0, so equal rows
    give equal bytes."""
    if hasattr(target, "write" if mode == "w" else "read"):
        yield target
        return
    path = os.fspath(target)
    if path.endswith(".gz"):
        raw = gzip.GzipFile(path, mode[0] + "b", mtime=0)
    else:
        raw = open(path, mode[0] + "b")
    if mode == "rb":
        with raw:
            yield raw
        return
    with io.TextIOWrapper(raw, encoding="utf-8", newline=None if mode == "r" else "") as stream:
        yield stream


def read_json(source):
    """The JSON document in a path (gunzipped when it ends in ".gz") or a text stream."""
    with open_text(source) as stream:
        return json.load(stream)


def write_json(obj, dest) -> None:
    """Write ``obj`` as JSON with keys sorted at every level, a two-space indent
    and a final newline, to a path (gzipped when it ends in ".gz") or an open
    text stream."""
    with open_text(dest, "w") as stream:
        stream.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_edge_list(source, *, drop_self_loops: bool = False) -> Graph:
    """Load a directed graph from whitespace-separated "src dst" lines.

    Lines starting with '#' are comments; blank lines are skipped.  Node ids
    are arbitrary integers in [0, 2**63) and get remapped to dense 0..n-1
    (sorted original order; the original ids are kept on the graph).
    Duplicate edges are kept as multi-edges; self-loops are kept unless
    ``drop_self_loops`` is set.

    A path is read once, as bytes.  A plain ASCII table is parsed from those
    bytes in one array pass; any other input is decoded as UTF-8 and goes
    through the per-line parser, which gives the same edges and reports every
    error.

    Raises EdgeListParseError (with the line number) on malformed lines and
    ValueError on empty input.
    """
    src, dst = _read_edges(source, drop_self_loops)
    if not src.size:
        raise ValueError("empty edge list")
    uniq, src, dst = _dense_ids(src, dst)
    return Graph.from_edges(src, dst, n=int(uniq.size), orig_ids=uniq)


def _read_edges(source, drop_self_loops: bool) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst) int64 id arrays of an edge list; the input is dropped on return.

    A path's line ends are read as text mode reads them (CRLF and lone CR end
    a line); an open text stream's text is taken as it reads."""
    with open_text(source, "rb") as stream:
        data = stream.read()
    if isinstance(data, str):
        raw = data.encode("ascii") if data.isascii() else None
    else:
        if b"\r" in data:
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raw = data
    table = None if raw is None else _parse_table(raw)
    if table is None:
        text = data if isinstance(data, str) else data.decode("utf-8")
        return _parse_lines(text, drop_self_loops)
    if drop_self_loops:
        table = table[table[:, 0] != table[:, 1]]
    return table[:, 0], table[:, 1]


def _parse_table(raw: bytes) -> np.ndarray | None:
    """The (m, 2) int64 edge table from numpy's C parser, or None where that
    parser might not give what _parse_lines gives: non-ASCII bytes (on which
    numpy 2.4's loadtxt has also crashed the interpreter), a '#' that does not
    open a line, any parse failure or warning, another column count, a
    negative id."""
    if not raw.isascii() or raw.count(b"#") != raw.startswith(b"#") + raw.count(b"\n#"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a BytesIO shares the bytes; a StringIO would hold four per character
            table = np.loadtxt(io.BytesIO(raw), dtype=np.int64, comments="#", ndmin=2)
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


def _dense_ids(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct ids, the index of each src id among them, of each dst
    id), as np.unique over both with return_inverse=True gives.  When the
    largest id is below twice the id count, a presence table of that size
    replaces the sort, and src and dst are remapped one at a time."""
    top = int(max(src.max(), dst.max()))
    if top >= 2 * (src.size + dst.size):
        uniq, inverse = np.unique(np.concatenate([src, dst]), return_inverse=True)
        return uniq, inverse[:src.size], inverse[src.size:]
    present = np.zeros(top + 1, dtype=bool)
    present[src] = True
    present[dst] = True
    rank = np.cumsum(present)
    rank -= 1
    return np.flatnonzero(present), rank[src], rank[dst]


# _DIGITS4[v]: the four ASCII digits of v in 0..9999, zero-padded, as one
# 4-byte word whose memory holds them in print order
_DIGITS4 = ((np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# _KEEP[20 + t]: four byte flags as one word, the first t (clipped to [0, 4]) off
_KEEP = (np.arange(4) >= np.clip(np.arange(-20, 21), 0, 4)[:, None]).astype(
    np.uint8).view(np.uint32).ravel()
# words whose first byte is TAB and LF, and the flags that keep the first byte only
_TAB, _LF, _FIRST = np.array([[ord("\t"), 0, 0, 0], [ord("\n"), 0, 0, 0], [1, 0, 0, 0]],
                             np.uint8).view(np.uint32).ravel()


def _id_words(x: np.ndarray) -> list[tuple]:
    """(words, flags) pairs of arrays that print the ids ``x``, in [0, 2**63),
    as str(int) does: four digits a word, most significant first.  The flags
    drop the leading zeros."""
    top = int(x.max())
    if top < 2**31:
        x = x.astype(np.int32)  # narrower arithmetic is faster
    digits = np.ones(x.size, np.int32)
    power = 10
    while power <= top:
        digits += x >= power
        power *= 10
    groups = -(-len(str(top)) // 4)
    values = []  # four digits each, least significant first
    for _ in range(groups - 1):
        high = x // 10_000
        values.append(x - high * 10_000)
        x = high
    values.append(x)
    # word j holds digit places 4j..4j+3 of 4 * groups; the first
    # 4 * groups - digits places are not printed
    return [(np.take(_DIGITS4, value, mode="wrap"),
             np.take(_KEEP, (20 + 4 * (groups - j)) - digits, mode="wrap"))
            for j, value in enumerate(reversed(values))]


def _edge_rows(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The bytes of "<src><TAB><dst><LF>" rows of two id columns, as a uint8
    array.  Every row is laid out as the same run of words, and one compress
    keyed on the byte flags drops the bytes not printed."""
    columns = _id_words(src) + [(_TAB, _FIRST)] + _id_words(dst) + [(_LF, _FIRST)]
    data = np.empty((src.size, len(columns)), np.uint32)
    keep = np.empty((src.size, len(columns)), np.uint32)
    for j, (word, flags) in enumerate(columns):
        data[:, j] = word
        keep[:, j] = flags
    return data.view(np.uint8).ravel()[keep.view(bool).ravel()]


def write_csv(dest, header: str, first, second) -> None:
    """Write a header row, then two equal-length columns as "<a>,<b>" rows, all
    ending in CRLF; cells print as Python ints and floats (str is repr for both).
    Each chunk of _CHUNK_ROWS rows is one %-format of the row template repeated."""
    if len(first) != len(second):
        raise ValueError(f"columns differ in length: {len(first)} != {len(second)}")
    with open_text(dest, "w") as stream:
        stream.write(header + "\r\n")
        for start in range(0, len(first), _CHUNK_ROWS):
            a = first[start:start + _CHUNK_ROWS].tolist()
            cells = [None] * (2 * len(a))
            cells[0::2] = a
            cells[1::2] = second[start:start + _CHUNK_ROWS].tolist()
            stream.write(("%s,%s\r\n" * len(a)) % tuple(cells))


def write_edge_list(g: Graph, dest) -> None:
    """Write the graph as "src<TAB>dst" lines using original node ids.

    Chunks of _CHUNK_ROWS rows, their ids looked up one chunk at a time, are
    encoded with numpy (`_edge_rows`) and written in order.  The calling
    thread encodes every chunk whose index is a multiple of the CPU count and
    a thread pool that lives for this call the others, with at most two
    chunks per CPU in flight; the pool threads call numpy only."""
    src, dst = g.edge_arrays()

    def encode(start):
        end = start + _CHUNK_ROWS
        return _edge_rows(g.orig_ids[src[start:end]], g.orig_ids[dst[start:end]])

    def write(job):
        out = encode(job) if isinstance(job, int) else job.result()
        stream.write(str(out, "utf-8"))

    workers = _cpu_count()
    pending = deque()
    with (open_text(dest, "w") as stream,
          ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool):
        for i, start in enumerate(range(0, g.m, _CHUNK_ROWS)):
            pending.append(start if i % workers == 0 else pool.submit(encode, start))
            if len(pending) == 2 * workers:
                write(pending.popleft())
        while pending:
            write(pending.popleft())


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree statistics: d = m/n, dangling fraction, degree histograms."""
    n = g.n
    out_counts = np.bincount(g.out_deg)
    in_counts = np.bincount(g.in_deg)
    p_hist = {int(j): float(c / n) for j, c in enumerate(out_counts) if c > 0}
    in_hist = {int(k): float(c / n) for k, c in enumerate(in_counts) if c > 0}
    return DegreeProfile(n=n, m=g.m, d=g.m / n, p0=p_hist.get(0, 0.0),
                         p_hist=p_hist, in_hist=in_hist)
