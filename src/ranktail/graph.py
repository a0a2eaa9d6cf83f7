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
import math
import os
import re
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral

import numpy as np

_ID_MAX = np.iinfo(np.int64).max
_DEGREE_KEY = re.compile("0|[1-9][0-9]*")
_CHUNK_ROWS = 1 << 16
_CHUNK_BYTES = 1 << 20
_ID_CHUNK = 1 << 20  # ids a builder copies or draws at a time
_COMMENT = re.compile(rb"^#[^\n]*", re.M)


def _id_dtype(n: int) -> np.dtype:
    """The width of the node ids of an n-node graph: int32 when every id in
    [0, n) fits in it (n <= 2**31), else int64."""
    return np.dtype(np.int32 if n <= 2**31 else np.int64)


def _id_counts(ids: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(ids, minlength=n) as int64, for ids in [0, n).  bincount
    copies ids narrower than intp, so they are counted in pieces of
    max(_ID_CHUNK, n): no copy is larger than a piece, and the adds stay
    O(ids.size + n)."""
    counts = np.zeros(n, np.int64)
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
    counting sort, _ID_CHUNK keys at a time: each piece is sorted on its own
    and its runs are placed after those of the pieces before it, so the
    result is the one array of one entry per key that it makes."""
    out = np.empty(values.size, dtype)
    fill = starts.copy()  # where the next value of each key goes
    for start in range(0, keys.size, _ID_CHUNK):
        piece = keys[start:start + _ID_CHUNK]
        order = np.argsort(piece, kind="stable")
        ordered = piece[order]
        runs = np.flatnonzero(np.diff(ordered, prepend=-1))  # where each key's run starts
        counts = np.diff(runs, append=ordered.size)
        run_keys = ordered[runs]
        out[np.repeat(fill[run_keys] - runs, counts) + np.arange(ordered.size)] = (
            values[start:start + _ID_CHUNK][order])
        fill[run_keys] += counts
    return out


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class EdgeListParseError(ValueError):
    """An edge list could not be parsed: its line ``line_no``, or, with
    line_no None, the list as a whole (one that holds no edge)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable directed multigraph with dense node ids 0..n-1.

    ``in_src[in_ptr[i]:in_ptr[i+1]]`` lists the source of every edge into
    node i, with multiplicity.  ``out_deg[j]`` counts outgoing edges of j
    (multiplicity included); nodes with ``out_deg == 0`` are dangling.
    ``orig_ids`` maps dense ids back to the ids found in the input.

    The graphs that ``from_edges``, ``load_edge_list`` and ``synth.generate``
    build hold in_src at the id width (`_id_dtype`): int32 when n <= 2**31,
    else int64.  in_ptr, out_deg and orig_ids are int64.  An in_src of
    another signed integer type is taken as it is.
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
        counts = _id_counts(src, n)
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
        """Build a graph from parallel source/destination arrays of dense ids.

        in_src holds the ids at the id width (`_id_dtype`), whatever the
        input's integer type.  When dst is already non-decreasing, as in
        every edge list ranktail writes, the edges are in in-adjacency order
        and no sort is made: a src of the id width is in_src as it stands,
        frozen in place, as an int64 orig_ids is.  Otherwise the edges are
        grouped by a stable counting sort on dst (`_stable_group`).  No array
        of one entry per edge is made that the graph does not keep.  Ids of
        a dtype that is not an integer one, float or bool, are refused, not
        cast; an empty list, which numpy reads as float, holds no id."""
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
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(_id_counts(dst, n), out=in_ptr[1:])
        if _is_sorted(dst):
            in_src = np.ascontiguousarray(src, dtype=width)
        else:  # group in-edges by destination
            in_src = _stable_group(dst, src, in_ptr[:-1], width)
        if orig_ids is not None:
            orig_ids = np.asarray(orig_ids, dtype=np.int64)
        return cls(n=n, m=m, in_ptr=in_ptr, in_src=in_src, orig_ids=orig_ids)

    @property
    def in_deg(self) -> np.ndarray:
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


def _is_int(value) -> bool:
    """An int or numpy integer; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def as_number(value, kind=float):
    """A decoded JSON number as `kind` (int or float).  A number is an int or
    a finite float that is not a bool, so true/false, numeric strings and the
    NaN and Infinity that Python's json reads are refused; an int must be
    integral (1e6 is, 1.5 is not)."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, int) or math.isfinite(value))
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


def _map_ordered(fn, items):
    """Yield fn(item) for each item of an iterable, in order.

    The calling thread runs fn on every item whose index is a multiple of
    the CPU count, and a thread pool that lives for the call on the others.
    At most two items per CPU are in flight: the next item is drawn only
    once a result is taken.  fn raising raises here, in order, after the
    pool has finished the items it holds."""
    workers = _cpu_count()
    pending = deque()

    def result(job):
        return job.result() if isinstance(job, Future) else fn(job)

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        for i, item in enumerate(items):
            pending.append(pool.submit(fn, item) if i % workers else item)
            if len(pending) == 2 * workers:
                yield result(pending.popleft())
        while pending:
            yield result(pending.popleft())


def _segment_blocks(counts: np.ndarray, size: int) -> list[tuple[int, int, int, int]]:
    """(e0, e1, s0, s1) blocks of whole segments: elements e0..e1-1 are those
    of segments s0..s1-1, where segment i holds the next counts[i] elements.

    A block is cut at the first segment that starts at or after each
    multiple of ``size``, and a segment longer than ``size`` is a block of
    its own.  The blocks tile the elements in order; segments of no element
    between two blocks go with neither, and no block is empty."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # segment s >= 1 starts at ends[s - 1], so it is the first to start at or
    # after x > 0 when ends[s - 1] is the first end >= x
    cuts = np.unique(np.concatenate([
        [0, counts.size], np.searchsorted(ends, np.arange(size, total, size)) + 1,
        np.flatnonzero(counts > size)])).tolist()
    stops = [int(ends[s - 1]) for s in cuts[1:]]
    return [block for block in zip([0, *stops], stops, cuts, cuts[1:]) if block[0] < block[1]]


def _segment_counts(ends: np.ndarray, start: int, stop: int) -> tuple[int, np.ndarray]:
    """(lo, counts): elements start..stop-1 (start < stop <= ends[-1]) fall in
    segments lo..lo+counts.size-1, counts[k] of them in segment lo+k, where
    segment i holds the elements below ends[i] and at or above ends[i - 1]
    (0 for i = 0); ends is non-decreasing."""
    lo, hi = np.searchsorted(ends, [start, stop - 1], side="right").tolist()
    counts = np.empty(hi + 1 - lo, ends.dtype)
    np.subtract(ends[lo + 1:hi + 1], ends[lo:hi], out=counts[1:])
    counts[0] = ends[lo] - start  # the end segments hold only the part in range
    counts[-1] -= ends[hi] - stop
    return lo, counts


def _read_edges(source, drop_self_loops: bool) -> list[np.ndarray]:
    """[src, dst] id arrays of an edge list, int32 while every id fits, with
    its self-loops left out when drop_self_loops is set.

    Each chunk's ids are copied into two columns as they come, so no
    chunk's arrays outlive it.  The columns start with room for 2**24 ids,
    so that no input of up to 16M edges is copied to grow them; a full
    column doubles its capacity.  Capacity not yet written takes no
    memory, only address space."""
    columns = [np.empty(1 << 24, np.int32), np.empty(1 << 24, np.int32)]
    size = lines = 0
    with open_text(source, "rb") as stream:
        for parsed in _map_ordered(_parse_chunk, _chunks(stream)):
            if not isinstance(parsed, tuple):  # a chunk the fast path left
                parsed = _parse_lines(parsed, lines + 1)
            *ids, count = parsed
            lines += count
            if drop_self_loops:
                keep = ids[0] != ids[1]
                ids = [chunk_ids[keep] for chunk_ids in ids]
            end = size + ids[0].size
            dtype = np.promote_types(columns[0].dtype, ids[0].dtype)
            if end > columns[0].size or dtype != columns[0].dtype:
                for i, col in enumerate(columns):
                    columns[i] = np.empty(max(end, 2 * col.size), dtype)
                    columns[i][:size] = col[:size]
            for col, chunk_ids in zip(columns, ids):
                col[size:end] = chunk_ids
            size = end
    return [col[:size] for col in columns]


def _chunks(stream):
    """The stream's bytes in pieces of about _CHUNK_BYTES, each but the last
    cut just after a line feed."""
    rest = []
    while block := stream.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield b"".join([*rest, block[:cut]])
            rest = []
        rest.append(block[cut:])
    if any(rest):
        yield b"".join(rest)


def _parse_chunk(chunk: bytes):
    """(src, dst, line count) of one chunk by `_parse_fast`, or, where the
    fast path does not take it, the chunk for `_parse_lines`, with its CRLF
    and lone CR made LF."""
    if b"\r" in chunk:
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return _parse_fast(chunk) or chunk


def _parse_fast(raw: bytes) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(src, dst, line count) of ASCII lines in the strict grammar of
    `load_edge_list`, or None when a line is not in it.  The ids are int32
    when none has more than 9 digits, else int64.

    Tokens are the runs of digits, found where the digit mask changes.  The
    grammar holds when every byte is a digit, a blank or LF, no blank
    touches an LF, and the tokens come in pairs, the byte after the first a
    blank and after the second an LF.  (Blanks opening the data are let
    through: the per-line parser reads that line alike.)  Each id is then
    the sum of its digits, right-aligned."""
    if not raw.endswith(b"\n"):
        raw += b"\n"
    if b"#" in raw:
        if not raw.isascii():  # a comment must still be UTF-8
            return None
        raw = _COMMENT.sub(b"", raw)  # comment lines become empty lines
    a = np.frombuffer(raw, np.uint8)
    value = a - np.uint8(ord("0"))
    digit = value < 10
    lf = a == ord("\n")
    blank = (a == ord(" ")) | (a == ord("\t"))
    if (np.count_nonzero(digit) + np.count_nonzero(blank) + np.count_nonzero(lf) != a.size
            or (blank[1:] & lf[:-1]).any() or (blank[:-1] & lf[1:]).any()):
        return None
    # token k holds the bytes after edges[2k] up to edges[2k + 1]
    edges = np.flatnonzero(np.diff(digit))
    if digit[0]:
        edges = np.concatenate(([-1], edges))
    before, last = edges.reshape(-1, 2).T.copy()
    after = a[1:].take(last)
    if (after[0::2] == ord("\n")).any() or (after[1::2] != ord("\n")).any():
        return None
    top = int((last - before).max(initial=0))
    if top > 18:
        return None
    dtype = np.int32 if top <= 9 else np.int64
    value *= digit  # 0 on every byte but a digit, so on the byte before each id
    ids = value.take(last).astype(dtype)
    term = np.empty_like(ids)
    for k in range(1, top):
        last -= 1  # now the place 10**k of each id, or the byte before it
        np.maximum(last, before, out=last)
        np.multiply(value.take(last), 10**k, out=term, dtype=dtype, casting="unsafe")
        ids += term
    return ids[0::2], ids[1::2], int(np.count_nonzero(lf))


def _parse_lines(chunk: bytes, first_line: int = 1) -> tuple[np.ndarray, np.ndarray, int]:
    """(src, dst, line count) of LF-ended lines parsed one at a time, with
    ids int32 while every id fits, else int64: accepts everything int()
    does and raises EdgeListParseError with the line number, counted from
    first_line, on the rest.  Each line is decoded as UTF-8 with its LF, so
    a line that is not UTF-8 raises UnicodeDecodeError naming it, in file
    order with the other faults."""
    src: list[int] = []
    dst: list[int] = []
    lines = chunk.splitlines(keepends=True)
    for line_no, raw in enumerate(lines, first_line):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError(exc.encoding, raw.partition(b"\n")[0], exc.start, exc.end,
                                     f"{exc.reason} in line {line_no}") from None
        parts = line.split()
        if not parts or line.startswith("#"):
            continue
        if len(parts) != 2:
            raise EdgeListParseError(line_no, f"expected 'src dst', got {line.strip()!r}")
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer node id in {line.strip()!r}") from None
        if s < 0 or t < 0:
            raise EdgeListParseError(line_no, f"negative node id in {line.strip()!r}")
        if max(s, t) > _ID_MAX:
            raise EdgeListParseError(line_no, f"node id out of range in {line.strip()!r}")
        src.append(s)
        dst.append(t)
    dtype = np.int32 if max(src + dst, default=0) < 2**31 else np.int64
    return np.asarray(src, dtype=dtype), np.asarray(dst, dtype=dtype), len(lines)


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
    encoded with numpy (`_edge_rows`) on every CPU (`_map_ordered`) and
    written in order; the pool threads call numpy only.  A chunk's
    destinations are the nodes whose in-lists it spans (`_segment_counts`),
    each repeated once per edge of its in-list in the chunk."""
    def encode(start):
        stop = min(start + _CHUNK_ROWS, g.m)
        lo, counts = _segment_counts(g.in_ptr[1:], start, stop)
        dst = np.repeat(g.orig_ids[lo:lo + counts.size], counts)
        return _edge_rows(g.orig_ids[g.in_src[start:stop]], dst)

    with open_text(dest, "w") as stream:
        for rows in _map_ordered(encode, range(0, g.m, _CHUNK_ROWS)):
            stream.write(str(rows, "utf-8"))


def degree_profile(g: Graph) -> DegreeProfile:
    """Exact degree statistics: d = m/n, dangling fraction, degree histograms."""
    n = g.n
    out_counts, in_counts = np.bincount(g.out_deg), np.bincount(g.in_deg)
    out_seen, in_seen = np.flatnonzero(out_counts), np.flatnonzero(in_counts)
    p_hist = dict(zip(out_seen.tolist(), (out_counts[out_seen] / n).tolist()))
    in_hist = dict(zip(in_seen.tolist(), (in_counts[in_seen] / n).tolist()))
    return DegreeProfile(n=n, m=g.m, d=g.m / n, p0=p_hist.get(0, 0.0),
                         p_hist=p_hist, in_hist=in_hist)
