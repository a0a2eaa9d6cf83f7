"""Text formats: the path and gzip opener, JSON documents and the decoders
of their fields, the edge-list parser, and the one writer of edge lists
and CSV tables.

Nothing here builds a `graph.Graph`: the parser gives id columns, which
`graph.load_edge_list` turns into a graph, and `write_edge_list` reads only
a graph's arrays.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import os
import re
from contextlib import contextmanager
from numbers import Integral

import numpy as np

from .blocks import _map_ordered, _segment_counts

_ID_MAX = np.iinfo(np.int64).max
_DEGREE_KEY = re.compile("0|[1-9][0-9]*")
_CHUNK_ROWS = 1 << 14
_CHUNK_BYTES = 1 << 20
_COMMENT = re.compile(rb"^#[^\n]*", re.M)


class EdgeListParseError(ValueError):
    """An edge list could not be parsed: its line ``line_no``, or, with
    line_no None, the list as a whole (one that holds no edge)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


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
    already-open stream passed through and left open.  Modes "rb" and "wb"
    give the path's bytes instead, and a stream passed for "wb" must take
    bytes: a text stream is refused with a TypeError.  Text writes use
    newline="" so rows keep exactly the line endings the caller wrote, and a
    gzip header's mtime is 0, so equal rows give equal bytes."""
    if hasattr(target, "write" if mode[0] == "w" else "read"):
        if mode == "wb":
            try:
                target.write(b"")
            except TypeError:
                raise TypeError("tables are written to a path, a .gz path or a binary "
                                f"stream, not {type(target).__name__}") from None
        yield target
        return
    path = os.fspath(target)
    if path.endswith(".gz"):
        raw = gzip.GzipFile(path, mode[0] + "b", mtime=0)
    else:
        raw = open(path, mode[0] + "b")
    if mode.endswith("b"):
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


# _DIGITS4[v]: the four ASCII digits of v in 0..9999, zero-padded, as one
# 4-byte word whose memory holds them in print order
_DIGITS4 = ((np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# _KEEP[20 + t]: four byte flags as one word, the first t (clipped to [0, 4]) off
_KEEP = (np.arange(4) >= np.clip(np.arange(-20, 21), 0, 4)[:, None]).astype(
    np.uint8).view(np.uint32).ravel()


def _words(*texts: bytes) -> np.ndarray:
    """Each text of at most four bytes as one word, zero-padded."""
    return np.array([list(t.ljust(4, b"\0")) for t in texts], np.uint8).view(np.uint32).ravel()


# single words, and the flags that keep their first one or two bytes
_TAB, _LF, _COMMA, _CRLF, _POINT, _E_PLUS, _E_MINUS = _words(
    b"\t", b"\n", b",", b"\r\n", b".", b"e+", b"e-")
_FIRST, _FIRST2 = _words(b"\1", b"\1\1")
_POW10 = 10 ** np.arange(20, dtype=np.uint64)  # 10**19 < 2**64


def _digit_count(x: np.ndarray) -> np.ndarray:
    """The digits of each x >= 0 as str(int) prints it."""
    top = int(x.max(initial=0))
    digits = np.ones(x.size, np.int32)
    power = 10
    while power <= top:
        digits += x >= power
        power *= 10
    return digits


def _digit_words(x: np.ndarray, places: np.ndarray) -> list[tuple]:
    """(words, flags) pairs that print each x >= 0 zero-padded to ``places``
    digits, at least its own count: four digits a word, most significant
    first.  The flags drop the leading places beyond places[i]."""
    groups = max(-(-int(places.max(initial=0)) // 4), 1)
    values = []  # four digits each, least significant first
    for _ in range(groups - 1):
        high = x // 10_000
        values.append(x - high * 10_000)
        x = high
    values.append(x)
    # word j holds digit places 4j..4j+3 of 4 * groups; the first
    # 4 * groups - places are not printed
    return [(np.take(_DIGITS4, value, mode="wrap"),
             np.take(_KEEP, (20 + 4 * (groups - j)) - places, mode="wrap"))
            for j, value in enumerate(reversed(values))]


def _id_words(x: np.ndarray) -> list[tuple]:
    """(words, flags) pairs that print the non-negative integers ``x`` as
    str(int) does."""
    if int(x.max(initial=0)) < 2**31:
        x = x.astype(np.int32)  # narrower arithmetic is faster
    return _digit_words(x, _digit_count(x))


def _pow10_limbs() -> tuple[int, np.ndarray]:
    """(lo, g): g[:, e - lo] holds, most significant first, the four 32-bit
    limbs of floor(10**e / 2**r) + 1, where r puts it in [2**127, 2**128),
    for every e that `_shortest` reads."""
    lo, hi = -292, 324
    limbs = []
    for e in range(lo, hi + 1):
        if e >= 0:
            r = (10**e).bit_length() - 128
            g = (10**e << -r) if r < 0 else (10**e >> r) + 1
        else:
            g = (1 << (10**-e).bit_length() + 127) // 10**-e + 1
        limbs.append([(g >> shift) & 0xFFFFFFFF for shift in (96, 64, 32, 0)])
    return lo, np.array(limbs, np.uint64).T.copy()


_G_LO, _G = _pow10_limbs()
_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _round_to_odd(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """floor(g * cp / 2**128), with its last bit set when the next 64 bits
    of the product exceed 1, for g in four 32-bit limbs (most significant
    first) and cp < 2**60.  Column i of the product sums the 64-bit products
    of g's limb i with cp's low 32 bits and of limb i - 1 with its high ones;
    each column carries into the next."""
    g3, g2, g1, g0 = g
    low, high = cp & _U32, cp >> _S32
    t = g0 * low
    t >>= _S32
    bits = []  # bits 32i..32i+31 of the product, from column i = 1, 2, 3
    for limb, below in [(g1, g0), (g2, g1), (g3, g2)]:
        p = limb * low
        t += p & _U32
        t += below * high
        bits.append(t & _U32)
        t >>= _S32
        p >>= _S32
        t += p
    t += g3 * high
    return t | ((bits[2] << _S32 | bits[1]) > 1)


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent) of positive finite float64s: the fewest decimal
    digits such that digits * 10**exponent reads back as x and, of those, the
    nearest to x, as repr prints them; digits has no trailing zero.

    Schubfach (Giulietti 2020, "The Schubfach way to render doubles"), in the
    form of Bolz's C++ port.  x = c * 2**q reads back from every decimal
    strictly inside (2c - 1) * 2**(q-1) .. (2c + 1) * 2**(q-1), whose lower
    end is nearer, (4c - 1) * 2**(q-2), at a power of two; the ends too when
    c is even.  With k = floor(log10(2**q)) (of 3/4 * 2**q at a power of
    two), 4x and the ends times 10**-k are bounded by `_round_to_odd` from a
    128-bit 10**-k.  A multiple of 40 in the scaled interval gives the
    digits at exponent k + 1; else, of the integers s and s + 1 about
    x * 10**-k, the one in it, or the nearer if both are (ties to even)."""
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    normal = biased > 0
    c = fraction | normal.astype(np.uint64) << np.uint64(52)
    q = np.where(normal, biased - 1075, -1074)
    closer = (fraction == 0) & (biased > 1)  # the lower end of the interval is nearer
    # k = floor(log10(2**q)), or of 3/4 * 2**q where the lower end is nearer
    k = (q * 1262611 - closer * 524031) >> 22
    h = (q + (-k * 1741647 >> 19) + 1).astype(np.uint64)  # in [1, 4]
    row = -k - _G_LO
    g = [limbs.take(row) for limbs in _G]
    cb = c << np.uint64(2)
    mid = _round_to_odd(g, cb << h)
    odd = c & np.uint64(1)  # an even c reads back from either end
    lower = _round_to_odd(g, (cb - np.uint64(2) + closer) << h) + odd
    upper = _round_to_odd(g, (cb + np.uint64(2)) << h) - odd
    s = mid >> np.uint64(2)
    tens = s // np.uint64(10)
    low_in = lower <= np.uint64(40) * tens
    high_in = np.uint64(40) * tens + np.uint64(40) <= upper
    by_ten = (s >= np.uint64(10)) & (low_in != high_in)
    s4 = s << np.uint64(2)
    up_in = s4 + np.uint64(4) <= upper
    one_in = (lower <= s4) != up_in
    up = np.where(one_in, up_in, (mid > s4 + np.uint64(2))
                  | ((mid == s4 + np.uint64(2)) & (s & np.uint64(1)).astype(bool)))
    digits = np.where(by_ten, tens + high_in, s + up)
    exponent = k + by_ten
    zeros = np.flatnonzero(digits % np.uint64(10) == 0)
    while zeros.size:
        digits[zeros] //= np.uint64(10)
        exponent[zeros] += 1
        zeros = zeros[digits[zeros] % np.uint64(10) == 0]
    return digits, exponent


def _float_words(x: np.ndarray) -> list[tuple]:
    """(words, flags) pairs that print the positive finite float64s ``x`` as
    repr does.

    The digits are split at the point into an integer part and a fraction
    of a given width.  repr is positional for decimal exponents
    -4 <= e < 16, with ".0" on an integral value, and else "d.ddde±XX" (no
    point for one digit)."""
    digits, exponent = _shortest(x)
    count = _digit_count(digits)
    e = exponent + count - 1
    positional = (e >= -4) & (e < 16)
    split = np.where(positional, -exponent, count - 1)  # digits after the point
    unit = _POW10[np.clip(split, 0, 19)]  # digits has at most 17 digits
    whole = digits // unit
    fraction = digits - whole * unit
    whole *= _POW10[np.clip(-split, 0, 19)]
    width = np.where(positional, np.maximum(split, 1), split)
    columns = _digit_words(whole, _digit_count(whole)) + [
        (_POINT, _FIRST * (width > 0))] + _digit_words(fraction, width)
    if not positional.all():
        size = np.abs(e)
        columns += [(np.where(e < 0, _E_MINUS, _E_PLUS), _FIRST2 * ~positional),
                    *_digit_words(size, (2 + (size >= 100)) * ~positional)]
    return columns


def _cell_words(column: np.ndarray) -> list[tuple]:
    """(words, flags) pairs that print a column `write_csv` accepts as str does."""
    if column.dtype.kind == "f":
        return _float_words(column.astype(np.float64))
    return _id_words(column)


def _rows(size: int, columns: list[tuple]) -> np.ndarray:
    """The bytes of ``size`` rows given as (words, flags) pairs, as a uint8
    array.  Every row is laid out as the same run of words, and one compress
    keyed on the byte flags drops the bytes not printed."""
    data = np.empty((size, len(columns)), np.uint32)
    keep = np.empty((size, len(columns)), np.uint32)
    for j, (word, flags) in enumerate(columns):
        data[:, j] = word
        keep[:, j] = flags
    return data.view(np.uint8).ravel()[keep.view(bool).ravel()]


def _write_table(dest, head: str, size: int, cells, sep: tuple, end: tuple) -> None:
    """Write ``head``, then ``size`` rows "<a><sep><b><end>", where
    cells(start, stop) gives the (words, flags) pairs of a and of b for rows
    start..stop-1, and sep and end are (word, flags) pairs.

    ``dest`` is a path, written through gzip when it ends in ".gz", or a
    binary stream; a text stream raises TypeError.  Chunks of _CHUNK_ROWS
    rows are encoded with numpy on every CPU (`_map_ordered`) and their
    bytes written in order; the pool threads call numpy only."""
    def encode(start):
        stop = min(start + _CHUNK_ROWS, size)
        a, b = cells(start, stop)
        return _rows(stop - start, [*a, sep, *b, end])

    with open_text(dest, "wb") as stream:
        stream.write(head.encode("utf-8"))
        for rows in _map_ordered(encode, range(0, size, _CHUNK_ROWS)):
            stream.write(rows)


def write_csv(dest, header: str, first, second) -> None:
    """Write the header row, which names the two columns ("<a>,<b>"), then two
    equal-length columns as "<a>,<b>" rows, all ending in CRLF; cells print
    as Python ints and floats do (str is repr for both), float32 as the
    float64 it widens to.

    ``dest`` is a path (gzipped when it ends in ".gz") or a binary stream;
    a text stream raises TypeError.  Every cell must be an int >= 0 or a
    positive finite float, as node ids, scores and CCDF points are.  A
    column of another dtype raises TypeError, and a negative int or a float
    that is zero, negative, infinite or NaN raises ValueError naming the
    column and the value; either is raised before ``dest`` is opened, so a
    refused table leaves no file."""
    first, second = np.asarray(first), np.asarray(second)
    if len(first) != len(second):
        raise ValueError(f"columns differ in length: {len(first)} != {len(second)}")
    for name, column in zip(header.split(","), (first, second), strict=True):
        if column.dtype.kind not in "iuf":
            raise TypeError(f"columns must hold integers or floats, not {column.dtype}")
        ok = column >= 0 if column.dtype.kind != "f" else (column > 0) & (column < np.inf)
        if not ok.all():
            raise ValueError(f"column {name!r} holds {column[ok.argmin()].item()!r}; a "
                             "cell is an int >= 0 or a positive finite float")

    def cells(start, stop):
        return _cell_words(first[start:stop]), _cell_words(second[start:stop])

    _write_table(dest, header + "\r\n", len(first), cells, (_COMMA, _FIRST), (_CRLF, _FIRST2))


def write_edge_list(g: Graph, dest) -> None:
    """Write the graph as "src<TAB>dst" lines using original node ids, to a
    path (gzipped when it ends in ".gz") or a binary stream; a text stream
    raises TypeError.

    The ids of each chunk of rows are looked up as it is encoded: its
    destinations are the nodes whose in-lists it spans (`_segment_counts`),
    each repeated once per edge of its in-list in the chunk."""
    def cells(start, stop):
        lo, counts = _segment_counts(g.in_ptr[1:], start, stop)
        dst = np.repeat(g.orig_ids[lo:lo + counts.size], counts)
        return _id_words(g.orig_ids[g.in_src[start:stop]]), _id_words(dst)

    _write_table(dest, "", g.m, cells, (_TAB, _FIRST), (_LF, _FIRST))
