"""Edge-list ingestion into a canonical undirected simple graph."""

from __future__ import annotations

import contextlib
import stat
import warnings
from array import array
from pathlib import Path

import numpy as np

_INT64_MAX = 2 ** 63 - 1
_MAX_VERTICES = 3_037_000_499  # isqrt(_INT64_MAX): every lo * n + hi fits
# Bytes per slice in the scan for a '#' that opens no line.
_SCAN_BYTES = 1 << 20
# Label entries, pairs or keys per block of the load's passes.
_LABEL_BLOCK = 1 << 16
_PACKED_ENTRIES = 2 ** 32  # from this many entries, pair indices pass 31 bits
# Suffixes by which np.loadtxt, given a path, picks a decompressor.
_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class GraphParseError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, path, line_number: int, message: str):
        self.path = str(path)
        self.line_number = line_number
        super().__init__(f"{path}:{line_number}: {message}")


class SimpleGraph:
    """Loop-free, duplicate-free undirected graph with dense vertex ids.

    Vertex ids are 0..num_vertices-1.  ``SimpleGraph(n, keys)`` holds each
    edge (u, v), u < v, once as the int64 key u * n + v: ``keys`` must
    ascend strictly, each key in 0..n^2-1 with u < v, and n be at most
    3,037,000,499 so that no key overflows, or it is a ValueError.  The
    graph keeps ``keys`` as its own, 8 bytes per edge.  ``from_pairs`` and
    ``load_edge_list`` build from (u, v) pairs and from a file, dropping
    loops and duplicates, counted in ``loops_dropped`` and
    ``duplicates_dropped``.  ``labels`` maps ids back to the source file's
    labels, which ascend strictly, so ``np.searchsorted(labels, label)`` is
    a label's id; it is None for a graph built programmatically.
    ``edge_array`` decodes the keys into ascending (m, 2) rows (u, v) on
    each access.  Degrees are precomputed, and the keys checked, a block
    of keys at a time.  Instances are treated as immutable once built.
    """

    def __init__(
        self,
        num_vertices: int,
        keys: np.ndarray,
        labels: np.ndarray | None = None,
        loops_dropped: int = 0,
        duplicates_dropped: int = 0,
    ):
        n = int(num_vertices)
        if n > _MAX_VERTICES:
            raise ValueError(f"num_vertices={n} above {_MAX_VERTICES}: "
                             "edge keys would overflow int64")
        keys = np.asarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError("keys must be 1-D edge keys u * n + v; "
                             "SimpleGraph.from_pairs takes (u, v) pairs")
        out_of_order = keys[1:] <= keys[:-1]
        if out_of_order.any():
            i = int(out_of_order.argmax())
            if keys[i] == keys[i + 1] and n:
                u, v = divmod(int(keys[i]), n)
                raise ValueError("edge keys do not ascend strictly: "
                                 f"duplicate edge ({u}, {v})")
            raise ValueError("edge keys do not ascend strictly")
        if keys.size and (keys[0] < 0 or keys[-1] >= n * n):
            raise ValueError("edge key outside 0..num_vertices**2-1")
        self.num_vertices = n
        self.keys = keys
        self.labels = labels
        self.loops_dropped = int(loops_dropped)
        self.duplicates_dropped = int(duplicates_dropped)
        # each edge adds one to both ends' degrees, the lower then the
        # higher, in blocks of at least n keys, as each bincount costs n
        self.degrees = np.zeros(n, dtype=np.int64)
        step = max(_LABEL_BLOCK, n)
        for start in range(0, keys.size, step):
            block = keys[start:start + step]
            ends = block // n  # on int64, a fraction of the cost of %
            self.degrees += np.bincount(ends, minlength=n)
            ends *= n
            np.subtract(block, ends, out=ends)
            self.degrees += np.bincount(ends, minlength=n)
            # u < v exactly when u * n + v < v * (n + 1), which fits in
            # int64 since (n - 1) * (n + 1) < n^2
            ends *= n + 1
            if (block >= ends).any():
                raise ValueError("edge key with u >= v")

    @property
    def edge_array(self) -> np.ndarray:
        """The (m, 2) int64 rows (u, v), u < v, in ascending order, decoded
        from ``keys`` by ``_edge_rows`` afresh on each access."""
        return _edge_rows(self.keys, self.num_vertices)

    @property
    def num_edges(self) -> int:
        return self.keys.size

    @property
    def num_isolated(self) -> int:
        """The vertices of degree 0, counted without a mask of n bytes."""
        return self.num_vertices - int(np.count_nonzero(self.degrees))

    @classmethod
    def from_pairs(cls, pairs, num_vertices: int | None = None,
                   labels: np.ndarray | None = None) -> "SimpleGraph":
        """Build from raw (u, v) pairs, dropping loops and duplicates.

        ``pairs`` is an (m, 2) array or any iterable of pairs; an array is
        read as is, without a copy through a Python list, and left as it
        is.  Besides the pairs, the build holds the m edge keys and, at the
        end, the graph's own arrays.
        """
        if not isinstance(pairs, np.ndarray):
            pairs = list(pairs)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if num_vertices is None:
            num_vertices = int(arr.max()) + 1 if arr.size else 0
        num_vertices = int(num_vertices)
        keys, loops = _edge_keys(arr, num_vertices)
        return cls._from_keys(num_vertices, keys, loops, labels)

    @classmethod
    def _from_keys(cls, num_vertices: int, keys: np.ndarray, loops: int,
                   labels) -> "SimpleGraph":
        """The graph on the distinct ``keys`` but the ``loops`` set to
        ``_INT64_MAX``, which no key reaches (see ``_MAX_VERTICES``), with
        both drop counts.  Overwrites ``keys``, which owns its buffer: the
        loops sort last, the first of each run of equal keys moves to the
        front a block of ``_LABEL_BLOCK`` at a time, and the buffer shrinks
        to those, so the keys are never copied whole.
        """
        keys.sort()
        end = keys.size - loops
        distinct = 0
        for block, label, first in _group_firsts(keys[:end], 0):
            kept = block[first]  # keys[:start] is read
            keys[distinct:distinct + kept.size] = kept
            distinct += kept.size
            del label, first, kept  # none outlives the scan
        keys.resize(distinct, refcheck=False)
        return cls(num_vertices, keys, labels, loops, end - distinct)

    def __repr__(self):
        return (f"SimpleGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges})")


def _edge_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """The (m, 2) int64 rows (u, v) of keys u * n + v, by one np.divmod."""
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def _edge_keys(pairs: np.ndarray, num_vertices: int):
    """Each row's int64 key lo * num_vertices + hi (lo <= hi), a loop's set
    to ``_INT64_MAX``, and the number of loops, from integer ``pairs``;
    ValueError for an endpoint out of range.  Past ``_MAX_VERTICES`` a key
    can overflow, and the graph's constructor raises."""
    # narrower ints widen here, before lo * num_vertices can overflow
    lo = np.minimum(pairs[:, 0], pairs[:, 1], dtype=np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    if lo.size and (lo.min() < 0 or hi.max() >= num_vertices):
        raise ValueError("edge endpoint outside 0..num_vertices-1")
    loops = lo == hi
    lo *= num_vertices
    lo += hi
    lo[loops] = _INT64_MAX
    return lo, int(np.count_nonzero(loops))


def load_edge_list(path) -> SimpleGraph:
    """Parse a plain-text edge list into a SimpleGraph.

    Format: one "u v" pair of integer labels per line, any whitespace,
    lines starting with '#' are comments.  Vertex ids number the labels
    in ascending order, so loading the same file twice gives identical
    graphs; the numbering and the keying are two in-place sorts of a
    packed int64 key (see ``_key_labels``), with ``np.unique`` for labels
    too far apart to pack.  Self-loops are dropped (their vertices are
    kept, degree 0) and duplicate pairs - including reversed ones - are
    merged; both drop counts are recorded on the result.  A label outside
    the int64 range is a parse error.

    The whole file is first read in one ``np.loadtxt`` call.  When that
    cannot stand for the line-by-line reading - loadtxt rejects the file,
    finds other than two columns, or a slice-wise scan finds a '#' after a
    label, which loadtxt would take for a trailing comment - the file is
    read again line by line, 8 bytes a label, and that reading raises the
    ``GraphParseError`` with the line number.  Both readings give the same
    labels, so the graph does not depend on which one ran.  The file is
    plain text whatever its name: one named like a compressed file is read
    through an open handle, as loadtxt would decompress it by its path.
    Read up to three times, it must be a regular file, not a pipe, or it
    is a ValueError before any read.

    Every stage works in the buffer the labels were read into (the line
    reading's labels are copied into one of their own once): the sort key,
    then the edge keys, then, deduplicated and shrunk, the graph's keys.
    So the load holds that buffer, 16 bytes a pair, the distinct labels
    and block buffers, and the graph is its 8-byte keys, its degrees and
    its labels.
    """
    path = Path(path)
    if not stat.S_ISREG(path.stat().st_mode):  # a missing path: OSError
        raise ValueError(f"{path}: not a regular file; write a pipe's "
                         "output to a file first")
    raw = _read_bulk(path)
    if raw is None:
        raw = _read_lines(path).copy()  # the array('q') owns its labels
    labels, keys, loops = _key_labels(raw)
    del raw  # np.unique's input, where it numbered the labels
    return SimpleGraph._from_keys(labels.size, keys, loops, labels)


def _key_labels(raw: np.ndarray):
    """(labels, keys, loops) of the (m, 2) labels ``raw``: the distinct
    labels ascending, each row's edge key lo * n + hi of its labels' ids
    as ``np.unique(raw, return_inverse=True)`` numbers them (a loop's set
    to ``_INT64_MAX``), and the number of loops.

    With N entries and b = (N - 1).bit_length(), an in-place sort of
    (label - min) << b | position groups equal labels.  A pass over blocks
    of ``_LABEL_BLOCK`` counts the groups, and a second shifts each
    group's label out into one array of that size and writes
    (position >> 1) << 32 | group back, so a second sort puts each pair's
    two groups side by side, the lower first.  A pass over blocks of pairs
    writes their keys over the front half, each block read before it is
    overwritten, and ``raw`` (which owns its buffer) shrinks to them.  So
    besides ``raw`` this holds block buffers and 8 bytes per distinct
    label.  ``np.unique`` and ``_edge_keys`` take labels with
    (max - min + 1) << b past 2^63, or 2^32 entries or more (a pair index
    past 31 bits), instead.
    """
    key = raw.reshape(-1)
    size = key.size
    low = int(key.min()) if size else 0
    bits = (size - 1).bit_length()
    # in Python ints: max - min itself can pass int64
    if (size >= _PACKED_ENTRIES
            or (int(key.max(initial=low)) - low + 1) << bits > 2 ** 63):
        labels, ids = np.unique(key, return_inverse=True)
        return (labels, *_edge_keys(ids.reshape(-1, 2), labels.size))
    key -= low
    key <<= bits
    for start in range(0, size, _LABEL_BLOCK):
        block = key[start:start + _LABEL_BLOCK]
        block |= np.arange(start, start + block.size)
    key.sort()
    labels = np.empty(sum(int(np.count_nonzero(first))
                          for _, _, first in _group_firsts(key, bits)),
                      dtype=key.dtype)
    groups = 0
    for block, label, first in _group_firsts(key, bits):
        new = int(np.count_nonzero(first))
        np.compress(first, label, out=labels[groups:groups + new])
        np.cumsum(first, out=label)
        label += groups - 1
        groups += new
        # (position >> 1) << 32, as the position's bits but its lowest
        # shifted up 31
        block &= (1 << bits) - 2
        block <<= 31
        block |= label
    labels += low
    key.sort()
    loops = 0
    for start in range(0, size // 2, _LABEL_BLOCK):
        ends = key[2 * start:2 * (start + _LABEL_BLOCK)] & 0xFFFFFFFF
        lo, hi = ends[0::2], ends[1::2]
        loop = lo == hi
        loops += int(np.count_nonzero(loop))
        block = key[start:start + lo.size]  # read, as key[:2 * start] is
        np.multiply(lo, labels.size, out=block)
        block += hi
        block[loop] = _INT64_MAX
    raw.resize(size // 2, refcheck=False)
    return labels, raw, loops


def _group_firsts(key: np.ndarray, bits: int):
    """Each block of the sorted ``key`` (>= 0), its labels ``block >> bits``
    and a flag on every entry that starts a group of equal labels."""
    last = -1  # below every label
    for start in range(0, key.size, _LABEL_BLOCK):
        block = key[start:start + _LABEL_BLOCK]
        label = block >> bits
        first = np.empty(label.size, dtype=bool)
        first[0] = label[0] != last
        np.not_equal(label[1:], label[:-1], out=first[1:])
        last = label[-1]
        yield block, label, first


def _read_bulk(path: Path) -> np.ndarray | None:
    """The (m, 2) labels by one ``np.loadtxt``, or None where only the
    line-by-line reading gives the right labels or the right error."""
    if _has_inline_comment(path):
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore",
                                    "loadtxt: input contained no data")
            # numpy releases from 1.23 read a token such as "1.5" or "1e3"
            # through a float and only warn; that token must be an error
            warnings.simplefilter("error", DeprecationWarning)
            # loadtxt reads a path faster than a handle, but decompresses a
            # path by these suffixes
            with (open(path, encoding="utf-8")
                  if path.suffix in _DECOMPRESSED_SUFFIXES
                  else contextlib.nullcontext(path)) as source:
                raw = np.loadtxt(source, dtype=np.int64, comments="#",
                                 ndmin=2, encoding="utf-8")
    # a bad token, an int64 overflow, bad UTF-8 or a float-read token
    except (ValueError, DeprecationWarning):
        return None
    return raw if raw.shape[1] == 2 else None  # no data reads as 1 column


def _has_inline_comment(path: Path) -> bool:
    """Whether some '#' follows a non-blank character on its line.

    Only each line's first '#' is looked at, and a line ends at a line
    feed or a carriage return.  Each slice of ``_SCAN_BYTES`` is read after
    two bytes that stand in for the line it continues: a line feed, then
    ' ' (blank so far), 'x' (a non-blank byte before any '#') or '#' (its
    first '#' read).  A slice where every '#' follows a line break, as
    comment lines do, is clean; in any other, each '#' after no break
    finds its line's start by two ``rfind``s back to the last such '#'
    (none found: that '#' is on its line), and the bytes from there to it
    are an inline comment's prefix when they hold no '#' but a non-blank
    byte.  Neither the file nor a mask is held whole: each slice is read
    into one buffer, behind its two stand-in bytes.
    """
    buf = bytearray(_SCAN_BYTES + 2)
    into = memoryview(buf)[2:]
    with open(path, "rb") as fh:
        head = b"\n "  # the file's first byte opens a blank line
        while n := fh.readinto(into):
            buf[:2] = head
            end = n + 2  # the last slice can be short
            # the next slice's stand-in, from the line after the last break
            newline = buf.rfind(b"\n", 0, end)
            cut = max(newline, buf.rfind(b"\r", newline + 1, end)) + 1
            tail = buf[cut:end]
            head = (b"\n#" if b"#" in tail
                    else b"\nx" if tail.strip() else b"\n ")
            data = np.frombuffer(buf, dtype=np.uint8, count=end)
            marks = np.flatnonzero(data == ord("#"))
            before = data[marks - 1]  # data[0] is a break, not a '#'
            marks = marks[(before != ord("\n")) & (before != ord("\r"))]
            prev = 0  # data[0] is a break: the first '#' finds its line
            for mark in marks.tolist():
                start = max(buf.rfind(b"\n", prev, mark),
                            buf.rfind(b"\r", prev, mark)) + 1
                if start:
                    prefix = buf[start:mark]
                    if b"#" not in prefix and prefix.strip():
                        return True
                prev = mark
    return False


def _read_lines(path: Path) -> np.ndarray:
    """The (m, 2) labels, one line at a time; raises ``GraphParseError``
    at the first malformed line, a line that is not UTF-8 included: the
    text layer decodes ahead of the line it returns, so bad bytes are kept
    as surrogates and each line that is not ASCII is checked alone."""
    labels = array("q")  # 8 bytes a label
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise GraphParseError(path, line_no, str(exc)) from None
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            if len(tokens) != 2:
                raise GraphParseError(
                    path, line_no, f"expected 2 tokens, found {len(tokens)}"
                )
            try:
                a = int(tokens[0])
                b = int(tokens[1])
            except ValueError:
                raise GraphParseError(
                    path, line_no, f"non-integer vertex label in {tokens!r}"
                ) from None
            try:
                labels.extend((a, b))
            except OverflowError:
                raise GraphParseError(
                    path, line_no, f"vertex label outside int64 in {tokens!r}"
                ) from None
    return np.frombuffer(labels, dtype=np.int64).reshape(-1, 2)


def choose_r(num_vertices: int) -> int:
    """Smallest r with 2**r >= num_vertices (the operative power when
    fitting a real graph whose vertex count is not a power of two)."""
    if num_vertices < 1:
        raise ValueError(f"num_vertices must be >= 1, got {num_vertices}")
    return int(num_vertices - 1).bit_length()
