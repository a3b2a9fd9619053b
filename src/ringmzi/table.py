"""CSV table writer: the column blocks of a ResultTable as '%.17e' text and flag cells, in
chunks of at most WRITE_BLOCK_ROWS rows, written over the output file in place or to stdout."""

from __future__ import annotations

import functools
import itertools
import math
import os
import stat
import sys
from collections.abc import Callable, Iterable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

# Rows formatted per write; bounds the text held in memory for large tables. A chunk costs
# about 0.23 ms plus 84 ns per row (a jsi block), so fewer, larger chunks write faster; at
# 8192 rows a 400 x 400 jsi write peaks at about 0.9 MB, traced.
WRITE_BLOCK_ROWS = 8192
# A chunk of one row is cut where its widths change, unless the cuts that adds to the runs
# passed in average fewer than _RUN_ROWS rows each: it is then compacted (see _chunk). One
# more run costs about what compacting 80 rows does (measured from 16 to 4096 rows).
_RUN_ROWS = 80


class LazyBlocks:
    """Re-iterable table blocks, each computed when reached: block k is ``make(k)``."""

    def __init__(self, count: int, make: Callable[[int], list]) -> None:
        self.count, self.make = count, make

    def __iter__(self):
        return map(self.make, range(self.count))


@dataclass
class ResultTable:
    """Table with provenance metadata: a re-iterable sequence of column blocks.

    A block holds one column per entry of ``columns``: a float, int or bool array,
    or Cells, the cells of numbers formatted by ``format_e17`` or the flags of
    ``flags``, whose four kinds have four widths. A block has at least one array,
    and its arrays share one shape, 1-D or 2-D, to which its Cells broadcast. The
    rows of a 2-D block are the table's rows in C order.
    """

    columns: list[str]
    blocks: Iterable[list]
    meta: dict[str, str]


# The flag kinds by code, as cells from byte 0 (see Cells): their text and signed widths.
_FLAG_TEXT = np.array([b"", b"pole", b"domain", b"threshold"], "S9").view(np.uint8).reshape(4, 9)
_FLAG_WIDTHS = np.array([0, -4, -6, -9], np.int8)


def flags(size: int, threshold=False, domain=False, pole=False) -> Cells:
    """Flag column as Cells from row masks: threshold outranks domain, domain outranks pole."""
    kind = np.where(threshold, 3, np.where(domain, 2, np.where(pole, 1, 0)))
    return Cells(np.broadcast_to(_FLAG_TEXT.take(kind, axis=0), (size, 9)),
                 np.broadcast_to(_FLAG_WIDTHS.take(kind), (size,)))


_POWER_RANGE = range(342, -293, -1)  # 10^(17 - k) for every decimal exponent k of a finite float
_SPLIT = 2.0 ** 27 + 1  # Dekker's split of a double into two 26-bit halves


@functools.cache
def _e17_tables():
    """Built on the first write, from integers. At k + 325, k a decimal exponent: rows (hi, hi's
    Dekker halves, lo) and shifts, 10^(17 - k) = (hi + lo) 2^shift, hi in [1/2, 2]; 'e-32' ..
    'e+30' as '<u4' words, the fifth bytes of 'e-325' .. 'e+309'; the signed width (see Cells),
    at 635 + k + 325 if negative. The '<u4' words of NUL or '-', digit, '.', digit at D // 10^16
    (+ 100 if negative) and of 0000 .. 9999; the dtype of a cell's 25 bytes as such words. The
    cells of 0, -0, inf, -inf, nan, nan (at 2 isinf + 4 isnan + signbit), and their widths."""
    powers = []
    for p in _POWER_RANGE:
        e = (10 ** abs(p)).bit_length() * (1 if p >= 0 else -1)
        n, d = (10 ** p, 1 << e) if p >= 0 else (1 << -e, 10 ** -p)
        hi = n / d  # int / int is correctly rounded, and so is the remainder
        hn, hd = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        powers.append((hi, head, hi - head, (n * hd - hn * d) / (d * hd), e))
    exponents, powers = [b"e%+03d" % k for k in range(-325, 310)], np.array(powers)
    widths = [19 + len(text) for text in exponents]
    words = lambda texts: np.frombuffer(b"".join(texts), "<u4")  # noqa: E731
    special = [b"%.17e" % value for value in (0.0, -0.0, math.inf, -math.inf, math.nan, math.nan)]
    return (powers[:, :4].copy(), powers[:, 4].astype(np.int32), words(t[:4] for t in exponents),
            np.frombuffer(b"".join(t[4:] or b"\0" for t in exponents), np.uint8),
            np.array(widths + [-1 - width for width in widths], np.int8),
            words(s + b"%d.%d" % divmod(i, 10) for s in (b"\0", b"-") for i in range(100)),
            words(b"%04d" % i for i in range(10 ** 4)),
            np.dtype([("head", "<u4"), ("quads", "<u4", 4), ("exponent", "<u4"), ("tail", "u1")]),
            np.array(special, "S25").view(np.uint8).reshape(-1, 25),
            np.array([-len(text) for text in special], np.int8))


def _scaled_digits(m, e2, index):
    """floor and fraction of m 2^e2 10^(17 - k), k = index - 325, exact to about 2^-100: Dekker's
    product, each term written over a row of powers gathered as rows (2x faster than by column)."""
    hi, hi_head, hi_tail, lo = _e17_tables()[0].take(index, axis=0).T.copy()
    head, m_head = m * hi, _SPLIT * m
    m_head -= m_head - m
    m_tail = m - m_head
    error = np.multiply(m_head, hi_head, out=hi)
    error -= head
    error += np.multiply(m_head, hi_tail, out=m_head)
    error += np.multiply(m_tail, hi_head, out=hi_head)
    error += np.multiply(m_tail, hi_tail, out=hi_tail)
    error += np.multiply(m, lo, out=lo)
    del m_head, m_tail
    scale = e2 + _e17_tables()[1].take(index)
    whole = np.floor(np.ldexp(error, scale, out=error), out=lo)
    digits = np.ldexp(head, scale, out=head).astype(np.int64)
    digits += whole.astype(np.int64)
    return digits, error - whole  # a new array: the gathered powers are freed on return


@dataclass
class Cells:
    """Cells of a CSV column: their text as uint8 of ``shape`` + (bytes,), NUL-padded, and
    each cell's length in bytes, negated where the text starts at byte 0 instead of 1."""

    text: np.ndarray
    widths: np.ndarray

    shape = property(lambda self: self.widths.shape)

    def __getitem__(self, index) -> Cells:
        return Cells(self.text[index], self.widths[index])

    @functools.cached_property
    def cuts(self) -> list[list[int]]:
        """Of 2-D cells, per axis: the indices whose widths differ from the ones before."""
        return [(np.flatnonzero(np.diff(self.widths, axis=axis).any(axis=1 - axis)) + 1).tolist()
                if self.shape[axis] > 1 else [] for axis in (0, 1)]


def format_e17(values) -> Cells:
    """Each value's '%.17e' text, byte for byte, as Cells of the values' shape: 25 bytes each,
    NUL-padded, and each cell's width.

    The 18 significant digits D = round(|x| 10^(17-k)) are taken in double-double
    arithmetic; values within 2^-30 of a rounding tie go to '%'. A cell is 23 bytes,
    plus 1 for a '-' in byte 0 (else byte 0 is a NUL) and 1 for a 3-digit exponent. A
    '%' cell, and a cell of 0, inf or nan (copied from a table), starts at byte 0 and is
    as long as its text. The others are written as words: sign, digit, '.', digit;
    4 x 4 digits; 'e+NN'; a last byte.
    """
    _, _, exponents, tails, lengths, heads, quads, record, specials, special_widths = _e17_tables()
    x = np.asarray(values, dtype=np.float64).ravel()
    magnitude, special = np.abs(x), []  # special: the indices of 0, inf and nan
    if not 0 < magnitude.min(initial=1.0) <= magnitude.max(initial=1.0) < math.inf:
        special = (~((magnitude > 0) & (magnitude < math.inf))).nonzero()[0]
        magnitude[special] = 1.0  # 10^17 exactly, whose fraction is 0: no '%' below
    mantissa, e2 = np.frexp(magnitude)
    # k + 325, floored before the offset (325 - 1e-17 rounds to 325). floor(log10) can still
    # be one off: k is corrected from the floored digits, not the rounded ones.
    index = (np.floor(np.log10(magnitude, out=magnitude), out=magnitude) + 325).astype(np.intp)
    del magnitude  # each array is dropped once dead: the peak bounds the write block
    digits, fraction = _scaled_digits(mantissa, e2, index)
    if digits.min(initial=10 ** 17) < 10 ** 17 or digits.max(initial=0) >= 10 ** 18:
        redo = ((digits < 10 ** 17) | (digits >= 10 ** 18)).nonzero()[0]
        index[redo] += np.where(digits[redo] < 10 ** 17, -1, 1)
        digits[redo], fraction[redo] = _scaled_digits(mantissa[redo], e2[redo], index[redo])
    del mantissa, e2
    digits += fraction >= 0.5
    fallback = (np.abs(fraction - 0.5) < 2.0 ** -30).nonzero()[0]
    del fraction
    if digits.max(initial=0) == 10 ** 18:  # 18 nines rounded up
        index += (carry := digits == 10 ** 18)
        digits[carry] = 10 ** 17
    # The 16 last digits in 4-digit groups, in contiguous rows: 1st, 3rd, 2nd, 4th.
    groups = np.empty((4, x.size), np.int64)
    np.subtract(digits, (first := digits // 10 ** 8) * 10 ** 8, out=groups[3])
    np.subtract(first, (digits := first // 10 ** 8) * 10 ** 8, out=groups[2])
    del first
    np.floor_divide(groups[2:], 10 ** 4, out=groups[:2])
    groups[2:] -= groups[:2] * 10 ** 4
    cells = (out := np.empty((x.size, 25), np.uint8)).view(record)[:, 0]
    cells["head"] = heads.take(digits + 100 * (negative := np.signbit(x)))
    del digits
    words = quads.take(groups)
    del groups
    for j, word in zip((0, 2, 1, 3), words):  # per word: 2x faster than (n, 4)
        cells["quads"][:, j] = word
    cells["exponent"], cells["tail"] = exponents.take(index), tails.take(index)
    width = lengths.take(index + 635 * negative)
    if text := ["%.17e" % value for value in x[fallback].tolist()]:
        out[fallback] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
        width[fallback] = [-len(cell) for cell in text]
    if len(special):
        code = 2 * np.isinf(x[special]) + 4 * np.isnan(x[special]) + negative[special]
        out[special], width[special] = specials.take(code, axis=0), special_widths.take(code)
    return Cells(out.reshape(np.shape(values) + (25,)), width.reshape(np.shape(values)))


# One dtype object per width: parsing "S25" at every copy costs more than a small copy.
_bytes = functools.cache(lambda width: np.dtype(f"S{width}"))


def _chunk(columns: list, runs: list) -> np.ndarray:
    """The rows of ``columns``, which broadcast to (outer, span), as CSV bytes in C order.

    Numbers are formatted together. Each Cells column passed in has one width in each
    span [a, b) of ``runs``. A chunk of one row (outer = 1) is cut further, wherever a
    column's cell width changes; in a chunk of several rows, the numbers must fit the
    runs as they are. The rows of each run are copied at their widths through one
    (outer, b - a, row) view, as 2-D bytes. Where a run of several rows mixes widths, or
    a chunk of one row is cut further once per fewer than _RUN_ROWS rows, every cell is
    copied NUL-padded and the NULs are removed.
    """
    cells = [isinstance(c, Cells) for c in columns]
    numbers = [c for c, is_cells in zip(columns, cells) if not is_cells]
    formatted = format_e17(  # one column is formatted through a view: no copy
        np.stack(numbers, axis=-1) if len(numbers) > 1 else numbers[0][..., None])
    # Cells of shape (outer or 1, span or 1, columns): one per run of adjacent numeric
    # columns, one per Cells column.
    segments, j = [], 0
    for is_cells, group in itertools.groupby(range(len(columns)), cells.__getitem__):
        if is_cells:
            segments += [columns[i][:, :, None] for i in group]
        else:
            j += (count := len(list(group)))
            segments.append(formatted if count == len(numbers) else formatted[:, :, j - count:j])
    outer, span, _ = map(max, zip(*(c.shape for c in segments)))
    if outer == 1:  # cut where the widths of any column change; per column, 4x faster than any()
        changed = np.zeros(span - 1, bool)
        for c in segments:
            for w in c.widths[0].T if c.shape[1] > 1 else ():
                changed |= w[1:] != w[:-1]
        cuts = np.flatnonzero(changed)
        if fixed := (cuts.size + 1 - len(runs)) * _RUN_ROWS < span:
            marks = [0, *(cuts + 1).tolist(), span]
            runs = list(zip(marks, marks[1:]))
    else:  # whether each run of the numbers holds one width: as bytes, cheaper than numpy's
        fixed = all((w := formatted.widths[:, a:b]).tobytes()
                    == w[:1, :1].tobytes() * (w.size // w.shape[2]) for a, b in runs)
    if fixed:  # each column's width in each run, from one take per segment
        starts = [a for a, _ in runs]
        layout = [(a, b, ws) for (a, b), ws in zip(runs, zip(*(
            c.widths[0].take(starts, axis=0, mode="clip").tolist() for c in segments)))]
    else:  # every cell padded, from byte 0
        layout = [(0, span, [[-c.text.shape[-1]] * c.shape[2] for c in segments])]
    sizes = [(b - a) * sum(abs(w) + 1 for ws in widths for w in ws) for a, b, widths in layout]
    out, at = np.full((outer, sum(sizes)), ord(","), np.uint8), 0
    for (a, b, widths), size in zip(layout, sizes):
        row, pos, at = size // (b - a), at, at + size
        for c, ws in zip(segments, widths):
            part, first = slice(a, b) if c.shape[1] > 1 else slice(None), 0
            for w, same in itertools.groupby(ws):  # adjacent columns of one width: one copy
                count, start, width = len(list(same)), int(w > 0), abs(w)
                if width:  # each cell copied as one S item; an empty flag copies nothing
                    np.ndarray((outer, b - a, count, 1), _bytes(width), out, pos,
                               (out.strides[0], row, width + 1, 1))[...] = c.text[
                        :, part, first:first + count, start:start + width].view(_bytes(width))
                pos, first = pos + count * (width + 1), first + count
        out[:, at - size + row - 1:at:row] = ord("\n")
    return out if fixed else out[out != 0]


def _chunks(block: list):
    """The rows of a block as _chunk bytes of at most WRITE_BLOCK_ROWS rows each.

    A 1-D block is one row of 2-D columns, which _chunk cuts itself. A 2-D block is
    also cut where the widths of a Cells column change, along either axis.
    """
    block = [c if len(c.shape) == 2 else c[None] for c in block]
    outer, span = map(max, zip(*(c.shape for c in block)))
    cuts = [c.cuts for c in block if isinstance(c, Cells)] if outer > 1 else []
    row_marks = sorted({*range(0, outer, max(1, WRITE_BLOCK_ROWS // span)), outer,
                        *(i for rows, _ in cuts for i in rows)})
    for j0 in range(0, span, WRITE_BLOCK_ROWS):
        j1 = min(j0 + WRITE_BLOCK_ROWS, span)
        marks = sorted({j0, j1, *(j for _, cols in cuts for j in cols if j0 < j < j1)})
        runs = [(a - j0, b - j0) for a, b in zip(marks, marks[1:])]
        for i0, i1 in zip(row_marks, row_marks[1:]):
            yield _chunk([c[slice(i0, i1) if c.shape[0] > 1 else slice(None),
                            slice(j0, j1) if c.shape[1] > 1 else slice(None)] for c in block], runs)


@contextmanager
def _overwrite(path: str):
    """A binary handle that writes over the file at path from byte 0, creating it if need be.

    The file is opened without O_TRUNC: freeing a previous file's blocks first costs more
    than writing over them. Once the handle is closed, a regular file that is longer than
    what reached it is cut there, also after a failure, so no byte of the previous file
    remains. A new file, or one the table outgrew, takes no cut.
    """
    # O_BINARY (Windows only): without it the C runtime writes each '\n' as '\r\n'.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with open(fd, "wb", closefd=False) as handle:
            yield handle
    finally:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):  # /dev/null and FIFOs take no cut (and cannot seek)
                end = os.lseek(fd, 0, os.SEEK_CUR)
                if st.st_size > end:
                    os.ftruncate(fd, end)
        finally:
            os.close(fd)


def write_table(table: ResultTable, path: str | None) -> None:
    """Write the table as CSV with '#'-prefixed metadata lines.

    Each block goes out in _chunks: numbers as Python's '%.17e' byte for byte
    ('inf', 'nan' as such), preformatted numbers and flags as is. The bytes
    go over the file in place (see _overwrite) or to stdout's binary buffer. Output
    bytes are a pure function of the table contents, so identical configurations
    produce identical files.
    """
    header = [f"# {k}={table.meta[k]}" for k in sorted(table.meta)] + [",".join(table.columns)]
    if path is None:
        sys.stdout.flush()  # text already written to stdout goes first
    with nullcontext(sys.stdout.buffer) if path is None else _overwrite(path) as handle:
        handle.write(("\n".join(header) + "\n").encode())
        # Unlike for loops, writelines and chain drop each chunk, and each block once its
        # chunks are written, before they make the next.
        handle.writelines(itertools.chain.from_iterable(map(_chunks, table.blocks)))

