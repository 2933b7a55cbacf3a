"""Plain cohort CSV files, read as bytes and split into fields with NumPy.

Plain means: every byte is printable ASCII other than space and '"', or
a newline (a carriage return may come just before one); no line is
empty; every line has the header's number of fields; ids and exposure
labels are 1 to NAME_BYTES bytes, visits 1 to VISIT_DIGITS digits and
outcomes 0, 1 or empty.  read_wide and read_long raise Declined on any
other input, and on every row fault the csv reader path of ingest
reports, so that path parses such input from the start and is the only
one that raises ParseError.  The input is held one block of about
BLOCK_BYTES at a time, and per row only its columns, each in one buffer:
read_wide's id, label code and outcome codes; read_long's id, one byte
of label and outcome codes and its visit, in the narrowest unsigned type
that holds the largest visit (one byte up to 255).  read_long then
groups the rows by id with one stable argsort of the ids.  At its peak
it holds the sort's int64 row order beside the columns, 8 bytes per row,
and NumPy's merge buffer of up to 4 more; the rest of its work takes
CHUNK_ROWS rows at a time or 4 bytes per row for the row order, narrowed
to int32 in place.  On a visit-major file with ids of 7 bytes and 4
visits, tracemalloc (which does not see the merge buffer) puts the peak
of ingest.parse_long_dataset at 17.5 bytes per row.
"""

from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_BYTES = 1 << 16  # bytes read at once
CHUNK_ROWS = 1 << 16  # rows taken at once after the sort, and by ingest._long_dataset
NAME_BYTES = 64  # longest id or exposure label decoded
VISIT_DIGITS = 18  # most digits of a visit decoded, so every visit fits int64
INT32_MAX = np.iinfo(np.int32).max  # largest visit kept; bound of int32 row and cell numbers
EMPTY = 2  # outcome code of an empty field


class Declined(Exception):
    """The input is not plain, or has a row fault."""


def _require(condition) -> None:
    if not condition:
        raise Declined


def ascii_bytes(text) -> bytes:
    """Text read from a handle, as bytes; declines unless it is an ASCII str."""
    _require(isinstance(text, str) and text.isascii())
    return text.encode("ascii")


def read_wide(read) -> tuple:
    """(ids, labels, label codes, outcome codes) of a plain wide file, for ingest._wide_dataset.

    read(size) returns the next bytes of the input; ids are ASCII bytes.
    """
    blocks = _blocks(read)
    header, rest = _header(blocks)
    n_visits = header.count(b",") - 1
    _require(n_visits >= 2 and header == b",".join(
        [b"id", b"exposure", *(b"y%d" % v for v in range(1, n_visits + 1))]
    ))
    labels = {}
    ids, codes, y = _columns(chain([rest], blocks), n_visits + 2, lambda a, starts, ends: (
        _names(a, starts[:, 0], ends[:, 0]),
        _label_codes(a, starts[:, 1], ends[:, 1], labels),
        _outcome_codes(a, starts[:, 2:], ends[:, 2:]),
    ))
    return ids, labels, codes, y


def read_long(read) -> tuple:
    """The arguments of ingest._long_dataset but exposed_value, for a plain long file.

    Declines also on a duplicate (id, visit), a subject with two labels,
    or a largest visit below 2 or above the number of rows.
    """
    blocks = _blocks(read)
    header, rest = _header(blocks)
    _require(header == b"id,exposure,visit,y")
    labels = {}
    # code holds 3 x label code + outcome code, one byte for both
    sid, code, visit = _columns(chain([rest], blocks), 4, lambda a, starts, ends: (
        _names(a, starts[:, 0], ends[:, 0]),
        _label_codes(a, starts[:, 1], ends[:, 1], labels) * 3 + _outcome_codes(a, starts[:, 3], ends[:, 3]),
        _visit_numbers(a, starts[:, 2], ends[:, 2]),
    ))
    n_rows = len(visit)
    n_visits = int(visit.max(initial=0))
    _require(2 <= n_visits <= n_rows and visit.min() > 0)
    # One stable sort groups the rows by id and keeps each id's rows in
    # file order, so the first row of a group is the id's first-seen row.
    # Row and subject numbers are int32 where the rows allow; the sort's
    # int64 row order is narrowed to them in its own buffer, so at the
    # peak read_long holds the columns, 8 bytes per row and the sort's
    # merge buffer.
    number_type = np.int32 if n_rows <= INT32_MAX else np.int64
    order = _narrowed(np.argsort(sid, kind="stable"), number_type)
    starts = _run_starts(sid, order)
    first = order[starts]  # each group's first row, groups in id order
    ids, subject_label = sid[first], code[first] // 3
    del sid
    seen = np.argsort(first)  # groups in first-seen order
    del first
    ids, subject_label = ids[seen], subject_label[seen]
    number = np.empty(len(seen), dtype=number_type)
    number[seen] = np.arange(len(seen), dtype=number_type)
    del seen
    # Each sorted row's subject number, from its group's, CHUNK_ROWS rows at a time
    subject = np.empty(n_rows, dtype=number_type)
    group = -1  # the group of the row before the chunk
    for i in range(0, n_rows, CHUNK_ROWS):
        rows = order[i:i + CHUNK_ROWS]
        chunk = np.cumsum(starts[i:i + CHUNK_ROWS], dtype=number_type)
        chunk += group
        group = int(chunk[-1])
        chunk = number[chunk]
        _require((code[rows] // 3 == subject_label[chunk]).all())
        subject[rows] = chunk
    del order, starts, number
    code %= 3  # now each row's outcome code
    key = subject.astype(cell_type(len(ids), n_visits))
    key *= n_visits
    key += visit
    key.sort()
    _require(not (key[1:] == key[:-1]).any())
    del key
    return ids, labels, subject_label, subject, visit, code, n_visits


def cell_type(n_subjects: int, n_visits: int):
    """int32, or int64 when the subjects x visits cells do not all have an int32 number."""
    return np.int32 if n_subjects * n_visits <= INT32_MAX else np.int64


def _narrowed(order, dtype) -> np.ndarray:
    """order as dtype, narrowed in its own buffer: copied to its front CHUNK_ROWS at a time, then trimmed.

    A chunk is written below the rows not yet read; NumPy copies the
    first chunk's source, which overlaps its destination.
    """
    if order.dtype == dtype:
        return order
    size = len(order)
    narrow = order.view(dtype)[:size]
    for i in range(0, size, CHUNK_ROWS):
        narrow[i:i + CHUNK_ROWS] = order[i:i + CHUNK_ROWS]
    del narrow  # no view is left to dangle when the buffer is trimmed
    ratio = order.itemsize // np.dtype(dtype).itemsize
    order.resize(-(-size // ratio), refcheck=False)
    return order.view(dtype)[:size]


def _run_starts(sid, order) -> np.ndarray:
    """Whether each row of sid[order] starts a run of equal ids, compared CHUNK_ROWS at a time."""
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    for i in range(0, len(order), CHUNK_ROWS):
        key = sid[order[i:i + CHUNK_ROWS + 1]]
        starts[i + 1:i + len(key)] = key[1:] != key[:-1]
    return starts


def _columns(blocks, width: int, decode) -> list:
    """The row columns of a plain file, decode(*_fields(block, width)) giving each block's.

    Each column grows in one buffer, by an eighth when full: NumPy
    resizes it with realloc, which can move a large buffer by remapping
    its pages rather than copying them, and zero-fills the new rows, so a
    small step touches few pages the rows never fill.  A column is
    widened when a block has wider values: an id column at most
    NAME_BYTES times, a visit column at most twice.  The buffers are
    trimmed to the rows at the end.
    """
    columns, size = [], 0
    for block in blocks:
        parts = decode(*_fields(block, width))
        if not columns:
            columns = [np.empty((0, *part.shape[1:]), dtype=part.dtype) for part in parts]
        end = size + len(parts[0])
        for i, part in enumerate(parts):
            column = columns[i]
            if part.itemsize > column.itemsize:  # wider values: copy the rows so far
                column = np.empty(column.shape, dtype=part.dtype)
                column[:size] = columns[i][:size]
            if end > len(column):
                # No view of a buffer outlives a statement here, so none is left dangling.
                column.resize((max(end, len(column) * 9 // 8), *column.shape[1:]), refcheck=False)
            column[size:end] = part
            columns[i] = column
        size = end
    for column in columns:
        column.resize((size, *column.shape[1:]), refcheck=False)
    return columns


def _blocks(read):
    """The input in blocks of whole lines, about BLOCK_BYTES at a time.

    Each block ends with a newline; one is added to a last line without
    it.  A line longer than BLOCK_BYTES makes a block of its own.
    """
    pieces = []
    while chunk := read(BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            yield b"".join(pieces)
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if any(pieces):
        yield b"".join(pieces) + b"\n"


def _header(blocks) -> tuple:
    """The first line, without its line end, and the rest of the first block."""
    header, _, rest = next(blocks, b"").partition(b"\n")
    return header.removesuffix(b"\r"), rest


def _fields(block: bytes, width: int) -> tuple:
    """A plain block's bytes and each field's start and end offset, lines x width.

    Declines unless every byte is printable ASCII other than space and
    '"', a newline, or a carriage return before a newline, and every line
    has width fields.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    cr = np.flatnonzero(a == 13)
    if cr.size:
        _require((a[cr + 1] == 10).all())
        a = np.delete(a, cr)
    newline = a == 10
    lines = int(np.count_nonzero(newline))
    ends = np.flatnonzero(newline | (a == 44))
    _require(
        ends.size == lines * width
        and np.count_nonzero((a - 33 < 94) & (a != 34)) == a.size - lines
    )
    ends = ends.reshape(lines, width)
    _require(newline[ends[:, -1]].all())  # so every other separator is a comma
    starts = np.empty_like(ends)
    starts[:, 1:] = ends[:, :-1] + 1
    starts[1:, 0] = ends[:-1, -1] + 1
    starts[:1, 0] = 0
    return a, starts, ends


def _names(a, starts, ends) -> np.ndarray:
    """Fields as fixed-width byte strings; declines on an empty one or one over NAME_BYTES."""
    lengths = ends - starts
    width = int(lengths.max(initial=1))
    _require(lengths.min(initial=1) > 0 and width <= NAME_BYTES)
    cells = sliding_window_view(np.concatenate((a, np.zeros(width, dtype=np.uint8))), width)[starts]
    short = lengths < width
    if short.any():  # zero the bytes after each shorter field
        cells[short] *= np.arange(width) < lengths[short, None]
    return cells.view(f"S{width}").ravel()


def _label_codes(a, starts, ends, labels: dict) -> np.ndarray:
    """Each field's exposure label code, new labels coded in first-seen order; declines on a third."""
    names = _names(a, starts, ends)
    codes = np.full(len(names), -1, dtype=np.int8)
    for label, code in labels.items():
        codes[names == label.encode("ascii")] = code
    while (new := np.flatnonzero(codes < 0)).size:
        _require(len(labels) < 2)
        label = names[new[0]]
        codes[names == label] = labels.setdefault(label.decode("ascii"), len(labels))
    return codes


def _outcome_codes(a, starts, ends) -> np.ndarray:
    """Outcome codes of fields "0", "1" or empty; declines on any other field."""
    lengths = ends - starts
    digit = a[starts] - 48  # an empty field's start is its separator; uint8, so only "0" and "1" give <= 1
    _require((((lengths == 1) & (digit <= 1)) | (lengths == 0)).all())
    return np.where(lengths == 0, EMPTY, digit).astype(np.int8)


def _visit_numbers(a, starts, ends) -> np.ndarray:
    """Visits of 1 to VISIT_DIGITS ASCII digits; declines on any other field or one over INT32_MAX.

    The visits come in the narrowest unsigned type that holds the
    largest of them, for _columns to widen the column to.
    """
    lengths = ends - starts
    _require(lengths.min(initial=1) > 0 and lengths.max(initial=1) <= VISIT_DIGITS)
    visits = np.zeros(len(starts), dtype=np.int64)
    for k in range(int(lengths.max(initial=0))):
        more = lengths > k
        digit = a[np.minimum(starts + k, ends)] - 48
        _require((digit[more] <= 9).all())
        visits = np.where(more, visits * 10 + digit, visits)
    largest = int(visits.max(initial=0))
    _require(largest <= INT32_MAX)
    return visits.astype(np.min_scalar_type(largest))
