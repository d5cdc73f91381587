"""Set-file I/O.

Text format: one header line ``box N1 N2 ... Nn`` followed by one line per
member ``x1 x2 ... xn`` (1-based coordinates), UTF-8 with LF line endings.

Binary format: the magic ``HOFA1`` and a newline, the same ASCII header line,
then the membership mask as a raw little-endian bitset of the box flattened
in row-major order (axis 1 slowest).  ``read_set`` sniffs the magic.

Every number in a header or member line is ASCII decimal, ``[0-9]+``.  Every
malformed file raises ``SetFileError``: bytes that are not UTF-8 where text
is expected, a magic, header or member line longer than ``MAX_LINE_BYTES``
(refused after reading that many bytes), a number in any other form (signs,
underscores, non-ASCII digits), a bad or oversized box, bad member lines and
payloads of the wrong length.  Member lines are read one capped line at a
time and parsed ``TEXT_BLOCK_LINES`` at a time, so reading a text set holds
its mask and one block of lines besides; writing one builds the lines of
``WRITE_BLOCK_CELLS`` cells at a time.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Union

import numpy as np

from . import kernels
from .core import MAX_GRID_CELLS, BoxSpec, SetIndicator

MAGIC = b"HOFA1"
# cells per block of a binary read (a multiple of 8): bounds the read buffer
# and, for widths that are not a multiple of 8, the bits unpacked at once
READ_BLOCK_CELLS = 1 << 20
# longest magic, header or member line, newline included; no valid line
# comes near (32 axes of 9 digits)
MAX_LINE_BYTES = 4096
# member lines parsed at once: bounds what a text read holds besides the mask
TEXT_BLOCK_LINES = 1 << 10
# most axes a set file may declare (numpy arrays hold at most 64)
MAX_SET_AXES = 32
# cells per block of a text write, in row-major order: bounds the member
# lines built at once (about 200 bytes a member, under 1 MB a block)
WRITE_BLOCK_CELLS = 1 << 12


class SetFileError(ValueError):
    pass


def _decimals(parts: list[str]) -> list[int] | None:
    """The ASCII decimal numbers ``parts``, or None if one is anything else
    (``int`` alone would also take signs, underscores and other digits)."""
    if not all(p.isascii() and p.isdigit() for p in parts):
        return None
    try:
        return [int(p) for p in parts]
    except ValueError:  # more digits than int() converts
        return None


def _parse_header(line: str) -> BoxSpec:
    parts = line.split()
    if not parts or parts[0] != "box":
        raise SetFileError(f"bad header line: {line!r}")
    dims = _decimals(parts[1:])
    if dims is None:
        raise SetFileError(f"bad header line: {line!r}")
    if not dims:
        raise SetFileError("header lists no dimensions")
    if len(dims) > MAX_SET_AXES:
        raise SetFileError(f"header lists {len(dims)} dimensions, more than "
                           f"{MAX_SET_AXES}")
    try:
        box = BoxSpec(dims)
    except ValueError as exc:
        raise SetFileError(f"bad header line: {exc}") from exc
    if box.cells > MAX_GRID_CELLS:
        raise SetFileError(f"box {box} has {box.cells} cells, more than the "
                           f"dense-storage cap of 2^27")
    return box


def read_set(path: Union[str, os.PathLike]) -> SetIndicator:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        fh.seek(0)
        if head == MAGIC:
            return _read_binary(fh)
        return _read_text(fh)


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SetFileError(f"not UTF-8 text: {exc}") from exc


def _header_line(fh) -> str | None:
    """The next line, decoded and without its newline (None at the end of
    the file), reading at most MAX_LINE_BYTES bytes."""
    raw = fh.readline(MAX_LINE_BYTES + 1)
    if len(raw) > MAX_LINE_BYTES:
        raise SetFileError(f"header line longer than {MAX_LINE_BYTES} bytes")
    return _decode(raw).removesuffix("\n") if raw else None


def _member_blocks(fh):
    """The member lines in blocks of at most TEXT_BLOCK_LINES, each block
    decoded as one string; every line is read by a readline capped at
    MAX_LINE_BYTES (a newline never falls inside a UTF-8 character)."""
    lines = iter(functools.partial(fh.readline, MAX_LINE_BYTES + 1), b"")
    while raws := list(itertools.islice(lines, TEXT_BLOCK_LINES)):
        if max(map(len, raws)) > MAX_LINE_BYTES:
            raise SetFileError(f"member line longer than {MAX_LINE_BYTES} bytes")
        yield _decode(b"".join(raws))


def _set_members(mask: np.ndarray, block: str, box: BoxSpec) -> None:
    """Set the members that the lines of ``block`` list; blank lines are
    skipped.  A block whose numbers are all short ASCII decimals inside the
    box is parsed by numpy at once; any other block goes line by line, which
    raises at the first bad line."""
    lines = block.split("\n")
    rows = [ln.split() for ln in lines]
    flat = [p for row in rows for p in row]
    digits = "".join(flat)
    if (digits.isascii() and digits.isdigit()
            and set(map(len, rows)) <= {0, box.n}
            and max(map(len, flat)) <= 18):  # fits int64
        idx = np.array(flat, dtype=np.int64).reshape(-1, box.n) - 1
        if ((idx >= 0) & (idx < box.dims)).all():
            mask[tuple(idx.T)] = True
            return
    for ln, parts in zip(lines, rows):
        if not parts:
            continue
        if len(parts) != box.n:
            raise SetFileError(f"member line has {len(parts)} coords, box has {box.n}")
        coords = _decimals(parts)
        if coords is None:
            raise SetFileError(f"bad member line: {ln!r}")
        idx = tuple(c - 1 for c in coords)
        if any(c < 0 or c >= d for c, d in zip(idx, box.dims)):
            raise SetFileError(f"member {ln!r} outside box {box}")
        mask[idx] = True


def _read_text(fh) -> SetIndicator:
    header = _header_line(fh)
    while header is not None and not header.strip():
        header = _header_line(fh)
    if header is None:
        raise SetFileError("empty set file")
    box = _parse_header(header)
    mask = np.zeros(box.dims, dtype=bool)
    for block in _member_blocks(fh):
        _set_members(mask, block, box)
    return SetIndicator(box, mask)


def _read_binary(fh) -> SetIndicator:
    if _header_line(fh) != MAGIC.decode():
        raise SetFileError("bad magic")
    box = _parse_header(_header_line(fh) or "")
    start = fh.tell()
    size = fh.seek(0, os.SEEK_END) - start
    need = (box.cells + 7) // 8
    if size != need:
        raise SetFileError(f"bitset payload is {size} bytes, expected {need}")
    fh.seek(start)
    return SetIndicator(box, _read_words(fh, box.dims))


def _blocks(rows: int, width: int):
    """(row slice, first cell, end cell) of the payload's blocks in file
    order: whole rows, or the cells of one row when a row alone exceeds
    READ_BLOCK_CELLS (the first cell is then a multiple of 8)."""
    if width <= READ_BLOCK_CELLS:
        step = READ_BLOCK_CELLS // width
        for b0 in range(0, rows, step):
            yield slice(b0, min(b0 + step, rows)), 0, width
    else:
        for r in range(rows):
            for c0 in range(0, width, READ_BLOCK_CELLS):
                yield slice(r, r + 1), c0, min(c0 + READ_BLOCK_CELLS, width)


def _read_words(fh, dims: tuple[int, ...]) -> kernels.PackedMask:
    width = dims[-1]
    raw = kernels.word_bytes(dims)
    out = raw.reshape(-1, raw.shape[-1])  # one row of word bytes per row
    # buf[0] carries the byte that holds the first unread bit
    buf = np.empty(READ_BLOCK_CELLS // 8 + 2, dtype=np.uint8)
    pos = 0  # payload bits consumed

    def read_into(view: np.ndarray) -> None:
        if fh.readinto(view) != len(view):
            raise SetFileError("bitset payload ended early")

    for rs, c0, c1 in _blocks(len(out), width):
        h, w = rs.stop - rs.start, c1 - c0
        if width % 8 == 0:
            # every block starts on a byte, and its bytes are word bytes
            chunk = buf[1:1 + h * w // 8]
            read_into(chunk)
            out[rs, c0 // 8:c1 // 8] = chunk.reshape(h, -1)
        else:
            # the block starts at bit pos % 8 of the carried byte buf[0]
            off = pos % 8
            new = -(-(pos + h * w) // 8) - -(-pos // 8)  # bytes not yet read
            read_into(buf[1:1 + new])
            bits = np.unpackbits(buf[0 if off else 1:1 + new],
                                 count=off + h * w, bitorder="little")[off:]
            out[rs, c0 // 8:-(-c1 // 8)] = np.packbits(
                bits.reshape(h, w), axis=-1, bitorder="little")
            buf[0] = buf[new]
            pos += h * w
    return kernels.from_word_bytes(dims, raw)


def write_set(A: SetIndicator, path: Union[str, os.PathLike],
              binary: bool = False) -> None:
    if binary:
        _write_binary(A, path)
    else:
        _write_text(A, path)


def _write_text(A: SetIndicator, path) -> None:
    flat = A.mask.reshape(-1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("box " + " ".join(str(d) for d in A.box.dims) + "\n")
        for c0 in range(0, flat.size, WRITE_BLOCK_CELLS):
            idx = np.flatnonzero(flat[c0:c0 + WRITE_BLOCK_CELLS]) + c0
            pts = np.stack(np.unravel_index(idx, A.box.dims), axis=1) + 1
            fh.write("".join(" ".join(map(str, pt)) + "\n"
                             for pt in pts.tolist()))


def _write_binary(A: SetIndicator, path) -> None:
    header = "box " + " ".join(str(d) for d in A.box.dims)
    packed = np.packbits(A.mask.ravel(order="C"), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(packed.tobytes())
