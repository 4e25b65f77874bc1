"""Minimal binary netpbm writers (P4/P5/P6, maxval 255) and a P4 reader.

Masks and score planes are exported in these formats because any image
viewer opens them and round-tripping them in tests needs no external
dependency.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError

# PGM exports carry the score-plane scaling in a comment so the file is
# self-describing.
PGM_SCALE_COMMENT = "linear map [-1,1] -> [0,255]"


def write_pbm(path: str | os.PathLike, mask: np.ndarray) -> None:
    """Write a boolean mask as binary PBM (P4). True encodes foreground."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise DataError("PBM payload must be 2-d")
    rows, cols = mask.shape
    packed = np.packbits(mask, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{cols} {rows}\n".encode("ascii"))
        fh.write(packed.tobytes())


def write_pgm(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write a float plane in [-1, 1] as binary PGM (P5).

    Values are mapped linearly onto [0, 255]; the mapping is recorded
    in a header comment. Out-of-range values are clipped.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataError("PGM payload must be 2-d")
    rows, cols = values.shape
    gray = np.clip(np.round((values + 1.0) * 0.5 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n# {PGM_SCALE_COMMENT}\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())


def write_ppm(path: str | os.PathLike, rgb: np.ndarray) -> None:
    """Write an interleaved uint8 (rows, cols, 3) image as binary PPM (P6)."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise DataError("PPM payload must be uint8 (rows, cols, 3)")
    rows, cols = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _read_tokens(
    path: str | os.PathLike, data: bytes, count: int
) -> tuple[list[bytes], int]:
    # netpbm headers: whitespace-separated tokens, # starts a comment.
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise DataError(f"{path}: truncated netpbm header")
        c = data[i : i + 1]
        if c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    # exactly one whitespace byte separates the header from the payload
    return tokens, i + 1


def _read_netpbm(
    path: str | os.PathLike, magic: bytes, kind: str, fields: int
) -> tuple[list[int], memoryview]:
    """(header integers, payload) of a binary netpbm file."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _read_tokens(path, data, 1 + fields)
    if tokens[0] != magic:
        raise DataError(f"{path}: not a binary {kind} file: magic {tokens[0]!r}")
    if not all(t.isdigit() for t in tokens[1:]):
        raise DataError(f"{path}: {kind} header values {tokens[1:]} are not non-negative integers")
    return [int(t) for t in tokens[1:]], memoryview(data)[offset:]


def _payload(path: str | os.PathLike, payload: memoryview, size: int) -> np.ndarray:
    if len(payload) < size:
        raise DataError(f"{path}: truncated payload, {len(payload)} of {size} bytes")
    return np.frombuffer(payload, dtype=np.uint8, count=size)


def read_pbm(path: str | os.PathLike) -> np.ndarray:
    (cols, rows), payload = _read_netpbm(path, b"P4", "PBM", 2)
    row_bytes = (cols + 7) // 8
    packed = _payload(path, payload, rows * row_bytes)
    bits = np.unpackbits(packed.reshape(rows, row_bytes), axis=1)[:, :cols]
    return bits.astype(bool)
