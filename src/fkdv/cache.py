"""On-disk cache for assembled operator offset blocks.

Pure optimization: a cache hit must be bit-identical to recomputation, so
files carry a versioned header with every parameter that influences the
payload, and any mismatch is treated as a miss.  The quadrature is fixed in
fkdv.assembly; a change to it must bump the magic.  All numbers
little-endian.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "cached_offset_blocks",
    "write_blocks",
    "read_blocks",
]

_BLOCKS_MAGIC = b"FKDVOF03"
_KIND_CODES = {"mass": 0, "disp": 1, "gram_half": 2}


def _blocks_header(grid, alpha: float, kind: str) -> bytes:
    return _BLOCKS_MAGIC + struct.pack(
        "<BIddd",
        _KIND_CODES[kind],
        grid.n_elems,
        float(alpha),
        grid.left,
        grid.right,
    )


def _blocks_path(cache_dir, grid, alpha, kind) -> Path:
    digest = hashlib.sha256(_blocks_header(grid, alpha, kind)).hexdigest()[:16]
    return Path(cache_dir) / f"{kind}-n{grid.n_elems}-{digest}.blocks"


def _atomic_write(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_blocks(path, grid, alpha, kind: str, blocks: np.ndarray) -> None:
    header = _blocks_header(grid, float(alpha), kind)
    data = np.ascontiguousarray(blocks, dtype="<f8")
    if data.shape != (grid.n_elems, 2, 2):
        raise ValueError(f"blocks shape {data.shape} does not match the grid")
    _atomic_write(Path(path), header + data.tobytes())


def read_blocks(path, grid, alpha, kind: str) -> np.ndarray | None:
    """Blocks from disk, or None on any mismatch (missing, stale, truncated)."""
    path = Path(path)
    if not path.is_file():
        return None
    expected = _blocks_header(grid, float(alpha), kind)
    raw = path.read_bytes()
    if not raw.startswith(expected):
        return None
    body = raw[len(expected):]
    n = grid.n_elems
    if len(body) != n * 4 * 8:
        return None
    return np.frombuffer(body, dtype="<f8").astype(float).reshape(n, 2, 2)


def cached_offset_blocks(cache_dir, grid, alpha, kind: str) -> np.ndarray:
    """Read-through cache around assemble_offset_blocks."""
    from .assembly import assemble_offset_blocks

    path = _blocks_path(cache_dir, grid, alpha, kind)
    hit = read_blocks(path, grid, alpha, kind)
    if hit is not None:
        return hit
    blocks = assemble_offset_blocks(grid, alpha, kind)
    write_blocks(path, grid, alpha, kind, blocks)
    return blocks

