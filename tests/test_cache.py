"""Block cache: strict header validation, bit-identical read-through."""

from __future__ import annotations

import numpy as np
import pytest

from fkdv.assembly import assemble_offset_blocks
from fkdv.cache import cached_offset_blocks, read_blocks, write_blocks
from fkdv.fem import Grid

GRID = Grid(0.0, 2.0 * np.pi, 8)


def _blocks() -> np.ndarray:
    rng = np.random.default_rng(9)
    return rng.standard_normal((GRID.n_elems, 2, 2))


def test_blocks_round_trip(tmp_path):
    path = tmp_path / "disp.blocks"
    blocks = _blocks()
    write_blocks(path, GRID, 1.5, "disp", blocks)
    back = read_blocks(path, GRID, 1.5, "disp")
    assert back is not None
    assert np.array_equal(back, blocks)
    assert path.read_bytes().startswith(b"FKDVOF03")


def test_blocks_shape_is_checked(tmp_path):
    with pytest.raises(ValueError):
        write_blocks(tmp_path / "x.blocks", GRID, 1.5, "disp", np.zeros((4, 2, 2)))


def test_missing_file_is_a_miss(tmp_path):
    assert read_blocks(tmp_path / "nope.blocks", GRID, 1.5, "disp") is None


def test_any_header_mismatch_is_a_miss(tmp_path):
    path = tmp_path / "disp.blocks"
    write_blocks(path, GRID, 1.5, "disp", _blocks())
    assert read_blocks(path, GRID, 1.4, "disp") is None
    assert read_blocks(path, GRID, 1.5, "gram_half") is None
    assert read_blocks(path, Grid(0.0, 2.0 * np.pi, 16), 1.5, "disp") is None
    assert read_blocks(path, Grid(0.0, 1.0, 8), 1.5, "disp") is None


def test_truncated_payload_is_a_miss(tmp_path):
    path = tmp_path / "disp.blocks"
    write_blocks(path, GRID, 1.5, "disp", _blocks())
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    assert read_blocks(path, GRID, 1.5, "disp") is None
    path.write_bytes(raw + b"\x00" * 8)
    assert read_blocks(path, GRID, 1.5, "disp") is None


def test_corrupt_magic_is_a_miss(tmp_path):
    path = tmp_path / "disp.blocks"
    write_blocks(path, GRID, 1.5, "disp", _blocks())
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert read_blocks(path, GRID, 1.5, "disp") is None


def test_read_through_cache_is_bit_identical(tmp_path):
    fresh = assemble_offset_blocks(GRID, 1.5, "disp")
    first = cached_offset_blocks(tmp_path, GRID, 1.5, "disp")
    assert np.array_equal(first, fresh)
    files = list(tmp_path.glob("*.blocks"))
    assert len(files) == 1
    assert not list(tmp_path.glob("*.tmp"))
    again = cached_offset_blocks(tmp_path, GRID, 1.5, "disp")
    assert np.array_equal(again, fresh)
    # a touched payload must surface through the next read-through untouched
    stored = read_blocks(files[0], GRID, 1.5, "disp")
    assert np.array_equal(stored, fresh)


def test_cache_distinguishes_kinds(tmp_path):
    disp = cached_offset_blocks(tmp_path, GRID, 1.5, "disp")
    gram = cached_offset_blocks(tmp_path, GRID, 1.5, "gram_half")
    assert len(list(tmp_path.glob("*.blocks"))) == 2
    assert not np.array_equal(disp, gram)

