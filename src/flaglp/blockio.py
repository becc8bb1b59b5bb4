"""Binary block format and CSV export for sampled functions.

Block layout: a 32-byte header followed by the payload.

    offset 0   magic     4 bytes  b"FLGF"
    offset 4   version   u16, little endian (currently 1)
    offset 6   n         u8
    offset 7   m         u8
    offset 8   L         u8
    offset 9   padding   15 zero bytes
    offset 24  payload   u64, little endian, payload length in bytes

The payload is the value array as little-endian float64 (re, im) pairs in
row-major lattice order.
"""

import csv
import struct
from itertools import product

import numpy as np

from .errors import ConfigurationError, ShapeMismatchError
from .grid import SampledFunction, make_grid

MAGIC = b"FLGF"
VERSION = 1
HEADER = struct.Struct("<4sHBBB15xQ")
assert HEADER.size == 32


def pack_block(f: SampledFunction) -> bytes:
    payload = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    header = HEADER.pack(MAGIC, VERSION, f.grid.n, f.grid.m, f.grid.L, len(payload))
    return header + payload


def unpack_block(data: bytes) -> SampledFunction:
    if len(data) < HEADER.size:
        raise ConfigurationError("block shorter than its 32-byte header")
    magic, version, n, m, L, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ConfigurationError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ConfigurationError(f"unsupported block version {version}")
    grid = make_grid(n, m, L)
    expected = 16 * (2**L) ** (n + m)
    if length != expected or len(data) != HEADER.size + length:
        raise ShapeMismatchError(f"payload length {length} does not match grid {grid}")
    values = np.frombuffer(data, dtype="<c16", offset=HEADER.size).reshape(grid.shape)
    return SampledFunction(grid, values.copy())


def write_block(path, f: SampledFunction):
    with open(path, "wb") as fh:
        fh.write(pack_block(f))


def read_block(path) -> SampledFunction:
    with open(path, "rb") as fh:
        return unpack_block(fh.read())


def write_csv(path, f: SampledFunction):
    """Index coordinates plus re/im columns; intended for small grids only."""
    grid = f.grid
    axes = [f"i{a}" for a in range(grid.n)] + [f"j{a}" for a in range(grid.m)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(axes + ["re", "im"])
        for idx in product(range(grid.samples_per_axis), repeat=grid.ndim):
            v = f.values[idx]
            writer.writerow(list(idx) + [repr(v.real), repr(v.imag)])
