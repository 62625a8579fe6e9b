"""Per-cell map export: row-major CSV and 16-bit PGM."""

from __future__ import annotations

import numpy as np

from .config import write_file
from .errors import ConfigError


def save_map_csv(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ConfigError(f"map must be 2-d, got shape {grid.shape}")
    write_file(path, "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                             for row in grid.tolist()).encode())


def save_map_pgm(path, grid: np.ndarray) -> None:
    """Min-max scaled 16-bit binary PGM (sample values big-endian per the format)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ConfigError(f"map must be 2-d, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise ConfigError("map contains non-finite values")
    lo, hi = grid.min(), grid.max()
    if hi > lo:
        scaled = np.round((grid - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(grid)
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n65535\n".encode("ascii")
    write_file(path, header + scaled.astype(">u2").tobytes())
