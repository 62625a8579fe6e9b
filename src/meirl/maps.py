"""Per-cell map export: row-major CSV and 16-bit PGM."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def save_map_csv(path, grid: np.ndarray) -> None:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise ConfigError(f"map must be 2-d, got shape {grid.shape}")
    np.savetxt(path, grid, delimiter=",", fmt="%.17g")


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
    img = scaled.astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n65535\n".encode("ascii"))
        fh.write(img.tobytes())

