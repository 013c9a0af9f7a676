"""ASCII scatter charts for terminal reports."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.utils.errors import ValidationError

_MARKERS = "ox+*#@%&"


def _scale(
    values: np.ndarray, low: float, high: float, size: int
) -> np.ndarray:
    if high == low:
        return np.zeros(values.size, dtype=np.int64)
    pos = (values - low) / (high - low) * (size - 1)
    return np.clip(np.round(pos).astype(np.int64), 0, size - 1)


def scatter_chart(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    *,
    width: int = 72,
    height: int = 20,
    logx: bool = False,
    title: str | None = None,
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Plot one or more ``name -> (xs, ys)`` series on a character grid.

    Finite points only; each series gets its own marker.  ``logx`` plots
    x on a logarithmic axis (the natural axis for Δ sweeps).
    """
    if not series:
        raise ValidationError("nothing to plot")
    cleaned: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, (xs, ys) in series.items():
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape:
            raise ValidationError(f"series {name!r}: x and y lengths differ")
        mask = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            mask &= xs > 0
        if np.any(mask):
            cleaned[name] = (xs[mask], ys[mask])
    if not cleaned:
        raise ValidationError("no finite points to plot")

    all_x = np.concatenate([xs for xs, __ in cleaned.values()])
    all_y = np.concatenate([ys for __, ys in cleaned.values()])
    if logx:
        all_x = np.log10(all_x)
    x_low, x_high = float(all_x.min()), float(all_x.max())
    y_low, y_high = float(all_y.min()), float(all_y.max())

    grid = [[" "] * width for __ in range(height)]
    for index, (name, (xs, ys)) in enumerate(cleaned.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        px = _scale(np.log10(xs) if logx else xs, x_low, x_high, width)
        py = _scale(ys, y_low, y_high, height)
        for cx, cy in zip(px, py):
            grid[height - 1 - cy][cx] = marker

    lines = []
    if title:
        lines.append(title)
    y_top = f"{y_high:.3g}"
    y_bottom = f"{y_low:.3g}"
    margin = max(len(y_top), len(y_bottom)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = y_top
        elif row_index == height - 1:
            label = y_bottom
        else:
            label = ""
        lines.append(label.rjust(margin) + "|" + "".join(row))
    lines.append(" " * margin + "+" + "-" * width)
    x_left = f"{(10 ** x_low if logx else x_low):.3g}"
    x_right = f"{(10 ** x_high if logx else x_high):.3g}"
    axis = x_left + xlabel.center(width - len(x_left) - len(x_right)) + x_right
    lines.append(" " * (margin + 1) + axis)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(cleaned)
    )
    if ylabel:
        legend = f"y: {ylabel}   " + legend
    lines.append(" " * (margin + 1) + legend)
    return "\n".join(lines)

