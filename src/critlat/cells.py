"""Interval cells: the axis-aligned (p, sigma) leaves of a certification run.

A cell names each axis and carries a closed interval of positive width on it;
its id is the leaf's bisection path (the parent id plus "0" or "1").
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval import Box, Interval

__all__ = ["ICell", "CellError", "FixedAxis"]


class CellError(Exception):
    pass


class FixedAxis(CellError):
    """The cell has no free axis of the requested name."""


@dataclass(frozen=True)
class ICell:
    """Axis-aligned cell: each named free axis carries an interval."""

    id: str
    free_axes: tuple[tuple[str, Interval], ...]

    def __post_init__(self):
        names = [a for a, _ in self.free_axes]
        if len(set(names)) != len(names):
            raise CellError(f"duplicate axis in cell {self.id}")
        for a, iv in self.free_axes:
            if iv.width == 0.0:
                raise CellError(f"free axis {a} of {self.id} has zero width")

    def interval(self, axis: str) -> Interval:
        for a, iv in self.free_axes:
            if a == axis:
                return iv
        raise FixedAxis(f"axis {axis} is not free in cell {self.id}")

    def as_box(self) -> Box:
        """View a full-dimensional (p, sigma) cell as a Box."""
        d = dict(self.free_axes)
        return Box(d["p"], d["sigma"])
