"""Interval cells: the construction rules of ICell."""

import pytest

from critlat.interval import Box, Interval
from critlat.cells import CellError, FixedAxis, ICell

P = ("p", Interval(2.0, 3.0))
SIGMA = ("sigma", Interval(1.0, 1.5))


class TestICell:
    def test_duplicate_axis_rejected(self):
        with pytest.raises(CellError):
            ICell(id="d", free_axes=(P, ("p", Interval(2.5, 3.5))))

    def test_zero_width_axis_rejected(self):
        with pytest.raises(CellError):
            ICell(id="z", free_axes=(P, ("sigma", Interval(1.2, 1.2))))

    def test_absent_axis_raises_fixed_axis(self):
        cell = ICell(id="f", free_axes=(P,))
        assert cell.interval("p") == Interval(2.0, 3.0)
        with pytest.raises(FixedAxis):
            cell.interval("sigma")

    def test_as_box(self):
        cell = ICell(id="c0", free_axes=(SIGMA, P))
        assert cell.as_box() == Box(Interval(2.0, 3.0), Interval(1.0, 1.5))
