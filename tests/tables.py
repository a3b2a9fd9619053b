"""Row view of a ringmzi.cli.ResultTable (tests only)."""

import numpy as np

from ringmzi.cli import Cells


def cells(column) -> np.ndarray:
    """One column as an array of Python floats and strings: formatted cells are read back,
    bytes decoded."""
    if isinstance(column, Cells):
        text = column.text.reshape(-1, column.text.shape[-1])
        return np.array([float(bytes(cell).replace(b"\0", b"")) for cell in text]).reshape(
            column.shape)
    if column.dtype.kind == "S":
        return np.char.decode(column, "ascii")
    return column


def rows(table) -> list[list]:
    """The table row by row, the columns of each block broadcast to one shape."""
    return [list(row) for block in table.blocks for row in zip(
        *(column.ravel().tolist() for column in np.broadcast_arrays(*map(cells, block))))]
