"""Row view of a ringmzi.table.ResultTable (tests only)."""

import numpy as np

from ringmzi.table import Cells


def read(cell: bytes):
    """A cell's text as a float, or as a string where it is a flag."""
    text = cell.replace(b"\0", b"").decode("ascii")
    try:
        return float(text)
    except ValueError:  # '', 'pole', 'domain' or 'threshold'
        return text


def cells(column) -> np.ndarray:
    """One column as an array of Python floats and strings: formatted number and flag cells
    are read back."""
    if isinstance(column, Cells):
        text = column.text.reshape(-1, column.text.shape[-1])
        return np.array([read(bytes(cell)) for cell in text]).reshape(column.shape)
    return column


def rows(table) -> list[list]:
    """The table row by row, its columns broadcast to one shape; a function column is called
    once, on every row and column."""
    columns = [cells(c(slice(None), slice(None)) if callable(c) else c) for c in table.data]
    return [list(row) for row in zip(
        *(column.ravel().tolist() for column in np.broadcast_arrays(*columns)))]
