"""Row view of a ringmzi.cli.ResultTable (tests only)."""


def cells(column) -> list:
    """One column as Python floats and strings: formatted cells are read back, bytes decoded."""
    if column.ndim == 2:
        return [float(bytes(cell).replace(b"\0", b"")) for cell in column]
    if column.dtype.kind == "S":
        return [cell.decode("ascii") for cell in column.tolist()]
    return column.tolist()


def rows(table) -> list[list]:
    """The table row by row."""
    return [list(row) for block in table.blocks for row in zip(*map(cells, block))]
