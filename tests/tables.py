"""Row view of a ringmzi.cli.ResultTable (tests only)."""


def rows(table) -> list[list]:
    """The table row by row (Python floats and strings; formatted cells are read back)."""
    return [list(row) for block in table.blocks for row in zip(*(
        [float(bytes(cell).replace(b"\0", b"")) for cell in c] if c.ndim == 2 else c.tolist()
        for c in block))]
