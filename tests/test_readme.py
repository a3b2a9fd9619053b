"""The README's account of the code, held against the code."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_line_count_sentence_matches_wc():
    """The README's "`src/ringmzi` is N lines (`wc -l src/ringmzi/*.py`): `cli.py` M, ..."
    gives the total, and each file it names, as wc -l counts them: newline characters."""
    paragraph = next(" ".join(block.split())
                     for block in (ROOT / "README.md").read_text(encoding="utf-8").split("\n\n")
                     if "`src/ringmzi` is" in block)
    total, named = re.fullmatch(
        r"`src/ringmzi` is (\d+) lines \(`wc -l src/ringmzi/\*\.py`\): (.+)\.", paragraph).groups()
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in (ROOT / "src" / "ringmzi").glob("*.py")}
    stated = {name: int(lines) for name, lines in re.findall(r"`(\w+\.py)` (\d+)", named)}
    assert stated and stated == {name: counts.get(name) for name in stated}
    assert int(total) == sum(counts.values())
