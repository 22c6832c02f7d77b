"""Guard for the one row layout under both query stores.

``RowHeap`` (``storage/relational/table.py``) is the only place row ids are
handed out: a ``Table`` and a ``Collection`` both keep their rows in one, and
shard slices are read as one through ``select_in``, each picking its own
access path (DESIGN §13 "The row heap").  This test scans ``src/`` for the
spellings of a second copy of that layout — a row-id counter, a row-id
lookup beside ``select``, an index composed over slices.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAP = SRC / "repro" / "storage" / "relational" / "table.py"

SECOND_LAYOUT = re.compile(r"_next_row_id|get_by_row_ids|ConcatIndex")


def test_row_ids_are_handed_out_in_one_place():
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        if path != HEAP
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if SECOND_LAYOUT.search(line)
    ]
    assert offenders == [], "keep rows in a RowHeap instead:\n" + "\n".join(offenders)
