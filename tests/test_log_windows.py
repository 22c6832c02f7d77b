"""Guard for the windowed-read convention over the append-only logs.

A per-node or per-turn path learns "what happened since" through a cursor
— ``StreamStore.mark`` / ``trace_since``, ``Stream.read(offset)``,
``Budget.window`` (DESIGN §15) — never by copying the whole log and
slicing or measuring the copy, which is quadratic in the horizon.  This
test scans ``src/`` for the three spellings of that copy.  Whole-log
consumers (exports, flow graphs, recovery reports) call ``trace()`` /
``charges()`` bare and stay legal.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COPY_THEN_SLICE = re.compile(r"len\([^)]*\.trace\(\)\)|\.trace\(\)\[|\.charges\(\)\[")


def test_no_per_op_path_copies_a_whole_log():
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if COPY_THEN_SLICE.search(line)
    ]
    assert offenders == [], "read the log through a cursor instead:\n" + "\n".join(offenders)
