"""Guard for the frozen shim table of the end-to-end benchmark.

``benchmarks/e2e/layers.py`` patches ``(class, method)`` pairs by name,
and its installer skips a pair whose method is gone (``klass.__dict__
.get(method) is None -> continue``) — so a refactor that renames or
inlines a shimmed method silently turns that layer's ledger row into 0.
This test reads the table and fails on the first pair nothing defines.

It runs in a subprocess: ``benchmarks/e2e/trace.py`` is imported by
``layers`` as ``trace`` and would shadow the standard-library module of
that name inside the pytest process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
sys.path[:0] = [{e2e!r}, {src!r}]
import layers

def family(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from family(sub)

missing = [
    f"{{cls.__name__}}.{{method}}"
    for cls, method, _name, _hooks in layers.BOUNDARIES
    if not any(method in klass.__dict__ for klass in family(cls))
]
print(len(layers.BOUNDARIES), *missing)
"""


def test_every_shimmed_boundary_is_still_defined():
    probe = PROBE.format(e2e=str(ROOT / "benchmarks" / "e2e"), src=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    count, *missing = done.stdout.split()
    assert int(count) > 0
    assert missing == [], f"shimmed by benchmarks/e2e/layers.py but defined nowhere: {missing}"
