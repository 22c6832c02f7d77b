"""Golden byte-identity pins for the hot-path refactor (A16).

The span-ledger + pre-bound-metrics work (ISSUE 10) rebuilt the
observability hot path with one sacred constraint: **not a single
exported byte may change**.  The property suites already prove
same-seed runs reproduce each other; this module proves the stronger
statement that the *current* code reproduces the exports of the
pre-refactor code, by pinning SHA-256 hashes of:

* the A4 chaos scenario (seeded faults, retries, fallbacks) — stream
  export and trace export;
* one standard fleet run per execution backend (serial / threads) —
  pinned where the backend is bytewise deterministic.  The thread
  backend guarantees *result* identity only (wall-clock races reorder
  message/span creation run to run — measured, not assumed: generation
  runs everything twice and drops artifacts whose bytes disagree), so
  its exports are exercised but not pinned; serial exports are pinned
  in full.

The hashes in ``hotpath_goldens.json`` were generated from the last
commit before the refactor (``git stash`` the work, run
``python tests/properties/test_hotpath_goldens.py --generate``,
unstash).  Regenerating them *after* an export-visible change defeats
the point — treat a mismatch as a determinism regression first.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("hotpath_goldens.json")

#: (seed, fault_rate, plans) triples for the A4 chaos scenario.  Chosen
#: to cover the no-fault path, a mixed retry/fallback regime, and heavy
#: chaos where breakers trip.
CHAOS_CASES = ((42, 0.0, 3), (7, 0.35, 4), (1234, 0.8, 5))

#: Fleet workload shape — mirrors bench_fleet.
FLEET_PLANS = 6
FLEET_BACKENDS = ("serial", "threads")


def _chaos_runner():
    # Reuse the exact scenario the chaos property suite runs (A4): same
    # agents, retry policy, breaker board, and per-plan chaos stepping.
    try:
        from test_chaos_properties import run_chaos_scenario
    except ImportError:  # direct execution: put our directory on the path
        sys.path.insert(0, str(Path(__file__).parent))
        from test_chaos_properties import run_chaos_scenario
    return run_chaos_scenario


def _run_fleet(backend: str) -> tuple[str, str]:
    """One standard fleet run; returns (store_export, trace_export)."""
    from repro.cli import _fleet_agents, _fleet_plan
    from repro.core.fleet import FleetSubmission
    from repro.core.runtime import Blueprint
    from repro.streams.persistence import export_json

    blueprint = Blueprint()
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index),
            agents=_fleet_agents(blueprint.catalog, index),
        )
        for index in range(FLEET_PLANS)
    ]
    blueprint.run_fleet(
        submissions, max_inflight=3, single_flight=False, backend=backend
    )
    return export_json(blueprint.store), blueprint.observability.export_json()


def _artifacts() -> dict[str, str]:
    """Every pinnable export, keyed by scenario name."""
    run_chaos_scenario = _chaos_runner()
    artifacts: dict[str, str] = {}
    for seed, fault_rate, plans in CHAOS_CASES:
        store_export, trace_export = run_chaos_scenario(seed, fault_rate, plans)
        key = f"chaos[seed={seed},fault={fault_rate},plans={plans}]"
        artifacts[f"{key}.store"] = store_export
        artifacts[f"{key}.trace"] = trace_export
    for backend in FLEET_BACKENDS:
        store_export, trace_export = _run_fleet(backend)
        artifacts[f"fleet[{backend}].store"] = store_export
        artifacts[f"fleet[{backend}].trace"] = trace_export
    return artifacts


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


class TestHotPathGoldens:
    def test_exports_match_pre_refactor_goldens(self):
        goldens = _load_goldens()
        artifacts = _artifacts()
        mismatched = sorted(
            name
            for name, expected in goldens.items()
            if _digest(artifacts[name]) != expected
        )
        assert not mismatched, (
            "exports diverged from the pre-refactor goldens (byte-identity "
            f"contract broken): {mismatched}"
        )

    def test_goldens_cover_every_stable_artifact(self):
        """Assert the minimum pinned coverage: all chaos artifacts, and
        both exports of the serial fleet.  Thread-backend artifacts are
        allowed to be absent (bytewise racy by construction), so this
        checks a floor rather than exact key equality.
        """
        goldens = _load_goldens()
        expected = {
            f"chaos[seed={s},fault={f},plans={p}].{part}"
            for s, f, p in CHAOS_CASES
            for part in ("store", "trace")
        }
        expected.update(f"fleet[serial].{part}" for part in ("store", "trace"))
        missing = expected - set(goldens)
        assert not missing, f"golden file lost required pins: {sorted(missing)}"


def generate() -> None:  # pragma: no cover - manual golden generation
    """Regenerate the golden file from the *current* code.

    Runs everything twice and only pins artifacts whose bytes agreed,
    so inherently racy artifacts (concurrent-backend span order) never
    enter the golden set.
    """
    first = _artifacts()
    second = _artifacts()
    stable = {
        name: _digest(text)
        for name, text in sorted(first.items())
        if second[name] == text
    }
    dropped = sorted(set(first) - set(stable))
    GOLDENS_PATH.write_text(
        json.dumps(stable, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(stable)} artifacts -> {GOLDENS_PATH}")
    if dropped:
        print(f"dropped (unstable across runs): {dropped}")


if __name__ == "__main__":  # pragma: no cover - manual golden generation
    if "--generate" in sys.argv:
        generate()
    else:
        print(__doc__)
