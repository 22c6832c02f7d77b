"""Property tests for the overload control plane.

Acceptance criteria:

* **Seed determinism, to the byte.**  The same seed and arrival trace
  produce a byte-identical stream export (spans, journals, DLQ entries
  and all) and an identical brownout decision log — the overload plane
  adds no hidden nondeterminism on top of PR 5's fleet.

* **Admission primitives are replayable.**  Token buckets and the
  weighted-fair queue are pure functions of their call sequence: replay
  the sequence, get the same verdicts and the same pop order, with
  conservation (everything queued pops exactly once).

* **Overload disabled ≡ PR-5 fleet.**  An open-loop run through the
  naive FIFO gate with every arrival at the origin reproduces the batch
  ``run_fleet`` outcomes — same admissions, timings, and makespan — so
  shipping the control plane changes nothing for closed-loop users.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fleet import FleetSubmission
from repro.core.overload import AdmissionController, TierPolicy, TokenBucket
from repro.core.overload.demo import (
    demo_admission,
    demo_brownout,
    demo_submission,
    demo_traffic,
)
from repro.core.runtime import Blueprint
from repro.streams.persistence import export_json


def controlled_run(seed: int):
    """One seeded open-loop demo run; returns (export, brownout)."""
    bp = Blueprint()
    brownout = demo_brownout(metrics=bp.observability.metrics)
    bp.run_traffic(
        demo_traffic(seed=seed, horizon=40.0),
        demo_submission,
        max_inflight=4,
        admission=demo_admission(),
        brownout=brownout,
        single_flight=False,
    )
    return export_json(bp.store), brownout


class TestSeedDeterminism:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_same_seed_byte_identical_export_and_decisions(self, seed):
        first_export, first_brownout = controlled_run(seed)
        second_export, second_brownout = controlled_run(seed)
        assert first_export == second_export
        assert first_brownout.decisions == second_brownout.decisions
        assert first_brownout.transitions == second_brownout.transitions

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_trace_is_a_pure_function_of_the_seed(self, seed):
        first = demo_traffic(seed=seed, horizon=30.0).generate()
        second = demo_traffic(seed=seed, horizon=30.0).generate()
        assert first == second


class TestAdmissionReplayability:
    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=10.0),
        burst=st.floats(min_value=1.0, max_value=5.0),
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40
        ),
    )
    def test_token_bucket_replays_and_stays_bounded(self, rate, burst, times):
        first = TokenBucket(rate=rate, burst=burst)
        verdicts = [first.try_take(t) for t in times]
        assert 0.0 <= first.tokens <= burst
        second = TokenBucket(rate=rate, burst=burst)
        assert [second.try_take(t) for t in times] == verdicts

    @settings(max_examples=50, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=0.5, max_value=8.0), min_size=1, max_size=4
        ),
        offers=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_wfq_conserves_items_and_replays(self, weights, offers):
        def drain():
            tiers = {i: TierPolicy(weight=w) for i, w in enumerate(weights)}
            gate = AdmissionController(tiers=tiers)
            queued = []
            for i, (tier, at) in enumerate(offers):
                if gate.offer(i, f"tenant{tier}", tier, at) == gate.QUEUED:
                    queued.append(i)
            popped = []
            while (entry := gate.pop(0.0)) is not None:
                popped.append(entry[0])
            assert gate.depth() == 0
            return queued, popped

        queued, popped = drain()
        # Conservation: everything queued pops exactly once, nothing else.
        assert sorted(popped) == sorted(queued)
        assert drain() == (queued, popped)


class TestOverloadDisabledMatchesBatchFleet:
    def test_origin_arrivals_through_fifo_reproduce_run_fleet(self):
        def submissions(bp):
            return [
                demo_submission(arrival)
                for arrival in demo_traffic(seed=3, horizon=8.0).generate()
            ]

        batch_bp = Blueprint()
        batch = batch_bp.run_fleet(
            submissions(batch_bp), max_inflight=4, single_flight=False
        )

        open_bp = Blueprint()
        arrivals = demo_traffic(seed=3, horizon=8.0).generate()
        origin_arrivals = [
            type(a)(
                time=0.0, tenant=a.tenant, tier=a.tier,
                index=a.index, multiplier=a.multiplier,
            )
            for a in arrivals
        ]
        open_loop = open_bp.run_traffic(
            origin_arrivals,
            demo_submission,
            max_inflight=4,
            single_flight=False,
        )

        assert len(batch.plans) == len(open_loop.plans) > 0
        assert [
            (p.plan_id, p.outcome, p.admitted_at, p.finished_at)
            for p in batch.plans
        ] == [
            (p.plan_id, p.outcome, p.admitted_at, p.finished_at)
            for p in open_loop.plans
        ]
        assert batch.makespan == open_loop.makespan
        assert batch.admitted == open_loop.admitted
        assert open_loop.rejected == 0
        # One loop serves both: every remaining result field, the stream
        # export, and the span tree agree — the fleet span's ``mode``
        # attribute is the only byte that says which door was used.
        assert [
            (p.queue_wait, p.arrived_at, p.tenant, p.tier, p.rejection_reason)
            for p in batch.plans
        ] == [
            (p.queue_wait, p.arrived_at, p.tenant, p.tier, p.rejection_reason)
            for p in open_loop.plans
        ]
        assert (batch.queued, batch.rejected_by) == (
            open_loop.queued, open_loop.rejected_by,
        )
        assert export_json(batch_bp.store) == export_json(open_bp.store)
        open_trace = json.loads(open_bp.trace_export())
        (fleet_span,) = [s for s in open_trace["spans"] if s["kind"] == "fleet"]
        assert fleet_span["attributes"].pop("mode") == "open-loop"
        assert batch_bp.trace_export() == json.dumps(open_trace, sort_keys=True)

    def test_tied_arrivals_meet_the_bound_before_the_fill(self):
        """The open loop's tie rule — the one place it differs from a
        batch: arrivals tied at an instant are all offered to the gate
        before any free slot is filled, so a bounded FIFO refuses the
        second of two tied arrivals even on an idle two-slot fleet.  A
        batch of the same two plans runs both, which is why
        ``FleetScheduler.run`` counts the free slots as room."""
        def tied(bp):
            arrivals = demo_traffic(seed=3, horizon=8.0).generate()[:2]
            return [
                type(a)(
                    time=0.0, tenant=a.tenant, tier=a.tier,
                    index=a.index, multiplier=a.multiplier,
                )
                for a in arrivals
            ]

        open_bp = Blueprint()
        open_loop = open_bp.run_traffic(
            tied(open_bp), demo_submission,
            max_inflight=2, max_backlog=1, single_flight=False,
        )
        assert [p.outcome for p in open_loop.plans] == ["completed", "rejected"]
        assert open_loop.plans[1].rejection_reason == "backlog_full"
        assert open_loop.queued == 0

        batch_bp = Blueprint()
        batch = batch_bp.run_fleet(
            [demo_submission(a) for a in tied(batch_bp)],
            max_inflight=2, max_backlog=1, single_flight=False,
        )
        assert [p.outcome for p in batch.plans] == ["completed", "completed"]
        assert batch.queued == 0
