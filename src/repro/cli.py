"""Command-line interface: drive the blueprint from a shell.

Usage:
    python -m repro describe                 # the Figure-1 inventory
    python -m repro ask "data scientist position in SF bay area"
    python -m repro plan "data scientist position in SF bay area"
    python -m repro employer --click 1 --say "how many applicants have python skills?"
    python -m repro trace --say "how many applicants have python skills?"
    python -m repro run --parallel        # wave scheduler vs serial baseline
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Sequence

from .core.qos import QoSSpec
from .hr.apps import AgenticEmployerApp, CareerAssistant


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Blueprint architecture for compound AI systems"
    )
    parser.add_argument("--seed", type=int, default=7, help="enterprise data seed")
    commands = parser.add_subparsers(dest="command", required=True)

    describe = commands.add_parser("describe", help="print the architecture inventory")

    ask = commands.add_parser("ask", help="ask the career assistant")
    ask.add_argument("text", help="the request, e.g. a job-search utterance")
    ask.add_argument("--max-cost", type=float, default=None, help="QoS cost budget ($)")
    ask.add_argument("--min-quality", type=float, default=None, help="QoS quality floor")

    plan = commands.add_parser("plan", help="show the task and data plans for a request")
    plan.add_argument("text")
    plan.add_argument("--verify", action="store_true", help="inject fact verification")

    employer = commands.add_parser("employer", help="run Agentic Employer turns")
    employer.add_argument("--click", type=int, action="append", default=[],
                          help="select a job id (repeatable)")
    employer.add_argument("--say", action="append", default=[],
                          help="a conversation turn (repeatable)")

    trace = commands.add_parser(
        "trace",
        help="run an Agentic Employer conversation and dump its span tree "
             "and metrics snapshot",
    )
    trace.add_argument("--click", type=int, action="append", default=[],
                       help="select a job id (repeatable)")
    trace.add_argument("--say", action="append", default=[],
                       help="a conversation turn (repeatable; defaults to a "
                            "canonical one-click, one-question conversation)")
    trace.add_argument("--format", choices=("report", "flame", "critical", "json"),
                       default="report",
                       help="report = flamegraph + critical path + metrics "
                            "(default); json = the canonical byte-comparable "
                            "export")
    trace.add_argument("--output", default=None,
                       help="write to a file instead of stdout")

    run = commands.add_parser(
        "run",
        help="execute the fan-out demo plan under the wave scheduler and "
             "report its critical-path latency against the serial baseline",
    )
    mode = run.add_mutually_exclusive_group()
    mode.add_argument("--parallel", dest="parallel", action="store_true",
                      help="wave-parallel scheduling (default): independent "
                           "nodes overlap; latency is the critical path")
    mode.add_argument("--serial", dest="parallel", action="store_false",
                      help="serial scheduling: latency is the node sum")
    run.set_defaults(parallel=True)

    fleet = commands.add_parser(
        "fleet",
        help="run N Fig-6-style plans concurrently on one shared virtual "
             "timeline (admission control, per-model capacity, single-flight "
             "coalescing) and report makespan vs the serial baseline",
    )
    fleet.add_argument("--plans", type=int, default=8,
                       help="number of independent plans to submit")
    fleet.add_argument("--max-inflight", type=int, default=4,
                       help="plans executing concurrently; the rest queue")
    fleet.add_argument("--max-backlog", type=int, default=None,
                       help="backlog depth before submissions are rejected "
                            "(default: unbounded)")
    fleet.add_argument("--slots", type=int, default=4,
                       help="per-model concurrency slots (0 = unlimited)")
    fleet.add_argument("--no-single-flight", dest="single_flight",
                       action="store_false",
                       help="disable cross-plan coalescing of identical "
                            "in-flight LLM calls")
    fleet.add_argument("--backend", choices=("serial", "threads"),
                       default="serial",
                       help="execution backend: serial (deterministic, "
                            "byte-identical traces) or threads (wave nodes "
                            "and fleet rounds on real worker threads)")
    fleet.add_argument("--batch", action="store_true",
                       help="coalesce distinct-but-batchable LLM calls "
                            "(same model + params, different prompts) into "
                            "micro-batch windows: shared capacity slot and "
                            "amortized latency, per-call cost attribution")
    fleet.add_argument("--batch-size", type=int, default=8,
                       help="max calls per micro-batch window (with --batch)")
    fleet.add_argument("--batch-wait", type=float, default=0.25,
                       help="micro-batch window length in simulated seconds "
                            "(with --batch)")
    fleet.add_argument("--wall-scale", type=float, default=0.0,
                       help="real seconds slept per simulated LLM latency "
                            "second (models blocking I/O; lets the threads "
                            "backend show a wall-clock speedup)")

    surge = commands.add_parser(
        "surge",
        help="serve a seeded open-loop traffic surge (three QoS tiers, one "
             "2x overload window) through admission control and brownout "
             "degradation, and report per-tier completion and latency "
             "against the tier-0 SLO",
    )
    surge.add_argument("--horizon", type=float, default=60.0,
                       help="simulated seconds of offered traffic")
    surge.add_argument("--scale", type=float, default=1.0,
                       help="multiply every tenant's offered rate")
    surge.add_argument("--max-inflight", type=int, default=4,
                       help="plans executing concurrently; the rest queue")
    surge.add_argument("--naive", action="store_true",
                       help="ablation: PR-5 bounded FIFO backlog instead of "
                            "QoS admission + brownout (expected to violate "
                            "the tier-0 gates)")

    shard = commands.add_parser(
        "shard",
        help="build the sharded HR substrate, demo shard-pruned vs fan-out "
             "queries, and optionally run a seeded chaos drill (replica "
             "kills, partitions, degraded latency) proving zero acked-write "
             "loss through failover",
    )
    shard.add_argument("--seekers", type=int, default=20_000,
                       help="seeker rows/profiles to generate")
    shard.add_argument("--shards", type=int, default=8,
                       help="shards per clustered store")
    shard.add_argument("--replicas", type=int, default=3,
                       help="replicas per shard")
    shard.add_argument("--chaos", action="store_true",
                       help="run the chaos drill after the query demo")
    shard.add_argument("--kill-rate", type=float, default=0.15,
                       help="chaos: per-replica kill probability per tick")
    shard.add_argument("--ticks", type=int, default=20,
                       help="chaos: fault-injection ticks to run")
    shard.add_argument("--chaos-seed", type=int, default=11,
                       help="chaos: fault schedule seed")

    recover = commands.add_parser(
        "recover",
        help="inspect a journaled stream export for recoverable plans, or "
             "run the kill/resume crash-recovery demo",
    )
    recover.add_argument("--export", dest="export_file", default=None,
                         help="a stream export JSON file (see trace --format "
                              "json) whose write-ahead journal to analyze")
    recover.add_argument("--plan", default=None,
                         help="with --export: detail one plan's snapshot")
    recover.add_argument("--demo", action="store_true",
                         help="run a deterministic kill/resume demo: execute "
                              "a 3-node plan, kill the coordinator at a "
                              "checkpoint barrier, resume from the journal, "
                              "and compare against the uninterrupted run")
    recover.add_argument("--kill", type=int, default=3,
                         help="demo: 0-based checkpoint barrier to kill at")
    recover.add_argument("--output", default=None,
                         help="demo: also write the resumed run's stream "
                              "export JSON to a file")
    return parser


def cmd_describe(args: argparse.Namespace) -> int:
    assistant = CareerAssistant(seed=args.seed)
    print(json.dumps(assistant.blueprint.describe(), indent=2, default=str))
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    assistant = CareerAssistant(seed=args.seed)
    if args.max_cost is not None or args.min_quality is not None:
        qos = QoSSpec(
            max_cost=args.max_cost if args.max_cost is not None else float("inf"),
            min_quality=args.min_quality or 0.0,
            objective="cost",
        )
        reply = assistant.ask_with_qos(args.text, qos)
    else:
        reply = assistant.ask(args.text)
    if reply.plan_rendering:
        print(f"plan: {reply.plan_rendering}\n")
    print(reply.text)
    print(f"\nbudget: {json.dumps({k: round(v, 5) for k, v in reply.budget_summary.items()})}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    assistant = CareerAssistant(seed=args.seed)
    task_plan = assistant.blueprint.task_planner.plan(
        args.text, assistant.user_stream.stream_id
    )
    print(task_plan.render())
    print()
    data_plan = assistant.blueprint.data_planner.plan_job_query(
        args.text, verify=args.verify
    )
    print(data_plan.render())
    return 0


def cmd_employer(args: argparse.Namespace) -> int:
    app = AgenticEmployerApp(seed=args.seed)
    # Interleave in the given order: clicks first, then says, is arbitrary;
    # argparse cannot preserve global order, so run clicks then turns.
    for job_id in args.click:
        app.click_job(job_id)
    for text in args.say:
        app.say(text)
    print(app.render_conversation())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Trace one conversation: every turn's plan -> node -> agent -> call
    tree plus the session's metric snapshot, from one deterministic run."""
    clicks = args.click or ([1] if not args.say else [])
    says = args.say or ["how many applicants have python skills?"]
    app = AgenticEmployerApp(seed=args.seed)
    for job_id in clicks:
        app.click_job(job_id)
    for text in says:
        app.say(text)
    observability = app.observability
    if args.format == "json":
        report = app.trace_export()
    elif args.format == "flame":
        report = observability.flamegraph()
    elif args.format == "critical":
        report = observability.critical_path_report()
    else:
        report = "\n".join(
            [
                "== conversation ==",
                app.render_conversation(),
                "",
                "== span tree (flamegraph) ==",
                observability.flamegraph(),
                "",
                "== critical path ==",
                observability.critical_path_report(),
                "",
                "== metrics ==",
                observability.metrics_report(),
            ]
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"trace written to {args.output}")
    else:
        print(report)
    return 0


class _DemoWorld:
    """The crash-recovery demo's world: everything durable in one place."""

    def __init__(self, seed: int, barrier_hook=None, fanout: bool = False,
                 parallel: bool = False):
        from .clock import SimClock
        from .core.budget import Budget
        from .core.context import AgentContext
        from .core.coordinator import TaskCoordinator
        from .core.recovery import WriteAheadJournal
        from .core.session import SessionManager
        from .observability import Observability
        from .streams import StreamStore

        self.clock = SimClock()
        self.observability = Observability(self.clock)
        self.store = StreamStore(self.clock)
        self.store.observability = self.observability
        self.session = SessionManager(self.store).create("recovery-demo")
        self.budget = Budget(clock=self.clock)
        self.journal = WriteAheadJournal(
            self.store,
            session=self.session,
            barrier_hook=barrier_hook,
            metrics=self.observability.metrics,
        )
        self.seed = seed
        self.fanout = fanout
        self.parallel = parallel
        for agent in self._make_agents():
            agent.attach(self._context())
        self._coordinator_cls = TaskCoordinator
        self._context_cls = AgentContext
        self.coordinator = self.new_coordinator()

    def _context(self):
        from .core.context import AgentContext

        return AgentContext(
            store=self.store,
            session=self.session,
            clock=self.clock,
            budget=self.budget,
            observability=self.observability,
        )

    def _make_agents(self):
        from .core.agent import FunctionAgent
        from .core.params import Parameter

        budget, seed, fanout = self.budget, self.seed, self.fanout

        def stage(name, cost, latency):
            def fn(inputs):
                budget.charge(f"agent:{name}", cost=cost, latency=latency)
                bound = ",".join(str(v) for _, v in sorted(inputs.items()) if v)
                return {"OUT": f"{name}[{seed}]({bound})"}

            params = (Parameter("IN", "text"),)
            if fanout:
                # The fan-in node binds one output from every branch.
                params += (
                    Parameter("IN2", "text", required=False),
                    Parameter("IN3", "text", required=False),
                )
            return FunctionAgent(
                name, fn,
                inputs=params,
                outputs=(Parameter("OUT", "text"),),
            )

        stages = [
            stage("EXTRACT", 0.01, 0.4),
            stage("MATCH", 0.02, 0.7),
            stage("RANK", 0.01, 0.3),
        ]
        if fanout:
            stages += [stage("PROFILE", 0.01, 0.6), stage("SEARCH", 0.01, 0.5)]
        return stages

    def new_coordinator(self):
        coordinator = self._coordinator_cls(
            journal=self.journal, parallel=self.parallel
        )
        coordinator.attach(self._context())
        return coordinator

    def plan(self):
        from .core.plan import Binding, TaskPlan

        if self.fanout:
            plan = TaskPlan(
                "fanout-plan", goal="extract, then match|profile|search, then rank"
            )
            plan.add_step("s1", "EXTRACT", {"IN": Binding.const(f"query#{self.seed}")})
            plan.add_step("m1", "MATCH", {"IN": Binding.from_node("s1", "OUT")})
            plan.add_step("m2", "PROFILE", {"IN": Binding.from_node("s1", "OUT")})
            plan.add_step("m3", "SEARCH", {"IN": Binding.from_node("s1", "OUT")})
            plan.add_step(
                "s2", "RANK",
                {
                    "IN": Binding.from_node("m1", "OUT"),
                    "IN2": Binding.from_node("m2", "OUT"),
                    "IN3": Binding.from_node("m3", "OUT"),
                },
            )
            return plan
        plan = TaskPlan("demo-plan", goal="extract, match, rank")
        plan.add_step("s1", "EXTRACT", {"IN": Binding.const(f"query#{self.seed}")})
        plan.add_step("s2", "MATCH", {"IN": Binding.from_node("s1", "OUT")})
        plan.add_step("s3", "RANK", {"IN": Binding.from_node("s2", "OUT")})
        return plan


def cmd_run(args: argparse.Namespace) -> int:
    """Execute the fan-out demo plan, wave-parallel by default.

    The plan is a diamond — EXTRACT, then MATCH / PROFILE / SEARCH off the
    same output, then a RANK fan-in — so the middle wave genuinely
    overlaps and the critical path beats the serial sum.
    """
    world = _DemoWorld(args.seed, fanout=True, parallel=args.parallel)
    plan = world.plan()
    run = world.coordinator.execute_plan(plan)
    elapsed = world.clock.now()

    print(f"mode: {'parallel (wave scheduler)' if args.parallel else 'serial'}")
    print("schedule:")
    for index, wave in enumerate(plan.waves()):
        print(f"  w{index}: {', '.join(node.node_id for node in wave)}")
    print(f"status: {run.status}")
    for node_id in sorted(run.node_outputs):
        print(f"  {node_id} -> {run.node_outputs[node_id].get('OUT')}")
    print(f"simulated latency: {elapsed:.2f}s   "
          f"cost: ${world.budget.spent_cost():.4f}")
    if args.parallel:
        baseline = _DemoWorld(args.seed, fanout=True, parallel=False)
        baseline.coordinator.execute_plan(baseline.plan())
        serial = baseline.clock.now()
        print(f"serial baseline:   {serial:.2f}s   "
              f"speedup: {serial / elapsed:.2f}x")
    snapshot = world.observability.metrics.snapshot()
    scheduler_metrics = {
        name: snapshot[name]
        for name in sorted(snapshot)
        if name.startswith("scheduler.")
    }
    if scheduler_metrics:
        print("scheduler metrics:")
        for name, value in scheduler_metrics.items():
            print(f"  {name} = {value}")
    return 0 if run.status == "completed" else 1


def _fleet_plan(index: int):
    """One Fig-6-style plan: profile, then match | recommend, then rank."""
    from .core.plan import Binding, TaskPlan

    plan = TaskPlan(f"fleet-{index:02d}", goal=f"session {index} job search")
    plan.add_step(
        "profile", "PROFILER",
        {"IN": Binding.const(f"candidate #{index}: data scientist in the bay area")},
    )
    plan.add_step("match", "MATCHER", {"IN": Binding.from_node("profile", "OUT")})
    plan.add_step(
        "recommend", "RECOMMENDER", {"IN": Binding.from_node("profile", "OUT")}
    )
    plan.add_step(
        "rank", "RANKER",
        {
            "IN": Binding.from_node("match", "OUT"),
            "IN2": Binding.from_node("recommend", "OUT"),
        },
    )
    return plan


def _fleet_agents(catalog, index: int):
    """LLM-backed stages for one fleet session.

    MATCHER and RECOMMENDER issue the *same* prompt in every session, so
    overlapping plans coalesce those calls through the catalog's
    single-flight; PROFILER and RANKER are session-specific.
    """
    from .core.agent import FunctionAgent
    from .core.params import Parameter

    def llm_stage(name, model, prompt_of):
        def fn(inputs):
            response = catalog.client(model).complete(prompt_of(inputs))
            return {"OUT": response.text}

        return FunctionAgent(
            name, fn,
            inputs=(
                Parameter("IN", "text"),
                Parameter("IN2", "text", required=False),
            ),
            outputs=(Parameter("OUT", "text"),),
        )

    return [
        llm_stage(
            "PROFILER", "mega-s",
            lambda i: "TASK: EXTRACT\nFIELDS: title, location\n"
                      f"TEXT: {i['IN']}",
        ),
        llm_stage(
            "MATCHER", "mega-m",
            lambda i: "TASK: RELATED_TITLES\nTITLE: data scientist",
        ),
        llm_stage(
            "RECOMMENDER", "hr-ft",
            lambda i: "TASK: LIST_SKILLS\nTITLE: data scientist",
        ),
        llm_stage(
            "RANKER", "mega-s",
            lambda i: f"TASK: SUMMARIZE\nTEXT: {i.get('IN', '')} | "
                      f"{i.get('IN2', '')}",
        ),
    ]


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run N plans through the fleet scheduler; compare against serial."""
    from .core.fleet import FleetSubmission
    from .core.runtime import Blueprint

    if args.plans < 1:
        print("fleet: --plans must be >= 1")
        return 2

    # Serial baseline: the same plans, one Blueprint, driven one after
    # another (each still wave-parallel *within* the plan).
    serial_bp = Blueprint()
    serial_bp.catalog.wall_latency_scale = args.wall_scale
    serial_start = serial_bp.clock.now()
    serial_wall_start = time.perf_counter()
    for index in range(args.plans):
        session = serial_bp.create_session()
        for agent in _fleet_agents(serial_bp.catalog, index):
            serial_bp.attach(agent, session)
        from .core.coordinator import TaskCoordinator

        coordinator = TaskCoordinator(
            data_planner=serial_bp.data_planner, parallel=True
        )
        serial_bp.attach(coordinator, session)
        coordinator.execute_plan(_fleet_plan(index))
    serial_makespan = serial_bp.clock.now() - serial_start
    serial_wall = time.perf_counter() - serial_wall_start

    fleet_bp = Blueprint()
    fleet_bp.catalog.wall_latency_scale = args.wall_scale
    capacity = {name: args.slots for name in fleet_bp.catalog.names()} if args.slots else None
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index),
            agents=_fleet_agents(fleet_bp.catalog, index),
        )
        for index in range(args.plans)
    ]
    batching = False
    if args.batch:
        from .llm import LLMBatcher

        batching = LLMBatcher(
            max_batch_size=args.batch_size, max_batch_wait=args.batch_wait
        )
    fleet_wall_start = time.perf_counter()
    result = fleet_bp.run_fleet(
        submissions,
        max_inflight=args.max_inflight,
        max_backlog=args.max_backlog,
        single_flight=args.single_flight,
        capacity=capacity,
        batching=batching,
        backend=args.backend,
    )
    fleet_wall = time.perf_counter() - fleet_wall_start

    print(f"plans: {args.plans}   max in-flight: {args.max_inflight}   "
          f"model slots: {args.slots or 'unlimited'}   "
          f"single-flight: {'on' if args.single_flight else 'off'}   "
          f"batching: {'on' if args.batch else 'off'}   "
          f"backend: {args.backend}")
    print(f"admitted={result.admitted} queued={result.queued} "
          f"rejected={result.rejected}")
    print()
    for p in result.plans:
        if p.outcome == "rejected":
            print(f"  {p.plan_id}: rejected (backlog full)")
            continue
        print(f"  {p.plan_id}: {p.outcome}  admitted@{p.admitted_at:.2f}s  "
              f"finished@{p.finished_at:.2f}s  queue_wait={p.queue_wait:.2f}s")
    print()
    print(f"fleet makespan:   {result.makespan:.2f}s (simulated)")
    print(f"serial baseline:  {serial_makespan:.2f}s")
    if result.makespan > 0:
        print(f"speedup:          {serial_makespan / result.makespan:.2f}x")
    print(f"wall clock:       fleet {fleet_wall:.3f}s vs serial "
          f"{serial_wall:.3f}s"
          + (f"  ({serial_wall / fleet_wall:.2f}x)" if fleet_wall > 0 else ""))
    if fleet_bp.catalog.capacity is not None:
        print("capacity (peak in-flight per model, limit "
              f"{args.slots}):")
        for model in fleet_bp.catalog.capacity.models():
            peak = fleet_bp.catalog.capacity.max_concurrency(model)
            print(f"  {model}: {peak}")
        stats = fleet_bp.catalog.capacity.stats()
        print(f"  queued calls: {stats.queued}/{stats.reservations} "
              f"(total wait {stats.total_wait:.2f}s)")
    if fleet_bp.catalog.single_flight is not None:
        flights = fleet_bp.catalog.single_flight.stats()
        print(f"single-flight: {flights.joins} joins / "
              f"{flights.leaders} leaders "
              f"(hit rate {flights.hit_rate:.0%}, "
              f"saved ${flights.saved_cost:.5f} and "
              f"{flights.saved_latency:.2f}s model time)")
    if fleet_bp.catalog.batcher is not None:
        batches = fleet_bp.catalog.batcher.stats()
        print(f"batching: {batches.joins} joins / "
              f"{batches.batches} windows "
              f"(mean batch {batches.mean_batch:.2f}, "
              f"peak {batches.peak_batch}, "
              f"amortized {batches.saved_latency:.2f}s model time, "
              f"${batches.attributed_cost:.5f} attributed to joins)")
    completed = len(result.completed())
    expected = result.admitted
    return 0 if completed == expected else 1


def cmd_surge(args: argparse.Namespace) -> int:
    """Open-loop overload demo: QoS control plane vs the FIFO ablation."""
    from .core.overload.brownout import LEVEL_NAMES
    from .core.overload.demo import (
        TIER0_LATENCY_SLO,
        demo_admission,
        demo_brownout,
        demo_submission,
        demo_traffic,
        tier_summary,
    )
    from .core.runtime import Blueprint

    bp = Blueprint()
    traffic = demo_traffic(
        seed=args.seed, horizon=args.horizon, scale=args.scale
    )
    if args.naive:
        admission = None
        brownout = None
        max_backlog = 12
    else:
        admission = demo_admission()
        brownout = demo_brownout(metrics=bp.observability.metrics)
        max_backlog = None
    result = bp.run_traffic(
        traffic,
        demo_submission,
        max_inflight=args.max_inflight,
        max_backlog=max_backlog,
        admission=admission,
        brownout=brownout,
        single_flight=False,
    )

    shape = traffic.describe()
    mode = "naive-fifo (ablation)" if args.naive else "qos + brownout"
    print(f"mode: {mode}   seed: {args.seed}   "
          f"horizon: {args.horizon:.0f}s   max in-flight: {args.max_inflight}")
    print(f"tenants: {shape['tenants']} ({shape['users']:,} simulated users, "
          f"offered {shape['offered_rate']:.2f} plans/s steady)")
    for start, end, mult in shape["surge_windows"]:
        print(f"surge window: {start:.0f}s-{end:.0f}s at x{mult:.1f} offered load")
    print(f"offered: {len(result.plans)}   admitted: {result.admitted}   "
          f"queued: {result.queued}   rejected: {result.rejected}")
    print()

    summary = tier_summary(result)
    names = {0: "enterprise", 1: "standard", 2: "batch"}
    for tier, stats in summary.items():
        rejected = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats["rejected"].items())
        ) or "none"
        print(f"  tier {tier} ({names.get(tier, '?'):10s}): "
              f"{stats['completed']}/{stats['offered']} completed "
              f"({stats['completion']:.0%})  "
              f"p50={stats['p50_latency']:.2f}s p99={stats['p99_latency']:.2f}s  "
              f"rejected: {rejected}")
    print()

    if brownout is not None and brownout.transitions:
        print("brownout transitions (time, level, queue depth):")
        for at, old, new, depth in brownout.transitions:
            arrow = "^" if new > old else "v"
            print(f"  {at:7.2f}s  {LEVEL_NAMES[old]} -> {LEVEL_NAMES[new]} "
                  f"{arrow} (depth {depth})")
        snapshot = bp.observability.metrics.snapshot()
        for name in sorted(snapshot):
            if name.startswith("overload."):
                print(f"  {name} = {snapshot[name]}")
        print()

    tier0 = summary.get(0, {"completion": 1.0, "p99_latency": 0.0})
    completion_ok = tier0["completion"] >= 1.0
    latency_ok = tier0["p99_latency"] <= TIER0_LATENCY_SLO
    shed_tiers = {
        tier for tier, stats in summary.items() if "shed" in stats["rejected"]
    }
    shed_ok = shed_tiers <= {max(summary)} if summary else True
    print(f"tier-0 completion 1.00: {'PASS' if completion_ok else 'FAIL'} "
          f"({tier0['completion']:.2f})")
    print(f"tier-0 p99 <= {TIER0_LATENCY_SLO:.1f}s SLO: "
          f"{'PASS' if latency_ok else 'FAIL'} ({tier0['p99_latency']:.2f}s)")
    print(f"shedding confined to lowest tier: "
          f"{'PASS' if shed_ok else 'FAIL'}")
    if args.naive:
        return 0  # the ablation is expected to fail its gates
    return 0 if completion_ok and latency_ok and shed_ok else 1


def _access_path(stats: dict) -> str:
    """Which shards a clustered ``find`` read and how it read them."""
    how = f"index {'+'.join(stats['index'])}" if stats["index"] else "scan"
    return (f"(scanned {stats['shards_scanned']}/{stats['shards_total']} "
            f"shards, {stats['docs_scanned']} docs; examined "
            f"{stats['docs_examined']} by {how})")


def cmd_shard(args: argparse.Namespace) -> int:
    """Sharded-substrate demo: pruned queries, then an optional chaos drill."""
    from .core.resilience.chaos import ChaosController, ChaosSpec
    from .errors import ClusterUnavailableError, QueryError
    from .hr.data import build_sharded_enterprise

    t0 = time.perf_counter()
    enterprise = build_sharded_enterprise(
        seed=args.seed,
        n_seekers=args.seekers,
        n_shards=args.shards,
        n_replicas=args.replicas,
    )
    build_s = time.perf_counter() - t0
    database = enterprise.database
    profiles = enterprise.profiles
    print(f"built sharded enterprise: {args.seekers} seekers, "
          f"{args.shards} shards x {args.replicas} replicas "
          f"({build_s:.1f}s)")

    t0 = time.perf_counter()
    pruned = profiles.find({"city": "Austin"}, limit=20)
    pruned_ms = (time.perf_counter() - t0) * 1000
    print(f"\npruned doc find  city=Austin: {len(pruned)} rows in "
          f"{pruned_ms:.1f}ms  {_access_path(profiles.last_find_stats)}")

    t0 = time.perf_counter()
    fanout = profiles.find({"years_experience": {"$gte": 15}}, limit=20)
    fanout_ms = (time.perf_counter() - t0) * 1000
    print(f"fan-out doc find years>=15: {len(fanout)} rows in "
          f"{fanout_ms:.1f}ms  {_access_path(profiles.last_find_stats)}")

    result = database.execute(
        "SELECT title, COUNT(*) AS n FROM seekers WHERE city = 'Austin' "
        "GROUP BY title ORDER BY n DESC LIMIT 3"
    )
    sql_stats = dict(database.last_execute_stats)
    print(f"pruned SQL group-by: top titles {[r['title'] for r in result.rows]} "
          f"(scanned {sql_stats['shards_scanned']}/{sql_stats['shards_total']} shards)")

    if not args.chaos:
        return 0

    print(f"\nchaos drill: kill-rate {args.kill_rate}, {args.ticks} ticks, "
          f"seed {args.chaos_seed}")
    cluster = enterprise.documents.cluster
    chaos = ChaosController(
        ChaosSpec(
            replica_kill_rate=args.kill_rate,
            shard_partition_rate=args.kill_rate / 2,
            replica_latency_rate=args.kill_rate,
        ),
        seed=args.chaos_seed,
    )
    acked: list[str] = []
    rejected = kills = partitions = 0
    for tick in range(args.ticks):
        struck = chaos.strike_store_cluster(cluster)
        kills += len(struck["killed"])
        partitions += len(struck["partitioned"])
        for i in range(3):
            doc_id = f"drill-{tick}-{i}"
            try:
                profiles.insert(
                    {"seeker_id": 10**9 + tick * 3 + i, "name": "Drill",
                     "title": "Chaos Engineer", "city": "Austin",
                     "years_experience": tick, "skills": ["chaos"]},
                    doc_id=doc_id,
                )
                acked.append(doc_id)
            except ClusterUnavailableError:
                rejected += 1
        cluster.tick()
    cluster.settle(ticks=80)
    survived = 0
    for doc_id in acked:
        try:
            profiles.get(doc_id)
            survived += 1
        except QueryError:
            pass
    promotions = sum(shard.promotions for shard in cluster.shards)
    print(f"  faults: {kills} replica kills, {partitions} partitions, "
          f"{promotions} failover promotions")
    print(f"  writes: {len(acked)} acked, {rejected} rejected "
          f"(quorum unavailable)")
    print(f"  acked writes surviving failover: {survived}/{len(acked)}")
    healthy = all(
        replica.status.value == "alive" and replica.applied == shard.acked
        for shard in cluster.shards for replica in shard.replicas
    )
    print(f"  cluster converged: {healthy}")
    if survived == len(acked) and healthy:
        print("  PASS: zero acked-write loss")
        return 0
    print("  FAIL: acked writes lost or cluster diverged")
    return 1


def cmd_recover(args: argparse.Namespace) -> int:
    if args.export_file is None and not args.demo:
        print("recover: pass --export FILE to analyze a journal, or --demo")
        return 2
    if args.export_file is not None:
        return _recover_analyze(args)
    return _recover_demo(args)


def _recover_analyze(args: argparse.Namespace) -> int:
    """Post-hoc journal analysis over a replayed stream export."""
    from .core.recovery import JOURNAL_TAG, RecoveryManager, WriteAheadJournal
    from .streams.persistence import replay_json

    with open(args.export_file, "r", encoding="utf-8") as handle:
        store = replay_json(handle.read())
    journal_streams = sorted(
        {m.stream_id for m in store.trace() if m.has_tag(JOURNAL_TAG)}
    )
    if not journal_streams:
        print("no write-ahead journal records in this export")
        return 1
    report: dict = {"journals": []}
    for stream_id in journal_streams:
        journal = WriteAheadJournal.over_stream(store, stream_id)
        manager = RecoveryManager(journal)
        entry = manager.describe()
        if args.plan is not None:
            entry["plan_detail"] = manager.snapshot(args.plan).describe()
        report["journals"].append(entry)
    print(json.dumps(report, indent=2, default=str))
    return 0


def _recover_demo(args: argparse.Namespace) -> int:
    """Kill/resume demo: run, kill at a barrier, resume, compare."""
    import hashlib

    from .core.recovery import RecoveryManager
    from .core.resilience import KillSwitch
    from .errors import CoordinatorKilledError
    from .streams.persistence import export_json

    baseline = _DemoWorld(args.seed)
    base_run = baseline.coordinator.execute_plan(baseline.plan())
    base_export = export_json(baseline.store)

    switch = KillSwitch(args.kill)
    world = _DemoWorld(args.seed, barrier_hook=switch)
    try:
        run = world.coordinator.execute_plan(world.plan())
    except CoordinatorKilledError:
        world.coordinator.crash()  # the process is gone; only streams survive
        world.coordinator = world.new_coordinator()
        manager = RecoveryManager(world.journal, coordinator=world.coordinator)
        runs = manager.resume_incomplete(budget=world.budget)
        run = runs[0] if runs else None
    resumed_export = export_json(world.store)
    digest = hashlib.md5(resumed_export.encode("utf-8")).hexdigest()
    base_digest = hashlib.md5(base_export.encode("utf-8")).hexdigest()

    print(f"uninterrupted run: status={base_run.status} "
          f"cost={baseline.budget.spent_cost():.4f}")
    if switch.fired:
        print(f"killed at barrier {args.kill} ({switch.fired_site}); "
              f"resumed from the journal")
    else:
        print(f"barrier {args.kill} never reached "
              f"({switch.seen} barriers total); run was uninterrupted")
    if run is not None:
        print(f"recovered run:     status={run.status} "
              f"cost={world.budget.spent_cost():.4f} "
              f"replayed_effects={run.replayed_effects}")
    print(f"export digests:    baseline={base_digest}")
    print(f"                   resumed ={digest}")
    print(f"byte-identical:    {digest == base_digest}")
    print()
    print("== recovery metrics ==")
    snapshot = world.observability.metrics.snapshot()
    shown = False
    for name in sorted(snapshot):
        if name.startswith(("recovery.", "journal.")):
            print(f"  {name} = {snapshot[name]}")
            shown = True
    if not shown:
        print("  (none — nothing was recovered)")
    recover_spans = [
        s for s in world.observability.tracer.spans()
        if s.name.startswith("recover:")
    ]
    if recover_spans:
        print()
        print("== recovery spans ==")
        for span in recover_spans:
            print(f"  {span.name} attrs={dict(span.attributes)}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(resumed_export + "\n")
        print(f"\nresumed export written to {args.output}")
    return 0 if digest == base_digest and (run is None or run.status == "completed") else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "describe": cmd_describe,
        "ask": cmd_ask,
        "plan": cmd_plan,
        "employer": cmd_employer,
        "trace": cmd_trace,
        "run": cmd_run,
        "fleet": cmd_fleet,
        "surge": cmd_surge,
        "shard": cmd_shard,
        "recover": cmd_recover,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
