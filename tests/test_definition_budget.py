"""Every ``src/`` definition is named somewhere in ``src/`` outside its own
body, or ``KEEP`` says in one line why it stays.

A definition that only its own tests call is line debt: it is read,
reviewed and kept working, yet no code path of the system reaches it.  The
scan is by token (``ast`` finds the definitions, a word regex finds the
names), so a name in a docstring, a string or another class's method of
the same name counts as a use.  Dunder methods are exempt.  A ``KEEP`` entry
that is no longer unreferenced must leave the list, so it stays exact.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
WORD = re.compile(r"[A-Za-z_]\w*")

KEEP = {
    # A paper mode or a ROADMAP item needs it.
    "DataPlanner.plan_retrieval": "the only planner that emits DOC_FIND and Mongo-style filters",
    "CareerAssistant.confirm_profile": "the only form submission (a tagged UI event)",
    "TaskPlanner.iter_steps": "incremental planning, one of Sec. V-F's planning modes",
    "TaskPlanner.record_feedback": "adaptive planning, one of Sec. V-F's planning modes",
    "TaskPlannerAgent.pending_proposals": "interactive (propose / approve) planning, Sec. V-F",
    "TaskCoordinator.replay_dead_letters": "dead-letter replay, which ROADMAP item 18 builds on",
    "Blueprint.close_session": "session teardown, which ROADMAP item 18 builds on",
    "QoSSpec.accurate": "the quality-bound preset beside cheap / fast (the three QoS dimensions)",
    "Collection.find_one": "the document store's query API, shared by the clustered collection",
    # Test set-up, or an observer of behaviour that runs elsewhere.
    "Dag.from_edges": "builds plan DAGs for the plan and DAG property tests",
    "CircuitBreaker.force_open": "opens a breaker for the failover tests",
    "WaveSchedule.wave_of": "observes which wave the scheduler put a node in",
    "Budget.by_source": "observes a budget's charges per source",
    "current_id_scope": "observes the id scope an engine step runs in",
    "FailureDetector.last_beat": "observes the failure detector's heartbeat record",
    "SearchableRegistry.embedding_of": "observes that a registry's embeddings are read-only",
    "AgentRegistry.input_names": "observes an agent entry's input parameters",
    "AgentRegistry.output_names": "observes an agent entry's output parameters",
    # The Fig. 5 data registry surface.
    "DataRegistry.discover_fine": "Fig. 5's field-level discovery",
    "DataRegistry.set_acl": "Fig. 5's access control",
    "DataRegistry.acl": "Fig. 5's access control",
    "DataRegistry.clear_acl": "Fig. 5's access control",
    # A figure bench, a bench gate, an example or the e2e harness reaches it.
    "Cluster.deploy": "bench_fig2_deployment, the chaos / recovery benches, custom_deployment.py",
    "DataPlanner.plan_direct_query": "bench_fig7_data_plan; wrapped by the e2e layers",
    "DataPlanner.plan_rag": "bench_rag",
    "AgentRegistry.register_metadata": "bench_scale, bench_registry_search",
    "Assignment.choice_for": "bench_qos_optimizer, qos_optimization.py",
    "VerifierAgent.against_column": "guarded_assistant.py",
    "ChaosController.infect_catalog": "bench_chaos, bench_tracing",
    "ChaosController.strike_cluster": "bench_chaos, bench_tracing",
    "Blueprint.flow_trace": "bench_fig9_ui_flow, bench_fig10_conversation_flow, agentic_employer.py",
    "Blueprint.recovery_manager": "bench_recovery",
    "FlowTrace.actors": "bench_fig9_ui_flow, bench_fig10_conversation_flow",
    "AgenticEmployerApp.transcript": "bench_fig8_conversation",
    "CareerAssistant.advise_skills": "career_assistant.py",
    "CareerAssistant.explain_last": "career_assistant.py",
    "CareerAssistant.followup": "career_assistant.py",
    "SupportAssistant.backlog_summary": "support_desk.py",
    "StreamStore.trace_by_producer": "bench_streams",
    "StreamStore.trace_by_tag": "bench_streams, bench_scale",
    "ShardedTable.shard_for_value": "bench_shard",
    "find_in": "bench_shard",
    "HashingEmbedder.embed_many": "wrapped by the e2e layers",
    "Tracer.end_span": "wrapped by the e2e layers",
}


def unreferenced() -> dict[str, str]:
    """Qualified name -> ``path:line`` of each definition named nowhere in
    ``src/`` outside its own body (decorators included)."""
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    words = Counter(WORD.findall("\n".join(texts.values())))
    found = {}
    for path, text in texts.items():
        lines = text.splitlines()
        stack = [(ast.parse(text), "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((child, prefix))
                    continue
                qualname = prefix + child.name
                stack.append((child, qualname + "."))
                if child.name.startswith("__") and child.name.endswith("__"):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = "\n".join(lines[first - 1 : child.end_lineno])
                if words[child.name] == WORD.findall(body).count(child.name):
                    found[qualname] = f"{path.relative_to(SRC)}:{child.lineno}"
    return found


def test_every_definition_is_named_outside_its_own_body():
    found = unreferenced()
    debt = sorted(f"{where} {name}" for name, where in found.items() if name not in KEEP)
    assert not debt, (
        "named nowhere in src/ outside their own body; delete them, or add them "
        "to KEEP with a one-line reason:\n" + "\n".join(debt)
    )
    stale = sorted(set(KEEP) - set(found))
    assert not stale, f"KEEP entries that src/ now names, or that are gone: {stale}"
