"""Every ``src/`` definition is named somewhere in ``src/`` outside its own
body, or ``KEEP`` says in one line why it stays.

A definition that only its own tests call is line debt: it is read,
reviewed and kept working, yet no code path of the system reaches it.
``ast`` finds the definitions.  A module-level function or class, or one
nested in a function, is used when its name appears as a word outside its
own body.  A method (a function defined in a class body) is used only when
``.name`` appears outside its own body (code, docstring or comment alike),
when a string literal is exactly its name, or when a class-level
assignment aliases it (``span = start_span``): a bare word is not enough,
so a method is not kept alive by a same-named local, parameter or
function.  Dunder methods are exempt.  A ``KEEP`` entry that is no longer
unreferenced must leave the list, so it stays exact.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
WORD = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"\.([A-Za-z_]\w*)")

KEEP = {
    # A paper mode or a ROADMAP item needs it.
    "DataPlanner.plan_retrieval": "the only planner that emits DOC_FIND and Mongo-style filters",
    "CareerAssistant.confirm_profile": "the only form submission (a tagged UI event)",
    "TaskPlanner.iter_steps": "incremental planning, one of Sec. V-F's planning modes",
    "TaskPlanner.record_feedback": "adaptive planning, one of Sec. V-F's planning modes",
    "TaskPlannerAgent.pending_proposals": "interactive (propose / approve) planning, Sec. V-F",
    "TaskCoordinator.replay_dead_letters": "dead-letter replay, which ROADMAP item 18 builds on",
    "Blueprint.close_session": "session teardown, which ROADMAP item 18 builds on",
    # Test set-up, or an observer of behaviour that runs elsewhere.
    "Dag.from_edges": "builds plan DAGs for the plan and DAG property tests",
    "CircuitBreaker.force_open": "opens a breaker for the failover tests",
    "WaveSchedule.wave_of": "observes which wave the scheduler put a node in",
    "Budget.by_source": "observes a budget's charges per source",
    "current_id_scope": "observes the id scope an engine step runs in",
    "FailureDetector.last_beat": "observes the failure detector's heartbeat record",
    "SearchableRegistry.embedding_of": "observes that a registry's embeddings are read-only",
    "Collection.find_one": "observes one stored document; about 20 document-store tests read through it",
    "AgentFactory.spawned": "observes the instances a container's factory spawned and respawned",
    "AgentFactory.types": "observes the agent types a container's factory can spawn",
    "Table.lookup": "observes a table's rows by column value, through its index when one answers",
    "KeyValueStore.contains": "observes whether a key is live (TTL expiry included)",
    "BudgetExceededError": "the error taxonomy's QoS refusal, pinned by test_foundation; nothing raises it",
    "AgentContext.extra": "reads a context's extras, the per-deployment settings an agent is handed",
    "Cluster.container": "a deployment's container by id, beside containers() and placement()",
    "ModelCatalog.best": "the catalog's top-quality model for a domain",
    "QoSSpec.cheap": "the cost-bound QoS preset",
    # A registry UI op: with register_*, the only writers of entry text (DESIGN §8's memo table).
    "AgentRegistry.derive": "derives a new agent entry from an existing one",
    "SearchableRegistry.update_metadata": "replaces one entry's text and re-embeds it",
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
    "Histogram.percentile": "the e2e harness's per-op latency percentiles",
    "Observability.reset": "the e2e harness clears the tracer and metrics between rounds",
    "Cluster.placement": "custom_deployment.py (the Figure-2 node -> container view)",
}


def unreferenced() -> dict[str, str]:
    """Qualified name -> ``path:line`` of each definition named nowhere in
    ``src/`` outside its own body (decorators included)."""
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    trees = {path: ast.parse(text) for path, text in texts.items()}
    everything = "\n".join(texts.values())
    words, dotted = Counter(WORD.findall(everything)), Counter(DOTTED.findall(everything))
    strings, aliased = set(), set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.add(node.value)
        elif isinstance(node, ast.ClassDef):
            aliased.update(
                stmt.value.id
                for stmt in node.body
                if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
            )
    found = {}
    for path, text in texts.items():
        lines = text.splitlines()
        stack = [(trees[path], "", False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    stack.append((child, prefix, in_class))
                    continue
                qualname = prefix + child.name
                stack.append((child, qualname + ".", isinstance(child, ast.ClassDef)))
                if child.name.startswith("__") and child.name.endswith("__"):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = "\n".join(lines[first - 1 : child.end_lineno])
                if in_class and not isinstance(child, ast.ClassDef):
                    used = (
                        dotted[child.name] > DOTTED.findall(body).count(child.name)
                        or child.name in strings
                        or child.name in aliased
                    )
                else:
                    used = words[child.name] > WORD.findall(body).count(child.name)
                if not used:
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
