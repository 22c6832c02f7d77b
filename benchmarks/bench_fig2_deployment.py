"""F2 — Figure 2: deployment of components across an enterprise cluster.

Regenerates the placement view (which node hosts which container) and
measures container deployment and fail/restart cycles.
"""

from _artifacts import record, table

from repro.core import (
    AgentFactory,
    Blueprint,
    Cluster,
    FunctionAgent,
    Parameter,
    ResourceProfile,
    Supervisor,
)


def build_cluster():
    blueprint = Blueprint()
    session = blueprint.create_session()
    factory = AgentFactory()
    for name in ("PROFILER_SVC", "MATCHER_SVC", "LLM_GATEWAY", "SQL_SVC"):
        factory.register(
            name,
            lambda _n=name, **kw: FunctionAgent(
                _n, lambda i: {"OUT": i["IN"]},
                inputs=(Parameter("IN", "text"),), outputs=(Parameter("OUT", "text"),),
                **kw,
            ),
        )
    cluster = Cluster("enterprise")
    cluster.add_node(ResourceProfile(cpu=16, gpu=4, memory_gb=128))  # GPU cluster
    cluster.add_node(ResourceProfile(cpu=32, gpu=0, memory_gb=128))  # CPU cluster
    cluster.add_node(ResourceProfile(cpu=8, gpu=0, memory_gb=32))    # edge node
    context_factory = lambda: blueprint.context(session)
    return blueprint, cluster, factory, context_factory


def deploy_fleet(cluster, factory, context_factory):
    # LLM gateway needs GPUs; the rest are CPU services.
    containers = [
        cluster.deploy("llm-gateway:v3", factory, context_factory,
                       (("LLM_GATEWAY", {}),), profile=ResourceProfile(cpu=4, gpu=2, memory_gb=32)),
        cluster.deploy("profiler:v1", factory, context_factory,
                       (("PROFILER_SVC", {}),), profile=ResourceProfile(cpu=2, gpu=0, memory_gb=8)),
        cluster.deploy("matcher:v5", factory, context_factory,
                       (("MATCHER_SVC", {}),), profile=ResourceProfile(cpu=8, gpu=0, memory_gb=16)),
        cluster.deploy("sql:v2", factory, context_factory,
                       (("SQL_SVC", {}),), profile=ResourceProfile(cpu=2, gpu=0, memory_gb=8)),
    ]
    return containers


def test_fig2_placement(benchmark):
    """Artifact: the placement map; bench: deploying the 4-container fleet."""
    blueprint, cluster, factory, context_factory = build_cluster()
    deploy_fleet(cluster, factory, context_factory)
    rows = []
    for node in cluster.nodes():
        for container in node.containers:
            rows.append([
                node.node_id, container.container_id, container.image,
                f"cpu={container.profile.cpu} gpu={container.profile.gpu}",
                container.state,
            ])
    record(
        "fig2_deployment",
        "Figure 2 — containers placed on cluster nodes by resource profile\n"
        + table(["node", "container", "image", "profile", "state"], rows),
    )

    def deploy_cycle():
        _, cluster2, factory2, ctx2 = build_cluster()
        return deploy_fleet(cluster2, factory2, ctx2)

    benchmark(deploy_cycle)


def test_fig2_restart_on_failure(benchmark):
    """Bench: one fail + supervisor-restart cycle."""
    _, cluster, factory, context_factory = build_cluster()
    containers = deploy_fleet(cluster, factory, context_factory)
    victim = containers[1]

    def fail_and_recover():
        victim.fail()
        # A supervisor per cycle: one that saw every timed round would
        # quarantine the victim as crash-looping after ``max_restarts``.
        return Supervisor(cluster).tick()

    restarted = benchmark(fail_and_recover)
    assert restarted == [victim.container_id]
