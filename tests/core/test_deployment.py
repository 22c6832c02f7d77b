"""Tests for the simulated cluster deployment (Figure 2)."""

import pytest

from repro.core.agent import FunctionAgent
from repro.core.context import AgentContext
from repro.core.deployment import Cluster, ResourceProfile, Supervisor
from repro.core.factory import AgentFactory
from repro.core.params import Parameter
from repro.errors import DeploymentError


def echo_constructor(**kwargs):
    return FunctionAgent(
        "ECHO",
        lambda i: {"OUT": i["IN"]},
        inputs=(Parameter("IN", "text"),),
        outputs=(Parameter("OUT", "text"),),
        listen_tags=("GO",),
        **kwargs,
    )


@pytest.fixture
def rig(store, session, clock, catalog):
    factory = AgentFactory("f1")
    factory.register("ECHO", echo_constructor)

    def context_factory():
        return AgentContext(store=store, session=session, clock=clock, catalog=catalog)

    cluster = Cluster("prod")
    cluster.add_node(ResourceProfile(cpu=4, gpu=1, memory_gb=16))
    cluster.add_node(ResourceProfile(cpu=2, gpu=0, memory_gb=8))
    return cluster, factory, context_factory


class TestAgentFactory:
    def test_register_and_spawn(self):
        factory = AgentFactory()
        factory.register("ECHO", echo_constructor)
        agent = factory.spawn("ECHO")
        assert agent.name == "ECHO"
        assert factory.spawned() == [agent]

    def test_duplicate_type_rejected(self):
        factory = AgentFactory()
        factory.register("ECHO", echo_constructor)
        with pytest.raises(DeploymentError):
            factory.register("ECHO", echo_constructor)

    def test_unknown_type(self):
        with pytest.raises(DeploymentError):
            AgentFactory().spawn("GHOST")

    def test_register_class(self):
        class MyAgent(FunctionAgent):
            pass

        factory = AgentFactory()
        factory.register("X", lambda **kw: FunctionAgent("X", lambda i: None))
        assert factory.types() == ["X"]

    def test_forget(self):
        factory = AgentFactory()
        factory.register("ECHO", echo_constructor)
        agent = factory.spawn("ECHO")
        factory.forget(agent)
        assert factory.spawned() == []


class TestResourceProfile:
    def test_fits_into(self):
        small = ResourceProfile(cpu=1, gpu=0, memory_gb=2)
        big = ResourceProfile(cpu=4, gpu=1, memory_gb=8)
        assert small.fits_into(big)
        assert not big.fits_into(small)

    def test_gpu_requirement(self):
        gpu_job = ResourceProfile(cpu=1, gpu=1, memory_gb=2)
        cpu_node = ResourceProfile(cpu=8, gpu=0, memory_gb=32)
        assert not gpu_job.fits_into(cpu_node)

    def test_minus(self):
        remaining = ResourceProfile(4, 1, 16).minus(ResourceProfile(1, 0, 4))
        assert remaining == ResourceProfile(3, 1, 12)


class TestClusterPlacement:
    def test_first_fit(self, rig, store, session):
        cluster, factory, context_factory = rig
        container = cluster.deploy(
            "echo:latest", factory, context_factory,
            agent_specs=(("ECHO", {}),),
            profile=ResourceProfile(cpu=1, gpu=0, memory_gb=2),
        )
        assert container.state == "running"
        placement = cluster.placement()
        assert container.container_id in placement["prod-node-1"]

    def test_gpu_placement_skips_cpu_only_node(self, rig):
        cluster, factory, context_factory = rig
        # Fill up the GPU node's gpu with one deploy, then require another gpu.
        cluster.deploy(
            "a", factory, context_factory, (("ECHO", {}),),
            profile=ResourceProfile(cpu=1, gpu=1, memory_gb=2),
        )
        with pytest.raises(DeploymentError):
            cluster.deploy(
                "b", factory, context_factory, (("ECHO", {}),),
                profile=ResourceProfile(cpu=1, gpu=1, memory_gb=2),
            )

    def test_capacity_exhaustion(self, rig):
        cluster, factory, context_factory = rig
        profile = ResourceProfile(cpu=2, gpu=0, memory_gb=8)
        for _ in range(3):  # node1 holds two of these, node2 one
            cluster.deploy("x", factory, context_factory, (("ECHO", {}),), profile=profile)
        with pytest.raises(DeploymentError):
            cluster.deploy("x", factory, context_factory, (("ECHO", {}),), profile=profile)


class TestFailureAndRestart:
    def test_deployed_agent_serves_traffic(self, rig, store, session):
        cluster, factory, context_factory = rig
        cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "ping", tags=("GO",))
        out = store.get_stream(session.stream_id("echo:out"))
        assert out.data_payloads() == ["ping"]

    def test_failure_stops_traffic(self, rig, store, session):
        cluster, factory, context_factory = rig
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        container.fail()
        assert container.state == "failed"
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "ping", tags=("GO",))
        assert not store.has_stream(session.stream_id("echo:out"))

    def test_supervisor_restarts_and_recovers(self, rig, store, session):
        cluster, factory, context_factory = rig
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        container.fail()
        supervisor = Supervisor(cluster)
        restarted = supervisor.tick()
        assert restarted == [container.container_id]
        assert container.state == "running"
        assert container.restarts == 1
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "ping", tags=("GO",))
        out = store.get_stream(session.stream_id("echo:out"))
        assert out.data_payloads() == ["ping"]

    def test_supervisor_respects_restart_policy(self, rig):
        cluster, factory, context_factory = rig
        container = cluster.deploy(
            "echo", factory, context_factory, (("ECHO", {}),), restart_on_failure=False
        )
        container.fail()
        assert Supervisor(cluster).tick() == []
        assert container.state == "failed"

    def test_cannot_fail_stopped_container(self, rig):
        cluster, factory, context_factory = rig
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        container.stop()
        with pytest.raises(DeploymentError):
            container.fail()

    def test_cannot_restart_running_container(self, rig):
        cluster, factory, context_factory = rig
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        with pytest.raises(DeploymentError):
            container.restart()

    def test_stop_detaches_gracefully(self, rig, session):
        cluster, factory, context_factory = rig
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        assert "ECHO" in session.participants()
        container.stop()
        assert "ECHO" not in session.participants()

    def test_containers_by_state(self, rig):
        cluster, factory, context_factory = rig
        a = cluster.deploy("a", factory, context_factory, (("ECHO", {}),))
        assert cluster.containers(state="running") == [a]
        a.fail()
        assert cluster.containers(state="failed") == [a]
