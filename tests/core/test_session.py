"""Tests for sessions, scopes, and the session manager."""

import pytest

from repro.core.session import Scope, SessionManager
from repro.errors import SessionError
from repro.streams import Instruction


@pytest.fixture
def manager(store):
    return SessionManager(store)


class TestSession:
    def test_session_stream_created(self, manager, store):
        session = manager.create("s1")
        assert store.has_stream("s1:session")
        assert "SESSION" in session.session_stream.tags

    def test_stream_naming(self, manager):
        session = manager.create("s1")
        assert session.stream_id("chat") == "s1:chat"

    def test_create_stream_announces(self, manager, store):
        session = manager.create("s1")
        session.create_stream("chat", tags=("USER",), creator="app")
        announcements = [
            m for m in session.session_stream.messages()
            if m.instruction() == Instruction.CREATE_STREAM
        ]
        assert len(announcements) == 1
        assert announcements[0].payload["stream"] == "s1:chat"

    def test_ensure_stream_idempotent(self, manager):
        session = manager.create("s1")
        first = session.ensure_stream("chat")
        second = session.ensure_stream("chat")
        assert first is second

    def test_streams_listing(self, manager):
        session = manager.create("s1")
        session.create_stream("a")
        session.create_stream("b")
        assert session.streams() == ["s1:a", "s1:b", "s1:session"]

    def test_enter_exit_signals(self, manager):
        session = manager.create("s1")
        session.enter("AGENT_A")
        assert session.participants() == ["AGENT_A"]
        session.exit("AGENT_A")
        assert session.participants() == []
        instructions = [m.instruction() for m in session.session_stream.messages()]
        assert Instruction.ENTER_SESSION in instructions
        assert Instruction.EXIT_SESSION in instructions

    def test_enter_idempotent(self, manager):
        session = manager.create("s1")
        session.enter("A")
        session.enter("A")
        assert session.participants() == ["A"]

    def test_exit_unknown_agent(self, manager):
        session = manager.create("s1")
        with pytest.raises(SessionError):
            session.exit("GHOST")

    def test_close(self, manager):
        session = manager.create("s1")
        session.close()
        assert session.closed
        assert session.session_stream.closed
        with pytest.raises(SessionError):
            session.create_stream("late")

    def test_close_idempotent(self, manager):
        session = manager.create("s1")
        session.close()
        session.close()


class TestScope:
    def test_path_extension(self):
        root = Scope("SESSION:1")
        child = root.child("PROFILE")
        assert child.path == "SESSION:1:PROFILE"

    def test_child_cached(self):
        root = Scope("S")
        assert root.child("A") is root.child("A")

    def test_lookup_falls_through_to_parent(self):
        root = Scope("S")
        root.set("user", "ann")
        child = root.child("A")
        assert child.get("user") == "ann"

    def test_child_shadows_parent(self):
        root = Scope("S")
        root.set("x", 1)
        child = root.child("A")
        child.set("x", 2)
        assert child.get("x") == 2
        assert root.get("x") == 1

    def test_get_default(self):
        assert Scope("S").get("missing", "d") == "d"

    def test_listing(self):
        root = Scope("S")
        root.set("b", 1)
        root.set("a", 2)
        root.child("Z")
        assert root.children() == ["Z"]


class TestSessionManager:
    def test_auto_ids(self, manager):
        session = manager.create()
        assert session.session_id.startswith("sess-")

    def test_duplicate_rejected(self, manager):
        manager.create("s1")
        with pytest.raises(SessionError):
            manager.create("s1")

    def test_get(self, manager):
        session = manager.create("s1")
        assert manager.get("s1") is session
        with pytest.raises(SessionError):
            manager.get("nope")

    def test_active_excludes_closed(self, manager):
        manager.create("s1")
        s2 = manager.create("s2")
        s2.close()
        assert manager.active() == ["s1"]
