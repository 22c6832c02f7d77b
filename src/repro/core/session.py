"""Sessions: the context and scope for agents' collaborative work.

"Each agent signals its entry and exit from the session and creates output
streams by posting instructions to the session stream ... Additional
context can be established by extending the current context ... analogous
to scoping in programming" (Section V-E).

A session owns a *session stream* where lifecycle instructions are posted,
names all of its work streams under its id (``sess-000001:profile``), and
exposes hierarchical :class:`Scope` contexts for grouped interactions.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from ..errors import SessionError
from ..ids import IdGenerator
from ..streams import Instruction, Stream, StreamStore


class Scope:
    """A hierarchical key-value context (``SESSION:ID:PROFILE`` style)."""

    def __init__(self, path: str, parent: "Scope | None" = None) -> None:
        self.path = path
        self.parent = parent
        self._values: dict[str, Any] = {}
        self._children: dict[str, "Scope"] = {}
        self._lock = threading.RLock()

    def child(self, name: str) -> "Scope":
        """Get or create the child scope *name* (extends the context)."""
        with self._lock:
            if name not in self._children:
                self._children[name] = Scope(f"{self.path}:{name}", parent=self)
            return self._children[name]

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._values[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """Look up *key* here, falling back through enclosing scopes."""
        with self._lock:
            if key in self._values:
                return self._values[key]
        if self.parent is not None:
            return self.parent.get(key, default)
        return default

    def children(self) -> list[str]:
        with self._lock:
            return sorted(self._children)


class Session:
    """One unit of collaborative agent work over the stream store."""

    def __init__(self, session_id: str, store: StreamStore) -> None:
        self.session_id = session_id
        self.store = store
        self.scope = Scope(f"SESSION:{session_id}")
        self._participants: list[str] = []
        self._closed = False
        self._lock = threading.RLock()
        self._session_stream = store.create_stream(
            self.stream_id("session"), tags=("SESSION",), creator=session_id
        )

    # ------------------------------------------------------------------
    # Stream naming
    # ------------------------------------------------------------------
    def stream_id(self, name: str) -> str:
        return f"{self.session_id}:{name}"

    @property
    def session_stream(self) -> Stream:
        return self._session_stream

    def create_stream(self, name: str, tags: Iterable[str] = (), creator: str = "") -> Stream:
        """Create a session-scoped stream, announcing it on the session stream."""
        self._ensure_open()
        stream = self.store.create_stream(self.stream_id(name), tags=tags, creator=creator)
        self.store.publish_control(
            self._session_stream.stream_id,
            Instruction.CREATE_STREAM,
            producer=creator or self.session_id,
            stream=stream.stream_id,
            tags=sorted(tags),
        )
        return stream

    def ensure_stream(self, name: str, creator: str = "") -> Stream:
        stream_id = self.stream_id(name)
        if self.store.has_stream(stream_id):
            return self.store.get_stream(stream_id)
        return self.create_stream(name, creator=creator)

    def streams(self) -> list[str]:
        prefix = f"{self.session_id}:"
        return [s for s in self.store.list_streams() if s.startswith(prefix)]

    # ------------------------------------------------------------------
    # Participation
    # ------------------------------------------------------------------
    def enter(self, agent_name: str) -> None:
        """Signal *agent_name*'s entry into the session."""
        self._ensure_open()
        with self._lock:
            if agent_name in self._participants:
                return
            self._participants.append(agent_name)
        self.store.publish_control(
            self._session_stream.stream_id,
            Instruction.ENTER_SESSION,
            producer=agent_name,
            agent=agent_name,
        )

    def exit(self, agent_name: str) -> None:
        """Signal *agent_name*'s exit from the session."""
        with self._lock:
            if agent_name not in self._participants:
                raise SessionError(f"agent {agent_name!r} is not in session {self.session_id}")
            self._participants.remove(agent_name)
        self.store.publish_control(
            self._session_stream.stream_id,
            Instruction.EXIT_SESSION,
            producer=agent_name,
            agent=agent_name,
        )

    def participants(self) -> list[str]:
        with self._lock:
            return list(self._participants)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.store.close_stream(self._session_stream.stream_id, producer=self.session_id)

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self.session_id} is closed")


class SessionManager:
    """Creates and looks up sessions on one stream store."""

    def __init__(self, store: StreamStore) -> None:
        self.store = store
        self._ids = IdGenerator()
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()

    def create(self, session_id: str | None = None) -> Session:
        with self._lock:
            if session_id is None:
                session_id = self._ids.next("sess")
            if session_id in self._sessions:
                raise SessionError(f"session already exists: {session_id!r}")
            session = Session(session_id, self.store)
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session: {session_id!r}")
        return session

    def active(self) -> list[str]:
        with self._lock:
            return sorted(sid for sid, s in self._sessions.items() if not s.closed)
