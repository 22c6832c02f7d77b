"""Subscriptions and tag rules for selective message consumption.

Agents in the blueprint can be activated *decentrally* by monitoring
designated tags within streams, "defined by inclusion and exclusion rules"
(Section V-B).  :class:`TagRule` captures those rules; :class:`Subscription`
binds a rule plus a stream filter to a subscriber callback.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .message import Message, MessageKind


@dataclass(frozen=True)
class TagRule:
    """Inclusion/exclusion rule over message tags.

    A message matches when it carries at least one included tag (or the
    include set is empty, meaning "any") and none of the excluded tags.

    Example:
        >>> rule = TagRule(include=frozenset({"SQL"}), exclude=frozenset({"DRAFT"}))
        >>> rule.matches({"SQL"})
        True
        >>> rule.matches({"SQL", "DRAFT"})
        False
        >>> TagRule().matches(set())  # empty rule matches everything
        True
    """

    include: frozenset[str] = frozenset()
    exclude: frozenset[str] = frozenset()

    def matches(self, tags: Iterable[str]) -> bool:
        exclude = self.exclude
        include = self.include
        if not exclude and not include:
            return True
        tag_set = tags if isinstance(tags, (set, frozenset)) else set(tags)
        if exclude and not tag_set.isdisjoint(exclude):
            return False
        if include:
            return not tag_set.isdisjoint(include)
        return True

    @classmethod
    def of(cls, include: Iterable[str] = (), exclude: Iterable[str] = ()) -> "TagRule":
        """Convenience constructor from any iterables."""
        return cls(include=frozenset(include), exclude=frozenset(exclude))


SubscriberCallback = Callable[[Message], None]

#: ``probe`` of a route the store must test rather than look up.
SCANNED = -1
_GLOB_CHARS = frozenset("*?[")


def compile_pattern(pattern: str) -> tuple[int | None, Any]:
    """Compile a stream glob to the ``(probe, key)`` the store routes it by.

    A keyed route matches a stream id iff ``stream_id[:probe] == key``; a
    scanned one iff ``key is None or key(stream_id)``.

    ==========  ============  ==========================================
    pattern     probe         key
    ==========  ============  ==========================================
    ``*``       ``SCANNED``   ``None`` (match-all)
    literal     ``None``      the pattern (``id[:None]`` is the whole id)
    literal*    len(literal)  the literal prefix
    other glob  ``SCANNED``   ``fnmatch.translate`` compiled, ``.match``
    ==========  ============  ==========================================
    """
    if pattern == "*":
        return SCANNED, None
    if _GLOB_CHARS.isdisjoint(pattern):
        return None, pattern
    if pattern[-1] == "*" and _GLOB_CHARS.isdisjoint(pattern[:-1]):
        return len(pattern) - 1, pattern[:-1]
    return SCANNED, re.compile(fnmatch.translate(pattern)).match


@dataclass
class Subscription:
    """A registered listener on the stream store.

    Attributes:
        subscription_id: unique identifier.
        subscriber: name of the listening component (for traces).
        callback: invoked once per matching message, in append order.
        stream_pattern: glob over stream ids (``session-1/*``); ``*`` = all.
        tag_rule: inclusion/exclusion rule over message tags.
        control_only / data_only: restrict by message kind.
        addressee: when set, accept only messages addressed to it (``Message.addressee``).
        route: ``compile_pattern(stream_pattern)``, set at construction.
    """

    subscription_id: str
    subscriber: str
    callback: SubscriberCallback
    stream_pattern: str = "*"
    tag_rule: TagRule = field(default_factory=TagRule)
    control_only: bool = False
    data_only: bool = False
    addressee: str | None = None
    active: bool = True

    def __post_init__(self) -> None:
        # ``stream_pattern`` is fixed after registration (the store never
        # mutates it), so it is compiled once.
        self.route = compile_pattern(self.stream_pattern)

    def accepts(self, kind: MessageKind, tags: frozenset[str], addressee: str | None) -> bool:
        """The kind, addressee and tag filters: what the store checks after routing."""
        if self.addressee is not None and addressee != self.addressee:
            return False
        if self.control_only and kind is not MessageKind.CONTROL:
            return False
        if self.data_only and kind is not MessageKind.DATA:
            return False
        return self.tag_rule.matches(tags)

    def wants(self, message: Message) -> bool:
        """Whether this subscription should receive *message*.

        The linear-scan reference: it matches the raw glob with ``fnmatch``
        and never consults ``route``, so tests can hold the store's route
        table to ``[s for s in store.subscriptions() if s.wants(m)]``.
        """
        return (
            self.active
            and self.accepts(message.kind, message.tags, message.addressee())
            and fnmatch.fnmatchcase(message.stream_id, self.stream_pattern)
        )
