"""Streams: the blueprint's central orchestration substrate.

Public API:

* :class:`Message`, :class:`MessageKind`, :class:`Instruction` — message model.
* :class:`Stream`, :class:`StreamReader` — append-only logs and cursors.
* :class:`StreamStore` — the streams database (publish / subscribe / trace).
* :class:`TagRule`, :class:`Subscription` — selective consumption.
* :class:`FlowTrace`, :class:`FlowStep` — observability over flows.
"""

from .flowgraph import build_flow_graph, component_graph, render_component_graph
from .partitioned import PartitionedStreamStore, export_partitioned
from .persistence import export_json, export_store, replay_json, replay_store
from .textstream import UtteranceAssembler, collect_text, stream_words
from .message import Instruction, Message, MessageKind, control_payload
from .monitor import FlowStep, FlowTrace
from .store import StreamStore
from .stream import Stream, StreamReader
from .subscription import Subscription, TagRule

__all__ = [
    "PartitionedStreamStore",
    "export_partitioned",
    "build_flow_graph",
    "component_graph",
    "render_component_graph",
    "export_json",
    "export_store",
    "replay_json",
    "replay_store",
    "UtteranceAssembler",
    "collect_text",
    "stream_words",
    "Instruction",
    "Message",
    "MessageKind",
    "control_payload",
    "FlowStep",
    "FlowTrace",
    "StreamStore",
    "Stream",
    "StreamReader",
    "Subscription",
    "TagRule",
]
