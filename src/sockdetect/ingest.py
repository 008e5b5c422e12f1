"""Message log parsing and reply-interaction graph construction.

Input is line-delimited JSON, one message per line:

    {"message_id": 10, "sender": "u1", "reply_to": 3}

``message_id`` (integer) and ``sender`` (string) are required, ``reply_to``
(integer) is optional, unknown fields are ignored.  A one-way adapter for
Telegram desktop chat exports produces the same record stream.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import InputError


@dataclass(frozen=True)
class MessageRecord:
    """One chat message; text is never retained."""

    message_id: int
    sender: str
    reply_to: int | None = None


@dataclass
class InteractionGraph:
    """Directed weighted reply graph: edge (u, v) = number of replies u -> v.

    Immutable by convention once built; weights are always >= 1 and no
    self-loop edges exist.
    """

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def out_adjacency(self) -> dict[str, dict[str, int]]:
        """Per-source map of outgoing neighbors to reply counts."""
        adj: dict[str, dict[str, int]] = {}
        for (src, dst), w in self.edges.items():
            adj.setdefault(src, {})[dst] = w
        return adj

    def in_adjacency(self) -> dict[str, dict[str, int]]:
        """Per-target map of incoming neighbors to reply counts."""
        adj: dict[str, dict[str, int]] = {}
        for (src, dst), w in self.edges.items():
            adj.setdefault(dst, {})[src] = w
        return adj

    def validate(self) -> None:
        for (src, dst), w in self.edges.items():
            if w < 1:
                raise ValueError(f"edge ({src}, {dst}) has weight {w} < 1")
            if src == dst:
                raise ValueError(f"self-loop edge on {src}")
            if src not in self.nodes or dst not in self.nodes:
                raise ValueError(f"edge ({src}, {dst}) references unknown node")


def _normalize_id(value: object, what: str, line: int | None = None) -> str:
    where = f" at line {line}" if line is not None else ""
    if isinstance(value, bool):
        raise InputError(f"{what} must be a string or integer{where}")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value:
            raise InputError(f"{what} must be non-empty{where}")
        # ids are written as TSV fields, one record per line
        if "\t" in value or "\n" in value or "\r" in value:
            raise InputError(f"{what} must not contain a tab or line break{where}")
        return value
    raise InputError(f"{what} must be a string or integer{where}")


def _require_int(value: object, what: str, line: int | None = None) -> int:
    where = f" at line {line}" if line is not None else ""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer{where}")
    return value


def parse_messages(lines: Iterable[str]) -> list[MessageRecord]:
    """Parse canonical JSONL message lines into records, preserving order.

    Blank lines are skipped.  Raises InputError with a 1-based line number
    for malformed lines, and names both lines on duplicate message ids.
    """
    records: list[MessageRecord] = []
    seen: dict[int, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON at line {lineno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"expected an object at line {lineno}")
        if "message_id" not in obj:
            raise InputError(f"missing message_id at line {lineno}")
        message_id = _require_int(obj["message_id"], "message_id", lineno)
        if "sender" not in obj:
            raise InputError(f"missing sender at line {lineno}")
        sender = _normalize_id(obj["sender"], "sender", lineno)
        reply_to = obj.get("reply_to")
        if reply_to is not None:
            reply_to = _require_int(reply_to, "reply_to", lineno)
        if message_id in seen:
            raise InputError(
                f"duplicate message_id {message_id} at line {lineno}"
                f" (first seen at line {seen[message_id]})"
            )
        seen[message_id] = lineno
        records.append(MessageRecord(message_id, sender, reply_to))
    return records


def parse_messages_path(path: str | Path) -> list[MessageRecord]:
    with open(path, encoding="utf-8") as fh:
        return parse_messages(fh)


def convert_telegram_export(
    document: object, dropped: Counter[str] | None = None
) -> list[MessageRecord]:
    """Convert a Telegram desktop export document to message records.

    Accepts either the whole export object (with a top-level ``messages``
    array) or the bare array.  Service/system entries without a sender id,
    and entries that are not objects, are skipped and counted under
    "service" in ``dropped`` when given; document order is preserved.
    """
    if isinstance(document, dict):
        messages = document.get("messages")
    else:
        messages = document
    if not isinstance(messages, list):
        raise InputError("export has no message array")

    records: list[MessageRecord] = []
    seen: dict[int, int] = {}
    for pos, entry in enumerate(messages):
        sender_raw = entry.get("from_id", entry.get("sender")) if isinstance(entry, dict) else None
        if sender_raw is None:
            if dropped is not None:
                dropped["service"] += 1  # service message: no sender
            continue
        if "id" not in entry and "message_id" not in entry:
            raise InputError(f"message entry {pos} has no id")
        message_id = _require_int(
            entry.get("id", entry.get("message_id")), f"id of entry {pos}"
        )
        sender = _normalize_id(sender_raw, f"sender of entry {pos}")
        reply_raw = entry.get("reply_to_message_id", entry.get("reply_to"))
        reply_to = None if reply_raw is None else _require_int(
            reply_raw, f"reply id of entry {pos}"
        )
        if message_id in seen:
            raise InputError(
                f"duplicate message id {message_id} in export"
                f" (entries {seen[message_id]} and {pos})"
            )
        seen[message_id] = pos
        records.append(MessageRecord(message_id, sender, reply_to))
    if not records:
        raise InputError("empty export")
    return records


def build_interaction_graph(
    messages: Iterable[MessageRecord], dropped: Counter[str] | None = None
) -> InteractionGraph:
    """Aggregate reply edges: (u, v) gains 1 per message by u replying to v.

    Replies whose target message is absent from the corpus contribute
    nothing, as do self-replies; when ``dropped`` is given they are counted
    there under "dangling" and "self".  Every sender becomes a node.
    """
    messages = list(messages)
    author: dict[int, str] = {}
    for rec in messages:
        if rec.message_id in author:
            raise InputError(f"duplicate message_id {rec.message_id}")
        author[rec.message_id] = rec.sender

    weights: Counter[tuple[str, str]] = Counter()
    nodes: set[str] = set()
    for rec in messages:
        nodes.add(rec.sender)
        if rec.reply_to is None:
            continue
        target = author.get(rec.reply_to)
        if target is None or target == rec.sender:
            if dropped is not None:
                dropped["dangling" if target is None else "self"] += 1
            continue
        weights[(rec.sender, target)] += 1
    return InteractionGraph(nodes=nodes, edges=dict(weights))


def write_edges_tsv(graph: InteractionGraph, path: str | Path) -> None:
    """Write edges as ``source<TAB>target<TAB>weight`` sorted by (source, target)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for (src, dst) in sorted(graph.edges):
            fh.write(f"{src}\t{dst}\t{graph.edges[(src, dst)]}\n")


def iter_edges_tsv(lines: Iterable[str]) -> Iterator[tuple[str, str, int]]:
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"edge line {lineno}: expected 3 tab-separated fields")
        src, dst, weight_s = parts
        try:
            weight = int(weight_s)
        except ValueError:
            raise InputError(f"edge line {lineno}: weight {weight_s!r} is not an integer")
        if weight < 1:
            raise InputError(f"edge line {lineno}: weight must be >= 1")
        if not src or not dst:
            raise InputError(f"edge line {lineno}: empty endpoint")
        if src == dst:
            raise InputError(f"edge line {lineno}: self-loop edge on {src!r}")
        yield src, dst, weight


def read_edges_tsv(path: str | Path) -> InteractionGraph:
    """Read an edge-list TSV.  Nodes are the edge endpoints."""
    edges: dict[tuple[str, str], int] = {}
    nodes: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for src, dst, weight in iter_edges_tsv(fh):
            if (src, dst) in edges:
                raise InputError(f"duplicate edge ({src}, {dst})")
            edges[(src, dst)] = weight
            nodes.add(src)
            nodes.add(dst)
    return InteractionGraph(nodes=nodes, edges=edges)
