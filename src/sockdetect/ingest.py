"""Message log parsing and reply-interaction graph construction.

Input is line-delimited JSON, one message per line:

    {"message_id": 10, "sender": "u1", "reply_to": 3}

``message_id`` (integer) and ``sender`` (string) are required, ``reply_to``
(integer) is optional, unknown fields are ignored.  A one-way adapter for
Telegram desktop chat exports produces the same messages.  Both give a
``MessageLog`` of three columns; lines are decoded once and checked as whole
columns, and only a failed check re-runs the per-line pass that reports the
first bad line.  The graph is interned: sorted node ids plus int64 edge arrays.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InputError

# json.loads skips exactly these characters around a value
_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class MessageRecord:
    """One chat message; text is never retained."""

    message_id: int
    sender: str
    reply_to: int | None = None


@dataclass
class MessageLog:
    """Messages as parallel columns in input order: ``sender`` holds
    normalized ids, ``reply_to`` None for no reply.  Iterating builds
    MessageRecords on demand."""

    message_id: list[int]
    sender: list[str]
    reply_to: list[int | None]

    @classmethod
    def of(cls, records: Iterable[MessageRecord]) -> MessageLog:
        """``records`` itself if it is a MessageLog, else its records as one."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls(
            [r.message_id for r in records], [r.sender for r in records], [r.reply_to for r in records]
        )

    def __len__(self) -> int:
        return len(self.message_id)

    def __iter__(self) -> Iterator[MessageRecord]:
        return map(MessageRecord, self.message_id, self.sender, self.reply_to)


class InteractionGraph:
    """Directed weighted reply graph: edge (u, v) = number of replies u -> v.

    Edge k runs from ``ids[src[k]]`` to ``ids[dst[k]]`` with weight
    ``weight[k]``.  ``ids`` are sorted and the int64 arrays sorted by (src,
    dst), which is (source, target) string order.  Immutable by convention
    once built; weights are always >= 1 and no self-loop edges exist.
    """

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Mapping[tuple[str, str], int] | None = None,
        *,
        arrays: tuple | None = None,
    ):
        """Intern a node set and an ``{(source, target): weight}`` dict, or
        take ``arrays`` = (ids, src, dst, weight) as they are."""
        if arrays is None:
            edges = {} if edges is None else edges
            ends = [s for s, _ in edges], [t for _, t in edges]
            arrays = _intern(sorted(set(nodes)), *ends, list(edges.values()))
        self.ids, self.src, self.dst, self.weight = arrays

    @cached_property
    def nodes(self) -> set[str]:
        return set(self.ids)

    @cached_property
    def edges(self) -> dict[tuple[str, str], int]:
        name = self.ids.__getitem__
        ends = zip(map(name, self.src.tolist()), map(name, self.dst.tolist()))
        return dict(zip(ends, self.weight.tolist()))

    @property
    def node_count(self) -> int:
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return len(self.src)

    def validate(self) -> None:
        for (src, dst), w in self.edges.items():
            if w < 1:
                raise ValueError(f"edge ({src}, {dst}) has weight {w} < 1")
            if src == dst:
                raise ValueError(f"self-loop edge on {src}")


def _intern(ids: list[str], sources: list[str], targets: list[str], weights: list[int]) -> tuple:
    """(ids, src, dst, weight) over sorted ``ids``, edges sorted by (src, dst)."""
    index = dict(zip(ids, range(len(ids))))
    try:
        src, dst = (np.fromiter(map(index.__getitem__, e), np.int64, len(e)) for e in (sources, targets))
    except KeyError as exc:
        raise InputError(f"edge endpoint {exc.args[0]!r} is not a graph node") from None
    try:
        weight = np.array(weights, dtype=np.int64)
    except OverflowError:
        raise InputError("edge weight does not fit in 64 bits") from None
    order = np.lexsort((dst, src))
    return ids, src[order], dst[order], weight[order]


def _padded(uid: str) -> bool:
    # readers such as read_truth strip ids, so " a" and "a" would merge there
    return uid != uid.strip()


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
        if _padded(value):
            raise InputError(f"{what} must not begin or end with whitespace{where}")
        return value
    raise InputError(f"{what} must be a string or integer{where}")


def _require_int(value: object, what: str, line: int | None = None) -> int:
    where = f" at line {line}" if line is not None else ""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer{where}")
    return value


def parse_messages(lines: Iterable[str]) -> MessageLog:
    """Parse canonical JSONL message lines into columns, preserving order.

    Blank lines are skipped.  Raises InputError with a 1-based line number
    for malformed lines, and names both lines on duplicate message ids.
    """
    lines = list(lines)
    try:
        return _parse_columns(lines)
    except Exception:
        # whatever the fast pass tripped on, the per-line pass decides again:
        # it raises the first real error, or returns the same columns
        return _parse_per_line(lines)


def _parse_columns(lines: list[str]) -> MessageLog:
    """Decode each line once and check whole columns; raises on anything
    the per-line pass must look at."""
    ids, senders, replies = [], [], []
    for raw in lines:
        text = raw.strip(_JSON_SPACE)
        if text:
            obj, end = _scan_json(text, 0)
            if end != len(text):
                raise ValueError("more than one value on a line")
            ids.append(obj["message_id"])
            senders.append(obj["sender"])
            replies.append(obj.get("reply_to"))
    # type sets, not values: True == 1, so bools must not hide among ints
    sender_types = set(map(type, senders))
    if (
        set(map(type, ids)) - {int} or sender_types - {int, str}
        or set(map(type, replies)) - {int, type(None)} or len(set(ids)) < len(ids)
    ):
        raise ValueError("a column check failed")
    # each distinct sender is checked once; 5 and "5" are one user
    names = {s: _normalize_id(s, "sender") for s in set(senders)}
    if int in sender_types:
        senders = list(map(names.__getitem__, senders))
    return MessageLog(ids, senders, replies)


def _parse_per_line(lines: Iterable[str]) -> MessageLog:
    """The parser one line at a time, home of every error text."""
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
    return MessageLog.of(records)


def parse_messages_path(path: str | Path) -> MessageLog:
    # a text file splits into lines on "\n" only, never on the other breaks
    # str.splitlines knows, which JSON strings may hold raw
    with open(path, encoding="utf-8") as fh:
        return parse_messages(fh)


def convert_telegram_export(
    document: object, dropped: Counter[str] | None = None
) -> MessageLog:
    """Convert a Telegram desktop export document to message columns.

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
    return MessageLog.of(records)


def build_interaction_graph(
    messages: Iterable[MessageRecord], dropped: Counter[str] | None = None
) -> InteractionGraph:
    """Aggregate reply edges: (u, v) gains 1 per message by u replying to v.

    Replies whose target message is absent from the corpus contribute
    nothing, as do self-replies; when ``dropped`` is given they are counted
    there under "dangling" and "self".  Every sender becomes a node.
    """
    log = MessageLog.of(messages)
    ids = sorted(set(log.sender))
    code = dict(zip(ids, range(len(ids))))
    sender = list(map(code.__getitem__, log.sender))
    # keyed by the ids themselves, which may lie outside int64
    author = dict(zip(log.message_id, sender))
    if len(author) < len(sender):
        seen: set[int] = set()
        for message_id in log.message_id:
            if message_id in seen:
                raise InputError(f"duplicate message_id {message_id}")
            seen.add(message_id)
    src = np.array(sender, dtype=np.int64)
    # -1 for no reply and for a reply to a message absent from the log
    dst = np.fromiter(map(author.get, log.reply_to, repeat(-1)), np.int64, len(sender))
    resolved, self_reply = dst >= 0, dst == src
    if dropped is not None:
        dangling = len(sender) - log.reply_to.count(None) - int(resolved.sum())
        # unary + drops zero counts, which the per-message loop never added
        dropped.update(+Counter({"dangling": dangling, "self": int(self_reply.sum())}))
    n = max(len(ids), 1)
    key, weight = np.unique((src * n + dst)[resolved & ~self_reply], return_counts=True)
    return InteractionGraph(arrays=(ids, key // n, key % n, weight.astype(np.int64)))


def write_edges_tsv(graph: InteractionGraph, path: str | Path) -> None:
    """Write edges as ``source<TAB>target<TAB>weight`` sorted by (source, target)."""
    name = graph.ids.__getitem__
    ends = map(name, graph.src.tolist()), map(name, graph.dst.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(map("{}\t{}\t{}\n".format, *ends, graph.weight.tolist())))


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
        if weight >= 2**63:
            raise InputError(f"edge line {lineno}: weight {weight} does not fit in 64 bits")
        if not src or not dst:
            raise InputError(f"edge line {lineno}: empty endpoint")
        for uid in (src, dst):
            if _padded(uid):
                raise InputError(
                    f"edge line {lineno}: id {uid!r} must not begin or end with whitespace"
                )
        if src == dst:
            raise InputError(f"edge line {lineno}: self-loop edge on {src!r}")
        yield src, dst, weight


def read_edges_tsv(path: str | Path) -> InteractionGraph:
    """Read an edge-list TSV.  Nodes are the edge endpoints."""
    with open(path, encoding="utf-8") as fh:
        rows = fh.read().split("\n")
    if rows[-1] == "":
        rows.pop()  # the final line break
    try:
        return _edges_from_columns(rows)
    except ValueError:
        pass  # iter_edges_tsv raises the error for the first bad line
    edges: dict[tuple[str, str], int] = {}
    for src, dst, weight in iter_edges_tsv(rows):
        if (src, dst) in edges:
            raise InputError(f"duplicate edge ({src}, {dst})")
        edges[(src, dst)] = weight
    return InteractionGraph(nodes={u for edge in edges for u in edge}, edges=edges)


def _edges_from_columns(rows: list[str]) -> InteractionGraph:
    """Split the rows into columns and check them whole; raises ValueError
    on anything ``iter_edges_tsv`` must look at."""
    if set(map(str.count, rows, repeat("\t"))) - {2}:
        raise ValueError("a row without three fields")
    fields = "\t".join(rows).split("\t") if rows else []
    sources, targets = fields[0::3], fields[1::3]
    ids = sorted(set(sources).union(targets))
    graph = InteractionGraph(arrays=_intern(ids, sources, targets, list(map(int, fields[2::3]))))
    src, dst = graph.src, graph.dst
    repeated = (np.diff(src) == 0) & (np.diff(dst) == 0)
    padded = ids != list(map(str.strip, ids))  # _padded over every id at once
    if "" in ids[:1] or padded or (graph.weight < 1).any() or (src == dst).any() or repeated.any():
        raise ValueError("an edge check failed")
    return graph
