"""Message log parsing and reply-interaction graph construction.

Input is line-delimited JSON, one message per line:

    {"message_id": 10, "sender": "u1", "reply_to": 3}

``message_id`` (integer) and ``sender`` (string) are required, ``reply_to``
(integer) is optional, unknown fields are ignored.  A one-way adapter for
Telegram desktop chat exports produces the same messages, reading each entry's
``id``, ``from_id`` and ``reply_to_message_id`` (or the JSONL keys).  Both give
a ``MessageLog`` of three columns.  JSONL lines are decoded once and checked
as whole columns; only a failed check re-runs them one at a time through the
per-record pass, which checks export entries too and reports the first bad
record by its key and place (``line N``, or ``entry N`` in an export).  The
graph is interned: sorted node ids plus int64 edge arrays.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import InputError

# json.loads skips exactly these characters around a value
_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once
_WRITE_CHUNK = 1 << 18  # TSV rows joined per write


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
    # a stable sort of one key, which passes once over rows already in order
    order = np.argsort(src * max(len(ids), 1) + dst, kind="stable")
    return ids, src[order], dst[order], weight[order]


def _padded(uid: str) -> bool:
    # readers such as read_truth strip ids, so " a" and "a" would merge there
    return uid != uid.strip()


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """``path`` opened to read as UTF-8; bytes that are not UTF-8 raise an
    InputError naming the file, wherever the reading meets them."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_rows(path: str | Path, header: Iterable[str], columns: Sequence[tuple[list[str], np.ndarray]]) -> None:
    """Write the header lines, then row k as ``texts[codes[k]]`` of each
    ``(texts, codes)`` column, one join per chunk of rows; each text
    carries its own tab or line break."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in header)
        for s in range(0, len(columns[0][1]), _WRITE_CHUNK):
            fh.write("".join(chain.from_iterable(zip(*(
                map(texts.__getitem__, codes[s : s + _WRITE_CHUNK].tolist()) for texts, codes in columns)))))


def read_rows(lines: Iterable[str], what: str, count: int, start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` of each non-blank line, lines numbered from
    ``start``; a line without ``count`` tab-separated fields raises."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != count:
            raise InputError(f"{what} line {lineno}: expected {count} tab-separated fields")
        yield lineno, fields


def check_id(uid: str, what: str, lineno: int) -> None:
    """Reject an id read from a TSV field that no writer would write."""
    if not uid:
        raise InputError(f"{what} line {lineno}: empty id")
    if _padded(uid):
        raise InputError(f"{what} line {lineno}: id {uid!r} must not begin or end with whitespace")


def _normalize_id(value: object, what: str, place: str = "") -> str:
    where = place and f" at {place}"
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
        try:  # a JSON escape such as "\ud800" decodes to a lone surrogate
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"{what} must be valid Unicode text{where}") from None
        return value
    raise InputError(f"{what} must be a string or integer{where}")


def _require_int(value: object, what: str, place: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer at {place}")
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
        return _checked_records(_decoded_lines(lines), _JSONL_KEYS)


def _parse_columns(lines: Iterable[str]) -> MessageLog:
    """Decode each line once and check whole columns; raises on anything
    the per-line pass must look at."""
    ids, senders, replies = [], [], []
    same: dict[str, str] = {}  # one string per sender, however many messages it sent
    for raw in lines:
        text = raw.strip(_JSON_SPACE)
        if text:
            obj, end = _scan_json(text, 0)
            if end != len(text):
                raise ValueError("more than one value on a line")
            ids.append(obj["message_id"])
            sender = obj["sender"]
            if type(sender) is str:  # True == 1, so only strings share a key
                sender = same.setdefault(sender, sender)
            senders.append(sender)
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


def _decoded_lines(lines: Iterable[str]) -> Iterator[tuple[str, dict]]:
    """``("line N", object)`` for each non-blank line, N 1-based."""
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON at line {lineno}: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"expected an object at line {lineno}")
        yield f"line {lineno}", obj


# the keys message id, sender and reply id are read from, per input format;
# the first key present wins
_JSONL_KEYS = (("message_id",), ("sender",), ("reply_to",))
_TELEGRAM_KEYS = (("id", "message_id"), ("from_id", "sender"), ("reply_to_message_id", "reply_to"))


def _checked_records(records: Iterable[tuple[str, dict]], keys: tuple[tuple[str, ...], ...]) -> MessageLog:
    """The per-record pass over ``(place, object)`` pairs, home of every
    record error text; each names the key read and the place."""
    log = MessageLog([], [], [])
    seen: dict[int, str] = {}
    for place, obj in records:
        id_key, sender_key, reply_key = (next((k for k in names if k in obj), names[0]) for names in keys)
        if id_key not in obj:
            raise InputError(f"missing {id_key} at {place}")
        message_id = _require_int(obj[id_key], id_key, place)
        if sender_key not in obj:
            raise InputError(f"missing {sender_key} at {place}")
        sender = _normalize_id(obj[sender_key], sender_key, place)
        reply_to = obj.get(reply_key)
        if reply_to is not None:
            reply_to = _require_int(reply_to, reply_key, place)
        if message_id in seen:
            raise InputError(f"duplicate {id_key} {message_id} at {place} (first seen at {seen[message_id]})")
        seen[message_id] = place
        log.message_id.append(message_id)
        log.sender.append(sender)
        log.reply_to.append(reply_to)
    return log


def parse_messages_path(path: str | Path) -> MessageLog:
    # a text file splits into lines on "\n" only, never on the other breaks
    # str.splitlines knows, which JSON strings may hold raw.  The lines are
    # decoded as they are read and never held in a list, unless the input
    # is a pipe, which the per-line pass could not read again.
    with open_text(path) as fh:
        if not fh.seekable():
            return parse_messages(fh)
        try:
            return _parse_columns(fh)
        except Exception:
            fh.seek(0)  # the per-line pass reads the file again from line 1
            return _checked_records(_decoded_lines(fh), _JSONL_KEYS)


def convert_telegram_export(
    document: object, dropped: Counter[str] | None = None
) -> MessageLog:
    """Convert a Telegram desktop export document to message columns.

    Accepts either the whole export object (with a top-level ``messages``
    array) or the bare array.  Service/system entries without a sender id,
    and entries that are not objects, are skipped and counted under
    "service" in ``dropped`` when given; document order is preserved.  The
    other entries go through the per-record pass as ``entry N``, N being
    the 0-based array index.
    """
    messages = document.get("messages") if isinstance(document, dict) else document
    if not isinstance(messages, list):
        raise InputError("export has no message array")

    def entries() -> Iterator[tuple[str, dict]]:
        for pos, entry in enumerate(messages):
            if isinstance(entry, dict) and entry.get("from_id", entry.get("sender")) is not None:
                yield f"entry {pos}", entry
            elif dropped is not None:
                dropped["service"] += 1  # service message: no sender

    log = _checked_records(entries(), _TELEGRAM_KEYS)
    if not log:
        raise InputError("empty export")
    return log


def build_interaction_graph(log: MessageLog, dropped: Counter[str] | None = None) -> InteractionGraph:
    """Aggregate reply edges: (u, v) gains 1 per message by u replying to v.

    Replies whose target message is absent from the corpus contribute
    nothing, as do self-replies; when ``dropped`` is given they are counted
    there under "dangling" and "self".  Every sender becomes a node.
    """
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
    """Write edges as ``source<TAB>target<TAB>weight`` sorted by (source,
    target); each id and distinct weight is formatted once."""
    ids = [uid + "\t" for uid in graph.ids]
    values, weight = np.unique(graph.weight, return_inverse=True)
    write_rows(path, (), [(ids, graph.src), (ids, graph.dst), ([f"{w}\n" for w in values.tolist()], weight)])


def read_edges_tsv(path: str | Path) -> InteractionGraph:
    """Read an edge-list TSV.  Nodes are the edge endpoints."""
    with open_text(path) as fh:
        rows = fh.read().split("\n")
    if rows[-1] == "":
        rows.pop()  # the final line break
    try:
        return _edges_from_columns(rows)
    except ValueError:
        pass
    # the per-line pass raises the error of the first bad line; a file it
    # passes differs from one the column pass takes only by blank lines
    seen: set[tuple[str, str]] = set()
    for lineno, (src, dst, weight_s) in read_rows(rows, "edge", 3):
        try:
            weight = int(weight_s)
        except ValueError:
            raise InputError(f"edge line {lineno}: weight {weight_s!r} is not an integer")
        if weight < 1:
            raise InputError(f"edge line {lineno}: weight must be >= 1")
        if weight >= 2**63:
            raise InputError(f"edge line {lineno}: weight {weight} does not fit in 64 bits")
        check_id(src, "edge", lineno)
        check_id(dst, "edge", lineno)
        if src == dst:
            raise InputError(f"edge line {lineno}: self-loop edge on {src!r}")
        if (src, dst) in seen:
            raise InputError(f"duplicate edge ({src}, {dst})")
        seen.add((src, dst))
    return _edges_from_columns([row for row in rows if row.strip()])


def _edges_from_columns(rows: list[str]) -> InteractionGraph:
    """Split the rows into columns and check them whole; raises ValueError
    on anything the per-line pass must look at."""
    if set(map(str.count, rows, repeat("\t"))) - {2}:
        raise ValueError("a row without three fields")
    fields = "\t".join(rows).split("\t") if rows else []
    sources, targets = fields[0::3], fields[1::3]
    ids = sorted(set(sources).union(targets))
    weights = fields[2::3]
    value = {text: int(text) for text in set(weights)}  # each distinct weight parsed once
    graph = InteractionGraph(arrays=_intern(ids, sources, targets, list(map(value.__getitem__, weights))))
    src, dst = graph.src, graph.dst
    repeated = (np.diff(src) == 0) & (np.diff(dst) == 0)
    padded = ids != list(map(str.strip, ids))  # _padded over every id at once
    if "" in ids[:1] or padded or (graph.weight < 1).any() or (src == dst).any() or repeated.any():
        raise ValueError("an edge check failed")
    return graph
