"""Message log parsing and reply-interaction graph construction.

Input is line-delimited JSON, one message per line:

    {"message_id": 10, "sender": "u1", "reply_to": 3}

``message_id`` (integer) and ``sender`` (string) are required, ``reply_to``
(integer) is optional, unknown fields are ignored.  A one-way adapter for
Telegram desktop chat exports produces the same messages, reading each entry's
``id``, ``from_id`` and ``reply_to_message_id`` (or the JSONL keys).  Both give
a ``MessageLog`` of three columns.  The JSONL log splits into lines on "\n"
alone.  Each raw line goes to the decoder once, as it is read, and the
columns are checked whole, first with orjson; a failed check runs the
column pass again with json, then the lines one at a time through the
per-record pass, which checks export entries too and reports the first bad
record by its key and place (``line N``, or ``entry N`` in an export).  A
blank line is found when the decoder raises on it: both decoders skip the
same four whitespace characters around a value.  A raw line of more than
1,000 characters, its line break counted, goes to json even in the first
pass, as orjson has no depth limit.  The order is exact: orjson reads a
strict subset of what json reads, to the same values, save integers outside
[-2**63, 2**64), which it reads as floats that the column checks reject, so
every log orjson's pass accepts gives json's columns, and every error text
comes from json.  The graph is interned: sorted node ids plus int64 edge
arrays.

``read_edges_tsv`` reads ``edges.tsv`` as bytes.  One NumPy pass over its
separators gives every field's offset and length; the id fields are hashed
by ``fnv1a64``, the FNV-1a-64 kernel feature tokens are hashed with too,
one sort groups equal hashes, and every field is proved byte for byte to
equal its group's first, so only the distinct ids are decoded and ranked.
Weights of 1 to 18 ASCII digits are read as digit columns, and the other
checks run on the arrays.  Whatever this pass declines (blank lines,
another weight spelling, bytes that are not UTF-8, two ids of one hash)
goes to the per-line pass, which names the first bad line or builds the
graph from the rows it checked.  Both read the bytes with CRLF and lone CR
line breaks translated to LF, as a text file is read.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np
import orjson

from .errors import InputError

# json.loads and orjson.loads skip exactly these characters around a value
_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once
_WRITE_CHUNK = 1 << 18  # TSV rows joined per write
# FNV-1a-64, the hash of the ids of an edge file here and of feature tokens
# in simhash
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def _longest_first(lengths: np.ndarray) -> np.ndarray:
    """The positions of non-negative ``lengths``, longest first and equal
    lengths in position order: ``np.argsort(-lengths, kind="stable")``."""
    from .lsh import stable_order  # lsh imports this module through simhash

    top = int(lengths.max(initial=0))
    # NumPy's stable argsort of 8-bit keys is a radix sort: 0.49 against
    # 0.95 ms for the packed sort at 86,400 keys (x86)
    if top < 256:
        return np.argsort((top - lengths).astype(np.uint8), kind="stable")
    return stable_order(top - lengths, top + 1)


def _longer_than(lengths: np.ndarray) -> list[int]:
    """For lengths sorted longest first, entry p counts the lengths above p,
    for every p below the longest."""
    top = int(lengths[0]) if len(lengths) else 0
    return np.searchsorted(-lengths, -np.arange(top), side="left").tolist()


def fnv1a64(state: np.ndarray, data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Continue each uint64 FNV-1a-64 ``state[i]`` over the bytes
    ``data[starts[i] : starts[i] + lengths[i]]`` of the uint8 ``data``, in
    place.  The segments come longest first, so the states still reading
    at byte p are a prefix, and byte p is one step across all of them
    (uint64 array products wrap mod 2**64 as FNV needs)."""
    prime = np.uint64(FNV_PRIME)
    for p, k in enumerate(_longer_than(lengths)):
        state[:k] ^= data[starts[:k] + p]
        state[:k] *= prime


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

    ``feature_rows`` holds what feature building shares across thresholds,
    one entry per (direction, mode), built on first use and kept for the
    graph's lifetime; it reads the arrays and never writes them.
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
        self.feature_rows: dict[tuple[str, str], object] = {}

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
    return _in_order(ids, src, dst, weight)


def _in_order(ids: list[str], src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> tuple:
    """(ids, src, dst, weight) with the edges sorted by (src, dst)."""
    from .lsh import stable_order  # lsh imports this module through simhash

    n = max(len(ids), 1)
    key = src * n + dst
    # a file write_edges_tsv wrote is in order already: checking that takes
    # 17 us at 43k edges, sorting them 0.46 ms (x86)
    if (key[1:] < key[:-1]).any():
        order = stable_order(key, n * n)
        src, dst, weight = src[order], dst[order], weight[order]
    return ids, src, dst, weight


def _padded(uid: str) -> bool:
    # readers such as read_truth strip ids, so " a" and "a" would merge there
    return uid != uid.strip()


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened to read as UTF-8, its lines split as ``open`` splits
    them for ``newline``; bytes that are not UTF-8 raise an InputError
    naming the file, wherever the reading meets them."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None


def write_rows(path: str | Path, header: Iterable[str], columns: Sequence[tuple[list[str], np.ndarray]]) -> None:
    """Write the header lines, then row k as ``texts[codes[k]]`` of each
    ``(texts, codes)`` column, one join per chunk of rows; each text
    carries its own tab or line break."""
    texts = [np.array(column, dtype=object) for column, _ in columns]
    rows = len(columns[0][1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in header)
        for s in range(0, rows, _WRITE_CHUNK):
            # each column's cells gathered by code into one (rows, columns)
            # array, which reads row by row when raveled
            cells = np.empty((min(_WRITE_CHUNK, rows - s), len(columns)), dtype=object)
            for j, (_, codes) in enumerate(columns):
                cells[:, j] = texts[j][codes[s : s + _WRITE_CHUNK]]
            fh.write("".join(cells.ravel().tolist()))


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
    return _parse_passes(list(lines), lambda: None)


def _parse_passes(lines: Iterable[str], rewind: Callable[[], object]) -> MessageLog:
    """The column pass with orjson, then with json, then the per-line pass,
    each reading ``lines`` from the first after ``rewind()``; the per-line
    pass raises the first real error, or returns the same columns."""
    for loads in (orjson.loads, _json_value):
        try:
            return _parse_columns(lines, loads)
        except Exception:  # whatever a pass tripped on, the next decides again
            rewind()
    return _checked_records(_decoded_lines(lines), _JSONL_KEYS)


def _json_value(text: str) -> object:
    """The one JSON value ``text`` holds, as json.loads reads it."""
    text = text.strip(_JSON_SPACE)
    obj, end = _scan_json(text, 0)
    if end != len(text):
        raise ValueError("more than one value on a line")
    return obj


def _parse_columns(lines: Iterable[str], loads: Callable[[str], object] = _json_value) -> MessageLog:
    """Decode each raw line once with ``loads`` and check whole columns;
    raises on anything the per-line pass must look at.  A line the decoder
    rejects is blank if it holds nothing but the JSON whitespace both
    decoders skip, and is raised again otherwise."""
    ids, senders, replies, others = [], [], [], []
    add_id, add_sender, add_reply = ids.append, senders.append, replies.append
    same: dict[str, str] = {}  # one string per sender, however many messages it sent
    intern = same.setdefault
    for raw in lines:
        # orjson has no depth limit, and about 150,000 levels deep its
        # recursion overflows an 8 MB stack; a line of at most 1,000
        # characters nests at most 500 deep, short of json's recursion
        # limit too, so both read it alike.  A longer one goes to json.
        try:
            obj = loads(raw) if len(raw) <= 1000 else _json_value(raw)
        except (ValueError, StopIteration):  # what either raises on a blank line
            if raw.strip(_JSON_SPACE):
                raise
            continue
        add_id(obj["message_id"])
        sender = obj["sender"]
        if type(sender) is str:  # True == 1, so only strings share a key
            sender = intern(sender, sender)
        else:
            others.append(sender)
        add_sender(sender)
        add_reply(obj.get("reply_to"))
    # type sets, not values: True == 1, so bools must not hide among ints
    if (
        set(map(type, ids)) - {int} or set(map(type, others)) - {int}
        or set(map(type, replies)) - {int, type(None)} or len(set(ids)) < len(ids)
    ):
        raise ValueError("a column check failed")
    # each distinct sender is checked once: the strings are the keys of
    # ``same``, and an integer needs no check
    for name in same:
        _normalize_id(name, "sender")
    if others:  # 5 and "5" are one user
        number = {s: str(s) for s in set(others)}
        senders = list(map(number.get, senders, senders))
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
        except (ValueError, RecursionError) as exc:  # too many digits, or too deep
            raise InputError(f"invalid JSON at line {lineno}: {exc}") from exc
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
    # the log splits into lines on "\n" only, as parse_messages reads them:
    # a lone "\r" is JSON whitespace, and a CRLF line ends in two of it.
    # The lines are decoded as they are read and never held in a list,
    # unless the input is a pipe, which a later pass could not read again.
    with open_text(path, newline="\n") as fh:
        if not fh.seekable():
            return parse_messages(fh)
        return _parse_passes(fh, lambda: fh.seek(0))


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
        data = fh.buffer.read()
        if b"\r" in data:  # 8 us, where the search for CRLF takes 0.7 ms (500 KB)
            # CRLF and a lone CR become LF, as in the text open_text reads;
            # neither byte occurs inside a multi-byte UTF-8 character
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            return _edges_from_bytes(data)
        except ValueError:  # a UnicodeDecodeError too: open_text names the file
            pass
        return _edges_from_rows(data.decode("utf-8"))


def _edges_from_rows(text: str) -> InteractionGraph:
    """The per-line pass: raises the error of the first bad line, or builds
    the graph from the rows it checked."""
    rows = text.split("\n")
    if rows[-1] == "":
        rows.pop()  # the final line break
    edges: dict[tuple[str, str], int] = {}
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
        if (src, dst) in edges:
            raise InputError(f"duplicate edge ({src}, {dst})")
        edges[src, dst] = weight
    return InteractionGraph({u for edge in edges for u in edge}, edges)


def _edges_from_bytes(data: bytes) -> InteractionGraph:
    """The byte pass: the rows checked whole, as columns of field offsets
    and lengths; raises ValueError on anything the per-line pass must look
    at.  Only the distinct ids are decoded, one field of each hash group."""
    codes = np.frombuffer(data, np.uint8)
    at, size, weight = _fields(data, codes)
    order = _longest_first(size)  # as fnv1a64 reads them
    at, size = at[order], size[order]
    group, first = _hash_groups(codes, at, size)
    distinct = _decoded(codes, at[first], size[first])
    ids = sorted(distinct)
    index = dict(zip(ids, range(len(ids))))
    rank = np.fromiter(map(index.__getitem__, distinct), np.int64, len(distinct))
    code = np.empty_like(group)
    code[order] = rank[group]
    src, dst = code[: len(weight)], code[len(weight) :]
    padded = ids != list(map(str.strip, ids))  # _padded over every id at once
    if padded or (weight < 1).any() or (src == dst).any():
        raise ValueError("an edge check failed")
    ids, src, dst, weight = _in_order(ids, src, dst, weight)
    if ((np.diff(src) == 0) & (np.diff(dst) == 0)).any():
        raise ValueError("a repeated edge")
    return InteractionGraph(arrays=(ids, src, dst, weight))


def _fields(data: bytes, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The offsets and lengths of the id fields, every row's source and then
    every row's target, and the weights; raises ValueError unless each row
    is three fields ended by a tab, a tab and a line break, its ids are
    not empty and its weight is digits."""
    # neither byte occurs inside a multi-byte UTF-8 character
    breaks = codes == 10
    ends = np.flatnonzero(breaks | (codes == 9))
    if len(ends) % 3 or data[-1:] not in (b"", b"\n"):
        raise ValueError("a partial row")
    tab, tab2, eol = ends.reshape(-1, 3).T
    # every third end a line break, and no other
    if np.count_nonzero(breaks) != len(eol) or not breaks[eol].all():
        raise ValueError("a row without three fields")
    line = np.empty_like(eol)  # each row's first byte
    line[:1] = 0
    line[1:] = eol[:-1] + 1
    size = np.concatenate([tab - line, tab2 - tab - 1])
    if not size.all():
        raise ValueError("an empty id")
    return np.concatenate([line, tab + 1]), size, _digits(codes, tab2 + 1, eol - tab2 - 1)


def _hash_groups(codes: np.ndarray, at: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each field's group and each group's first field, for fields given
    longest first.  Fields of one FNV-1a-64 hash form a group, numbered in
    hash order, and every field is proved to hold its group's first
    field's bytes; raises ValueError where two different ids share a hash."""
    h = np.full(len(at), FNV_OFFSET, dtype=np.uint64)
    fnv1a64(h, codes, at, size)
    by_hash = np.argsort(h)
    h = h[by_hash]
    new = np.empty(len(h), dtype=bool)
    new[:1] = True
    np.not_equal(h[1:], h[:-1], out=new[1:])
    # each array dropped once read: the pass peaks at 5.5 MB on random-5k
    # against 6.4 MB with them kept
    del h
    group = np.empty_like(by_hash)
    group[by_hash] = np.cumsum(new) - 1
    first = by_hash[new]
    del by_hash
    if (size[first][group] != size).any():
        raise ValueError("two ids share a hash")
    other = at[first][group]
    for p, k in enumerate(_longer_than(size)):
        if (codes[at[:k] + p] != codes[other[:k] + p]).any():
            raise ValueError("two ids share a hash")
    return group, first


def _decoded(codes: np.ndarray, at: np.ndarray, size: np.ndarray) -> list[str]:
    """The text of each field, all decoded at once: each field is copied
    with the separator after it, and every separator made a tab."""
    span = size + 1
    offset = np.cumsum(span) - span
    text = codes[np.repeat(at - offset, span) + np.arange(int(span.sum()))]
    text[offset + size] = 9
    return text.tobytes().decode("utf-8").split("\t")[:-1]


def _digits(codes: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The int64 values of fields of 1 to 18 ASCII digits, all below 10**18;
    raises ValueError on any other field."""
    if len(length) and not 1 <= length.min() <= length.max() <= 18:
        raise ValueError("a weight of no or too many digits")
    value = np.zeros(len(length), dtype=np.int64)
    for p in range(int(length.max(initial=0))):
        live = length > p
        digit = codes.take(start + p, mode="clip") - 48  # a byte below "0" wraps past 9
        if (live & (digit > 9)).any():
            raise ValueError("a weight that is not digits")
        value = np.where(live, value * 10 + digit, value)
    return value
