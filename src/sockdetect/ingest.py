"""Message log parsing and reply-interaction graph construction.

Input is line-delimited JSON, one message per line:

    {"message_id": 10, "sender": "u1", "reply_to": 3}

``message_id`` (integer) and ``sender`` (string) are required, ``reply_to``
(integer) is optional, unknown fields are ignored.  A one-way adapter for
Telegram desktop chat exports produces the same messages, reading each entry's
``id``, ``from_id`` and ``reply_to_message_id`` (or the JSONL keys).  Both give
a ``MessageLog`` of three columns.

A JSONL file that can be read twice goes to the byte pass first.  It reads
the file in chunks of about 1 MB, each cut after a line break, and accepts
only the canonical lines ``json.dumps`` writes, ``{"message_id": N,
"sender": "S"}`` with an optional ``, "reply_to": M``: keys in that order
with that spacing, ids of 1 to 18 digits without a leading zero.  Every
byte of a chunk is proved with NumPy: no backslash and no control byte but
the line break, the fixed texts at their offsets (8 bytes at a time), the
digits, and 6 or 8 quotes a line (counted over the chunk, so a sender
holds none).  Senders are hashed with ``fnv1a64``, grouped and proved
byte-equal as the ids of ``edges.tsv`` are, and only each chunk's distinct
senders decoded.  The log keeps int64 arrays (``MessageArrays``) and builds
its lists only when one is read.  Anything else raises ValueError, and the
file is read again by the per-line pass.

The per-line pass reads every other log: what the byte pass declines, a
pipe, and lines given as a list.  It splits the log into lines on "\n"
alone, decodes each non-blank line with ``json.loads`` as it is read, and
checks it in the per-record pass, which checks export entries too and
reports the first bad record by its key and place (``line N``, or ``entry
N`` in an export).  The graph is interned: sorted node ids plus int64 edge
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
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import InputError

_WRITE_CHUNK = 1 << 18  # TSV rows joined per write
_CHUNK = 1 << 20  # bytes of a message log the byte pass reads at a time
# FNV-1a-64, the hash of the ids of an edge file here and of feature tokens
# in simhash
FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def stable_order(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integer keys in [0, bound):
    one in-place sort of ``key << s | position``, s the bits of a position,
    then the positions masked back out.  NumPy sorts int64 values with its
    SIMD sort but runs timsort for a stable argsort, 6-9x slower (5k-100k
    keys, AVX-512 x86).  Keys that do not pack into int64 take the argsort."""
    s = (len(key) - 1).bit_length() if len(key) else 0
    if bound << s > 2**63:
        return np.argsort(key, kind="stable")
    packed = np.left_shift(key, s, dtype=np.int64)
    packed |= np.arange(len(key))
    packed.sort()
    packed &= (1 << s) - 1
    return packed


def _longest_first(lengths: np.ndarray) -> np.ndarray:
    """The positions of non-negative ``lengths``, longest first and equal
    lengths in position order: ``np.argsort(-lengths, kind="stable")``."""
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


class MessageArrays(NamedTuple):
    """The columns of a log the byte pass read, in input order."""

    message_id: np.ndarray  # int64, each below 10**18
    sender: np.ndarray  # int64 codes into ``names``
    names: list[str]  # the distinct senders, sorted
    reply_to: np.ndarray  # int64, -1 for no reply
    by_id: np.ndarray | None  # the order of ``message_id``, None if it is increasing


class MessageLog:
    """Messages as parallel columns in input order: ``sender`` holds
    normalized ids, ``reply_to`` None for no reply.  Iterating builds
    MessageRecords on demand.

    A log the byte pass read holds its columns as ``arrays`` and builds
    each list on its first read, every message of one sender sharing one
    string; a log built from lists has ``arrays`` None."""

    def __init__(self, message_id: list[int], sender: list[str], reply_to: list[int | None]):
        # instance attributes shadow the cached properties below
        self.message_id, self.sender, self.reply_to = message_id, sender, reply_to
        self.arrays: MessageArrays | None = None

    @classmethod
    def of_arrays(cls, arrays: MessageArrays) -> MessageLog:
        log = cls.__new__(cls)
        log.arrays = arrays
        return log

    @cached_property
    def message_id(self) -> list[int]:
        return self.arrays.message_id.tolist()

    @cached_property
    def sender(self) -> list[str]:
        return list(map(self.arrays.names.__getitem__, self.arrays.sender.tolist()))

    @cached_property
    def reply_to(self) -> list[int | None]:
        return [None if r < 0 else r for r in self.arrays.reply_to.tolist()]

    def __len__(self) -> int:
        return len(self.message_id if self.arrays is None else self.arrays.message_id)

    def __iter__(self) -> Iterator[MessageRecord]:
        return map(MessageRecord, self.message_id, self.sender, self.reply_to)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageLog):
            return NotImplemented
        return (self.message_id, self.sender, self.reply_to) == (other.message_id, other.sender, other.reply_to)


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


def _normalize_id(value: object, what: str) -> str:
    if isinstance(value, bool):
        raise InputError(f"{what} must be a string or integer")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        if not value:
            raise InputError(f"{what} must be non-empty")
        # ids are written as TSV fields, one record per line
        if "\t" in value or "\n" in value or "\r" in value:
            raise InputError(f"{what} must not contain a tab or line break")
        if _padded(value):
            raise InputError(f"{what} must not begin or end with whitespace")
        try:  # a JSON escape such as "\ud800" decodes to a lone surrogate
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise InputError(f"{what} must be valid Unicode text") from None
        return value
    raise InputError(f"{what} must be a string or integer")


def _require_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer")
    return value


def parse_messages(lines: Iterable[str]) -> MessageLog:
    """Parse canonical JSONL message lines into columns, preserving order.

    Blank lines are skipped.  Raises InputError with a 1-based line number
    for malformed lines, and names both lines on duplicate message ids.
    """
    return _checked_records(_decoded_lines(lines), "line", _jsonl_keys)


def _decoded_lines(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """``(N, object)`` for each non-blank line, N its 1-based number."""
    for lineno, raw in enumerate(lines, start=1):
        if raw.isspace() or not raw:  # as ``not raw.strip()``, without the copy
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON at line {lineno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # too many digits, or too deep
            raise InputError(f"invalid JSON at line {lineno}: {exc}") from exc
        if not isinstance(obj, dict):
            raise InputError(f"expected an object at line {lineno}")
        yield lineno, obj


# the keys message id, sender and reply id are read from in an export entry:
# each Telegram key, or the JSONL key when only that one is present
_TELEGRAM_KEYS = (("id", "message_id"), ("from_id", "sender"), ("reply_to_message_id", "reply_to"))


def _jsonl_keys(line: dict) -> tuple[str, str, str]:
    return "message_id", "sender", "reply_to"


def _telegram_keys(entry: dict) -> tuple[str, ...]:
    return tuple(key if key in entry or alias not in entry else alias for key, alias in _TELEGRAM_KEYS)


def _checked_records(
    records: Iterable[tuple[int, dict]], unit: str, keys: Callable[[dict], tuple[str, ...]]
) -> MessageLog:
    """The per-record pass over ``(N, object)`` pairs, the fields read from
    the object's ``keys``: home of every record error text, each naming the
    key read and the place, ``unit N``.  Each distinct sender is checked
    once, and all its messages share one string."""
    log = MessageLog([], [], [])
    add_id, add_sender, add_reply = log.message_id.append, log.sender.append, log.reply_to.append
    seen: dict[int, int] = {}  # each message id's N
    same: dict[str, str] = {}  # each checked sender's one string
    for number, obj in records:
        id_key, sender_key, reply_key = keys(obj)
        try:
            message_id = _require_int(obj[id_key], id_key)
            sender = obj[sender_key]
            # True == 1, so only strings are looked up
            name = same.get(sender) if type(sender) is str else None
            if name is None:
                name = _normalize_id(sender, sender_key)
                name = same.setdefault(name, name)
            reply_to = obj.get(reply_key)
            if reply_to is not None:
                reply_to = _require_int(reply_to, reply_key)
        except KeyError as exc:
            raise InputError(f"missing {exc.args[0]} at {unit} {number}") from None
        except InputError as exc:
            raise InputError(f"{exc} at {unit} {number}") from None
        first = seen.setdefault(message_id, number)
        if first != number:
            raise InputError(
                f"duplicate {id_key} {message_id} at {unit} {number} (first seen at {unit} {first})"
            )
        add_id(message_id)
        add_sender(name)
        add_reply(reply_to)
    return log


def parse_messages_path(path: str | Path) -> MessageLog:
    # the log splits into lines on "\n" only, as parse_messages reads them:
    # a lone "\r" is JSON whitespace, and a CRLF line ends in two of it.
    # The per-line pass decodes the lines as they are read and holds none.
    with open_text(path, newline="\n") as fh:
        if fh.seekable():
            try:
                return _messages_from_bytes(fh.buffer)
            except ValueError:  # a UnicodeDecodeError too: open_text names the file if it recurs
                fh.seek(0)
        return parse_messages(fh)


def _messages_from_bytes(fh: BinaryIO) -> MessageLog:
    """The message byte pass: the log read in chunks of about ``_CHUNK``
    bytes, each cut after a line break and proved whole by
    ``_message_chunk``; raises ValueError on anything the per-line pass
    must look at.  A last line without its line break reads as one with it."""
    names: dict[str, int] = {}  # each distinct sender's code, in order of first sight
    columns: list[tuple[np.ndarray, ...]] = [(np.empty(0, np.int64),) * 3]
    rest = b""
    while block := fh.read(_CHUNK):
        data = rest + block
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            columns.append(_message_chunk(data[:cut], names))
    if rest:
        columns.append(_message_chunk(rest + b"\n", names))
    message_id, sender, reply_to = (np.concatenate(c) for c in zip(*columns))
    ids, rank = _ranked(list(names))
    # the only checks of _normalize_id a sender can fail here: no byte
    # below 0x20 passed, nor an escape, and UTF-8 holds no lone surrogate
    if any(map(_padded, ids)):
        raise ValueError("a padded sender")
    return MessageLog.of_arrays(MessageArrays(message_id, rank[sender], ids, reply_to, _id_order(message_id)))


def _id_order(message_id: np.ndarray) -> np.ndarray | None:
    """The order that sorts ``message_id``, or None if it is increasing
    already; raises ValueError on a repeated id."""
    if (message_id[1:] > message_id[:-1]).all():
        return None
    order = np.argsort(message_id)  # one order only, the ids being distinct
    if (np.diff(message_id[order]) == 0).any():
        raise ValueError("a repeated message id")
    return order


# The fixed texts of a canonical line, as 8-byte little-endian words:
#     {"message_id": N, "sender": "S"}
#     {"message_id": N, "sender": "S", "reply_to": M}
# 15 bytes before N, 13 between N and S, 15 between S and M, each text
# matched by two overlapping words: (offset into the text, word)
_HEAD, _SENDER, _REPLY = (
    [(at, np.frombuffer(text, "<u8", 1, at)[0]) for at in (0, len(text) - 8)]
    for text in (b'{"message_id": ', b', "sender": "', b'", "reply_to": ')
)


def _message_chunk(data: bytes, names: dict[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The message ids, sender codes and reply ids (-1 for none) of
    ``data``, whole lines in the canonical shape ``json.dumps`` writes, with
    ids of 1 to 18 digits and no leading zero.  Every byte is proved; the
    senders are hashed and only each distinct one decoded, and ``names``
    gives each its code, adding the senders it lacks; raises ValueError on
    anything else."""
    codes = np.frombuffer(data, np.uint8)
    eol = np.flatnonzero(codes == 10)
    # a canonical line has no escape and no control byte but its line break
    if np.count_nonzero(codes < 32) != len(eol) or (codes == 92).any():
        raise ValueError("an escape or a control byte")
    start = np.concatenate(([0], eol[:-1] + 1))
    # each line cut into its fixed texts, its id digits and its sender: the
    # message id runs from the 16th byte, the reply id back from the "}"
    message_id, id_size = _json_ints(codes, start + 15)
    digits_end = start + 15 + id_size
    reply_size = _digit_run(codes, eol - 2)
    reply = reply_size > 0
    close = eol - 2 - np.where(reply, reply_size + 14, 0)  # the quote after the sender
    at = digits_end + 13
    size = close - at
    if (size < 1).any():
        raise ValueError("a line too short, or an empty sender")
    # every byte outside the digits and the senders is matched to its text,
    # which holds 6 quotes, or 8 with a reply; so one more quote would be
    # in a sender, where only an escape may put one
    if np.count_nonzero(codes == 34) != 6 * len(eol) + 2 * np.count_nonzero(reply):
        raise ValueError("a quote in a sender")
    words = np.ndarray((len(codes) - 7,), "<u8", data, strides=(1,))  # an 8-byte word at every offset
    tail = close[reply]
    for base, texts in ((start, _HEAD), (digits_end, _SENDER), (tail, _REPLY)):
        for offset, word in texts:
            if (words[base + offset] != word).any():
                raise ValueError("a line not in the canonical shape")
    if (codes[eol - 1] != 125).any() or (codes[close[~reply]] != 34).any():
        raise ValueError("a line not closed by '\"}'")
    reply_to = np.full(len(eol), -1, dtype=np.int64)
    reply_to[reply] = _json_ints(codes, tail + 15)[0]
    order = _longest_first(size)  # as fnv1a64 reads them
    at, size = at[order], size[order]
    group, head = _hash_groups(codes, at, size)
    distinct = _decoded(codes, at[head], size[head])
    new = [name for name in distinct if name not in names]
    names.update(zip(new, range(len(names), len(names) + len(new))))
    code = np.fromiter(map(names.__getitem__, distinct), np.int64, len(distinct))
    sender = np.empty_like(group)
    sender[order] = code[group]
    return message_id, sender, reply_to


def _digit_run(codes: np.ndarray, end: np.ndarray) -> np.ndarray:
    """How many ASCII digits run back from each ``end``, counted up to 19."""
    live = np.ones(len(end), dtype=bool)
    size = np.zeros(len(end), dtype=np.int64)
    for p in range(19):
        live &= codes.take(end - p, mode="clip") - 48 <= 9  # a byte below "0" wraps past 9
        if not live.any():
            break
        size += live
    return size


def _json_ints(codes: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_digits`` of a JSON integer at each ``start``: 1 to 18 digits with
    no leading zero, and raises ValueError on anything else."""
    value, size = _digits(codes, start)
    if len(size) and not 1 <= size.min() <= size.max() <= 18:
        raise ValueError("an id of no or too many digits")
    if ((size > 1) & (codes.take(start, mode="clip") == 48)).any():
        raise ValueError("a leading zero")
    return value, size


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

    def entries() -> Iterator[tuple[int, dict]]:
        for pos, entry in enumerate(messages):
            if isinstance(entry, dict) and entry.get("from_id", entry.get("sender")) is not None:
                yield pos, entry
            elif dropped is not None:
                dropped["service"] += 1  # service message: no sender

    log = _checked_records(entries(), "entry", _telegram_keys)
    if not log:
        raise InputError("empty export")
    return log


def build_interaction_graph(log: MessageLog, dropped: Counter[str] | None = None) -> InteractionGraph:
    """Aggregate reply edges: (u, v) gains 1 per message by u replying to v.

    Replies whose target message is absent from the corpus contribute
    nothing, as do self-replies; when ``dropped`` is given they are counted
    there under "dangling" and "self".  Every sender becomes a node.
    """
    ids, src, dst, replies = _replies(log) if log.arrays is None else _array_replies(log.arrays)
    resolved, self_reply = dst >= 0, dst == src
    if dropped is not None:
        dangling = replies - int(resolved.sum())
        # unary + drops zero counts, which the per-message loop never added
        dropped.update(+Counter({"dangling": dangling, "self": int(self_reply.sum())}))
    n = max(len(ids), 1)
    key, weight = np.unique((src * n + dst)[resolved & ~self_reply], return_counts=True)
    return InteractionGraph(arrays=(ids, key // n, key % n, weight.astype(np.int64)))


def _replies(log: MessageLog) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """The sorted senders, each message's sender code, the code of the
    sender it replies to (-1 for no reply and for a reply to a message
    absent from the log) and the count of replies, from the lists."""
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
    dst = np.fromiter(map(author.get, log.reply_to, repeat(-1)), np.int64, len(sender))
    return ids, np.array(sender, dtype=np.int64), dst, len(sender) - log.reply_to.count(None)


def _array_replies(log: MessageArrays) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """``_replies`` from the arrays: each reply id is found among the
    sorted message ids, which hold no -1."""
    by_id, author = log.message_id, log.sender
    if log.by_id is not None:
        by_id, author = by_id[log.by_id], author[log.by_id]
    at = np.searchsorted(by_id, log.reply_to)  # len(by_id) past the last, read as the last
    dst = np.where(by_id.take(at, mode="clip") == log.reply_to, author.take(at, mode="clip"), -1)
    return log.names, log.sender, dst, int(np.count_nonzero(log.reply_to >= 0))


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
    ids, rank = _ranked(_decoded(codes, at[first], size[first]))
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
    weight, digits = _digits(codes, tab2 + 1)
    if (digits != eol - tab2 - 1).any() or not ((digits >= 1) & (digits <= 18)).all():
        raise ValueError("a weight that is not 1 to 18 digits")
    return np.concatenate([line, tab + 1]), size, weight


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


def _ranked(distinct: list[str]) -> tuple[list[str], np.ndarray]:
    """The ``distinct`` ids sorted, and each one's place among them."""
    ids = sorted(distinct)
    index = dict(zip(ids, range(len(ids))))
    return ids, np.fromiter(map(index.__getitem__, distinct), np.int64, len(distinct))


def _decoded(codes: np.ndarray, at: np.ndarray, size: np.ndarray) -> list[str]:
    """The text of each field, all decoded at once: each field is copied
    with the separator after it, and every separator made a tab."""
    span = size + 1
    offset = np.cumsum(span) - span
    text = codes[np.repeat(at - offset, span) + np.arange(int(span.sum()))]
    text[offset + size] = 9
    return text.tobytes().decode("utf-8").split("\t")[:-1]


def _digits(codes: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The length of the run of ASCII digits from each ``start``, counted
    up to 19, and its int64 value, which holds for a run of at most 18."""
    value = np.zeros(len(start), dtype=np.int64)
    live = np.ones(len(start), dtype=bool)
    size = np.zeros(len(start), dtype=np.int64)
    for p in range(19):
        digit = codes.take(start + p, mode="clip") - 48  # a byte below "0" wraps past 9
        live &= digit <= 9
        if not live.any():
            break
        size += live
        value = np.where(live, value * 10 + digit, value)
    return value, size
