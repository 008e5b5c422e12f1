"""Weighted SimHash fingerprints over neighbor features.

Every fingerprint computation here is a pure function of the features and
two fields of the run's ``RunConfig``, the width b (``bits``) and the
``seed``, and must stay bit-exact across runs and platforms: candidate files
are compared byte-for-byte and the block index keys off exact bit ranges.
The conventions that pin this down:

* token byte encoding: one direction byte (0x00=out, 0x01=in), then the
  4-byte big-endian length of the neighbor id, then its UTF-8 bytes;
* the b-bit token hash is the concatenation of ceil(b/64) words, word j =
  FNV-1a-64 over (encoding ++ 8-byte big-endian seed ++ 1-byte j), with
  word 0 most significant; for b < 64 the low b bits are kept;
* bit i of a value means (value >> i) & 1;
* votes accumulate in canonical token order (sorted tokens) and a tied
  accumulator (exactly 0.0) yields bit 0.

``fingerprint_population`` computes every fingerprint in one pass: each
distinct token is hashed once, by FNV-1a vectorized across tokens, into a
T x b matrix of +/-1 votes.  The users are then taken in chunks whose
float64 accumulators hold about _CHUNK_FLOATS entries (512 KB, 512 users at
b=128), so a chunk's accumulator and its temporaries stay in cache; the
chunks go to one thread per CPU the process may use, at most one per chunk,
through ``_mapped``, the thread map retrieval shares.  A chunk writes only
its own rows, and its accumulators advance one token position at a time,
so each user still sums its votes sequentially in float64, in token order,
and the fingerprints are bit-identical at any chunk size and thread count.
The per-user reference they must equal bit for bit is in the test suite.
The result is a ``Fingerprints``: the sorted owners and one packed
``uint64`` matrix, the form retrieval and ``fingerprints.tsv`` read.  That
file records b, which the matrix carries as ``Fingerprints.width``, and the
seed in its header.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InputError
from .features import TOKEN_DIRECTIONS, FeatureMaps
from .ingest import check_id, open_text, read_rows, write_rows

if TYPE_CHECKING:
    from .pipeline import RunConfig

SUPPORTED_WIDTHS = (32, 64, 128, 256)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TAGS = {"out": b"\x00", "in": b"\x01"}
# float64 accumulator entries of one chunk of users: 512 KB, 512 users at
# b=128.  On random-5k's 5,000 users, fingerprinting less the vote matrix took
# 16.7 ms in one chunk (a 5 MB accumulator, and a 5 MB temporary at every
# step), 8.9 ms in chunks of 2^16 floats and 9.6 and 12.5 ms at 2^15 and 2^17,
# on one thread; 7.8 ms on two (medians of 7, 2-core x86 VM)
_CHUNK_FLOATS = 1 << 16


def _cpus() -> int:
    """The CPUs the process may use: its affinity set where the platform
    has one (Linux), else the CPU count, else one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _mapped(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(x) for x in items]`` on ``workers`` threads: the calling thread
    and workers - 1 started for this call, each taking the next item in
    order.  All have stopped on return, and the first exception any of them
    raised is raised here."""
    results, todo, raised = [None] * len(items), iter(enumerate(items)), []

    def work() -> None:
        try:
            for k, item in todo:  # one shared iterator: each item goes to one thread
                results[k] = fn(item)
        except BaseException as exc:
            raised.append(exc)

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if raised:
        raise raised[0]
    return results


def check_hash_params(bits: int, seed: int) -> None:
    """Raise ConfigError for a fingerprint width or hash seed outside its domain."""
    if bits not in SUPPORTED_WIDTHS:
        raise ConfigError(f"width must be one of {SUPPORTED_WIDTHS}, got {bits}")
    check_seed(seed)


def check_seed(seed: int) -> None:
    """Raise ConfigError for a hash seed outside 64 unsigned bits."""
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class Fingerprint:
    owner: str
    bits: int
    width: int

    def hex(self) -> str:
        return format(self.bits, f"0{self.width // 4}x")


class Fingerprints(Mapping[str, Fingerprint]):
    """Read-only ``owner -> Fingerprint`` mapping stored as one packed
    matrix; a Fingerprint is built only when looked up.

    ``owners`` are sorted, and row i of the ``uint64`` matrix ``words``
    ``[n, ceil(width/64)]`` is the fingerprint of owners[i]: bit j is bit
    j % 64 of word j // 64, and the bits from ``width`` up are zero.
    """

    def __init__(self, owners: list[str], words: np.ndarray, width: int):
        self.owners, self.words, self.width = owners, words, width

    def hex(self) -> list[str]:
        """Each row's ``Fingerprint.hex()``, in ``owners`` order."""
        if not self.owners:
            return []
        # the rows as big-endian bytes, most significant word first
        text = self.words[:, ::-1].astype(">u8").tobytes().hex()
        step, digits = 16 * self.words.shape[1], self.width // 4
        return [text[at - digits : at] for at in range(step, len(text) + 1, step)]

    def __getitem__(self, owner: str) -> Fingerprint:
        i = bisect_left(self.owners, owner)
        if i == len(self.owners) or self.owners[i] != owner:
            raise KeyError(owner)
        bits = int.from_bytes(self.words[i].astype("<u8").tobytes(), "little")
        return Fingerprint(owner, bits, self.width)

    def __iter__(self) -> Iterator[str]:
        return iter(self.owners)

    def __len__(self) -> int:
        return len(self.owners)


def _longer_than(lengths: np.ndarray) -> list[int]:
    """For lengths sorted longest first, entry p counts the lengths above p,
    for every p below the longest."""
    top = int(lengths[0]) if len(lengths) else 0
    return np.searchsorted(-lengths, -np.arange(top), side="left").tolist()


def _token_words(messages: list[bytes], nwords: int) -> np.ndarray:
    """``[T, nwords]`` uint64: word j of message t is FNV-1a-64 over
    ``messages[t] ++ 1-byte j``, computed one byte position at a time
    across all messages (uint64 products wrap mod 2**64 as FNV needs)."""
    lengths = np.array([len(msg) for msg in messages], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    flat = np.frombuffer(b"".join([messages[t] for t in order.tolist()]), dtype=np.uint8)
    lengths = lengths[order]
    offsets = np.cumsum(lengths) - lengths
    h = np.full(len(messages), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for p, k in enumerate(_longer_than(lengths)):
        h[:k] ^= flat[offsets[:k] + p]
        h[:k] *= prime
    words = np.empty((len(messages), nwords), dtype=np.uint64)
    words[order] = np.stack([(h ^ np.uint64(j)) * prime for j in range(nwords)], axis=1)
    return words


def _vote_matrix(table: FeatureMaps, token_ids: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """``[T, b]`` int8 vote rows of the given tokens: +1 where the token's
    hash bit is 1, else -1."""
    seed = cfg.seed.to_bytes(8, "big")
    payload: dict[int, bytes] = {}
    messages = []
    for d, v in zip(*(part.tolist() for part in np.divmod(token_ids, max(len(table.names), 1)))):
        if v not in payload:
            raw = table.names[v].encode("utf-8")
            payload[v] = len(raw).to_bytes(4, "big") + raw + seed
        messages.append(_TAGS[TOKEN_DIRECTIONS[d]] + payload[v])
    nwords = (cfg.bits + 63) // 64
    words = _token_words(messages, nwords)
    # value = word 0 ... word nwords-1, most significant first; bit i of the
    # value is bit i % 64 of word nwords-1 - i // 64
    little = np.ascontiguousarray(words[:, ::-1]).astype("<u8").view(np.uint8)
    bits = np.unpackbits(little, axis=1, bitorder="little")[:, : cfg.bits]
    return bits.astype(np.int8) * 2 - 1


def fingerprint_population(table: FeatureMaps, cfg: RunConfig) -> tuple[Fingerprints, list[str]]:
    """Fingerprint every non-empty map; returns (fingerprints, skipped owners).

    Users are taken longest token list first, in chunks of _CHUNK_FLOATS / b,
    so the users of a chunk still holding a p-th token are a prefix of it and
    step p adds their p-th vote rows in one operation.  The chunks run on
    one thread per CPU the process may use, at most one per chunk.
    """
    indptr = table.indptr
    sizes = np.diff(indptr)
    skipped = [table.owners[i] for i in np.flatnonzero(sizes == 0).tolist()]
    tokens, token_index = np.unique(table.token, return_inverse=True)
    votes = _vote_matrix(table, tokens, cfg)
    users = np.argsort(-sizes, kind="stable")[: len(sizes) - len(skipped)]
    # whole little-endian words: b=32 fills half of one
    packed = np.zeros((len(sizes), 8 * -(-cfg.bits // 64)), dtype=np.uint8)

    def fill(chunk: np.ndarray) -> None:
        starts, lengths = indptr[chunk], sizes[chunk]
        acc = np.zeros((len(chunk), cfg.bits))
        for p, k in enumerate(_longer_than(lengths)):
            rows = starts[:k] + p
            acc[:k] += votes[token_index[rows]] * table.weight[rows, None]
        packed[chunk, : cfg.bits // 8] = np.packbits(acc > 0, axis=1, bitorder="little")

    step = max(1, _CHUNK_FLOATS // cfg.bits)
    chunks = [users[lo : lo + step] for lo in range(0, len(users), step)]
    _mapped(fill, chunks, max(1, min(len(chunks), _cpus())))
    fingerprinted = np.flatnonzero(sizes)
    owners = [table.owners[i] for i in fingerprinted.tolist()]
    return Fingerprints(owners, packed[fingerprinted].view("<u8"), cfg.bits), skipped


def write_fingerprints_tsv(fps: Fingerprints, seed: int, path: str | Path) -> None:
    """Write ``user<TAB>hex`` rows sorted by user after a header recording
    the width and the hash seed."""
    rows = list(map("{}\t{}\n".format, fps.owners, fps.hex()))
    write_rows(path, [f"# b={fps.width} seed={seed}"], [(rows, np.arange(len(rows)))])


def read_fingerprints_tsv(path: str | Path) -> tuple[Fingerprints, int]:
    """The fingerprints of a fingerprints TSV and the seed its header records."""
    with open_text(path) as fh:
        header = fh.readline().strip()
        fields = dict(
            part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
        )
        try:
            b, seed = int(fields["b"]), int(fields["seed"])
            check_hash_params(b, seed)  # a ConfigError is a ValueError
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad fingerprint header {header!r}") from exc
        rows: dict[str, tuple[int, int]] = {}  # owner -> (bits, line)
        for lineno, (owner, hexbits) in read_rows(fh, "fingerprint", 2, start=2):
            try:
                bits = int(hexbits, 16)
            except ValueError as exc:
                raise InputError(f"bad fingerprint row at line {lineno}") from exc
            check_id(owner, "fingerprint", lineno)
            if not 0 <= bits < 1 << b:
                raise InputError(f"fingerprint at line {lineno} does not fit in {b} bits")
            if owner in rows:
                first = rows[owner][1]
                raise InputError(f"fingerprint line {lineno}: repeated id {owner!r} (first seen at line {first})")
            rows[owner] = bits, lineno
    owners = sorted(rows)
    nbytes = 8 * -(-b // 64)
    raw = b"".join(rows[uid][0].to_bytes(nbytes, "little") for uid in owners)
    return Fingerprints(owners, np.frombuffer(raw, dtype="<u8").reshape(len(owners), nbytes // 8), b), seed
