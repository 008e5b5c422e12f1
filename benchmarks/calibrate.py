"""A fixed reference workload that gauges how fast the machine runs now.

On a shared host the same code runs up to a third slower for minutes at a
time.  ``child.py`` runs this kernel before every CLI command and after the
last, and ``run.py`` multiplies each repetition's times by ``NOMINAL_S`` over
the median of its kernel times.  A slow phase of the host then moves the
kernel and the commands alike and cancels out, while a change to the program
under test moves only the commands.  The kernel does the kinds of work the CLI does --
JSON decoding into dicts, string keys, pure-Python 64-bit hashing, sorting,
many small NumPy calls and a few large ones -- and touches no ``sockdetect``
code.  It runs under the interpreter's default garbage-collector settings,
whatever the program set, so that the program can change its own speed but
not the kernel's.
"""

from __future__ import annotations

import gc
import io
import json
import time

import numpy as np

# The kernel's typical time on the 2-vCPU machine the bounds were set on, so
# scaled times read as seconds on that machine at its usual speed.
NOMINAL_S = 0.3

_MASK64 = (1 << 64) - 1


def kernel() -> float:
    """Run the reference work once and return its wall seconds."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(700, 10, 10)
    try:
        return _timed_work()
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def _timed_work() -> float:
    started = time.perf_counter()
    # ingest-like: decode JSON lines into per-pair reply counts
    weights: dict[tuple[str, str], int] = {}
    for i in range(20000):
        msg = json.loads(
            f'{{"message_id": {i}, "sender": "user{i % 1499:05d}", "reply_to": {i * 7919 % 12011}}}'
        )
        key = (msg["sender"], f"user{msg['reply_to'] % 1499:05d}")
        weights[key] = weights.get(key, 0) + 1
    # features/simhash-like: FNV-1a over token bytes, in Python integers
    hashes = []
    for (src, dst), weight in sorted(weights.items()):
        h = 0xCBF29CE484222325
        for byte in f"out\x00{dst}\x00{weight}".encode():
            h = ((h ^ byte) * 0x100000001B3) & _MASK64
        hashes.append(h)
    # lsh-like: many small NumPy calls, then popcounts over all pairs of a block
    words = np.array(hashes, dtype=np.uint64)
    rows = words.reshape(-1, 1)[: len(words) // 64 * 64].reshape(-1, 64)
    total = 0
    for row in rows:
        order = np.argsort(row >> np.uint64(48), kind="stable")
        total += int(np.bitwise_count(row[order] ^ row[0]).sum())
    block = words[:1200]
    total += int(np.bitwise_count(block[:, None] ^ block[None, :]).sum())
    # output-like: write sorted rows as TSV
    out = io.StringIO()
    for (src, dst), weight in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0])):
        out.write(f"{src}\t{dst}\t{weight}\n")
    assert total > 0 and out.tell() > 0
    return time.perf_counter() - started
