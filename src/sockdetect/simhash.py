"""Weighted SimHash fingerprints over neighbor features.

Every fingerprint computation here is a pure function of (features, config)
and must stay bit-exact across runs and platforms: candidate files are
compared byte-for-byte and the block index keys off exact bit ranges.  The
conventions that pin this down:

* token byte encoding: one direction byte (0x00=out, 0x01=in), then the
  4-byte big-endian length of the neighbor id, then its UTF-8 bytes;
* the b-bit token hash is the concatenation of ceil(b/64) words, word j =
  FNV-1a-64 over (encoding ++ 8-byte big-endian seed ++ 1-byte j), with
  word 0 most significant; for b < 64 the low b bits are kept;
* bit i of a value means (value >> i) & 1;
* votes accumulate in canonical token order (sorted tokens) and a tied
  accumulator (exactly 0.0) yields bit 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputError, UnfingerprintableError
from .features import FeatureMap, FeatureToken

SUPPORTED_WIDTHS = (32, 64, 128, 256)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class HashConfig:
    """Fingerprint width and hash seed, fixed for an entire run."""

    b: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        if self.b not in SUPPORTED_WIDTHS:
            raise ConfigError(f"width must be one of {SUPPORTED_WIDTHS}, got {self.b}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class Fingerprint:
    owner: str
    bits: int
    width: int

    def hex(self) -> str:
        return format(self.bits, f"0{self.width // 4}x")


def encode_token(token: FeatureToken) -> bytes:
    if token.direction == "out":
        tag = b"\x00"
    elif token.direction == "in":
        tag = b"\x01"
    else:
        raise ValueError(f"unknown token direction {token.direction!r}")
    payload = token.neighbor.encode("utf-8")
    return tag + len(payload).to_bytes(4, "big") + payload


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=1 << 18)
def _token_hash(direction: str, neighbor: str, b: int, seed: int) -> int:
    encoded = encode_token(FeatureToken(direction, neighbor))
    suffix = encoded + seed.to_bytes(8, "big")
    value = 0
    for j in range((b + 63) // 64):
        value = (value << 64) | _fnv1a64(suffix + bytes([j]))
    return value & ((1 << b) - 1)


def hash_token(token: FeatureToken, cfg: HashConfig) -> int:
    """Deterministic b-bit hash of a feature token."""
    return _token_hash(token.direction, token.neighbor, cfg.b, cfg.seed)


@lru_cache(maxsize=1 << 18)
def _token_votes(direction: str, neighbor: str, b: int, seed: int) -> np.ndarray:
    """Per-bit vote row for one token: +1 where the hash bit is 1, else -1."""
    value = _token_hash(direction, neighbor, b, seed)
    raw = np.frombuffer(value.to_bytes(b // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")
    row = bits.astype(np.int8) * 2 - 1
    row.setflags(write=False)
    return row


def simhash(fmap: FeatureMap, cfg: HashConfig) -> Fingerprint:
    """Classic weighted SimHash: each token votes +/- its weight per bit.

    Raises UnfingerprintableError for an empty feature map; the caller
    decides whether to skip the user.
    """
    if fmap.is_empty():
        raise UnfingerprintableError(fmap.owner)
    tokens = sorted(fmap.entries)
    rows = np.stack(
        [_token_votes(t.direction, t.neighbor, cfg.b, cfg.seed) for t in tokens]
    )
    weights = np.array([fmap.entries[t] for t in tokens], dtype=np.float64)
    votes = np.add.reduce(rows * weights[:, None], axis=0)
    bits = np.packbits(votes > 0, bitorder="little").tobytes()
    return Fingerprint(
        owner=fmap.owner, bits=int.from_bytes(bits, "little"), width=cfg.b
    )


def fingerprint_population(
    fmaps: dict[str, FeatureMap], cfg: HashConfig
) -> tuple[dict[str, Fingerprint], list[str]]:
    """Fingerprint every non-empty map; returns (fingerprints, skipped owners)."""
    fingerprints: dict[str, Fingerprint] = {}
    skipped: list[str] = []
    for owner in sorted(fmaps):
        fmap = fmaps[owner]
        if fmap.is_empty():
            skipped.append(owner)
            continue
        fingerprints[owner] = simhash(fmap, cfg)
    return fingerprints, skipped


def hamming(a: Fingerprint, b: Fingerprint) -> int:
    """Number of differing bit positions between two equal-width fingerprints."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return (a.bits ^ b.bits).bit_count()


def write_fingerprints_tsv(
    fingerprints: dict[str, Fingerprint], cfg: HashConfig, path: str | Path
) -> None:
    """Write ``user<TAB>hex`` rows after a header recording b and seed."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# b={cfg.b} seed={cfg.seed}\n")
        for owner in sorted(fingerprints):
            fh.write(f"{owner}\t{fingerprints[owner].hex()}\n")


def read_fingerprints_tsv(path: str | Path) -> tuple[dict[str, Fingerprint], HashConfig]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(
            part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
        )
        try:
            cfg = HashConfig(b=int(fields["b"]), seed=int(fields["seed"]))
        except (KeyError, ValueError) as exc:
            raise InputError(f"bad fingerprint header {header!r}") from exc
        fingerprints: dict[str, Fingerprint] = {}
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            try:
                owner, hexbits = line.split("\t")
                bits = int(hexbits, 16)
            except ValueError as exc:
                raise InputError(f"bad fingerprint row at line {lineno}") from exc
            fingerprints[owner] = Fingerprint(owner=owner, bits=bits, width=cfg.b)
    return fingerprints, cfg
