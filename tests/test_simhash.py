import random
import sys
import threading

import pytest

import reference
from sockdetect import simhash as simhash_module
from sockdetect.errors import ConfigError, InputError
from sockdetect.features import FeatureMap, FeatureToken
from sockdetect.lsh import brute_force_pairs
from sockdetect.pipeline import RunConfig
from sockdetect.simhash import (
    Fingerprint,
    fingerprint_population,
    read_fingerprints_tsv,
    write_fingerprints_tsv,
)

CFG = RunConfig(bits=128, seed=0)
WIDTHS = (32, 64, 128, 256)


def simhash(fmap: FeatureMap, cfg: RunConfig) -> Fingerprint:
    """The production fingerprint of one map: the population pass over it alone."""
    return fingerprint_population(reference.feature_maps({fmap.owner: fmap}), cfg)[0][fmap.owner]


def token_hashes(tokens: list[FeatureToken], cfg: RunConfig) -> list[int]:
    """The fingerprint of one user per token, holding that token alone: a
    single vote of positive weight sets exactly the bits of the token's hash."""
    fmaps = {f"t{i:05d}": FeatureMap(f"t{i:05d}", {t: 1.0}) for i, t in enumerate(tokens)}
    fps, _ = fingerprint_population(reference.feature_maps(fmaps), cfg)
    return [fps[uid].bits for uid in sorted(fmaps)]


def distance(x: Fingerprint, y: Fingerprint) -> int:
    """The distance the all-pairs scan reports for x and y, at a radius that
    admits every pair."""
    pairs = brute_force_pairs(reference.fingerprints({"x": x, "y": y}), x.width)
    return int(pairs.distance[0])


# frozen determinism anchors: any drift here breaks every stored artifact
GOLDEN_MAP = FeatureMap(
    "golden",
    {
        FeatureToken("out", "101"): 1.0,
        FeatureToken("out", "7"): 0.5,
        FeatureToken("in", "watchtower"): 0.25,
    },
)
GOLDEN_HEX_B128_S0 = "0ca667fd4ae0159a0ca668fd4ae0174d"
GOLDEN_HEX_B128_S99 = "0de941fd4bf261d10de940fd4bf2601e"
GOLDEN_HEX_B64_S0 = "0ca667fd4ae0159a"
GOLDEN_TOKEN_HEX = "bcbecde3b45fb949bcbecce3b45fb796"  # the hash of the token (out, "42")


class TestHashToken:
    def test_spec_encoding_of_out_42(self):
        assert reference.encode_token(FeatureToken("out", "42")) == bytes.fromhex("00000000023432")

    def test_direction_bytes_differ(self):
        out = reference.encode_token(FeatureToken("out", "x"))
        in_ = reference.encode_token(FeatureToken("in", "x"))
        assert out[0] == 0x00 and in_[0] == 0x01
        assert out[1:] == in_[1:]

    def test_length_prefix_is_big_endian_utf8_bytes(self):
        token = FeatureToken("in", "héllo")
        payload = "héllo".encode("utf-8")
        encoded = reference.encode_token(token)
        assert encoded == b"\x01" + len(payload).to_bytes(4, "big") + payload

    def test_deterministic(self):
        token = FeatureToken("out", "abc")
        assert token_hashes([token], CFG) == token_hashes([token], CFG)

    def test_frozen_value(self):
        assert format(*token_hashes([FeatureToken("out", "42")], CFG), "032x") == GOLDEN_TOKEN_HEX

    def test_seed_and_width_change_value(self):
        token = FeatureToken("out", "abc")
        base = token_hashes([token], CFG)
        assert token_hashes([token], RunConfig(bits=128, seed=1)) != base
        assert token_hashes([token], RunConfig(bits=64, seed=0)) != base

    def test_fits_width(self):
        for b in WIDTHS:
            (value,) = token_hashes([FeatureToken("in", "user9")], RunConfig(bits=b, seed=5))
            assert 0 <= value < (1 << b)

    def test_bit_balance_over_random_tokens(self):
        # Monte Carlo: every bit position should be set for roughly half of
        # 10,000 random tokens
        rng = random.Random(42)
        counts = [0] * 128
        trials = 10_000
        tokens = [
            FeatureToken(rng.choice(("out", "in")), str(rng.randrange(10**9))) for _ in range(trials)
        ]
        for value in token_hashes(tokens, CFG):
            for i in range(128):
                counts[i] += (value >> i) & 1
        fractions = [c / trials for c in counts]
        assert min(fractions) >= 0.45
        assert max(fractions) <= 0.55

    @pytest.mark.parametrize("b", WIDTHS)
    def test_equals_reference_token_hash(self, b):
        rng = random.Random(b)
        for seed in (0, 1, 99, 2**64 - 1):
            cfg = RunConfig(bits=b, seed=seed)
            tokens = []
            for _ in range(50):
                neighbor = "".join(rng.choice("ab7é ") for _ in range(rng.randrange(12)))
                tokens.append(FeatureToken(rng.choice(("out", "in")), neighbor))
            for token, value in zip(tokens, token_hashes(tokens, cfg)):
                assert value == reference.token_hash(token, cfg), (token, seed)


class TestHashParams:
    def test_run_config_rejects_unsupported_width(self):
        with pytest.raises(ConfigError, match=r"width must be one of \(32, 64, 128, 256\), got 100"):
            RunConfig(bits=100)

    def test_run_config_rejects_oversized_seed(self):
        with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
            RunConfig(seed=2**64)

    @pytest.mark.parametrize("header", ["# b=100 seed=0", f"# b=128 seed={2**64}", "# b=128 seed=-1"])
    def test_fingerprint_header_rejects_what_run_config_does(self, tmp_path, header):
        path = tmp_path / "fingerprints.tsv"
        path.write_text(f"{header}\n")
        with pytest.raises(InputError, match=f"bad fingerprint header '{header}'"):
            read_fingerprints_tsv(path)


class TestSimhash:
    def test_single_token_equals_token_hash(self):
        token = FeatureToken("out", "n1")
        fp = simhash(FeatureMap("u", {token: 0.7}), CFG)
        assert fp.bits == reference.token_hash(token, CFG)
        assert fp.owner == "u" and fp.width == 128

    def test_positive_scaling_invariance(self):
        rng = random.Random(1)
        for _ in range(50):
            entries = {
                FeatureToken("out", str(rng.randrange(10**6))): rng.uniform(0.05, 1.0)
                for _ in range(rng.randint(1, 12))
            }
            base = simhash(FeatureMap("u", entries), CFG)
            for c in (0.1, 3, 1000):
                scaled = FeatureMap("u", {t: w * c for t, w in entries.items()})
                assert simhash(scaled, CFG).bits == base.bits

    def test_identical_maps_distance_zero(self):
        entries = {FeatureToken("out", "a"): 0.9, FeatureToken("in", "b"): 0.4}
        fp1 = simhash(FeatureMap("u1", entries), CFG)
        fp2 = simhash(FeatureMap("u2", dict(entries)), CFG)
        assert fp1.bits == fp2.bits

    def test_tie_votes_resolve_to_zero_bit(self):
        # two equal weights: where the token hashes disagree the vote sum is
        # exactly 0, so the fingerprint keeps only the bits both hashes share
        t1, t2 = FeatureToken("out", "x"), FeatureToken("in", "y")
        fp = simhash(FeatureMap("u", {t1: 1.0, t2: 1.0}), CFG)
        assert fp.bits == reference.token_hash(t1, CFG) & reference.token_hash(t2, CFG)

    def test_empty_map_raises_naming_owner(self):
        # the reference raises; the population pass names the owner as skipped
        with pytest.raises(reference.UnfingerprintableError, match="ghost"):
            reference.simhash(FeatureMap("ghost", {}), CFG)
        fps, skipped = fingerprint_population(reference.feature_maps({"ghost": FeatureMap("ghost", {})}), CFG)
        assert len(fps) == 0 and skipped == ["ghost"]

    def test_golden_fingerprints(self):
        assert simhash(GOLDEN_MAP, CFG).hex() == GOLDEN_HEX_B128_S0
        assert simhash(GOLDEN_MAP, RunConfig(bits=128, seed=99)).hex() == GOLDEN_HEX_B128_S99
        assert simhash(GOLDEN_MAP, RunConfig(bits=64, seed=0)).hex() == GOLDEN_HEX_B64_S0

    def test_population_skips_empty_maps(self):
        fmaps = {
            "a": FeatureMap("a", {FeatureToken("out", "x"): 1.0}),
            "b": FeatureMap("b", {}),
            "c": FeatureMap("c", {FeatureToken("in", "x"): 0.5}),
        }
        fps, skipped = fingerprint_population(reference.feature_maps(fmaps), CFG)
        assert set(fps) == {"a", "c"}
        assert skipped == ["b"]


def _mixed_maps(rng: random.Random, n: int) -> dict[str, FeatureMap]:
    """n users: every tenth map empty, every tenth a copy of an earlier one,
    every tenth 150 to 300 tokens long and the rest 1 to 12 tokens, with
    weights from a small set so that votes tie."""
    neighbors = [f"n{k}" for k in range(400)]
    fmaps: dict[str, FeatureMap] = {}
    for i in range(n):
        uid = f"u{i:04d}"
        if i % 10 == 0:
            entries = {}
        elif i % 10 == 1 and i > 10:
            entries = dict(fmaps[f"u{i - 7:04d}"].entries)
        else:
            size = rng.randint(150, 300) if i % 10 == 2 else rng.randint(1, 12)
            entries = {
                FeatureToken(rng.choice(("out", "in")), v): rng.choice((0.25, 0.5, 1.0, rng.uniform(0.05, 1)))
                for v in rng.sample(neighbors, size)
            }
        fmaps[uid] = FeatureMap(uid, entries)
    return fmaps


def _counted_map(monkeypatch) -> list[tuple[int, int, list[int]]]:
    """Record, for each call of the fingerprint thread map, the chunks, the
    workers, and the threads alive as each chunk ran."""
    mapped, calls = simhash_module._mapped, []

    def counted(fn, items, workers):
        alive: list[int] = []
        calls.append((len(items), workers, alive))
        return mapped(lambda item: (alive.append(threading.active_count()), fn(item))[1], items, workers)

    monkeypatch.setattr(simhash_module, "_mapped", counted)
    return calls


class TestChunks:
    @pytest.mark.parametrize("b", WIDTHS)
    def test_equal_to_the_reference_at_any_chunk_size_and_thread_count(self, b, monkeypatch):
        fmaps = _mixed_maps(random.Random(b), 160)
        cfg = RunConfig(bits=b, seed=7)
        want = {uid: reference.simhash(fmap, cfg) for uid, fmap in fmaps.items() if not fmap.is_empty()}
        table = reference.feature_maps(fmaps)
        calls = _counted_map(monkeypatch)
        # one user a chunk, 64 users a chunk, and the default: one chunk of all
        for floats in (b, 64 * b, simhash_module._CHUNK_FLOATS):
            monkeypatch.setattr(simhash_module, "_CHUNK_FLOATS", floats)
            for cpus in (1, 2):
                monkeypatch.setattr(simhash_module, "_cpus", lambda cpus=cpus: cpus)
                fps, skipped = fingerprint_population(table, cfg)
                assert dict(fps) == want, (floats, cpus)
                assert skipped == sorted(uid for uid, fmap in fmaps.items() if fmap.is_empty())
        n = len(want)
        assert [call[:2] for call in calls] == [(n, 1), (n, 2), (-(-n // 64), 1), (-(-n // 64), 2), (1, 1), (1, 1)]

    def test_one_chunk_maps_on_one_worker_and_starts_no_thread(self, monkeypatch):
        table = reference.feature_maps(_mixed_maps(random.Random(3), 300))
        calls = _counted_map(monkeypatch)
        monkeypatch.setattr(simhash_module, "_cpus", lambda: 2)
        before = threading.active_count()
        whole, _ = fingerprint_population(table, CFG)  # 270 users, under 512 at b=128
        assert [call[:2] for call in calls] == [(1, 1)] and calls[0][2] == [before]
        # two chunks of the same users run beside a second thread, to the same rows
        monkeypatch.setattr(simhash_module, "_CHUNK_FLOATS", 200 * CFG.bits)
        split, _ = fingerprint_population(table, CFG)
        assert calls[1][:2] == (2, 2) and max(calls[1][2]) > before
        assert split.owners == whole.owners and split.words.tolist() == whole.words.tolist()
        assert threading.active_count() == before

    def test_every_row_written_under_frequent_switches(self, monkeypatch):
        # more threads than cores, one user a chunk, switching every
        # microsecond: each chunk's rows must land, and no other rows change
        table = reference.feature_maps(_mixed_maps(random.Random(4), 200))
        whole, _ = fingerprint_population(table, CFG)
        monkeypatch.setattr(simhash_module, "_CHUNK_FLOATS", CFG.bits)
        monkeypatch.setattr(simhash_module, "_cpus", lambda: 8)
        done = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: done.append(fingerprint_population(table, CFG)[0]))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not runner.is_alive() and len(done) == 1
        assert done[0].owners == whole.owners and done[0].words.tolist() == whole.words.tolist()


class TestHamming:
    """The Hamming distance as retrieval reports it."""

    def test_identity(self):
        fp = simhash(GOLDEN_MAP, CFG)
        assert distance(fp, fp) == 0

    def test_complement_at_full_width(self):
        zeros = Fingerprint("z", 0, 128)
        ones = Fingerprint("o", (1 << 128) - 1, 128)
        assert distance(zeros, ones) == 128

    def test_hand_xor_popcount_small_width(self):
        a = Fingerprint("a", 0b1010, 4)
        b = Fingerprint("b", 0b0110, 4)
        assert distance(a, b) == 2

    def test_metric_properties_over_random_triples(self):
        rng = random.Random(9)
        for _ in range(300):
            x, y, z = (
                Fingerprint(name, rng.getrandbits(128), 128) for name in "xyz"
            )
            assert distance(x, y) == distance(y, x)
            assert (distance(x, y) == 0) == (x.bits == y.bits)
            assert distance(x, z) <= distance(x, y) + distance(y, z)

    def test_similarity_monotonicity(self):
        # pairs sharing 90% of weighted mass must land closer on average
        # than pairs with disjoint tokens
        rng = random.Random(17)
        trials = 1000
        fmaps = {}
        for t in range(trials):
            fresh = (str(rng.randrange(10**9)) for _ in iter(int, 1))
            shared = {FeatureToken("out", next(fresh)): 1.0 for _ in range(9)}
            fmaps[f"a{t}"] = FeatureMap(f"a{t}", shared | {FeatureToken("out", next(fresh)): 1.0})
            fmaps[f"b{t}"] = FeatureMap(f"b{t}", shared | {FeatureToken("out", next(fresh)): 1.0})
            fmaps[f"c{t}"] = FeatureMap(
                f"c{t}", {FeatureToken("out", next(fresh)): 1.0 for _ in range(10)}
            )
        fps, _ = fingerprint_population(reference.feature_maps(fmaps), CFG)
        bits = {uid: fp.bits for uid, fp in fps.items()}
        shared_total = sum((bits[f"a{t}"] ^ bits[f"b{t}"]).bit_count() for t in range(trials))
        disjoint_total = sum((bits[f"a{t}"] ^ bits[f"c{t}"]).bit_count() for t in range(trials))
        assert shared_total / trials < disjoint_total / trials


def test_fingerprint_tsv_round_trip(tmp_path):
    fmaps = {
        f"u{i}": FeatureMap(f"u{i}", {FeatureToken("out", str(i * 7)): 1.0})
        for i in range(20)
    }
    fps, _ = fingerprint_population(reference.feature_maps(fmaps), CFG)
    path = tmp_path / "fingerprints.tsv"
    write_fingerprints_tsv(fps, CFG.seed, path)
    loaded, seed = read_fingerprints_tsv(path)
    assert seed == 0 and loaded.width == 128
    assert loaded == fps
    assert loaded.owners == fps.owners and loaded.words.tolist() == fps.words.tolist()
    header, first_row = path.read_text().splitlines()[:2]
    assert header == "# b=128 seed=0"
    assert len(first_row.split("\t")[1]) == 32  # 2*b/8 hex chars


@pytest.mark.parametrize("row", ["a\t1ffffffff", "b\t-1"])
def test_fingerprint_tsv_rejects_values_outside_width(tmp_path, row):
    path = tmp_path / "fingerprints.tsv"
    path.write_text(f"# b=32 seed=0\nok\tffffffff\n{row}\n")
    with pytest.raises(InputError, match="line 3"):
        read_fingerprints_tsv(path)


def test_fingerprint_tsv_rejects_a_repeated_id(tmp_path):
    # keeping either row would hide the other, as the edge reader's repeats would
    path = tmp_path / "fingerprints.tsv"
    path.write_text("# b=32 seed=0\na\t00000001\nb\tffffffff\n\na\t000000ff\n")
    with pytest.raises(InputError, match=r"^fingerprint line 5: repeated id 'a' \(first seen at line 2\)$"):
        read_fingerprints_tsv(path)


@pytest.mark.parametrize("b", WIDTHS)
def test_packed_rows_equal_fingerprints(tmp_path, b):
    # b=32 is half a word, b=256 four; the top and bottom bits sit at the
    # matrix's extremes, so a swapped word or byte order shows
    rng = random.Random(b)
    values = [0, 1, 1 << (b - 1), (1 << b) - 1, *(rng.getrandbits(b) for _ in range(40))]
    mapping = {f"u{i:02d}": Fingerprint(f"u{i:02d}", bits, b) for i, bits in enumerate(values)}
    mapping["an id with  inner spaces"] = Fingerprint("an id with  inner spaces", values[-1], b)
    fps = reference.fingerprints(mapping)
    assert fps.owners == sorted(mapping) and fps.words.shape == (len(mapping), -(-b // 64))
    assert fps.hex() == [mapping[uid].hex() for uid in fps.owners]
    assert dict(fps) == mapping
    path = tmp_path / "fingerprints.tsv"
    write_fingerprints_tsv(fps, 3, path)
    assert path.read_text().splitlines()[0] == f"# b={b} seed=3"
    loaded, seed = read_fingerprints_tsv(path)
    assert seed == 3 and loaded.width == b and dict(loaded) == mapping
    assert loaded.owners == fps.owners and loaded.words.tolist() == fps.words.tolist()

