import random

import pytest

import reference
from sockdetect.errors import InputError
from sockdetect.features import FeatureMap, FeatureToken
from sockdetect.simhash import (
    Fingerprint,
    Fingerprints,
    HashConfig,
    encode_token,
    fingerprint_population,
    hamming,
    hash_token,
    read_fingerprints_tsv,
    write_fingerprints_tsv,
)

CFG = HashConfig(b=128, seed=0)
WIDTHS = (32, 64, 128, 256)


def simhash(fmap: FeatureMap, cfg: HashConfig) -> Fingerprint:
    """The production fingerprint of one map: the population pass over it alone."""
    return fingerprint_population({fmap.owner: fmap}, cfg)[0][fmap.owner]


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
GOLDEN_TOKEN_HEX = "bcbecde3b45fb949bcbecce3b45fb796"  # hash_token((out, "42"))


class TestHashToken:
    def test_spec_encoding_of_out_42(self):
        assert encode_token(FeatureToken("out", "42")) == bytes.fromhex("00000000023432")

    def test_direction_bytes_differ(self):
        out = encode_token(FeatureToken("out", "x"))
        in_ = encode_token(FeatureToken("in", "x"))
        assert out[0] == 0x00 and in_[0] == 0x01
        assert out[1:] == in_[1:]

    def test_length_prefix_is_big_endian_utf8_bytes(self):
        token = FeatureToken("in", "héllo")
        payload = "héllo".encode("utf-8")
        encoded = encode_token(token)
        assert encoded == b"\x01" + len(payload).to_bytes(4, "big") + payload

    def test_deterministic(self):
        token = FeatureToken("out", "abc")
        assert hash_token(token, CFG) == hash_token(token, CFG)

    def test_frozen_value(self):
        assert format(hash_token(FeatureToken("out", "42"), CFG), "032x") == GOLDEN_TOKEN_HEX

    def test_seed_and_width_change_value(self):
        token = FeatureToken("out", "abc")
        base = hash_token(token, CFG)
        assert hash_token(token, HashConfig(b=128, seed=1)) != base
        assert hash_token(token, HashConfig(b=64, seed=0)) != base

    def test_fits_width(self):
        for b in WIDTHS:
            value = hash_token(FeatureToken("in", "user9"), HashConfig(b=b, seed=5))
            assert 0 <= value < (1 << b)

    def test_bit_balance_over_random_tokens(self):
        # Monte Carlo: every bit position should be set for roughly half of
        # 10,000 random tokens
        rng = random.Random(42)
        counts = [0] * 128
        trials = 10_000
        for _ in range(trials):
            token = FeatureToken(
                rng.choice(("out", "in")), str(rng.randrange(10**9))
            )
            value = hash_token(token, CFG)
            for i in range(128):
                counts[i] += (value >> i) & 1
        fractions = [c / trials for c in counts]
        assert min(fractions) >= 0.45
        assert max(fractions) <= 0.55

    @pytest.mark.parametrize("b", WIDTHS)
    def test_equals_reference_token_hash(self, b):
        rng = random.Random(b)
        for seed in (0, 1, 99, 2**64 - 1):
            cfg = HashConfig(b=b, seed=seed)
            for _ in range(50):
                neighbor = "".join(rng.choice("ab7é ") for _ in range(rng.randrange(12)))
                token = FeatureToken(rng.choice(("out", "in")), neighbor)
                assert hash_token(token, cfg) == reference.token_hash(token, cfg), (token, seed)


class TestHashConfig:
    def test_rejects_unsupported_width(self):
        with pytest.raises(ValueError, match="width"):
            HashConfig(b=100, seed=0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError, match="seed"):
            HashConfig(b=128, seed=2**64)


class TestSimhash:
    def test_single_token_equals_token_hash(self):
        token = FeatureToken("out", "n1")
        fp = simhash(FeatureMap("u", {token: 0.7}), CFG)
        assert fp.bits == hash_token(token, CFG)
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
        assert hamming(fp1, fp2) == 0

    def test_tie_votes_resolve_to_zero_bit(self):
        # two equal weights: where the token hashes disagree the vote sum is
        # exactly 0, so the fingerprint keeps only the bits both hashes share
        t1, t2 = FeatureToken("out", "x"), FeatureToken("in", "y")
        fp = simhash(FeatureMap("u", {t1: 1.0, t2: 1.0}), CFG)
        assert fp.bits == hash_token(t1, CFG) & hash_token(t2, CFG)

    def test_empty_map_raises_naming_owner(self):
        # the reference raises; the population pass names the owner as skipped
        with pytest.raises(reference.UnfingerprintableError, match="ghost"):
            reference.simhash(FeatureMap("ghost", {}), CFG)
        fps, skipped = fingerprint_population({"ghost": FeatureMap("ghost", {})}, CFG)
        assert len(fps) == 0 and skipped == ["ghost"]

    def test_golden_fingerprints(self):
        assert simhash(GOLDEN_MAP, CFG).hex() == GOLDEN_HEX_B128_S0
        assert simhash(GOLDEN_MAP, HashConfig(b=128, seed=99)).hex() == GOLDEN_HEX_B128_S99
        assert simhash(GOLDEN_MAP, HashConfig(b=64, seed=0)).hex() == GOLDEN_HEX_B64_S0

    def test_population_skips_empty_maps(self):
        fmaps = {
            "a": FeatureMap("a", {FeatureToken("out", "x"): 1.0}),
            "b": FeatureMap("b", {}),
            "c": FeatureMap("c", {FeatureToken("in", "x"): 0.5}),
        }
        fps, skipped = fingerprint_population(fmaps, CFG)
        assert set(fps) == {"a", "c"}
        assert skipped == ["b"]


class TestHamming:
    def test_identity(self):
        fp = simhash(GOLDEN_MAP, CFG)
        assert hamming(fp, fp) == 0

    def test_complement_at_full_width(self):
        zeros = Fingerprint("z", 0, 128)
        ones = Fingerprint("o", (1 << 128) - 1, 128)
        assert hamming(zeros, ones) == 128

    def test_hand_xor_popcount_small_width(self):
        a = Fingerprint("a", 0b1010, 4)
        b = Fingerprint("b", 0b0110, 4)
        assert hamming(a, b) == 2

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            hamming(Fingerprint("a", 0, 64), Fingerprint("b", 0, 128))

    def test_metric_properties_over_random_triples(self):
        rng = random.Random(9)
        for _ in range(300):
            x, y, z = (
                Fingerprint(name, rng.getrandbits(128), 128) for name in "xyz"
            )
            assert hamming(x, y) == hamming(y, x)
            assert (hamming(x, y) == 0) == (x.bits == y.bits)
            assert hamming(x, z) <= hamming(x, y) + hamming(y, z)

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
        fps, _ = fingerprint_population(fmaps, CFG)
        shared_total = sum(hamming(fps[f"a{t}"], fps[f"b{t}"]) for t in range(trials))
        disjoint_total = sum(hamming(fps[f"a{t}"], fps[f"c{t}"]) for t in range(trials))
        assert shared_total / trials < disjoint_total / trials


def test_fingerprint_tsv_round_trip(tmp_path):
    fmaps = {
        f"u{i}": FeatureMap(f"u{i}", {FeatureToken("out", str(i * 7)): 1.0})
        for i in range(20)
    }
    fps, _ = fingerprint_population(fmaps, CFG)
    path = tmp_path / "fingerprints.tsv"
    write_fingerprints_tsv(fps, CFG, path)
    loaded, cfg = read_fingerprints_tsv(path)
    assert cfg == CFG
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


@pytest.mark.parametrize("b", WIDTHS)
def test_packed_rows_equal_fingerprints(tmp_path, b):
    # b=32 is half a word, b=256 four; the top and bottom bits sit at the
    # matrix's extremes, so a swapped word or byte order shows
    rng = random.Random(b)
    values = [0, 1, 1 << (b - 1), (1 << b) - 1, *(rng.getrandbits(b) for _ in range(40))]
    mapping = {f"u{i:02d}": Fingerprint(f"u{i:02d}", bits, b) for i, bits in enumerate(values)}
    mapping["an id with  inner spaces"] = Fingerprint("an id with  inner spaces", values[-1], b)
    fps = Fingerprints.of(mapping)
    assert fps.owners == sorted(mapping) and fps.words.shape == (len(mapping), -(-b // 64))
    assert fps.hex() == [mapping[uid].hex() for uid in fps.owners]
    assert dict(fps) == mapping
    assert Fingerprints.of(fps) is fps
    cfg = HashConfig(b=b, seed=3)
    path = tmp_path / "fingerprints.tsv"
    write_fingerprints_tsv(fps, cfg, path)
    loaded, loaded_cfg = read_fingerprints_tsv(path)
    assert loaded_cfg == cfg and dict(loaded) == mapping
    assert loaded.owners == fps.owners and loaded.words.tolist() == fps.words.tolist()

