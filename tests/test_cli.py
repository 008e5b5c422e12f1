import csv
import itertools
import json
from collections import Counter

import pytest

import reference
from sockdetect import pipeline
from sockdetect.cli import main
from sockdetect.errors import InputError
from sockdetect.features import FeatureToken
from sockdetect.ingest import InteractionGraph, build_interaction_graph, parse_messages, write_edges_tsv
from sockdetect.lsh import CandidatePair, brute_force_pairs
from sockdetect.pipeline import RunConfig, read_candidates_tsv, run_detection
from sockdetect.simhash import read_fingerprints_tsv
from sockdetect.synth import SynthConfig, generate

DEFAULT_HEADER = "# b=128 d=20 theta=0.5 mode=max direction=out weighting=weighted seed=0"

EXPECTED_FIXTURE_TSV = (
    "alice\tbob\t1\n"
    "bob\talice\t2\n"
    "bob\tcarol\t1\n"
    "carol\talice\t1\n"
    "carol\tdave\t1\n"
    "erin\tcarol\t1\n"
)


@pytest.fixture
def synth_corpus(tmp_path):
    out = tmp_path / "corpus"
    rc = main(
        [
            "synth",
            "--output-dir", str(out),
            "--nodes", "400",
            "--mean-degree", "8",
            "--clones", "5",
            "--perturbation", "0",
            "--seed", "7",
        ]
    )
    assert rc == 0
    return out


class TestIngest:
    def test_fixture_counts_and_bytes(self, fixtures_dir, tmp_path, capsys):
        rc = main(
            [
                "ingest",
                "--input", str(fixtures_dir / "small.jsonl"),
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "edges.tsv").read_text() == EXPECTED_FIXTURE_TSV
        out = capsys.readouterr().out
        assert "12 messages" in out and "6 users" in out and "6 reply edges" in out
        assert "dropped: 1 replies to missing messages, 1 self-replies, 0 service entries" in out

    def test_empty_input_warns_but_succeeds(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        rc = main(["ingest", "--input", str(src), "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "edges.tsv").read_text() == ""
        assert "warning" in capsys.readouterr().err

    def test_malformed_line_exits_1_with_line_number(self, tmp_path, capsys):
        src = tmp_path / "bad.jsonl"
        src.write_text('{"message_id": 1, "sender": "a"}\n{"sender": "b"}\n')
        rc = main(["ingest", "--input", str(src), "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("telegram", [False, True])
    def test_sender_breaking_tsv_exits_1(self, tmp_path, capsys, telegram):
        messages = [{"message_id": 1, "sender": "a"}, {"message_id": 2, "sender": "b\tz\t1\nc"}]
        src = tmp_path / "input"
        if telegram:
            entries = [{"id": m["message_id"], "from_id": m["sender"]} for m in messages]
            src.write_text(json.dumps({"messages": entries}))
        else:
            src.write_text("".join(json.dumps(m) + "\n" for m in messages))
        argv = ["ingest", "--input", str(src), "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--telegram"] * telegram) == 1
        assert "must not contain a tab or line break" in capsys.readouterr().err
        assert not (tmp_path / "out" / "edges.tsv").exists()

    @pytest.mark.parametrize("telegram", [False, True])
    def test_sender_not_writable_as_utf8_exits_1(self, tmp_path, capsys, telegram):
        # the JSON escape decodes to a lone surrogate, which no UTF-8 file can hold
        if telegram:
            text = json.dumps({"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "\ud800"}]})
        else:
            text = '{"message_id": 1, "sender": "a"}\n{"message_id": 2, "sender": "\\ud800"}\n'
        src = tmp_path / "input"
        src.write_text(text)
        argv = ["ingest", "--input", str(src), "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--telegram"] * telegram) == 1
        if telegram:
            message = "from_id must be valid Unicode text at entry 1"
        else:
            message = "sender must be valid Unicode text at line 2"
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "out" / "edges.tsv").exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "nope.jsonl"), "--output-dir", str(tmp_path)])
        assert rc == 1

    def test_telegram_export(self, fixtures_dir, tmp_path):
        rc = main(
            [
                "ingest",
                "--telegram",
                "--input", str(fixtures_dir / "telegram_export.json"),
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        # only message 3 (user222) replies to a corpus message (1 by user111)
        assert (tmp_path / "edges.tsv").read_text() == "user222\tuser111\t1\n"

    def test_telegram_dropped_inputs_reported(self, fixtures_dir, tmp_path, capsys):
        rc = main(
            [
                "ingest",
                "--telegram",
                "--input", str(fixtures_dir / "telegram_dropped.json"),
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "edges.tsv").read_text() == "user222\tuser111\t1\n"
        out = capsys.readouterr().out
        assert "dropped: 1 replies to missing messages, 1 self-replies, 1 service entries" in out

    @pytest.mark.parametrize(
        "fixture, telegram, counts",
        [
            ("small.jsonl", False, (12, 6, 6, {"dangling": 1, "self": 1, "service": 0})),
            ("telegram_dropped.json", True, (4, 3, 1, {"dangling": 1, "self": 1, "service": 1})),
        ],
    )
    def test_counts_saved_beside_edges(self, fixtures_dir, tmp_path, fixture, telegram, counts):
        argv = ["ingest", "--input", str(fixtures_dir / fixture), "--output-dir", str(tmp_path)]
        assert main(argv + ["--telegram"] * telegram) == 0
        messages, users, edges, dropped = counts
        assert json.loads((tmp_path / "ingest.json").read_text()) == {
            "schema_version": 1,
            "messages": messages,
            "users": users,
            "edges": edges,
            "dropped": dropped,
        }

    def test_telegram_invalid_json(self, tmp_path, capsys):
        src = tmp_path / "broken.json"
        src.write_text("{not json")
        rc = main(["ingest", "--telegram", "--input", str(src), "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "input error: export is not valid JSON at line 1 column 2:"
            " Expecting property name enclosed in double quotes\n"
        )


class TestDetect:
    def test_zero_flag_header_is_the_default_operating_point(self, synth_corpus, tmp_path):
        run = tmp_path / "run"
        rc = main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(run)])
        assert rc == 0
        header = (run / "candidates.tsv").read_text().splitlines()[0]
        assert header == DEFAULT_HEADER
        for name in ("candidates.tsv", "report.json", "features.tsv", "fingerprints.tsv", "stats.json"):
            assert (run / name).exists()

    def test_reruns_are_byte_identical(self, synth_corpus, tmp_path):
        runs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(out)]) == 0
            runs.append(out)
        for artifact in ("candidates.tsv", "report.json", "features.tsv", "fingerprints.tsv"):
            assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()

    def test_ids_with_surrounding_spaces_round_trip(self, tmp_path, capsys):
        # ingest rejects such ids, as read_truth would strip them
        log = tmp_path / "messages.jsonl"
        log.write_text(
            '{"message_id": 1, "sender": "b"}\n'
            '{"message_id": 2, "sender": " a", "reply_to": 1}\n'
        )
        corpus, run = tmp_path / "corpus", tmp_path / "run"
        assert main(["ingest", "--input", str(log), "--output-dir", str(corpus)]) == 1
        assert "must not begin or end with whitespace at line 2" in capsys.readouterr().err
        # an edge list is held to the same rule, naming the edge line
        corpus.mkdir()
        (corpus / "edges.tsv").write_text(" a\tb\t1\nc\tb\t1\n")
        assert main(["detect", "--input", str(corpus / "edges.tsv"), "--output-dir", str(run)]) == 1
        assert "edge line 1: id ' a' must not begin or end with whitespace" in capsys.readouterr().err
        # inner spaces are kept intact: "in ner" and "c" both reply only to
        # "b", so they are twins at distance 0
        (corpus / "edges.tsv").write_text("in ner\tb\t1\nb\tin ner\t1\nc\tb\t1\n")
        assert main(["detect", "--input", str(corpus / "edges.tsv"), "--output-dir", str(run)]) == 0
        fps, _ = read_fingerprints_tsv(run / "fingerprints.tsv")
        assert sorted(fps) == ["b", "c", "in ner"]
        candidates = read_candidates_tsv(run / "candidates.tsv")
        assert CandidatePair("c", "in ner", 0) in candidates
        assert list(brute_force_pairs(fps, 20)) == list(candidates)

    def test_planted_twins_retrieved_exact(self, synth_corpus, tmp_path):
        run = tmp_path / "run"
        main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(run)])
        report = json.loads((run / "report.json").read_text())
        mutual = {(m["a"], m["b"]): m for m in report["mutual"]}
        truth_lines = (synth_corpus / "truth.txt").read_text().splitlines()
        assert len(truth_lines) == 5
        for line in truth_lines:
            a, b = sorted(line.split(","))
            assert mutual[(a, b)]["distance"] == 0
            assert mutual[(a, b)]["exact"] is True

    def test_report_embeds_config(self, synth_corpus, tmp_path):
        run = tmp_path / "run"
        main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(run)])
        report = json.loads((run / "report.json").read_text())
        assert report["config"] == {
            "b": 128, "d": 20, "theta": 0.5, "mode": "max",
            "direction": "out", "weighting": "weighted", "seed": 0,
        }

    def test_distance_not_below_width_exits_2(self, synth_corpus, tmp_path, capsys):
        rc = main(
            [
                "detect",
                "--input", str(synth_corpus / "edges.tsv"),
                "--output-dir", str(tmp_path / "run"),
                "--bits", "128",
                "--max-distance", "128",
            ]
        )
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--bits", "100"), ("--seed", "-1"), ("--max-distance", "128"), ("--threshold", "1.5")],
    )
    def test_invalid_run_config_exits_2(self, synth_corpus, tmp_path, capsys, flag, value):
        rc = main(
            [
                "detect",
                "--input", str(synth_corpus / "edges.tsv"),
                "--output-dir", str(tmp_path / "run"),
                flag, value,
            ]
        )
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_stats_include_candidate_generation_time(self, synth_corpus, tmp_path):
        run = tmp_path / "run"
        main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(run)])
        stats = json.loads((run / "stats.json").read_text())
        assert stats["seconds"]["candidate_generation"] >= 0
        assert stats["nodes"] == 405
        assert stats["schema_version"] == 4
        assert stats["bucket_memberships"] == stats["distinct_fingerprints"] * stats["tables"]
        # one radius per table, together reaching every pair within d=20
        assert len(stats["block_radii"]) == stats["tables"]
        assert stats["tables"] == 0 or sum(r + 1 for r in stats["block_radii"]) > 20
        assert 1 <= stats["distinct_fingerprints"] <= stats["fingerprinted"]

    @pytest.mark.parametrize("key", ["distinct_fingerprints", "pairs_verified", "largest_duplicate_class", "probes"])
    def test_stats_read_every_retrieval_counter(self, monkeypatch, key):
        # a counter that retrieval stops reporting raises instead of reading 0
        def dropping(index, stats):
            pairs = candidate_pairs(index, stats=stats)
            del stats[key]
            return pairs

        candidate_pairs = pipeline.candidate_pairs
        monkeypatch.setattr(pipeline, "candidate_pairs", dropping)
        graph = InteractionGraph(nodes={"a", "b"}, edges={("a", "b"): 1})
        with pytest.raises(KeyError, match=key):
            run_detection(graph, RunConfig())

    def test_largest_duplicate_class_counts_equal_fingerprints(self, synth_corpus, tmp_path):
        # two more users copy an existing user's only reply, so all three
        # share its fingerprint
        edges = (synth_corpus / "edges.tsv").read_text().splitlines(keepends=True)
        lone = {}
        for line in edges:
            src, dst, _ = line.split("\t")
            lone.setdefault(src, []).append(dst)
        src, [dst] = next((u, vs) for u, vs in sorted(lone.items()) if len(vs) == 1)
        edges += [f"zz_copy{i}\t{dst}\t1\n" for i in range(2)]
        (tmp_path / "edges.tsv").write_text("".join(edges))
        run = tmp_path / "run"
        assert main(["detect", "--input", str(tmp_path / "edges.tsv"), "--output-dir", str(run)]) == 0
        stats = json.loads((run / "stats.json").read_text())
        fps, _ = read_fingerprints_tsv(run / "fingerprints.tsv")
        sizes = Counter(fp.bits for fp in fps.values())
        assert stats["largest_duplicate_class"] == max(sizes.values()) >= 3
        assert sizes[fps[src].bits] >= 3

    def test_hub_of_reply_only_users_gives_no_bucket_warning(self, tmp_path, capsys):
        # 1000 lurkers replying only to one admin share one fingerprint;
        # retrieval searches that class as one row, so no warning is due
        background, _ = generate(SynthConfig(n=200, seed=3))
        lurkers = [f"lurker{i:04d}" for i in range(1000)]
        edges = dict(background.edges)
        edges.update({(uid, "admin"): 1 + i % 3 for i, uid in enumerate(lurkers)})
        graph = InteractionGraph(nodes=background.nodes | {"admin", *lurkers}, edges=edges)
        write_edges_tsv(graph, tmp_path / "edges.tsv")
        run = tmp_path / "run"
        assert main(["detect", "--input", str(tmp_path / "edges.tsv"), "--output-dir", str(run)]) == 0
        assert "warning" not in capsys.readouterr().err
        stats = json.loads((run / "stats.json").read_text())
        assert stats["distinct_fingerprints"] <= stats["fingerprinted"] - 999
        assert stats["warnings"] == []
        # the star's outputs are the bytes the per-pair reference writes for
        # the brute-force pairs
        fps, _ = read_fingerprints_tsv(run / "fingerprints.tsv")
        pairs = brute_force_pairs(fps, 20)
        assert len(pairs) >= 1000 * 999 // 2
        assert (run / "candidates.tsv").read_text() == reference.candidates_tsv(pairs, DEFAULT_HEADER)
        # parsed, not re-serialized: TestAgainstReference pins the byte layout
        report = json.loads((run / "report.json").read_text())
        assert report == {"config": RunConfig().to_dict(), **reference.report_dict(pairs)}

    def test_many_distinct_fingerprints_in_one_bucket_warn(self, tmp_path, capsys):
        # a user whose only token is one reply has that token's hash as its
        # fingerprint; 250 tokens agreeing on bits 0-6, most of the first
        # block at b=128 d=20, co-bucket far more pairs than uniform bits would
        cfg = RunConfig()
        neighbors = []
        for i in itertools.count():
            if reference.token_hash(FeatureToken("out", f"n{i}"), cfg) & 0x7F == 0:
                neighbors.append(f"n{i}")
                if len(neighbors) == 250:
                    break
        edges = {(f"u{i:03d}", v): 1 for i, v in enumerate(neighbors)}
        graph = InteractionGraph(nodes={x for edge in edges for x in edge}, edges=edges)
        write_edges_tsv(graph, tmp_path / "edges.tsv")
        run = tmp_path / "run"
        assert main(["detect", "--input", str(tmp_path / "edges.tsv"), "--output-dir", str(run)]) == 0
        stats = json.loads((run / "stats.json").read_text())
        assert stats["distinct_fingerprints"] == 250
        [warning] = stats["warnings"]
        assert warning["kind"] == "excess_verifications"
        expected = stats["expected_verifications"]
        assert warning["limit"] == 4 * expected + 1000
        assert warning["pairs_verified"] == stats["pairs_verified"] > 4 * expected + 1000
        assert (
            f"warning: verified {stats['pairs_verified']} pairs, more than {warning['limit']}"
            f" (4x the {expected} expected for uniform bits, plus 1000); many fingerprints"
            " agree on block bits, so retrieval drifts toward all pairs"
        ) in capsys.readouterr().err

    def test_staged_detect_counts_edge_endpoints_only(self, tmp_path):
        # "lurker" posts but neither replies nor is replied to, so it is a
        # node of the in-memory graph and absent from edges.tsv
        log = tmp_path / "messages.jsonl"
        log.write_text(
            '{"message_id": 1, "sender": "a"}\n'
            '{"message_id": 2, "sender": "b", "reply_to": 1}\n'
            '{"message_id": 3, "sender": "a", "reply_to": 2}\n'
            '{"message_id": 4, "sender": "lurker"}\n'
        )
        in_memory = run_detection(
            build_interaction_graph(parse_messages(log.read_text().splitlines())), RunConfig()
        ).stats
        assert (in_memory["nodes"], in_memory["unfingerprintable"]) == (3, 1)
        assert main(["ingest", "--input", str(log), "--output-dir", str(tmp_path)]) == 0
        run = tmp_path / "run"
        assert main(["detect", "--input", str(tmp_path / "edges.tsv"), "--output-dir", str(run)]) == 0
        staged = json.loads((run / "stats.json").read_text())
        assert (staged["nodes"], staged["unfingerprintable"]) == (2, 0)
        assert staged["fingerprinted"] == in_memory["fingerprinted"] == 2


class TestEval:
    def test_worked_example(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("# header\na\tb\t3\na\tc\t9\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("a,b\nc\n")
        rc = main(["eval", "--input", str(candidates), "--truth", str(truth)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == 0.5
        assert payload["recall"] == 1.0
        assert abs(payload["f1"] - 2 / 3) < 1e-12

    def test_overlapping_truth_exits_1(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("# header\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("a,b\nb,c\n")
        assert main(["eval", "--input", str(candidates), "--truth", str(truth)]) == 1
        assert "overlapping" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a\tb", "expected 3 tab-separated fields"),
            ("a\tb\tfar", "bad distance 'far'"),
            ("a\tb\t-1", "negative distance"),
            ("a\ta\t1", "pair endpoints must be ordered, got 'a', 'a'"),
            ("\tb\t1", "empty id"),
            ("a\t\t1", "empty id"),
            (" a\tb\t1", "id ' a' must not begin or end with whitespace"),
            ("a\tb \t1", "id 'b ' must not begin or end with whitespace"),
            ("a\tb\t257", "distance 257 exceeds 256, the widest fingerprint"),
            ("a\tb\t4611686018427387904", "distance 4611686018427387904 exceeds 256, the widest fingerprint"),
            ("a\tb\t99999999999999999999", "distance 99999999999999999999 exceeds 256, the widest fingerprint"),
        ],
        ids=["fields", "distance", "negative", "self-pair", "empty-a", "empty-b", "padded-a", "padded-b",
             "distance-257", "distance-2**62", "distance-past-int64"],
    )
    def test_malformed_row_exits_1(self, tmp_path, capsys, row, message):
        # read_truth strips ids, so a padded or empty id could never match
        # a labeled pair; such a row is refused rather than scored
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text(f"# header\n{row}\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("a,b\n")
        assert main(["eval", "--input", str(candidates), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == f"input error: candidates line 2: {message}\n"

    def test_ids_beginning_with_hash_scored_like_sweep(self, tmp_path, capsys):
        # only line 1 of candidates.tsv is a header, so the pair of "#anna"
        # and "bob" is a row that eval scores, as sweep does
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"message_id": 1, "sender": "carol"}\n'
            '{"message_id": 2, "sender": "#anna", "reply_to": 1}\n'
            '{"message_id": 3, "sender": "bob", "reply_to": 1}\n'
        )
        truth = tmp_path / "truth.txt"
        truth.write_text("#anna,bob\n")
        assert main(["ingest", "--input", str(log), "--output-dir", str(tmp_path / "in")]) == 0
        edges = str(tmp_path / "in" / "edges.tsv")
        assert main(["detect", "--input", edges, "--output-dir", str(tmp_path / "run")]) == 0
        assert main(["sweep", "--input", edges, "--truth", str(truth), "--output-dir", str(tmp_path / "sweep")]) == 0
        capsys.readouterr()
        assert main(["eval", "--input", str(tmp_path / "run" / "candidates.tsv"), "--truth", str(truth)]) == 0
        payload = json.loads(capsys.readouterr().out)
        header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert float(dict(zip(header.split(","), row.split(",")))["f1"]) == payload["f1"] == 1.0

    def test_only_line_1_is_a_header(self, tmp_path):
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("# header\n#a\tb\t0\n")
        assert list(read_candidates_tsv(candidates)) == [CandidatePair("#a", "b", 0)]
        candidates.write_text("#a\tb\t0\n")
        assert list(read_candidates_tsv(candidates)) == []
        candidates.write_text("# header\n# a comment\n")
        with pytest.raises(InputError, match="^candidates line 2: expected 3 tab-separated fields$"):
            read_candidates_tsv(candidates)

    def test_distance_of_widest_fingerprint_accepted(self, tmp_path):
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("# header\na\tb\t256\n")
        pairs = read_candidates_tsv(candidates)
        assert list(pairs) == [CandidatePair("a", "b", 256)]
        assert CandidatePair("a", "b", 256) in pairs

    def test_empty_candidates_vacuous_precision(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.tsv"
        candidates.write_text("# header only\n")
        truth = tmp_path / "truth.txt"
        truth.write_text("a,b\n")
        assert main(["eval", "--input", str(candidates), "--truth", str(truth)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["precision"] == 1.0
        assert payload["recall"] == 0.0


class TestSynth:
    def test_seeded_reruns_identical(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            rc = main(["synth", "--output-dir", str(out), "--nodes", "120", "--clones", "6", "--seed", "7"])
            assert rc == 0
            outs.append(out)
        for artifact in ("edges.tsv", "truth.txt", "manifest.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_manifest_echoes_config(self, tmp_path):
        out = tmp_path / "corpus"
        main(["synth", "--output-dir", str(out), "--nodes", "50", "--seed", "3"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 50 and manifest["seed"] == 3

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        rc = main(["synth", "--output-dir", str(tmp_path), "--nodes", "10", "--clones", "20"])
        assert rc == 2


class TestSweep:
    def test_two_distances(self, synth_corpus, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--input", str(synth_corpus / "edges.tsv"),
                "--truth", str(synth_corpus / "truth.txt"),
                "--output-dir", str(out),
                "--max-distance", "10,20",
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 rows
        row10 = lines[1].split(",")
        row20 = lines[2].split(",")
        assert int(row10[8]) <= int(row20[8])  # candidates monotone in d

    def test_single_point_matches_detect_plus_eval(self, synth_corpus, tmp_path, capsys):
        run = tmp_path / "run"
        main(["detect", "--input", str(synth_corpus / "edges.tsv"), "--output-dir", str(run)])
        capsys.readouterr()
        rc = main(["eval", "--input", str(run / "candidates.tsv"), "--truth", str(synth_corpus / "truth.txt")])
        assert rc == 0
        eval_payload = json.loads(capsys.readouterr().out)

        out = tmp_path / "sweep"
        main(
            [
                "sweep",
                "--input", str(synth_corpus / "edges.tsv"),
                "--truth", str(synth_corpus / "truth.txt"),
                "--output-dir", str(out),
            ]
        )
        header, row = (out / "sweep.csv").read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        candidates = len((run / "candidates.tsv").read_text().splitlines()) - 1
        assert int(fields["candidates"]) == candidates
        assert abs(float(fields["precision"]) - eval_payload["precision"]) < 1e-6
        assert abs(float(fields["recall"]) - eval_payload["recall"]) < 1e-6

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--bits", "128,x"),
            ("--max-distance", "6,x"),
            ("--threshold", "0.3,high"),
            ("--max-distance", ","),
            ("--mode", ""),
        ],
    )
    def test_malformed_list_is_usage_error(self, synth_corpus, tmp_path, capsys, flag, value):
        argv = [
            "sweep",
            "--input", str(synth_corpus / "edges.tsv"),
            "--truth", str(synth_corpus / "truth.txt"),
            "--output-dir", str(tmp_path / "sweep"),
            flag, value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, bad",
        [("--mode", "max,bogus", "bogus"), ("--direction", "sideways", "sideways"),
         ("--weighting", "binary,Weighted", "Weighted")],
    )
    def test_unknown_choice_is_usage_error(self, synth_corpus, tmp_path, capsys, flag, value, bad):
        # as for detect: a value outside the field's choices exits 2 before
        # any grid point runs
        out = tmp_path / "sweep"
        argv = [
            "sweep",
            "--input", str(synth_corpus / "edges.tsv"),
            "--truth", str(synth_corpus / "truth.txt"),
            "--output-dir", str(out),
            flag, value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice: {bad!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_grid_point_error_is_one_csv_cell(self, synth_corpus, tmp_path, capsys):
        # the error text holds a comma, so the cell is quoted
        out = tmp_path / "sweep"
        argv = ["sweep", "--input", str(synth_corpus / "edges.tsv"), "--truth",
                str(synth_corpus / "truth.txt"), "--output-dir", str(out), "--max-distance", "20,128"]
        assert main(argv) == 0
        with open(out / "sweep.csv", newline="") as fh:
            header, ok, failed = csv.reader(fh)
        assert len(header) == len(ok) == len(failed) == 17
        error = dict(zip(header, failed))["error"]
        assert error == (
            "max distance 128 >= width 128: every pair would be a candidate,"
            " use the brute-force scan instead"
        )
        assert dict(zip(header, ok))["error"] == ""
        # the stdout table is tab-separated and keeps the text as it is
        table = capsys.readouterr().out.splitlines()
        assert table[2].split("\t")[-1] == error

    def test_failed_grid_point_row(self, synth_corpus, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--input", str(synth_corpus / "edges.tsv"),
                "--truth", str(synth_corpus / "truth.txt"),
                "--output-dir", str(out),
                "--max-distance", "128,20",
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert "failed" in lines[1]
        assert ",ok," in lines[2]


VALID_INPUTS = {
    "messages": '{"message_id": 1, "sender": "a"}\n{"message_id": 2, "sender": "b", "reply_to": 1}\n',
    "export": '{"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "b", "reply_to_message_id": 1}]}',
    "edges": "a\tb\t1\nb\ta\t1\n",
    "candidates": "a\tb\t0\n",
    "truth": "a,b\n",
}


COMMANDS = {
    "ingest": ["ingest", "--input", "messages"],
    "ingest-telegram": ["ingest", "--telegram", "--input", "export"],
    "detect": ["detect", "--input", "edges"],
    "eval": ["eval", "--input", "candidates", "--truth", "truth"],
    "sweep": ["sweep", "--input", "edges", "--truth", "truth"],
}


@pytest.mark.parametrize("command, bad", [
    ("ingest", "messages"), ("ingest-telegram", "export"), ("detect", "edges"),
    ("eval", "candidates"), ("eval", "truth"), ("sweep", "edges"), ("sweep", "truth"),
])
def test_input_not_utf8_exits_1_naming_the_file(tmp_path, capsys, command, bad):
    for name, text in VALID_INPUTS.items():
        (tmp_path / name).write_bytes(text.encode() + b"\xff\n" * (name == bad))
    argv = [str(tmp_path / arg) if arg in VALID_INPUTS else arg for arg in COMMANDS[command]]
    out = [] if command == "eval" else ["--output-dir", str(tmp_path / "out")]
    assert main(argv + out) == 1
    err = capsys.readouterr().err
    assert err == f"input error: {tmp_path / bad} is not UTF-8 text: invalid start byte\n"
    assert "Traceback" not in err
