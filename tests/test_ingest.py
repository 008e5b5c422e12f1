import json
import os
import random
import re
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import reference
from sockdetect import ingest
from sockdetect.errors import InputError
from sockdetect.features import build_feature_maps
from sockdetect.lsh import CandidatePairs
from sockdetect.pipeline import RunConfig, read_candidates_tsv, write_candidates_tsv
from sockdetect.simhash import Fingerprints, read_fingerprints_tsv, write_fingerprints_tsv
from sockdetect.ingest import (
    InteractionGraph,
    MessageRecord,
    build_interaction_graph,
    convert_telegram_export,
    parse_messages,
    parse_messages_path,
    read_edges_tsv,
    write_edges_tsv,
)

EXPECTED_FIXTURE_TSV = (
    "alice\tbob\t1\n"
    "bob\talice\t2\n"
    "bob\tcarol\t1\n"
    "carol\talice\t1\n"
    "carol\tdave\t1\n"
    "erin\tcarol\t1\n"
)


class TestParseMessages:
    def test_full_record(self):
        records = parse_messages(['{"message_id": 10, "sender": "u1", "reply_to": 3}'])
        assert list(records) == [MessageRecord(10, "u1", 3)]

    def test_reply_to_absent(self):
        records = parse_messages(['{"message_id": 11, "sender": "u2"}'])
        assert list(records) == [MessageRecord(11, "u2", None)]

    def test_missing_message_id(self):
        with pytest.raises(InputError, match="missing message_id at line 1"):
            parse_messages(['{"sender": "u1"}'])

    def test_missing_sender(self):
        with pytest.raises(InputError, match="missing sender at line 1"):
            parse_messages(['{"message_id": 1}'])

    def test_line_numbers_skip_blanks(self):
        lines = ["", '{"message_id": 1, "sender": "a"}', "", "not json"]
        with pytest.raises(InputError, match="line 4"):
            parse_messages(lines)

    def test_duplicate_id_names_both_lines(self):
        lines = [
            '{"message_id": 7, "sender": "a"}',
            '{"message_id": 8, "sender": "b"}',
            '{"message_id": 7, "sender": "c"}',
        ]
        with pytest.raises(InputError) as err:
            parse_messages(lines)
        assert "duplicate message_id 7" in str(err.value)
        assert "line 3" in str(err.value)
        assert "line 1" in str(err.value)

    def test_non_integer_message_id(self):
        with pytest.raises(InputError, match="message_id must be an integer"):
            parse_messages(['{"message_id": "x", "sender": "a"}'])
        with pytest.raises(InputError, match="message_id must be an integer"):
            parse_messages(['{"message_id": true, "sender": "a"}'])

    def test_non_integer_reply_to(self):
        with pytest.raises(InputError, match="reply_to must be an integer"):
            parse_messages(['{"message_id": 1, "sender": "a", "reply_to": "b"}'])

    def test_null_reply_to_means_absent(self):
        records = parse_messages(['{"message_id": 1, "sender": "a", "reply_to": null}'])
        assert records.reply_to[0] is None

    def test_numeric_sender_normalized_to_decimal_string(self):
        records = parse_messages(['{"message_id": 1, "sender": 42}'])
        assert records.sender[0] == "42"

    def test_empty_sender_rejected(self):
        with pytest.raises(InputError, match="sender must be non-empty"):
            parse_messages(['{"message_id": 1, "sender": ""}'])

    @pytest.mark.parametrize("sender", ["b\tz\t1\nc", "a\nb", "a\rb"])
    def test_sender_breaking_tsv_rejected(self, sender):
        lines = ['{"message_id": 1, "sender": "a"}', json.dumps({"message_id": 2, "sender": sender})]
        with pytest.raises(InputError, match="tab or line break at line 2"):
            parse_messages(lines)

    @pytest.mark.parametrize("sender", [" a", "a ", "\u00a0a", "a\x0c", "\u2028"])
    def test_sender_with_surrounding_whitespace_rejected(self, sender):
        # read_truth strips ids, so " a" would become "a" there
        lines = ['{"message_id": 1, "sender": "a"}', json.dumps({"message_id": 2, "sender": sender})]
        message = "sender must not begin or end with whitespace at line 2"
        for parse in (parse_messages, reference.parse_messages):
            with pytest.raises(InputError, match=message):
                parse(lines)

    @pytest.mark.parametrize("later", ['{"message_id": 3, "sender": "c"}', '{"message_id": true, "sender": "c"}'])
    def test_sender_not_writable_as_utf8_rejected(self, later):
        # the escape decodes to a lone surrogate, and whatever a later line
        # holds, the error names its line
        lines = ['{"message_id": 1, "sender": "a"}', '{"message_id": 2, "sender": "\\ud800"}', later]
        for parse in (parse_messages, reference.parse_messages):
            with pytest.raises(InputError, match="^sender must be valid Unicode text at line 2$"):
                parse(lines)

    def test_unknown_fields_ignored_and_order_kept(self):
        lines = [
            '{"message_id": 5, "sender": "a", "text": "hi", "views": 3}',
            "",
            '{"message_id": 2, "sender": "b"}',
        ]
        records = parse_messages(lines)
        assert [r.message_id for r in records] == [5, 2]

    def test_non_object_line(self):
        with pytest.raises(InputError, match="expected an object at line 1"):
            parse_messages(["[1, 2]"])


class TestTelegramExport:
    def test_fixture_conversion(self, fixtures_dir):
        import json

        document = json.loads((fixtures_dir / "telegram_export.json").read_text())
        records = convert_telegram_export(document)
        assert list(records) == [
            MessageRecord(1, "user111", None),
            MessageRecord(3, "user222", 1),
            MessageRecord(4, "333", None),
        ]

    def test_dropped_inputs_counted_by_kind(self, fixtures_dir):
        document = json.loads((fixtures_dir / "telegram_dropped.json").read_text())
        dropped: Counter[str] = Counter()
        records = convert_telegram_export(document, dropped=dropped)
        graph = build_interaction_graph(records, dropped=dropped)
        # frozen in fixtures/README.md
        assert len(records) == 4
        assert graph.edges == {("user222", "user111"): 1}
        assert dropped == {"dangling": 1, "self": 1, "service": 1}

    def test_service_messages_skipped(self):
        doc = {
            "messages": [
                {"id": 1, "from_id": "user1"},
                {"id": 2, "action": "pin_message"},
                {"id": 3, "from_id": "user2"},
                {"id": 4, "from_id": "user3"},
            ]
        }
        assert len(convert_telegram_export(doc)) == 3

    def test_sender_breaking_tsv_rejected(self):
        doc = {"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "b\tz\t1\nc"}]}
        with pytest.raises(InputError, match="^from_id must not contain a tab or line break at entry 1$"):
            convert_telegram_export(doc)

    def test_sender_not_writable_as_utf8_rejected(self):
        doc = json.loads('{"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "b\\udfff"}]}')
        with pytest.raises(InputError, match="^from_id must be valid Unicode text at entry 1$"):
            convert_telegram_export(doc)

    def test_sender_with_surrounding_whitespace_rejected(self):
        doc = {"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "a "}]}
        with pytest.raises(InputError, match="^from_id must not begin or end with whitespace at entry 1$"):
            convert_telegram_export(doc)

    def test_document_order_preserved(self):
        doc = {"messages": [{"id": 5, "from_id": "a"}, {"id": 2, "from_id": "b"}, {"id": 9, "from_id": "c"}]}
        assert [r.message_id for r in convert_telegram_export(doc)] == [5, 2, 9]

    def test_bare_array_accepted(self):
        assert len(convert_telegram_export([{"id": 1, "from_id": "a"}])) == 1

    def test_empty_export(self):
        with pytest.raises(InputError, match="empty export"):
            convert_telegram_export({"messages": [{"id": 1, "action": "service"}]})

    def test_no_message_array(self):
        with pytest.raises(InputError, match="no message array"):
            convert_telegram_export({"name": "x"})

    def test_message_without_id(self):
        with pytest.raises(InputError, match="^missing id at entry 0$"):
            convert_telegram_export({"messages": [{"from_id": "a"}]})

    def test_duplicate_ids_rejected(self):
        doc = {"messages": [{"id": 1, "from_id": "a"}, {"id": 1, "from_id": "b"}]}
        with pytest.raises(InputError, match=r"^duplicate id 1 at entry 1 \(first seen at entry 0\)$"):
            convert_telegram_export(doc)

    def test_round_trips_through_jsonl(self):
        import json

        doc = {"messages": [{"id": 1, "from_id": "a"}, {"id": 2, "from_id": "b", "reply_to_message_id": 1}]}
        records = convert_telegram_export(doc)
        lines = [
            json.dumps(
                {"message_id": r.message_id, "sender": r.sender}
                | ({"reply_to": r.reply_to} if r.reply_to is not None else {})
            )
            for r in records
        ]
        assert parse_messages(lines) == records


# malformed records for the shared per-record pass: (id, sender, reply id)
# values, or None for a missing field, and the text with the key left open
MALFORMED_RECORDS = [
    pytest.param(None, "a", None, "missing {id}", id="missing id"),
    pytest.param("1", "a", None, "{id} must be an integer", id="string id"),
    pytest.param(True, "a", None, "{id} must be an integer", id="true id"),
    pytest.param(1, "a\tb", None, "{sender} must not contain a tab or line break", id="sender with a tab"),
    pytest.param(1, " a", None, "{sender} must not begin or end with whitespace", id="padded sender"),
    pytest.param(1, "\ud800", None, "{sender} must be valid Unicode text", id="lone surrogate sender"),
    pytest.param(1, "a", "2", "{reply} must be an integer", id="string reply id"),
]
JSONL_KEYS = {"id": "message_id", "sender": "sender", "reply": "reply_to"}
EXPORT_KEYS = {"id": "id", "sender": "from_id", "reply": "reply_to_message_id"}


def _record(keys, message_id, sender, reply_to):
    fields = {keys["id"]: message_id, keys["sender"]: sender, keys["reply"]: reply_to}
    return {k: v for k, v in fields.items() if v is not None}


class TestSharedRecordPass:
    """JSONL lines and export entries go through one per-record pass: the
    same record gives the same text, with the format's key and place."""

    def _texts(self, records):
        lines = [json.dumps(_record(JSONL_KEYS, *r)) for r in records]
        entries = [_record(EXPORT_KEYS, *r) for r in records]
        texts = []
        for parse, document in ((parse_messages, lines), (convert_telegram_export, {"messages": entries})):
            with pytest.raises(InputError) as err:
                parse(document)
            texts.append(str(err.value))
        return texts

    @pytest.mark.parametrize("message_id, sender, reply_to, text", MALFORMED_RECORDS)
    def test_malformed_record_same_text(self, message_id, sender, reply_to, text):
        jsonl, export = self._texts([(7, "z", None), (message_id, sender, reply_to)])
        assert jsonl == text.format(**JSONL_KEYS) + " at line 2"
        assert export == text.format(**EXPORT_KEYS) + " at entry 1"

    def test_repeated_id_same_text(self):
        jsonl, export = self._texts([(7, "a", None), (8, "b", None), (7, "c", None)])
        assert jsonl == "duplicate message_id 7 at line 3 (first seen at line 1)"
        assert export == "duplicate id 7 at entry 2 (first seen at entry 0)"

    def test_export_accepts_the_jsonl_keys(self):
        entries = [{"message_id": 1, "sender": "a"}, {"message_id": 2, "sender": "b", "reply_to": 1}]
        assert list(convert_telegram_export(entries)) == [MessageRecord(1, "a"), MessageRecord(2, "b", 1)]

    def test_export_key_wins_over_its_alias(self):
        # the first key present is read, even when it holds null
        with pytest.raises(InputError, match="^id must be an integer at entry 0$"):
            convert_telegram_export([{"id": None, "message_id": 1, "from_id": "a"}])


class TestBuildGraph:
    def test_two_replies_make_weight_two(self):
        # hand count: u1 answers two distinct messages authored by u2
        messages = [
            MessageRecord(1, "u2"),
            MessageRecord(2, "u2"),
            MessageRecord(3, "u1", reply_to=1),
            MessageRecord(4, "u1", reply_to=2),
        ]
        graph = build_interaction_graph(reference.message_log(messages))
        assert graph.edges == {("u1", "u2"): 2}
        assert graph.nodes == {"u1", "u2"}

    def test_unresolved_reply_ignored(self):
        messages = [MessageRecord(1, "u1", reply_to=999)]
        graph = build_interaction_graph(reference.message_log(messages))
        assert graph.edges == {}
        assert graph.nodes == {"u1"}

    def test_self_reply_ignored(self):
        messages = [MessageRecord(1, "u1"), MessageRecord(2, "u1", reply_to=1)]
        assert build_interaction_graph(reference.message_log(messages)).edges == {}

    def test_weight_sum_equals_resolved_cross_sender_replies(self):
        records = _random_messages(seed=3, count=400, users=30)
        graph = build_interaction_graph(reference.message_log(records))
        author = {r.message_id: r.sender for r in records}
        resolved = sum(
            1
            for r in records
            if r.reply_to in author and author[r.reply_to] != r.sender
        )
        assert sum(graph.edges.values()) == resolved

    def test_permutation_invariance(self):
        records = _random_messages(seed=11, count=300, users=25)
        graph1 = build_interaction_graph(reference.message_log(records))
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        graph2 = build_interaction_graph(reference.message_log(shuffled))
        assert graph1.nodes == graph2.nodes
        assert graph1.edges == graph2.edges

    def test_invariants_on_random_input(self):
        graph = build_interaction_graph(reference.message_log(_random_messages(seed=7, count=500, users=40)))
        assert (graph.weight >= 1).all() and (graph.src != graph.dst).all()
        assert all(w >= 1 for w in graph.edges.values())
        assert all(src != dst for src, dst in graph.edges)


class TestFixtureCorpus:
    def test_hand_counted_totals(self, fixtures_dir):
        records = parse_messages_path(fixtures_dir / "small.jsonl")
        assert len(records) == 12
        graph = build_interaction_graph(records)
        # frozen in fixtures/README.md
        assert graph.node_count == 6
        assert graph.edge_count == 6
        assert sum(graph.edges.values()) == 7
        assert graph.edges[("bob", "alice")] == 2
        dropped: Counter[str] = Counter()
        build_interaction_graph(records, dropped=dropped)
        assert dropped == {"dangling": 1, "self": 1}

    def test_edge_tsv_bytes(self, fixtures_dir, tmp_path):
        graph = build_interaction_graph(parse_messages_path(fixtures_dir / "small.jsonl"))
        out = tmp_path / "edges.tsv"
        write_edges_tsv(graph, out)
        assert out.read_text() == EXPECTED_FIXTURE_TSV


class TestEdgeTsv:
    def test_round_trip(self, tmp_path):
        graph = build_interaction_graph(reference.message_log(_random_messages(seed=19, count=200, users=15)))
        path = tmp_path / "edges.tsv"
        write_edges_tsv(graph, path)
        loaded = read_edges_tsv(path)
        assert loaded.edges == graph.edges
        # nodes without edges are not representable in the TSV
        touched = {u for edge in graph.edges for u in edge}
        assert loaded.nodes == touched

    def test_rows_sorted(self, tmp_path):
        graph = InteractionGraph(
            nodes={"b", "a", "c"}, edges={("c", "a"): 1, ("a", "b"): 2, ("b", "a"): 3}
        )
        path = tmp_path / "edges.tsv"
        write_edges_tsv(graph, path)
        assert path.read_text().splitlines() == ["a\tb\t2", "b\ta\t3", "c\ta\t1"]

    @pytest.mark.parametrize(
        "row",
        ["a\tb", "a\tb\tx", "a\tb\t0", "a\ta\t1", "\tb\t1"],
    )
    def test_malformed_rows_rejected(self, tmp_path, row):
        path = tmp_path / "bad.tsv"
        path.write_text(row + "\n")
        with pytest.raises(InputError):
            read_edges_tsv(path)

    @pytest.mark.parametrize("padded", [" a", "a ", "a\xa0", "\u2028a"])
    def test_endpoint_with_surrounding_whitespace_names_its_line(self, tmp_path, padded):
        # the sender rule of ingest, which read_truth relies on; inner
        # spaces stay valid, and both the columnar and per-line pass check
        path = tmp_path / "edges.tsv"
        path.write_text("in ner\tb\t1\n")
        assert read_edges_tsv(path).ids == ["b", "in ner"]
        path.write_text(f"in ner\tb\t1\nc\t{padded}\t2\n")
        message = f"edge line 2: id {padded!r} must not begin or end with whitespace"
        with pytest.raises(InputError, match=re.escape(message)):
            read_edges_tsv(path)

    def test_shuffled_rows_read_to_the_sorted_graph(self, tmp_path):
        graph = build_interaction_graph(reference.message_log(_random_messages(seed=23, count=400, users=30)))
        path, shuffled = tmp_path / "edges.tsv", tmp_path / "shuffled.tsv"
        write_edges_tsv(graph, path)
        rows = path.read_text().splitlines(keepends=True)
        random.Random(5).shuffle(rows)
        shuffled.write_text("".join(rows))
        plain, loaded = read_edges_tsv(path), read_edges_tsv(shuffled)
        assert len(set(graph.weight.tolist())) > 1 and loaded.ids == plain.ids
        for name in ("src", "dst", "weight"):
            assert getattr(loaded, name).tolist() == getattr(plain, name).tolist() == getattr(graph, name).tolist()

    def test_empty_file_is_empty_graph(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        graph = read_edges_tsv(path)
        assert graph.node_count == 0 and graph.edge_count == 0

    def test_blank_lines_give_the_graph_without_them(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t2\nb\ta\t3\nc\ta\t1\n")
        plain = read_edges_tsv(path)
        path.write_text("\nc\ta\t1\n  \na\tb\t2\n\t\nb\ta\t3\n\n")
        spaced = read_edges_tsv(path)
        assert spaced.ids == plain.ids == ["a", "b", "c"]
        for name in ("src", "dst", "weight"):
            assert getattr(spaced, name).tolist() == getattr(plain, name).tolist()

    @pytest.mark.parametrize("text, error", [
        ("a\tb\t2\n\nb\ta\t3\n", None),
        ("a\tb\t2\nc\td\n", "edge line 2: expected 3 tab-separated fields"),
        ("a\tb\t2\nc\td\t1\t5\n", "edge line 2: expected 3 tab-separated fields"),
        ("a\tb\t2\nb\ta\t3", None),
        ("a\tb\t2\nb", "edge line 2: expected 3 tab-separated fields"),
    ], ids=["blank_line", "two_fields", "four_fields", "no_final_break", "last_row_one_field"])
    def test_rows_off_the_column_shape_get_the_per_line_texts(self, tmp_path, text, error):
        # the column pass takes only rows of tab, tab, line break; the
        # per-line pass reads the rest, or names the first bad line
        path = tmp_path / "edges.tsv"
        path.write_text(text, encoding="utf-8", newline="")
        if error is not None:
            with pytest.raises(InputError, match=f"^{re.escape(error)}$"):
                read_edges_tsv(path)
            return
        graph = read_edges_tsv(path)
        assert graph.ids == ["a", "b"]
        assert (graph.src.tolist(), graph.dst.tolist(), graph.weight.tolist()) == ([0, 1], [1, 0], [2, 3])

    def test_crlf_rows_read_as_lf_rows(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("a\tb\t2\nb\ta\t3\nc\ta\t1\n", encoding="utf-8", newline="")
        plain = read_edges_tsv(path)
        path.write_text("a\tb\t2\r\nb\ta\t3\r\nc\ta\t1\r\n", encoding="utf-8", newline="")
        crlf = read_edges_tsv(path)
        assert crlf.ids == plain.ids == ["a", "b", "c"]
        for name in ("src", "dst", "weight"):
            assert getattr(crlf, name).tolist() == getattr(plain, name).tolist()


# inner spaces, a "#", and characters of two, three and four UTF-8 bytes
_ID_CHARS = "ab z#09üé中文\U0001f600"
_WEIGHTS = {
    "byte": ["1", "2", "3", "17", "007", "0" * 17 + "9", "9" * 18],
    "line": ["+5", "0", "00", " 4", "1" + "0" * 18, "9" * 19, "x"],
}


def _random_id(rng: random.Random) -> str:
    """An id of 1 to 2,000 UTF-8 bytes with no space at either end."""
    size = rng.randint(1, rng.choice([1, 3, 8, 60, 2000]))
    chars: list[str] = []
    while size > 0:
        char = rng.choice(_ID_CHARS if size >= 4 else "abz#09")
        chars.append(char)
        size -= len(char.encode())
    return "x" * (chars[0] == " ") + "".join(chars).strip() + "x" * (chars[-1] == " ")


def _random_edge_file(rng: random.Random) -> str:
    """Rows in (source, target) order, none flawed about half the time; the
    rest carry one or two flaws: a weight off the digit columns, shuffled
    rows, a duplicate row, a self-loop, a padded or empty id, CRLF or CR
    line breaks, no final line break, or blank lines."""
    ids = sorted({_random_id(rng) for _ in range(rng.randint(2, 12))} | {"#a", "a b"})
    if rng.random() < 0.3:  # ids that differ in one byte, or only in length
        ids = sorted(set(ids) | {"u1", "u2", "u12"})
    pairs = sorted((s, t) for s in ids for t in ids if s != t)
    picked = rng.sample(pairs, rng.randint(0, min(len(pairs), 25)))
    rows = sorted([s, t, rng.choice(_WEIGHTS["byte"])] for s, t in picked)
    end, final, blanks = "\n", True, 0
    for flaw in rng.sample(range(8), rng.choice([0, 0, 1, 2])):
        at = rng.randrange(len(rows) + 1)
        if flaw == 0 and rows:
            rows[at % len(rows)][2] = rng.choice(_WEIGHTS["line"])
        elif flaw == 1:
            rng.shuffle(rows)
        elif flaw == 2 and rows:
            rows.insert(at, list(rows[at % len(rows)]))
        elif flaw == 3:
            uid = rng.choice(ids)
            rows.insert(at, [uid, uid, "1"])
        elif flaw == 4 and rows:
            rows[at % len(rows)][rng.randrange(2)] = rng.choice([" a", "a ", "a\xa0", "\u2028a", ""])
        elif flaw == 5:
            end = rng.choice(["\r\n", "\r"])
        elif flaw == 6:
            final = False
        elif flaw == 7:
            blanks = rng.randint(1, 3)
    lines = ["\t".join(row) for row in rows]
    for _ in range(blanks):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t", "\t\t"]))
    return end.join(lines) + end * (final and bool(lines))


def _named_rows(graph: InteractionGraph) -> list[tuple[str, str, int]]:
    name = graph.ids.__getitem__
    return list(zip(map(name, graph.src.tolist()), map(name, graph.dst.tolist()), graph.weight.tolist()))


class TestEdgeBytePass:
    """``read_edges_tsv`` checks a file whole as bytes and hands whatever
    it declines to the per-line pass, which ``reference.read_edges`` mirrors."""

    @staticmethod
    def _spied(monkeypatch) -> Counter[str]:
        calls: Counter[str] = Counter()
        for name in ("_edges_from_bytes", "_edges_from_rows"):
            def spy(*args, _real=getattr(ingest, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(ingest, name, spy)
        return calls

    @staticmethod
    def _assert_reads_as_reference(path) -> None:
        try:
            want = reference.read_edges(path)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                read_edges_tsv(path)
            assert str(got.value) == str(exc)
            return
        graph = read_edges_tsv(path)
        assert (graph.ids, _named_rows(graph)) == want
        assert graph.src.dtype == graph.dst.dtype == graph.weight.dtype == np.int64

    def test_seeded_files_read_as_the_per_line_reference(self, tmp_path, monkeypatch):
        calls = self._spied(monkeypatch)
        path, taken = tmp_path / "edges.tsv", Counter()
        for seed in range(200):
            path.write_bytes(_random_edge_file(random.Random(seed)).encode())
            calls.clear()
            self._assert_reads_as_reference(path)
            # the per-line pass never runs the byte pass again
            assert calls["_edges_from_bytes"] == 1
            taken["rows" if calls["_edges_from_rows"] else "bytes"] += 1
        assert min(taken.values()) >= 60, taken

    def test_written_files_take_the_byte_pass(self, tmp_path, monkeypatch):
        calls = self._spied(monkeypatch)
        rng = random.Random(8)
        ids = sorted({_random_id(rng) for _ in range(40)} | {"#a", "a b", "中文", "x" * 2000})
        src, dst = np.array([(s, t) for s in range(len(ids)) for t in range(len(ids)) if s != t][::7]).T
        weight = np.array([rng.choice([1, 2, 10**17, 10**18 - 1]) for _ in src])
        graphs = [
            InteractionGraph(arrays=(ids, src, dst, weight)),
            build_interaction_graph(reference.message_log(_random_messages(seed=19, count=400, users=30))),
            InteractionGraph(),
        ]
        path = tmp_path / "edges.tsv"
        for graph in graphs:
            write_edges_tsv(graph, path)
            # the same rows with CRLF line breaks, as a text file is read
            for data in (path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n")):
                path.write_bytes(data)
                calls.clear()
                loaded = read_edges_tsv(path)
                assert calls == {"_edges_from_bytes": 1}
                assert loaded.ids == sorted(set(graph.ids[i] for i in np.concatenate([graph.src, graph.dst]).tolist()))
                assert _named_rows(loaded) == _named_rows(graph)

    @pytest.mark.parametrize("prefix", [0, 1], ids=["every-id", "first-byte"])
    def test_colliding_hashes_take_the_per_line_pass(self, tmp_path, monkeypatch, prefix):
        # every id hashed to one value, or by its first byte alone, so that
        # ids of one length and ids of several share a hash; only the byte
        # proof tells them apart
        real = ingest.fnv1a64

        def hashed_prefix(state, data, starts, lengths):
            real(state, data, starts, np.minimum(lengths, prefix))

        monkeypatch.setattr(ingest, "fnv1a64", hashed_prefix)
        calls = self._spied(monkeypatch)
        path = tmp_path / "edges.tsv"
        edges = {("x1", "y"): 1, ("x2", "z"): 2, ("y", "x33"): 3, ("z", "y"): 4}
        graph = InteractionGraph({u for edge in edges for u in edge}, edges)
        write_edges_tsv(graph, path)
        loaded = read_edges_tsv(path)
        assert calls == {"_edges_from_bytes": 1, "_edges_from_rows": 1}
        assert loaded.ids == graph.ids and _named_rows(loaded) == _named_rows(graph)

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe4\xb8", b"\xc0\x80", b"\xed\xa0\x80"])
    def test_an_id_not_utf8_names_the_file(self, tmp_path, bad):
        # well-formed rows, so only the decode of the distinct ids declines
        data = b"a\tb\t1\nb\tc" + bad + b"\t2\n"
        path = tmp_path / "edges.tsv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        with pytest.raises(InputError, match=f"^{re.escape(f'{path} is not UTF-8 text: {exc.value.reason}')}$"):
            read_edges_tsv(path)


def _read_edges(path, row):
    path.write_text(f"{row}\n")
    read_edges_tsv(path)


def _read_fingerprints(path, row):
    path.write_text(f"# b=64 seed=0\nb\t0\n{row}\n")  # a bad row after a good one
    read_fingerprints_tsv(path)


def _read_candidates(path, row):
    path.write_text(f"# header\n{row}\n")
    read_candidates_tsv(path)


# each reader's name in its error texts, the line of the row, and the row
# fields after the id
TSV_READERS = {
    "edge": (_read_edges, 1, ["z", "1"]),
    "fingerprint": (_read_fingerprints, 3, ["0"]),
    "candidates": (_read_candidates, 2, ["z", "0"]),
}


class TestSharedTsvRules:
    @pytest.mark.parametrize("what", TSV_READERS)
    @pytest.mark.parametrize(
        "uid, error",
        [
            ("", "empty id"),
            (" a", "id ' a' must not begin or end with whitespace"),
            ("a ", "id 'a ' must not begin or end with whitespace"),
            ("a\tb", "expected {count} tab-separated fields"),
        ],
        ids=["empty", "leading-space", "trailing-space", "fields"],
    )
    def test_readers_share_error_texts(self, tmp_path, what, uid, error):
        read, lineno, rest = TSV_READERS[what]
        message = f"{what} line {lineno}: " + error.format(count=1 + len(rest))
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            read(tmp_path / "file.tsv", "\t".join([uid, *rest]))

    def test_odd_ids_round_trip(self, tmp_path):
        # inner spaces, non-ASCII characters and a leading "#" are all ids
        ids = ["#a", "#b c", "b", "in ner", "\u00fc", "\u4e2d\u6587"]
        n = len(ids)
        src, dst = np.arange(n), (np.arange(n) + 1) % n
        order = np.lexsort((dst, src))
        graph = InteractionGraph(arrays=(ids, src[order], dst[order], np.arange(1, n + 1)[order]))
        write_edges_tsv(graph, tmp_path / "edges.tsv")
        loaded = read_edges_tsv(tmp_path / "edges.tsv")
        assert loaded.ids == ids
        for name in ("src", "dst", "weight"):
            assert getattr(loaded, name).tolist() == getattr(graph, name).tolist()

        words = np.arange(n, dtype=np.uint64).reshape(n, 1) * np.uint64(0x0101010101010101)
        write_fingerprints_tsv(Fingerprints(ids, words, 64), 7, tmp_path / "fingerprints.tsv")
        fps, seed = read_fingerprints_tsv(tmp_path / "fingerprints.tsv")
        assert (fps.owners, fps.width, seed) == (ids, 64, 7)
        assert fps.words.tolist() == words.tolist()

        pairs = CandidatePairs.canonical(ids, np.zeros(n - 1, np.int64), np.arange(1, n), np.arange(n - 1))
        write_candidates_tsv(pairs, RunConfig(), tmp_path / "candidates.tsv")
        loaded = read_candidates_tsv(tmp_path / "candidates.tsv")
        assert loaded.users == ids
        for name in ("a", "b", "distance"):
            assert getattr(loaded, name).tolist() == getattr(pairs, name).tolist()


# senders that are valid but odd: ints, a digit string equal to an int,
# inner spaces, and raw characters str.splitlines() would break a line on
ODD_SENDERS = ["a", "b", 0, 1, 5, "5", -3, "in ner", "\u00fc", "x\u2028y", "p\x85q", "f\x0cg", "v\x1dw"]


def _log_lines(rng: random.Random, count: int, wide: float = 0.15) -> list[str]:
    """A random valid JSONL log, each line ending in a line break; a share
    ``wide`` of the message ids lie beyond 64 bits."""
    ids = rng.sample(range(-40, 200), count)
    ids = [mid + 2**64 if rng.random() < wide else mid for mid in ids]
    lines = []
    for mid in ids:
        obj = {"message_id": mid, "sender": rng.choice(ODD_SENDERS)}
        if rng.random() < 0.6:
            obj["reply_to"] = rng.choice(ids) if rng.random() < 0.8 else rng.randrange(-60, 300)
        elif rng.random() < 0.3:
            obj["reply_to"] = None
        if rng.random() < 0.3:
            obj["text"] = "hi\u2028there\r\n"
        items = list(obj.items())
        rng.shuffle(items)
        lines.append(json.dumps(dict(items), ensure_ascii=rng.random() < 0.5) + "\n")
    return lines


def _mutate(rng: random.Random, lines: list[str], kind: str) -> list[str]:
    """``lines`` with one mutation of ``kind``."""
    lines = lines[:]
    i = rng.randrange(len(lines))
    j = rng.randrange(i, len(lines))
    obj = json.loads(lines[i])
    if kind == "blank":
        blanks = ["\n", "   \n", "\x0c\n", "\t\x0c \n", "\u2028\n"]
        lines.insert(i, rng.choice(blanks))
    elif kind == "crlf":
        lines = [line[:-1] + "\r\n" for line in lines]
    elif kind == "bom":
        lines[i] = "\ufeff" + lines[i]
    elif kind == "padded":
        # json.loads skips only " \t\n\r"; str.strip would also take the rest
        pads = [" \t", "\r ", "\x0c", "\xa0", "\u2028", "\x1c"]
        lines[i] = rng.choice(pads) + lines[i][:-1] + rng.choice(pads) + "\n"
    elif kind == "json_space":
        # a blank line and a pad of only the whitespace json.loads skips
        lines[i] = rng.choice([" \t", "\r "]) + lines[i][:-1] + rng.choice([" \t", "\r "]) + "\n"
        lines.insert(j, rng.choice(["\n", "   \n", "\t\r\n"]))
    elif kind == "two_values" and i + 1 < len(lines):
        lines[i : i + 2] = [lines[i][:-1] + " " + lines[i + 1]]
    elif kind == "spanning":
        head, _, tail = lines[i].partition(", ")
        lines[i : i + 1] = [head + ",\n", tail] if tail else [head]
    elif kind == "bool":
        obj[rng.choice(["message_id", "sender", "reply_to"])] = rng.choice([True, False])
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "duplicate":
        obj["message_id"] = json.loads(lines[j])["message_id"]
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "error_then_undecodable":
        del obj["sender"]
        lines[i] = json.dumps(obj) + "\n"
        lines.insert(j + 1, '{"message_id": 1, "sender"\n')
    elif kind == "bad_value":
        obj[rng.choice(["message_id", "sender", "reply_to"])] = rng.choice(
            [1.0, "", "a\tb", "7", [1], {}, "x\ny", " pad", "pad\xa0"]
        )
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "unterminated":
        # json.loads words this error by what follows the open string
        lines[i] = lines[i].rstrip("\r\n").rsplit('"', 1)[0] + "\n"
    elif kind == "not_object":
        lines[i] = rng.choice(["[1, 2]\n", '"m"\n', "3\n", "null\n"])
    # valid lines whose values some JSON decoders reject or misread
    elif kind == "nan":
        obj["score"] = rng.choice([float("nan"), float("inf"), float("-inf")])
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "surrogate":
        obj["text"] = "\udc00"
        lines[i] = json.dumps(obj) + "\n"
    elif kind in ("wide_field", "huge_field"):
        # an integer outside [-2**63, 2**64), or beyond the float range
        obj["views"] = rng.choice([2**64, -(2**63) - 1, 10**30]) if kind == "wide_field" else 10**400
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "wide_sender":
        obj["sender"] = rng.choice([2**64, 2**64 + 5, -(2**63) - 1])
        lines[i] = json.dumps(obj) + "\n"
    elif kind == "int_senders":
        # every sender an integer, and one the text of an integer: 5 and "5"
        # are one user
        lines = [json.dumps(json.loads(line) | {"sender": rng.randrange(-3, 9)}) + "\n" for line in lines]
        lines.insert(i, '{"message_id": 1000, "sender": "5", "reply_to": 5}\n')
    elif kind in ("chars_1000", "chars_1001"):
        # a line of 1,000 or 1,001 characters, its line break counted
        obj["text"] = ""
        obj["text"] = "x" * (int(kind[-4:]) - len(json.dumps(obj)) - 1)
        lines[i] = json.dumps(obj) + "\n"
        assert len(lines[i]) == int(kind[-4:])
    elif kind == "deep":
        # json stops near its recursion limit
        depth = rng.choice([300, 600, 2000])
        lines[i] = json.dumps(obj)[:-1] + ', "x": ' + "[" * depth + "]" * depth + "}\n"
    return lines


def _outcome(parse, lines):
    try:
        return list(parse(lines))
    except Exception as exc:
        return type(exc), str(exc)


MUTATIONS = [
    "none", "blank", "crlf", "bom", "padded", "two_values", "spanning", "bool",
    "duplicate", "error_then_undecodable", "bad_value", "unterminated", "not_object",
    "json_space", "int_senders",
]


class TestColumnarParser:
    """The message parser against the per-line reference in tests/reference.py."""

    @pytest.mark.parametrize("kind", [
        "nan", "surrogate", "wide_field", "huge_field", "wide_sender", "deep",
        "json_space", "int_senders", "chars_1000", "chars_1001",
    ])
    def test_lines_orjson_cannot_read_exactly_match_reference(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        for seed in range(10):
            rng = random.Random(f"orjson-{kind}-{seed}")
            lines = _mutate(rng, _log_lines(rng, rng.randrange(2, 30), wide=0), kind)
            expected = _outcome(reference.parse_messages, lines)
            assert _outcome(parse_messages, lines) == expected, (seed, lines)
            path.write_text("".join(lines), encoding="utf-8", newline="")
            assert _outcome(parse_messages_path, path) == expected, (seed, lines)

    @pytest.mark.parametrize("log, bad_line", [
        ('{"message_id": 1,\r"sender": "a"}\n{"message_id": 2, "sender": "b", "reply_to": 1}\n', None),
        ('{"message_id": 1,\r"sender": "a"}\n{"message_id": 2, "sender"\n', 2),
    ], ids=["valid", "bad_line_after"])
    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_lone_cr_does_not_split_a_line(self, tmp_path, log, bad_line, source):
        # "\r" is JSON whitespace; the log splits on "\n" alone, as the list
        # API reads it, so both give the same records or the same line number
        expected = _outcome(parse_messages, log.split("\n"))
        if bad_line is None:
            assert len(expected) == 2
        else:
            assert expected[0] is InputError and f"at line {bad_line}:" in expected[1]
        path = tmp_path / "log.jsonl"
        if source == "file":
            path.write_text(log, encoding="utf-8", newline="")
            assert _outcome(parse_messages_path, path) == expected
            return
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(log,), kwargs={"encoding": "utf-8", "newline": ""})
        writer.start()
        try:
            assert _outcome(parse_messages_path, path) == expected
        finally:
            writer.join()

    @pytest.mark.parametrize("kind", MUTATIONS)
    def test_same_records_or_same_error_as_reference(self, kind):
        for seed in range(25):
            rng = random.Random(f"{kind}-{seed}")
            lines = _mutate(rng, _log_lines(rng, rng.randrange(2, 40)), kind)
            expected = _outcome(reference.parse_messages, lines)
            assert _outcome(parse_messages, lines) == expected, (seed, lines)

    @pytest.mark.parametrize(
        "kind", ["none", "crlf", "blank", "json_space", "int_senders", "spanning", "error_then_undecodable",
                 "unterminated"]
    )
    def test_file_path_matches_reference(self, tmp_path, kind):
        path = tmp_path / "log.jsonl"
        for seed in range(10):
            rng = random.Random(f"file-{kind}-{seed}")
            lines = _mutate(rng, _log_lines(rng, rng.randrange(2, 30)), kind)
            path.write_text("".join(lines), encoding="utf-8", newline="")
            with open(path, encoding="utf-8") as fh:
                expected = _outcome(reference.parse_messages, fh)
            assert _outcome(parse_messages_path, path) == expected, (seed, lines)

    @pytest.mark.parametrize("bad", [
        '{"message_id": 1, "sender": "late"}\n',  # a duplicate of line 2
        '{"message_id": 99999, "sender": true}\n',
        '{"message_id": 99999, "sender"\n',
        "[1]\n",
    ], ids=["duplicate", "bool", "unterminated", "not_object"])
    def test_file_error_past_the_read_buffer_matches_lines(self, tmp_path, bad):
        # the byte pass reads well past the bad line, beyond the reader's
        # first 64 KiB, before it declines; the per-line pass must still
        # start again from line 1
        lines = [f'{{"message_id": {k}, "sender": "u{k % 50}", "reply_to": {k - 1}}}\n' for k in range(2000)]
        lines.insert(1500, bad)
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        assert len("".join(lines[:1500]).encode()) > 1 << 16
        expected = _outcome(parse_messages, lines)
        assert expected[0] is InputError and "line 1501" in expected[1]
        assert _outcome(parse_messages_path, path) == expected

    @pytest.mark.parametrize("bad", [None, '{"message_id": 1, "sender": "late"}\n', "[1]\n"],
                             ids=["valid", "duplicate", "not_object"])
    def test_pipe_gives_the_texts_of_lines(self, tmp_path, bad):
        # a named pipe cannot be read twice, so a bad line in one must still
        # be named by its number, not by the failed rewind
        lines = [f'{{"message_id": {k}, "sender": "u{k % 50}", "reply_to": {k - 1}}}\n' for k in range(2000)]
        if bad:
            lines.insert(1500, bad)
        path = tmp_path / "log.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("".join(lines),), kwargs={"encoding": "utf-8"})
        writer.start()
        try:
            outcome = _outcome(parse_messages_path, path)
        finally:
            writer.join()
        assert outcome == _outcome(parse_messages, lines)
        assert (outcome[0] is InputError and "line 1501" in outcome[1]) if bad else len(outcome) == 2000

    def test_file_is_parsed_in_bounded_memory(self, tmp_path):
        # 100k messages, 10 MB on disk, from 3,000 senders: the lines are
        # decoded as they are read and the senders share one string each, so
        # the columns are all that is held (about 17 MB at the peak, against
        # 35 MB when the lines were read into a list first)
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(100_000):
                fh.write(json.dumps({"message_id": k, "sender": f"user{k % 3000}", "reply_to": k // 2,
                                     "text": "see you at the meeting tomorrow"}) + "\n")
        tracemalloc.start()
        try:
            log = parse_messages_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert len(log) == 100_000 and len(set(map(id, log.sender))) == 3000

    def test_pipe_is_parsed_in_bounded_memory(self, tmp_path):
        # the log above through a named pipe, which cannot be read twice:
        # its lines stream through the per-line pass as a file's do, held in
        # no list; the writer's bytes are encoded before tracing starts
        data = "".join(
            json.dumps({"message_id": k, "sender": f"user{k % 3000}", "reply_to": k // 2,
                        "text": "see you at the meeting tomorrow"}) + "\n"
            for k in range(100_000)
        ).encode()
        path = tmp_path / "log.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        tracemalloc.start()
        try:
            log = parse_messages_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert peak < 20 * 2**20
        assert len(log) == 100_000 and len(set(map(id, log.sender))) == 3000

    def test_canonical_file_is_parsed_in_bounded_memory(self, tmp_path):
        # the same log without "text", in the canonical shape: the byte pass
        # reads it a chunk at a time and holds int64 columns, and the sender
        # list built on first read shares one string per sender
        path = tmp_path / "log.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(100_000):
                fh.write(json.dumps({"message_id": k, "sender": f"user{k % 3000}", "reply_to": k // 2}) + "\n")
        tracemalloc.start()
        try:
            log = parse_messages_path(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log.arrays is not None
        assert peak < 20 * 2**20
        assert len(log) == 100_000 and len(set(map(id, log.sender))) == 3000

    def test_lines_without_line_breaks(self):
        lines = ['{"message_id": 1, "sender": "a"}', "", '{"message_id": 2, "sender": "b", "reply_to": 1}']
        assert list(parse_messages(lines)) == reference.parse_messages(lines)

    def test_message_log_of_records_round_trips(self):
        records = _random_messages(seed=4, count=50, users=6)
        log = reference.message_log(records)
        assert len(log) == 50 and list(log) == records


# valid senders for canonical lines: multi-byte and 4-byte UTF-8, 1,000
# bytes, inner spaces, digits, and the texts around a sender without quotes
CANONICAL_SENDERS = [
    "u1", "u22", "abcd1", "abcd2", "a b", "5", "007", "ключ", "日本語",
    "\U0001d11e", "\U0001f642x", "é", "a" * 1000, "é" * 500, "x}, 5", ": 7}", "reply_to",
    "{", "x y", "\x7f",
]
# one line of a canonical log rewritten so that the byte pass declines it
BYTE_DECLINES = [
    "compact", "swapped", "extra_key", "escaped_quote", "escaped_e", "null_reply", "int_sender",
    "leading_zero", "reply_leading_zero", "negative", "nineteen_digits", "reply_nineteen_digits",
    "crlf", "blank", "padded_sender", "empty_sender", "not_utf8", "renamed_id_key",
    "renamed_sender_key", "renamed_reply_key", "bad_close",
]


def _canonical(obj: dict, **dumps) -> str:
    return json.dumps(obj, ensure_ascii=False, **dumps) + "\n"


def _canonical_log(rng: random.Random) -> list[dict]:
    """Messages in the shape of a canonical log: ids increasing, shuffled
    or repeated, up to 18 digits and 0 among them, and replies that resolve,
    dangle or answer the sender's own message."""
    count = rng.randrange(1, 40)
    ids = rng.choice([
        lambda: list(range(1, count + 1)),
        lambda: rng.sample(range(0, 3 * count), count),
        lambda: [rng.randrange(10**18) for _ in range(count)],
    ])()
    if rng.random() < 0.1:
        ids[rng.randrange(count)] = rng.choice(ids)
    messages = []
    for mid in ids:
        obj = {"message_id": mid, "sender": rng.choice(CANONICAL_SENDERS[: rng.randrange(2, len(CANONICAL_SENDERS))])}
        roll = rng.random()
        if roll < 0.5:
            obj["reply_to"] = rng.choice(ids)
        elif roll < 0.6:
            obj["reply_to"] = rng.randrange(10**18)  # dangling
        elif roll < 0.7 and messages:
            same = [m["message_id"] for m in messages if m["sender"] == obj["sender"]]
            if same:
                obj["reply_to"] = rng.choice(same)  # a self-reply
        messages.append(obj)
    return messages


def _declined(rng: random.Random, lines: list[str], messages: list[dict], kind: str) -> list[str]:
    """``lines`` with line i rewritten by ``kind``."""
    lines = lines[:]
    i = rng.randrange(len(lines))
    obj = dict(messages[i])
    if kind == "compact":
        lines[i] = _canonical(obj, separators=(",", ":"))
    elif kind == "swapped":
        lines[i] = _canonical({"sender": obj.pop("sender"), **obj})
    elif kind == "extra_key":
        lines[i] = _canonical({**obj, "text": "hi"})
    elif kind == "escaped_quote":
        lines[i] = _canonical({**obj, "sender": 'a"b'})
    elif kind == "escaped_e":
        lines[i] = json.dumps({**obj, "sender": "é"}) + "\n"
    elif kind == "null_reply":
        lines[i] = _canonical({**obj, "reply_to": None})
    elif kind == "int_sender":
        lines[i] = _canonical({**obj, "sender": rng.randrange(100)})
    elif kind == "leading_zero":
        lines[i] = lines[i].replace('"message_id": ', '"message_id": 0', 1)
    elif kind == "reply_leading_zero":
        lines[i] = _canonical({**obj, "reply_to": 7}).replace('"reply_to": 7', '"reply_to": 07')
    elif kind == "negative":
        lines[i] = _canonical({**obj, "message_id": -rng.randrange(1, 50)})
    elif kind == "nineteen_digits":
        lines[i] = _canonical({**obj, "message_id": rng.choice([10**18, 2**63 - 1, 2**63, 10**19 - 1])})
    elif kind == "reply_nineteen_digits":
        lines[i] = _canonical({**obj, "reply_to": rng.choice([10**18, 2**63 - 1, 2**63, 10**19 - 1])})
    elif kind.startswith("renamed_"):
        # a key of the same length spelled otherwise: each fixed text is read
        key = {"id": "message_id", "sender": "sender", "reply": "reply_to"}[kind.split("_")[1]]
        lines[i] = _canonical({**obj, "reply_to": obj.get("reply_to", obj["message_id"])}).replace(f'"{key}"', f'"{key.upper()}"')
    elif kind == "bad_close":
        lines[i] = lines[i][:-2] + rng.choice(["]", " ", "},"]) + "\n"
    elif kind == "crlf":
        lines = [line[:-1] + "\r\n" for line in lines]
    elif kind == "blank":
        lines.insert(i, "\n")
    elif kind == "padded_sender":
        lines[i] = _canonical({**obj, "sender": rng.choice([" a", "a ", "a\xa0", "\u2028a"])})
    elif kind == "empty_sender":
        lines[i] = _canonical({**obj, "sender": ""})
    return lines


def _reference_ingest(path) -> tuple:
    """What tests/reference.py reads from the file: the records, nodes,
    edges and dropped counts, or the error's type and text."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        return InputError, f"{path} is not UTF-8 text: {exc.reason}"
    with open(path, encoding="utf-8", newline="\n") as fh:
        try:
            records = reference.parse_messages(fh)
        except InputError as exc:
            return InputError, str(exc)
    return (records, *reference.reply_graph(records))


def _ingested(path) -> tuple:
    """``_reference_ingest`` through ``parse_messages_path`` and
    ``build_interaction_graph``."""
    try:
        log = parse_messages_path(path)
    except InputError as exc:
        return InputError, str(exc)
    dropped: Counter[str] = Counter()
    graph = build_interaction_graph(log, dropped)
    assert graph.ids == sorted(graph.nodes)
    assert graph.src.dtype == graph.dst.dtype == graph.weight.dtype == np.int64
    return list(log), graph.nodes, graph.edges, dropped


class TestMessageBytePass:
    """``parse_messages_path`` reads a canonical log as bytes, a chunk at a
    time, and hands whatever it declines to the per-line pass."""

    @staticmethod
    def _spied(monkeypatch) -> list[str]:
        calls = []
        real_bytes, real_records = ingest._messages_from_bytes, ingest._checked_records

        def bytes_pass(fh):
            try:
                log = real_bytes(fh)
            except ValueError:
                calls.append("bytes declined")
                raise
            calls.append("bytes")
            return log

        def record_pass(*args):
            calls.append("records")
            return real_records(*args)

        monkeypatch.setattr(ingest, "_messages_from_bytes", bytes_pass)
        monkeypatch.setattr(ingest, "_checked_records", record_pass)
        return calls

    def test_seeded_logs_read_as_the_reference(self, tmp_path, monkeypatch):
        calls = self._spied(monkeypatch)
        path, taken = tmp_path / "log.jsonl", Counter()
        for seed in range(400):
            rng = random.Random(f"bytes-{seed}")
            messages = _canonical_log(rng)
            lines = [_canonical(m) for m in messages]
            kind = rng.choice(["canonical"] * len(BYTE_DECLINES) + BYTE_DECLINES)
            data = "".join(_declined(rng, lines, messages, kind)).encode()
            if kind == "not_utf8":
                bad = rng.choice([b"\xff", b"\xe4\xb8", b"\xc0\x80", b"\xed\xa0\x80"])
                data += b'{"message_id": 1000, "sender": "a' + bad + b'"}\n'
            if rng.random() < 0.2:
                data = data[:-1]  # no line break after the last line
            path.write_bytes(data)
            # chunks that cut lines, 1,000-byte senders among them
            monkeypatch.setattr(ingest, "_CHUNK", rng.choice([1, 7, 64, 333, 4096]))
            calls.clear()
            assert _ingested(path) == _reference_ingest(path), (seed, kind, data)
            assert calls[0] in ("bytes", "bytes declined") and calls.count(calls[0]) == 1
            taken[calls[0]] += 1
        assert min(taken.values()) >= 150, taken

    def test_benchmark_shaped_log_takes_the_byte_pass_alone(self, tmp_path, monkeypatch):
        # the shape benchmarks/corpora.py writes: one root message per user,
        # then the replies, a few to a missing message or to the sender's own
        rng = random.Random(5)
        users = [f"user{k}" for k in range(300)]
        lines = [json.dumps({"message_id": k + 1, "sender": uid}) + "\n" for k, uid in enumerate(users)]
        for mid in range(len(users) + 1, 3000):
            src = rng.randrange(len(users))
            target = rng.choice([rng.randrange(1, len(users) + 1), src + 1, 10**6])
            lines.append(json.dumps({"message_id": mid, "sender": users[src], "reply_to": target}) + "\n")
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        monkeypatch.setattr(ingest, "_CHUNK", 4096)
        calls = self._spied(monkeypatch)
        got = _ingested(path)
        assert calls == ["bytes"]
        assert got == _reference_ingest(path)
        assert got[3]["dangling"] > 0 and got[3]["self"] > 0

    def test_declined_log_takes_the_orjson_pass_once(self, tmp_path, monkeypatch):
        lines = [json.dumps({"message_id": k, "sender": f"u{k % 7}", "reply_to": k // 2}, separators=(",", ":")) + "\n"
                 for k in range(1, 500)]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        calls = self._spied(monkeypatch)
        got = _ingested(path)
        assert calls == ["bytes declined", "records"]
        assert got == _reference_ingest(path)

    @pytest.mark.parametrize("prefix", [0, 1], ids=["every-sender", "first-byte"])
    def test_colliding_hashes_read_the_exact_log(self, tmp_path, monkeypatch, prefix):
        # every sender hashed to one value, or by its first byte alone, so
        # senders of one length and of several share a hash; only the byte
        # proof tells them apart
        real = ingest.fnv1a64

        def hashed_prefix(state, data, starts, lengths):
            real(state, data, starts, np.minimum(lengths, prefix))

        monkeypatch.setattr(ingest, "fnv1a64", hashed_prefix)
        calls = self._spied(monkeypatch)
        senders = ["x1", "x2", "x33", "y", "x1", "z"]
        lines = [_canonical({"message_id": k + 1, "sender": s, "reply_to": k}) for k, s in enumerate(senders)]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        got = _ingested(path)
        assert calls == ["bytes declined", "records"]
        assert got == _reference_ingest(path)
        assert [r.sender for r in got[0]] == senders

    def test_columns_stay_arrays_until_read(self, tmp_path):
        lines = [_canonical({"message_id": 3, "sender": "b"}), _canonical({"message_id": 1, "sender": "a", "reply_to": 3})]
        path = tmp_path / "log.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        log = parse_messages_path(path)
        arrays = log.arrays
        assert arrays.names == ["a", "b"] and arrays.sender.tolist() == [1, 0]
        assert arrays.message_id.tolist() == [3, 1] and arrays.reply_to.tolist() == [-1, 3]
        assert arrays.by_id.tolist() == [1, 0]
        assert "sender" not in vars(log) and len(log) == 2
        assert log.sender == ["b", "a"] and log.reply_to == [None, 3] and log.message_id == [3, 1]
        assert log == reference.message_log(reference.parse_messages(lines))


class TestOddValues:
    def test_huge_and_negative_message_ids(self):
        lines = [
            json.dumps({"message_id": 2**64, "sender": "a"}),
            json.dumps({"message_id": -(2**70), "sender": "b", "reply_to": 2**64}),
            json.dumps({"message_id": -1, "sender": "c", "reply_to": -(2**70)}),
            json.dumps({"message_id": 2**63, "sender": "c", "reply_to": 2**64 + 1}),
        ]
        records = parse_messages(lines)
        assert list(records) == reference.parse_messages(lines)
        dropped: Counter[str] = Counter()
        graph = build_interaction_graph(records, dropped=dropped)
        assert graph.edges == {("b", "a"): 1, ("c", "b"): 1}
        assert dropped == {"dangling": 1}

    def test_bool_beside_an_equal_int_is_rejected(self):
        # True == 1 and False == 0, so a set of values alone cannot tell them apart
        for field, first in (("sender", 1), ("message_id", 1)):
            lines = [
                json.dumps({"message_id": 2, "sender": "a", field: first}),
                json.dumps({"message_id": 3, "sender": "b", field: True}),
            ]
            with pytest.raises(InputError, match=f"{field} must be .*at line 2"):
                parse_messages(lines)

    def test_int_and_string_sender_are_one_user(self):
        lines = [
            '{"message_id": 1, "sender": 5}',
            '{"message_id": 2, "sender": "5"}',
            '{"message_id": 3, "sender": "x", "reply_to": 1}',
            '{"message_id": 4, "sender": "x", "reply_to": 2}',
        ]
        graph = build_interaction_graph(parse_messages(lines))
        assert graph.ids == ["5", "x"]
        assert graph.edges == {("x", "5"): 2}

    def test_edge_weight_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text(f"a\tb\t1\nc\td\t{2**63}\n")
        with pytest.raises(InputError, match="edge line 2: weight 9223372036854775808 does not fit"):
            read_edges_tsv(path)
        with pytest.raises(InputError, match="edge weight does not fit in 64 bits"):
            InteractionGraph(nodes={"a", "b"}, edges={("a", "b"): 2**63})

    def test_weight_sum_past_int64_does_not_wrap(self):
        graph = InteractionGraph(nodes={"u", "x", "y"}, edges={("u", "x"): 2**62, ("u", "y"): 2**62})
        assert graph.weight.dtype == np.int64
        with pytest.raises(InputError, match=f"edge weights sum to {2**63}, beyond"):
            build_feature_maps(graph, RunConfig())


def _random_messages(seed: int, count: int, users: int) -> list[MessageRecord]:
    rng = random.Random(seed)
    records = []
    for mid in range(1, count + 1):
        sender = f"u{rng.randrange(users)}"
        reply_to = None
        if mid > 1 and rng.random() < 0.6:
            # occasionally point outside the corpus
            reply_to = rng.randrange(1, count + 20)
        records.append(MessageRecord(mid, sender, reply_to))
    return records
