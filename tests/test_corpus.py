"""Corpus data model, file formats, and sampling helpers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import corpus
from dialact.corpus import (_MISSING_VALUE, Conversation, CorpusError,
                            FeatureSchema, FeatureVector, Hypothesis,
                            NBestList, TagSet, Utterance, content_lines,
                            default_tagset, downsample_uniform,
                            jackknife_split, load_tagset, located,
                            parse_conversations, parse_nbest, parse_prosody,
                            save_tagset, serialize_conversations,
                            serialize_nbest, serialize_prosody,
                            symmetrize_speakers)


def mk_conv(conv_id, rows):
    return Conversation(conv_id, tuple(
        Utterance(i, spk, lab, tuple(words.split()))
        for i, (spk, lab, words) in enumerate(rows)))


# ---------------------------------------------------------------------------
# Tag sets
# ---------------------------------------------------------------------------

def test_tagset_basics():
    ts = TagSet(("S", "Q", "B"))
    assert len(ts) == 3
    assert "Q" in ts
    assert "X" not in ts
    assert ts.collapse("Q") == "Q"


def test_tagset_collapsed_classes():
    ts = TagSet(("S", "Other"), collapsed=(("Other", ("Oh", "Um")),))
    assert ts.collapse("Oh") == "Other"
    assert ts.collapse("Um") == "Other"
    assert ts.collapse("S") == "S"
    assert "Oh" in ts


def test_tagset_rejects_duplicates_and_whitespace():
    with pytest.raises(CorpusError):
        TagSet(("S", "S"))
    with pytest.raises(CorpusError):
        TagSet(("a label",))
    with pytest.raises(CorpusError):
        TagSet(())


@pytest.mark.parametrize("token", ["<start>", "<end>", "-"])
def test_reserved_tokens_are_not_labels(tmp_path, token):
    # a bare label is a discourse grammar token (--variant da_only), and
    # the first two are the grammar's conversation start and end; a corpus
    # reads "-" as an unlabeled act
    with pytest.raises(CorpusError, match=f"reserved label '{token}'"):
        TagSet(("S", token, "Q"))
    path = tmp_path / "tags.txt"
    path.write_text(f"S\n# note\n{token}\nQ\n")
    with pytest.raises(CorpusError,
                       match=f"tags.txt:3: reserved label '{token}'"):
        load_tagset(path)
    # a collapsed member never becomes a grammar token
    path.write_text(f"S\ncollapse S {token}\n")
    assert load_tagset(path).collapse(token) == "S"


def test_tagset_collapse_unknown_label():
    with pytest.raises(CorpusError):
        TagSet(("S",)).collapse("nope")


def test_tagset_lookups_match_a_scan_of_labels_and_members():
    def scan(ts, label):
        """The class of ``label`` by a scan of the labels, then of each
        class's members, in order; None if no label or member matches."""
        if label in ts.labels:
            return label
        return next((cls for cls, members in ts.collapsed
                     if label in members), None)

    labels = default_tagset().labels
    folded = tuple((labels[i], tuple(f"m{i}-{k}" for k in range(i % 3 + 1)))
                   for i in range(0, len(labels), 5))
    ts = TagSet(labels, folded)
    members = [m for _, ms in folded for m in ms]
    for label in [*labels, *members, "nope", "m1-0", "Statement ", ""]:
        want = scan(ts, label)
        assert (label in ts) == (want is not None), label
        if want is None:
            with pytest.raises(CorpusError) as exc:
                ts.collapse(label)
            assert str(exc.value) == f"label {label!r} not in tag set"
        else:
            assert ts.collapse(label) == want, label
    # the lookup table takes no part in equality, hashing or the repr
    same = TagSet(labels, folded)
    assert same == ts and hash(same) == hash(ts)
    assert repr(ts) == f"TagSet(labels={labels!r}, collapsed={folded!r})"
    assert TagSet(labels) != ts
    # a copy with other members builds its own table
    assert "m0-0" not in dataclasses.replace(ts, collapsed=())


def test_default_tagset_has_42_labels():
    ts = default_tagset()
    assert len(ts) == 42
    assert "Statement" in ts.labels
    assert "Backchannel/Acknowledge" in ts.labels
    # single tokens: needed for whitespace-separated model files
    assert all(lab.split() == [lab] for lab in ts.labels)


def test_tagset_file_round_trip(tmp_path):
    ts = TagSet(("S", "Q", "B/ACK"))
    path = tmp_path / "tags.txt"
    save_tagset(ts, path)
    assert load_tagset(path).labels == ts.labels


def test_tagset_collapse_lines_round_trip(tmp_path):
    ts = TagSet(("S", "Other", "Q"),
                collapsed=(("Other", ("Oh", "Um")), ("Q", ("Qy",))))
    path = tmp_path / "tags.txt"
    save_tagset(ts, path)
    assert load_tagset(path) == ts
    path.write_text("# folded\nS\ncollapse Other Oh\nOther\n"
                    "collapse\tOther\tUm\n")
    assert load_tagset(path).collapse("Um") == "Other"


@pytest.mark.parametrize("text,lineno", [
    ("S\ncollapse S\n", 2),
    ("S\ncollapse S a b\n", 2),
    ("S Q\n", 1),
    ("S\n\nS\n", 3),
    ("S\ncollapse Q a\n", 2),
    ("S\nQ\ncollapse S Q\n", 3),
    ("S\ncollapse S a\ncollapse S a\n", 3),
])
def test_tagset_malformed_lines_name_file_and_line(tmp_path, text, lineno):
    path = tmp_path / "tags.txt"
    path.write_text(text)
    with pytest.raises(CorpusError, match=f"tags.txt:{lineno}:"):
        load_tagset(path)


# ---------------------------------------------------------------------------
# Conversations
# ---------------------------------------------------------------------------

def test_conversation_requires_contiguous_indices():
    with pytest.raises(CorpusError):
        Conversation("c", (Utterance(1, "A", "S", ("hi",)),))


def test_utterance_speaker_validated():
    with pytest.raises(CorpusError):
        Utterance(0, "C", "S", ("hi",))


def test_conversation_round_trip(tmp_path):
    convs = [mk_conv("c1", [("A", "S", "hello there"), ("B", None, ""),
                            ("A", "Q", "you ok")]),
             mk_conv("c2", [("B", "B", "uh-huh")])]
    path = tmp_path / "corpus.tsv"
    serialize_conversations(convs, path)
    back = parse_conversations(path, TagSet(("S", "Q", "B")))
    assert back == convs


def test_parse_conversations_rejects_unknown_label(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("c1\t0\tA\tNope\thi\n")
    with pytest.raises(CorpusError):
        parse_conversations(path, TagSet(("S",)))


def test_parse_conversations_rejects_interleaving(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("c1\t0\tA\tS\thi\nc2\t0\tB\tS\tyo\nc1\t1\tB\tS\tback\n")
    with pytest.raises(CorpusError):
        parse_conversations(path, TagSet(("S",)))


def test_parse_conversations_rejects_index_gap(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("c1\t0\tA\tS\thi\nc1\t2\tB\tS\tyo\n")
    with pytest.raises(CorpusError):
        parse_conversations(path, TagSet(("S",)))


def test_parse_conversations_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("# header\n\nc1\t0\tA\tS\thi\n")
    convs = parse_conversations(path, TagSet(("S",)))
    assert len(convs) == 1 and convs[0].utterances[0].words == ("hi",)


conv_rows = st.lists(
    st.tuples(st.sampled_from(["A", "B"]),
              st.sampled_from(["S", "Q", None]),
              st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=4),
                       max_size=4).map(" ".join)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(conv_rows, min_size=1, max_size=4))
def test_conversation_round_trip_random(tmp_path_factory, rows_per_conv):
    convs = [mk_conv(f"c{i}", rows) for i, rows in enumerate(rows_per_conv)]
    path = tmp_path_factory.mktemp("rt") / "c.tsv"
    serialize_conversations(convs, path)
    assert parse_conversations(path, TagSet(("S", "Q"))) == convs


# ---------------------------------------------------------------------------
# N-best lists
# ---------------------------------------------------------------------------

def test_reserved_start_word_names_file_and_line(tmp_path):
    # "<start>" is the n-gram models' sentence-start padding
    conv = tmp_path / "c.tsv"
    conv.write_text("c1\t0\tA\tS\thi there\n# note\n"
                    "c1\t1\tB\tS\tso <start> we\n")
    with pytest.raises(CorpusError, match=r"c\.tsv:3: reserved word '<start>'"):
        parse_conversations(conv)
    nbest = tmp_path / "n.tsv"
    nbest.write_text("c1\t0\t1\t-1.0\thi\nc1\t0\t2\t-2.0\t<start> hi\n")
    with pytest.raises(CorpusError, match=r"n\.tsv:2: reserved word '<start>'"):
        parse_nbest(nbest)
    # only a whole word is reserved
    conv.write_text("c1\t0\tA\tS\t<start>s start\n")
    assert parse_conversations(conv)[0].utterances[0].words == ("<start>s",
                                                                "start")


def test_reserved_end_word_names_file_and_line(tmp_path):
    # "<end>" is the n-gram models' sentence-end event
    conv = tmp_path / "c.tsv"
    conv.write_text("c1\t0\tA\tS\thi\nc1\t1\tB\tS\tso we <end>\n")
    with pytest.raises(CorpusError, match=r"c\.tsv:2: reserved word '<end>'"):
        parse_conversations(conv)
    nbest = tmp_path / "n.tsv"
    nbest.write_text("c1\t0\t1\t-1.0\thi <end> there\n")
    with pytest.raises(CorpusError, match=r"n\.tsv:1: reserved word '<end>'"):
        parse_nbest(nbest)
    conv.write_text("c1\t0\tA\tS\t<end>s end\n")
    assert parse_conversations(conv)[0].utterances[0].words == ("<end>s", "end")


def test_nbest_round_trip(tmp_path):
    table = {("c1", 0): NBestList((Hypothesis(("a", "b"), -1.5),
                                   Hypothesis(("a",), -2.25))),
             ("c1", 1): NBestList((Hypothesis((), 0.0),))}
    path = tmp_path / "n.tsv"
    serialize_nbest(table, path)
    assert parse_nbest(path) == table


def test_readers_keep_one_string_per_distinct_token(tmp_path):
    corpus_path, nbest_path = tmp_path / "c.tsv", tmp_path / "n.tsv"
    corpus_path.write_text("c1\t0\tA\tS\tso we did\nc1\t1\tB\tS\tand so\n")
    nbest_path.write_text("c1\t0\t1\t-1.0\tso we\nc1\t1\t1\t-2.0\tyes so\n")
    first, second = parse_conversations(corpus_path)[0]
    assert first.words[0] is second.words[1]
    assert first.da_label is second.da_label
    table = parse_nbest(nbest_path)
    (a, _), (b, _) = table
    assert a is b
    assert table[a, 0].first.words[0] is table[b, 1].first.words[1]


def test_nbest_rank_gap_rejected(tmp_path):
    path = tmp_path / "n.tsv"
    path.write_text("c1\t0\t1\t-1.0\ta\nc1\t0\t3\t-2.0\tb\n")
    with pytest.raises(CorpusError):
        parse_nbest(path)


def test_nbest_truncation(tmp_path):
    table = {("c1", 0): NBestList(tuple(
        Hypothesis((f"w{r}",), -float(r)) for r in range(1, 6)))}
    path = tmp_path / "n.tsv"
    serialize_nbest(table, path)
    cut = parse_nbest(path, max_hyps=2)
    assert len(cut[("c1", 0)]) == 2
    assert cut[("c1", 0)].first.words == ("w1",)


@pytest.mark.parametrize("max_hyps", [0, -1])
def test_nbest_truncation_below_one_rejected(tmp_path, max_hyps):
    path = tmp_path / "n.tsv"
    path.write_text("c1\t0\t1\t-1.0\ta\nc1\t0\t2\t-2.0\tb\n")
    with pytest.raises(ValueError, match="max_hyps must be >= 1"):
        parse_nbest(path, max_hyps=max_hyps)


def test_empty_nbest_rejected():
    with pytest.raises(CorpusError):
        NBestList(())


def test_attach_nbest_leaves_missing_utterances_alone(tmp_path):
    conv = mk_conv("c1", [("A", "S", "hi"), ("B", "S", "yo")])
    nb = {("c1", 0): NBestList((Hypothesis(("hi",), -1.0),))}
    serialize_conversations([conv], tmp_path / "c.tsv")
    out = parse_conversations(tmp_path / "c.tsv", nbest=nb)[0]
    assert out.utterances[0].nbest == nb[("c1", 0)]
    assert out.utterances[1].nbest is None


# ---------------------------------------------------------------------------
# Prosodic features
# ---------------------------------------------------------------------------

def test_prosody_round_trip(tmp_path):
    schema = FeatureSchema(("f0", "gender"), ("continuous", "categorical"))
    table = {("c1", 0): FeatureVector({"f0": 1.5, "gender": "f"}),
             ("c1", 1): FeatureVector({"f0": None, "gender": "m"})}
    path = tmp_path / "p.tsv"
    serialize_prosody(schema, table, path)
    schema2, table2 = parse_prosody(path)
    assert schema2 == schema
    assert table2 == table


def test_prosody_file_round_trips_byte_identical(tmp_path):
    schema = FeatureSchema(("f0", "energy", "gender", "gone"),
                           ("continuous", "continuous", "categorical",
                            "continuous"))
    table = {("c1", i): FeatureVector({
        "f0": [0.1, -0.0, 1e-300, None, 123456.789][i],
        "energy": [2.0, 1 / 3, None, -7.25, 5e22][i],
        "gender": ["f", None, "m", "f", "x y"][i], "gone": None})
        for i in range(5)}
    table[("c0", 2)] = FeatureVector({"f0": 3.5, "energy": 0.0,
                                      "gender": "m", "gone": None})
    first, again = tmp_path / "p.tsv", tmp_path / "again.tsv"
    serialize_prosody(schema, table, first)
    schema2, parsed = parse_prosody(first)
    assert schema2 == schema and parsed == table
    # values read back from the columns as Python floats, texts and None
    assert [type(parsed[("c1", 1)][n]) for n in schema.names] == \
        [float, float, type(None), type(None)]
    serialize_prosody(schema2, parsed, again)
    assert again.read_bytes() == first.read_bytes()


def test_parsed_feature_vectors_are_read_only_row_views(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("f0\tgender\nc1\t0\t1.5\tf\nc1\t1\tNA\tf\n")
    _, table = parse_prosody(path)
    one, two = table[("c1", 0)], table[("c1", 1)]
    assert one.table is two.table
    assert one.values == {"f0": 1.5, "gender": "f"}
    assert one["gender"] is two["gender"]
    assert "f0" in one and "pitch" not in one
    assert two.values.get("f0") is None and two.values.get("pitch") is None
    with pytest.raises(TypeError):
        one.values["f0"] = 2.0
    assert one == FeatureVector({"f0": 1.5, "gender": "f"}) != two


def test_mapping_built_vectors_are_typed_by_value(tmp_path):
    vec = FeatureVector({"f": 1.5, "n": 2, "s": "rise", "m": None,
                         "b": np.float32(0.25)})
    kinds = {name: col.categories is None for name, col in vec.table.items()}
    assert kinds == {"f": True, "n": True, "s": False, "m": True, "b": True}
    assert vec.values == {"f": 1.5, "n": 2.0, "s": "rise", "m": None,
                          "b": 0.25}
    assert type(vec["n"]) is float and vec["m"] is None
    assert not vec.table["m"].known[0]
    # an int is written as the float it reads back as
    path = tmp_path / "p.tsv"
    serialize_prosody(FeatureSchema(("n", "s", "m"), ("continuous",
                                                      "categorical",
                                                      "continuous")),
                      {("c", 0): vec}, path)
    assert path.read_text() == "n\ts\tm\nc\t0\t2.0\trise\tNA\n"
    for bad in (b"1.5", [1.0], object()):
        with pytest.raises(CorpusError, match=r"^feature 'x': .* is neither "
                                              r"a number nor a string$"):
            FeatureVector({"f": 1.0, "x": bad})


def test_prosody_kind_inference(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("f0\tgender\nc1\t0\t1.5\tf\nc1\t1\tNA\tm\n")
    schema, table = parse_prosody(path)
    assert schema.kinds == ("continuous", "categorical")
    assert table[("c1", 1)].values["f0"] is None


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity",
                                   "1e999"])
def test_prosody_non_finite_values_name_file_and_line(tmp_path, value):
    # a NaN has no place in a sorted threshold sweep
    path = tmp_path / "p.tsv"
    path.write_text(f"f0\tgender\nc1\t0\t1.5\tf\n# note\nc1\t1\t{value}\tm\n")
    with pytest.raises(CorpusError, match=r"p\.tsv:4: .*non-finite"):
        parse_prosody(path)


def test_prosody_category_with_a_comma_names_file_and_line(tmp_path):
    # "," separates categories in the tree file: "a,b" would reload as {a, b}
    path = tmp_path / "p.tsv"
    path.write_text("f0\tsite\nc1\t0\t1.5\tx\nc1\t1\t2.5\ta,b\n")
    with pytest.raises(CorpusError, match=r"p\.tsv:3: .*'a,b'"):
        parse_prosody(path)


def test_prosody_duplicate_row_names_file_and_line(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("f0\nc1\t0\t1.5\nc1\t1\t2.5\n# note\nc1\t0\t3.5\n")
    with pytest.raises(CorpusError, match=r"p\.tsv:5: duplicate prosody row "
                                          r"for \('c1', 0\) \(first at line 2\)"):
        parse_prosody(path)


def test_prosody_index_beyond_int64_names_file_and_line(tmp_path):
    # the reader keeps each conversation's indices in an int64 array
    path = tmp_path / "p.tsv"
    path.write_text(f"f0\nc1\t0\t1.5\nc1\t{1 << 63}\t2.5\n")
    with pytest.raises(CorpusError, match=r"p\.tsv:3: bad utterance index$"):
        parse_prosody(path)
    path.write_text(f"f0\nc1\t0\t1.5\nc1\t{-1 << 63}\t2.5\n")
    assert len(parse_prosody(path)[1]) == 2


# each row has one fault; the first in line order is the one reported
_FAULTY_ROWS = {
    "dup": ("c1\t0\t4.5\tz", r"duplicate prosody row for \('c1', 0\) "
                                r"\(first at line 2\)"),
    "nan": ("c1\t8\tnan\tz", r"feature 'f0': non-finite value 'nan'"),
    "comma": ("c1\t9\t4.5\tp,q", r"feature 'site': category 'p,q' contains ','"),
}


@pytest.mark.parametrize("first,second", [
    (a, b) for a in _FAULTY_ROWS for b in _FAULTY_ROWS if a != b])
def test_prosody_reports_the_first_faulty_row(tmp_path, first, second):
    path = tmp_path / "p.tsv"
    path.write_text("f0\tsite\nc1\t0\t1.5\tx\nc1\t1\tNA\ty\n"
                    f"{_FAULTY_ROWS[first][0]}\n# note\n"
                    f"{_FAULTY_ROWS[second][0]}\n")
    with pytest.raises(CorpusError,
                       match=rf"p\.tsv:4: {_FAULTY_ROWS[first][1]}$"):
        parse_prosody(path)


def test_prosody_values_are_converted_once(tmp_path, monkeypatch):
    path = tmp_path / "p.tsv"
    path.write_text("f0\tsite\nc1\t0\t1.5\tx\nc1\t1\tNA\t2\n"
                    "c1\t2\t-3\ty\n")
    calls = []

    class CountingFloat(float):
        def __new__(cls, text):
            calls.append(text)
            return float.__new__(cls, text)

    monkeypatch.setattr(corpus, "float", CountingFloat, raising=False)
    schema, table = parse_prosody(path)
    assert schema.kinds == ("continuous", "categorical")
    # every f0 value once; site stops at its first non-number
    assert calls == ["1.5", "-3", "x"]
    assert [table[("c1", i)].values["f0"] for i in range(3)] == [1.5, None, -3.0]
    assert table[("c1", 1)].values["site"] == "2"


def reference_parse_prosody(path):
    """The two-pass reader: floats written back into the text rows, then a
    kind branch per value."""
    lines = content_lines(path)
    header_line, names = next(lines, (1, None))
    if names is None:
        raise CorpusError(f"{path}:1: empty prosody file")
    names = tuple(names)
    rows: list[tuple[int, tuple[str, int], list]] = []
    with located(lambda _: f"{path}:{lineno}: bad utterance index"):
        for lineno, fields in lines:
            if len(fields) != 2 + len(names):
                raise CorpusError(f"{path}:{lineno}: expected "
                                  f"{2 + len(names)} fields, got {len(fields)}")
            rows.append((lineno, (fields[0], int(fields[1])), fields[2:]))

    # One float() pass per column: the first value that is not a number
    # makes the column categorical; otherwise the floats replace the texts
    # in place (None where missing), except a non-finite value, whose text
    # stays for its error message.
    kinds = []
    for col in range(len(names)):
        try:
            floats = [None if vals[col] == _MISSING_VALUE else float(vals[col])
                      for _, _, vals in rows]
        except ValueError:
            kinds.append("categorical")
            continue
        kinds.append("continuous")
        for (_, _, vals), x in zip(rows, floats):
            if x is None or math.isfinite(x):
                vals[col] = x
    try:
        schema = FeatureSchema(names, tuple(kinds))
    except CorpusError as exc:      # only the header's names can be at fault
        raise CorpusError(f"{path}:{header_line}: {exc}") from None

    table: dict[tuple[str, int], FeatureVector] = {}
    for lineno, key, vals in rows:
        if key in table:
            first = next(line for line, k, _ in rows if k == key)
            raise CorpusError(f"{path}:{lineno}: duplicate prosody row for "
                              f"{key} (first at line {first})")
        parsed: dict[str, float | str | None] = {}
        for name, kind, v in zip(names, kinds, vals):
            if kind == "continuous":
                if isinstance(v, str):
                    raise CorpusError(f"{path}:{lineno}: feature {name!r}: "
                                      f"non-finite value {v!r}")
            elif v == _MISSING_VALUE:
                v = None
            elif "," in v:
                raise CorpusError(f"{path}:{lineno}: feature {name!r}: "
                                  f"category {v!r} contains ','")
            parsed[name] = v
        table[key] = FeatureVector(parsed)
    return schema, table


_NUMBERS = ["NA", "1.5", "-3", "0", " 2 ", "1e3"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "1e999"]
_CATEGORIES = ["NA", "m", "f", "2", "", "a,b", ",", "x y"]


@st.composite
def prosody_files(draw):
    """Prosody file texts where every fault the reader checks turns up:
    odd header names, non-finite numbers, categories with ",", repeated
    keys, bad indices, short and long rows, comments and blank lines."""
    names = draw(st.lists(st.sampled_from(["f0", "f1", "site", "pitch"]),
                          min_size=1, max_size=4, unique=True))
    if not draw(st.integers(0, 9)):
        names[draw(st.integers(0, len(names) - 1))] = draw(
            st.sampled_from(["", "a b", " pad", names[0]]))
    pools = [draw(st.sampled_from([_NUMBERS, _NUMBERS + _NON_FINITE,
                                   _CATEGORIES, _NUMBERS + _CATEGORIES]))
             for _ in names]
    lines = [draw(st.sampled_from(["# features", ""]))
             for _ in range(draw(st.integers(0, 1)))]
    if draw(st.integers(0, 19)):        # else a file with no header
        lines.append("\t".join(names))
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 39))
        if kind < 4:
            lines.append(draw(st.sampled_from(["# note", "", "   "])))
            continue
        index = "x" if kind == 4 else draw(st.sampled_from(
            ["0", "1", "2", "3", "-1", " 1"]))
        values = [draw(st.sampled_from(pool)) for pool in pools]
        if kind == 5:
            values = values[:-1]
        elif kind == 6:
            values.append("NA")
        lines.append("\t".join([draw(st.sampled_from(["c1", "c2"])), index,
                                *values]))
    return "\n".join(lines) + "\n"


def _outcome(read, path):
    try:
        schema, table = read(path)
    except CorpusError as exc:
        return "error", str(exc)
    return schema, list(table.items())


@settings(max_examples=400, deadline=None)
@given(text=prosody_files())
def test_prosody_reader_matches_the_two_pass_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("prosody") / "p.tsv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(parse_prosody, path) == \
        _outcome(reference_parse_prosody, path)


def test_schema_inference_from_columns():
    schema = FeatureSchema.infer(["f0", "gone", "site"],
                                 [[1.5, None], [None, None], [None, 2.0, "m"]])
    assert schema == FeatureSchema(("f0", "gone", "site"), (
        "continuous", "continuous", "categorical"))
    with pytest.raises(CorpusError, match="duplicate feature names"):
        FeatureSchema.infer(["f0", "f0"], [[1.0], ["m"]])


def test_attach_prosody(tmp_path):
    conv = mk_conv("c1", [("A", "S", "hi"), ("B", "S", "yo")])
    serialize_conversations([conv], tmp_path / "c.tsv")
    out = parse_conversations(tmp_path / "c.tsv", prosody={
        ("c1", 0): FeatureVector({"f0": 2.0})})[0]
    assert out.utterances[0].prosody["f0"] == 2.0
    assert out.utterances[1].prosody is None


def test_attaching_keeps_every_other_field(tmp_path):
    conv = mk_conv("c1", [("A", "S", "hi there"), ("B", None, "yes")])
    nbest = NBestList((Hypothesis(("hi",), -1.0),))
    feats = FeatureVector({"f0": 2.0})
    serialize_conversations([conv], tmp_path / "c.tsv")
    both = parse_conversations(tmp_path / "c.tsv", nbest={("c1", 0): nbest},
                               prosody={("c1", 0): feats,
                                        ("c1", 1): feats})[0]
    assert both.utterances == (
        dataclasses.replace(conv.utterances[0], nbest=nbest, prosody=feats),
        dataclasses.replace(conv.utterances[1], prosody=feats))


utterance_specs = st.tuples(
    st.sampled_from(["A", "B"]), st.sampled_from(["S", "Q", None]),
    st.lists(st.sampled_from(["a", "b", "xy"]), max_size=3).map(tuple),
    # the n-best list, if any: (words, acoustic score) per hypothesis
    st.none() | st.lists(st.tuples(
        st.lists(st.sampled_from(["a", "zz"]), max_size=2).map(tuple),
        st.floats(-50.0, 0.0)), min_size=1, max_size=3),
    # the features, if any: a value of f0, None for missing, and a tone
    st.none() | st.tuples(st.none() | st.floats(-5.0, 5.0),
                          st.sampled_from(["hi", "lo"])))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(utterance_specs, min_size=1, max_size=5),
                min_size=1, max_size=3))
def test_parsed_and_built_conversations_agree(tmp_path_factory, specs):
    built = [Conversation(f"c{c}", [Utterance(
        i, spk, lab, words,
        hyps and NBestList(tuple(Hypothesis(*h) for h in hyps)),
        feats and FeatureVector({"f0": feats[0], "tone": feats[1]}))
        for i, (spk, lab, words, hyps, feats) in enumerate(rows)])
        for c, rows in enumerate(specs)]
    schema = FeatureSchema(("f0", "tone"), ("continuous", "categorical"))
    root = tmp_path_factory.mktemp("columns")

    def written(convs, name):
        """The corpus, n-best and prosody files of ``convs``' views."""
        views = {(c.conv_id, u.index): u for c in convs for u in c}
        serialize_conversations(convs, root / f"{name}.tsv")
        serialize_nbest({k: u.nbest for k, u in views.items() if u.nbest},
                        root / f"{name}_nbest.tsv")
        serialize_prosody(schema, {k: u.prosody for k, u in views.items()
                                   if u.prosody}, root / f"{name}_prosody.tsv")
        return [(root / f"{name}{part}.tsv").read_bytes()
                for part in ("", "_nbest", "_prosody")]

    files = written(built, "built")
    parsed = parse_conversations(
        root / "built.tsv", nbest=parse_nbest(root / "built_nbest.tsv"),
        prosody=parse_prosody(root / "built_prosody.tsv")[1])
    assert written(parsed, "parsed") == files
    assert parsed == built
    for a, b in zip(parsed, built):
        assert list(a) == list(b) and len(a) == len(b)
        assert (a.speakers, a.labels, a.words, a.nbest) == \
            (b.speakers, b.labels, b.words, b.nbest)
        assert a[-1] == b[len(b) - 1]


# ---------------------------------------------------------------------------
# Sampling helpers
# ---------------------------------------------------------------------------

def test_symmetrize_speakers():
    conv = mk_conv("c1", [("A", "S", "hi"), ("B", "Q", "you")])
    out = symmetrize_speakers([conv])
    assert len(out) == 2
    assert out[0] == conv
    assert [u.speaker for u in out[1]] == ["B", "A"]
    assert [u.da_label for u in out[1]] == ["S", "Q"]
    assert out[1].conv_id == "c1"


def utts_with_labels(spec):
    return [Utterance(i, "A", lab, ("w",)) for i, lab in enumerate(spec)]


def test_downsample_uniform_balances_classes():
    utts = utts_with_labels(["S"] * 10 + ["Q"] * 3)
    # indices stay valid because downsampling returns existing objects
    sample = downsample_uniform(utts, ["S", "Q"], seed=1)
    counts = {lab: sum(u.da_label == lab for u in sample) for lab in ("S", "Q")}
    assert counts == {"S": 3, "Q": 3}


def test_downsample_uniform_deterministic_and_seed_sensitive():
    utts = utts_with_labels(["S"] * 20 + ["Q"] * 5)
    a = downsample_uniform(utts, ["S", "Q"], seed=7)
    b = downsample_uniform(utts, ["S", "Q"], seed=7)
    assert a == b
    seeds = {tuple(u.index for u in downsample_uniform(utts, ["S", "Q"], seed=s))
             for s in range(6)}
    assert len(seeds) > 1


def test_downsample_uniform_missing_class():
    with pytest.raises(CorpusError):
        downsample_uniform(utts_with_labels(["S"]), ["S", "Q"])


def test_jackknife_split_halves():
    items = list(range(11))
    first, second = jackknife_split(items, seed=3)
    assert len(first) == 5 and len(second) == 6
    assert sorted(first + second) == items
    assert first == sorted(first) and second == sorted(second)
    assert jackknife_split(items, seed=3) == (first, second)
