"""Every reader either parses its input or raises a located error.

Each text reader goes through ``corpus.content_lines``.  Fuzzed copies of
valid files (lines and fields deleted, duplicated or truncated, bytes that
are not UTF-8 inserted) must parse or raise ``CorpusError`` or
``ProsodyError`` with a message that starts with ``<path>:<line>: ``
(``eval``'s missing prediction names its reference line instead);
nothing else may escape.  The explicit cases below are faults that once
escaped as ``KeyError`` tracebacks or errors without a location.
"""

import re
import shutil
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import cli
from dialact.corpus import (CorpusError, load_tagset, parse_conversations,
                            parse_nbest, parse_prosody)
from dialact.discourse import load_discourse
from dialact.ngram import read_arpa, write_arpa
from dialact.prosody import ProsodyError, load_tree

LABELS = ("Statement", "Question", "Backchannel")
WORDS = {"Statement": "i think we did so", "Question": "do you know what",
         "Backchannel": "uh-huh right yeah"}


def _write_inputs(root):
    corpus, nbest, prosody = [], [], ["f0\tcontour"]
    for c in range(4):
        for i in range(5):
            lab = LABELS[(c + i) % 3]
            words = WORDS[lab].split()[:2 + (c + i) % 3]
            corpus.append(f"c{c}\t{i}\t{'AB'[i % 2]}\t{lab}\t{' '.join(words)}")
            for rank in (1, 2):
                nbest.append(f"c{c}\t{i}\t{rank}\t{-10.0 - rank}\t"
                             f"{' '.join(words[:rank])}")
            f0 = "NA" if i == 3 else repr(100.0 + 10 * LABELS.index(lab) + c)
            prosody.append(f"c{c}\t{i}\t{f0}\t{['fall', 'rise'][i % 2]}")
    for name, rows in (("corpus.tsv", corpus), ("nbest.tsv", nbest),
                       ("prosody.tsv", prosody)):
        (root / name).write_text("".join(r + "\n" for r in rows))
    (root / "tagset.txt").write_text(
        "# three acts, one folded label\nStatement\nQuestion\nBackchannel\n"
        "collapse\tBackchannel\tAcknowledge\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("readers")
    _write_inputs(root)
    models = root / "models"
    assert cli.main(["train", "--corpus", str(root / "corpus.tsv"),
                     "--models", str(models),
                     "--tagset", str(root / "tagset.txt"),
                     "--order", "2", "--word-order", "2",
                     "--prosody", str(root / "prosody.tsv"),
                     "--min-leaf", "2"]) == 0
    assert cli.main(["tag", "--models", str(models),
                     "--corpus", str(root / "corpus.tsv"),
                     "--output", str(root / "pred.tsv")]) == 0
    return root


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_BAD_BYTES = (b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80")

# (kind, line, field, cut) with indices taken modulo the sizes they index
edits = st.lists(st.tuples(
    st.sampled_from(["drop_line", "dup_line", "cut_line", "drop_field",
                     "dup_field", "cut_field", "bad_bytes"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
    min_size=1, max_size=3)


def _mutate(data: bytes, ops, sep: bytes = b"\t", lines_of=None) -> bytes:
    """Apply ``ops`` to ``data``; ``lines_of`` limits them to a line range."""
    lines = data.split(b"\n")
    first, last = lines_of or (0, len(lines))
    for kind, a, b, c in ops:
        i = first + a % max(min(last, len(lines)) - first, 1)
        if i >= len(lines):
            continue
        fields = lines[i].split(sep)
        k = b % len(fields)
        if kind == "drop_line":
            del lines[i]
        elif kind == "dup_line":
            lines.insert(i, lines[i])
        elif kind == "cut_line":
            lines[i] = lines[i][:c % (len(lines[i]) + 1)]
        elif kind == "bad_bytes":
            at = c % (len(lines[i]) + 1)
            lines[i] = lines[i][:at] + _BAD_BYTES[b % len(_BAD_BYTES)] \
                + lines[i][at:]
        else:
            if kind == "drop_field":
                del fields[k]
            elif kind == "dup_field":
                fields.insert(k, fields[k])
            else:
                fields[k] = fields[k][:c % (len(fields[k]) + 1)]
            lines[i] = sep.join(fields)
    return b"\n".join(lines)


def _parses_or_locates(read, path, directory=None):
    """``read(path)`` returns, or names ``path`` (or a file under
    ``directory``) and a line."""
    at = (rf"{re.escape(str(directory))}/\S+" if directory
          else re.escape(str(path)))
    try:
        read(path)
    except (CorpusError, ProsodyError) as exc:
        assert re.match(rf"{at}:\d+: ", str(exc)), str(exc)


_FUZZ = settings(max_examples=60, deadline=timedelta(seconds=10))


def _fuzz_file(files, tmp_path_factory, name, read, ops, **where):
    path = tmp_path_factory.mktemp("fuzz") / name.replace("/", "_")
    path.write_bytes(_mutate((files / name).read_bytes(), ops, **where))
    _parses_or_locates(read, path)


@pytest.mark.parametrize("name, read", [
    ("corpus.tsv", parse_conversations),
    ("nbest.tsv", parse_nbest),
    ("prosody.tsv", parse_prosody),
    ("tagset.txt", load_tagset),
    ("models/da_lms/_fallback.arpa", read_arpa),
    ("models/prosody.tree", load_tree),
], ids=["corpus", "nbest", "prosody", "tagset", "arpa", "tree"])
@_FUZZ
@given(ops=edits)
def test_fuzzed_file_parses_or_names_its_line(files, tmp_path_factory,
                                               name, read, ops):
    _fuzz_file(files, tmp_path_factory, name, read, ops)


@_FUZZ
@given(ops=edits)
def test_fuzzed_discourse_header_parses_or_names_its_line(
        files, tmp_path_factory, ops):
    tagset = load_tagset(files / "models/tagset.txt")
    _fuzz_file(files, tmp_path_factory, "models/discourse.arpa",
               lambda p: load_discourse(p, tagset), ops, sep=b" ",
               lines_of=(0, 1))


@_FUZZ
@given(ops=edits)
def test_fuzzed_predictions_parse_or_name_their_line(
        files, tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("fuzz") / "pred.tsv"
    path.write_bytes(_mutate((files / "pred.tsv").read_bytes(), ops))
    reference = files / "corpus.tsv"
    args = cli._build_parser().parse_args(
        ["eval", "--reference", str(reference),
         "--predictions", str(path), "--tagset", str(files / "tagset.txt")])

    def read(_):
        try:
            cli.cmd_eval(args)
        except CorpusError as exc:
            missing = re.fullmatch(rf"{re.escape(str(reference))}:(\d+): no "
                                   rf"prediction for (\S+):(\d+)", str(exc))
            if missing is None:
                raise
            # a missing prediction names its utterance's reference line
            line = reference.read_text().splitlines()[int(missing[1]) - 1]
            assert line.split("\t")[:2] == [missing[2], missing[3]]

    _parses_or_locates(read, path)


@_FUZZ
@given(ops=edits)
def test_fuzzed_manifest_loads_or_names_a_line(files, tmp_path_factory,
                                               ops):
    models = tmp_path_factory.mktemp("fuzz") / "models"
    shutil.copytree(files / "models", models)
    manifest = models / "manifest.tsv"
    manifest.write_bytes(_mutate(manifest.read_bytes(), ops))
    _parses_or_locates(cli.load_models, models, directory=models)


# ---------------------------------------------------------------------------
# Faults that escaped before every reader shared the line syntax
# ---------------------------------------------------------------------------

def _edit(path, old, new, count=1):
    text = path.read_bytes()
    assert old in text
    path.write_bytes(text.replace(old, new, count))


def _first_line_with(path, needle: bytes) -> int:
    return next(i for i, line in enumerate(path.read_bytes().split(b"\n"), 1)
                if needle in line)


def _model_fault(rel, old, new):
    def apply(models, root):
        _edit(models / rel, old, new)
        return models / rel, ["tag", "--models", str(models),
                              "--corpus", str(root / "corpus.tsv")]
    return apply


def _arpa_line_fault(needle, line):
    """The first line of the pooled word model holding ``needle`` replaced
    by ``line``."""
    def apply(models, root):
        path = models / "da_lms/_fallback.arpa"
        lines = path.read_bytes().split(b"\n")
        at = next(i for i, old in enumerate(lines) if needle in old)
        path.write_bytes(b"\n".join(lines[:at] + [line] + lines[at + 1:]))
        return path, ["tag", "--models", str(models),
                      "--corpus", str(root / "corpus.tsv")]
    return apply


def _corpus_fault(models, root):
    bad = root / "bad_corpus.tsv"
    shutil.copy(root / "corpus.tsv", bad)
    _edit(bad, b"\t1\t", b"\t1\xff\t")
    return bad, ["tag", "--models", str(models), "--corpus", str(bad)]


def _tag_input_fault(name, old, new):
    """A fault in one of the three files a ``tag --mode nbest --prosody``
    command reads."""
    def apply(models, root):
        _edit(root / name, old, new)
        return root / name, ["tag", "--models", str(models), "--corpus",
                             str(root / "corpus.tsv"), "--nbest",
                             str(root / "nbest.tsv"), "--mode", "nbest",
                             "--prosody", str(root / "prosody.tsv")]
    return apply


def _rescore_nbest_fault(old, new):
    """A fault in the n-best file a ``rescore`` command reads."""
    def apply(models, root):
        _edit(root / "nbest.tsv", old, new)
        return root / "nbest.tsv", ["rescore", "--models", str(models),
                                    "--corpus", str(root / "corpus.tsv"),
                                    "--nbest", str(root / "nbest.tsv"),
                                    "--output", str(root / "out")]
    return apply


def _tagset_fault(models, root):
    bad = root / "bad_tagset.txt"
    bad.write_bytes(b"Statement\nQuesti\xffon\nBackchannel\n")
    return bad, ["eval", "--reference", str(root / "corpus.tsv"),
                 "--predictions", str(root / "pred.tsv"), "--tagset", str(bad)]


def _eval_index_fault(models, root):
    bad = root / "bad_pred.tsv"
    shutil.copy(root / "pred.tsv", bad)
    _edit(bad, b"c1\t2\t", b"c1\ttwo\t")
    return bad, ["eval", "--reference", str(root / "corpus.tsv"),
                 "--predictions", str(bad), "--tagset",
                 str(root / "tagset.txt")]


@pytest.mark.parametrize("fault, needle", [
    (_model_fault("discourse.arpa", b" order=2", b""), b"discourse grammar"),
    (_model_fault("discourse.arpa", b"variant=conditional", b"variant=both"),
     b"discourse grammar"),
    (_model_fault("da_lms/_fallback.arpa", b"\n-", b"\nx-"), b"x-"),
    (_model_fault("discourse.arpa", b"\t-0.", b"\t-0.x"), b"-0.x"),
    (_arpa_line_fault(b"\ti\t", b"inf\ti\t-0.5"), b"inf\t"),
    (_arpa_line_fault(b"\t<start>\t", b"nan\t<start>\t-0.5"), b"nan\t"),
    (_arpa_line_fault(b"\t<start>\t", b"-99\t<start>\tnan"), b"\tnan"),
    (_arpa_line_fault(b"\t<start>\t", b"-99\t<start>\t-inf"), b"\t-inf"),
    (_model_fault("prosody.tree", b"priors\t0.", b"priors\t0.x"), b"0.x"),
    (_model_fault("prosody.tree", b":continuous", b""), b"features"),
    (_model_fault("prosody.tree", b"node\tf0\t<=\t116.5",
                  b"node\tnosuch\t<=\t116.5"), b"nosuch"),
    (_model_fault("prosody.tree", b"node\tcontour\tin\tfall",
                  b"node\tcontour\t<=\t1.5"), b"contour\t<="),
    (_model_fault("prosody.tree", b"node\tf0\t<=\t106.5",
                  b"node\tf0\tin\t106.5"), b"f0\tin"),
    (_model_fault("prosody.tree", b"node\tf0\t<=\t116.5",
                  b"node\tf0\t<=\tnan"), b"\tnan\t"),
    (_corpus_fault, b"\xff"),
    (_tagset_fault, b"\xff"),
    (_eval_index_fault, b"two"),
    (_tag_input_fault("corpus.tsv", b"c1\t2\t", b"c1\tx2\t"), b"x2"),
    (_tag_input_fault("corpus.tsv", b"c2\t1\tB", b"c2\t1\tC"), b"\tC\t"),
    (_tag_input_fault("nbest.tsv", b"\t-12.0\t", b"\t-12.0x\t"),
     b"-12.0x"),
    (_tag_input_fault("nbest.tsv", b"c2\t3\t2\t", b"c2\t3\t3\t"),
     b"c2\t3\t3\t"),
    (_tag_input_fault("nbest.tsv", b"\t-12.0\t", b"\tnan\t"), b"\tnan\t"),
    (_tag_input_fault("nbest.tsv", b"\t-12.0\t", b"\t-inf\t"),
     b"\t-inf\t"),
    (_rescore_nbest_fault(b"\t-11.0\t", b"\t-inf\t"), b"\t-inf\t"),
    (_tag_input_fault("prosody.tsv", b"c1\t0\t111.0\t", b"c1\t0\tnan\t"),
     b"\tnan\t"),
    (_tag_input_fault("prosody.tsv", b"\trise", b"\tri,se"), b"ri,se"),
    (_tag_input_fault("prosody.tsv", b"\trise", b"\tri\xffse"), b"\xff"),
], ids=["discourse-no-order", "discourse-bad-variant", "arpa-bad-prob",
        "arpa-bad-backoff", "arpa-inf-prob", "arpa-nan-prob",
        "arpa-nan-backoff", "arpa-minus-inf-backoff", "tree-bad-float",
        "tree-feature-without-kind", "tree-feature-not-in-header",
        "tree-threshold-on-categorical", "tree-categories-on-continuous",
        "tree-nan-threshold", "corpus-not-utf8", "tagset-not-utf8",
        "eval-bad-index", "tag-corpus-bad-index", "tag-corpus-bad-speaker",
        "tag-nbest-bad-score", "tag-nbest-rank-gap", "tag-nbest-nan-score",
        "tag-nbest-minus-inf-score", "rescore-nbest-minus-inf-score",
        "tag-prosody-nan",
        "tag-prosody-comma", "tag-prosody-not-utf8"])
def test_faults_exit_one_naming_the_file_and_line(files, tmp_path, capsys,
                                                  fault, needle):
    root = tmp_path / "inputs"
    shutil.copytree(files, root)
    bad, argv = fault(root / "models", root)
    lineno = _first_line_with(bad, needle)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}:{lineno}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sections, gram", [
    # the later line used to overwrite the earlier one: P(a) = 10^-0.2
    ([["-0.5\ta", "-0.3\tb", "-0.2\ta"]], "a"),
    ([["-0.5\ta", "-0.3\tb", "-0.2\tc"],
      ["-0.1\ta b", "-0.2\tb a\t-0.1", "-0.3\tb c"],
      ["-0.1\tb a b", "-0.2\ta b a", "-0.4\tb a b"]], "b a b"),
])
def test_repeated_arpa_ngram_names_its_second_line(tmp_path, sections, gram):
    path = tmp_path / "dup.arpa"
    path.write_text("\n".join(
        ["\\data\\"] + [f"ngram {n}={len(rows)}"
                          for n, rows in enumerate(sections, 1)]
        + [f"\n\\{n}-grams:\n" + "\n".join(rows)
           for n, rows in enumerate(sections, 1)] + ["\n\\end\\\n"]))
    first, second = [i for i, line in enumerate(
        path.read_text().splitlines(), 1) if line.split("\t")[1:2] == [gram]]
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:{second}: "
                       rf"duplicate n-gram '{gram}' \(first at line {first}\)"):
        read_arpa(path)


@pytest.mark.parametrize("none", ["-inf", "-120.5"])
def test_an_arpa_probability_at_or_below_minus_99_means_none(files, tmp_path,
                                                             none):
    trained = files / "models/da_lms/_fallback.arpa"
    path = tmp_path / "m.arpa"
    edited = trained.read_bytes().replace(b"\n-99\t<start>\t",
                                              f"\n{none}\t<start>\t".encode())
    assert edited != trained.read_bytes()
    path.write_bytes(edited)
    write_arpa(read_arpa(path), tmp_path / "back.arpa")
    assert (tmp_path / "back.arpa").read_bytes() == trained.read_bytes()
