"""A model directory is one n-gram store, read in place by every scorer.

``load_models`` parses every ARPA file of a directory and lays out their
models as one store in a single build, the same store a merge of the
files read one by one gives; every compiled scorer set then walks its
rows without a copy.  The reader, the directory load and the merge all
lay out their stores through one builder, so a merged model keeps its
source's rows and a read model the rows its file gives, with every
missing prefix added.  The directory here is shaped like the Switchboard
bench data: the 42 bundled acts with Zipf frequencies (so rare acts share
the pooled file), an 80-word vocabulary, and bigram word models; the
write-back test adds word orders 3 and 4.
"""

import gc
import math
import random
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dialact import cli, ngram
from dialact.corpus import CorpusError, default_tagset
from dialact.discourse import save_discourse
from dialact.ngram import (CompiledModelSet, _merge, _train_set, read_arpa,
                           train_ngram, write_arpa)

WORDS = [f"w{i:02d}" for i in range(80)]
EXTRA = "zz-extra"          # sorts after every trained token


def write_corpus(path: Path, rng: random.Random, prefix: str, n_convs: int):
    labels = default_tagset().labels
    weights = [1.0 / (rank + 1) for rank in range(len(labels))]
    lines = []
    for c in range(n_convs):
        for i in range(30):
            lab = rng.choices(labels, weights)[0]
            # each act prefers a window of the vocabulary
            start = 2 * labels.index(lab) % (len(WORDS) - 12)
            words = rng.choices(WORDS[start:start + 12] + WORDS[:4],
                                k=rng.randint(1, 8))
            lines.append(f"{prefix}{c}\t{i}\t{'AB'[i % 2]}\t{lab}\t"
                         f"{' '.join(words)}\n")
    path.write_text("".join(lines), encoding="utf-8")


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("store")
    rng = random.Random(7)
    write_corpus(root / "train.tsv", rng, "tr", 20)
    write_corpus(root / "heldout.tsv", rng, "ho", 6)
    return root


def train(root: Path, order: int, word_order: int) -> Path:
    """The directory trained on ``root``'s corpora at these grammar and
    word orders, trained on first use."""
    models = root / f"models_{order}_{word_order}"
    if not models.exists():
        with warnings.catch_warnings():     # rare acts: no data, no held-out
            warnings.simplefilter("ignore")
            assert cli.main(["train", "--corpus", str(root / "train.tsv"),
                             "--heldout", str(root / "heldout.tsv"),
                             "--models", str(models), "--order", str(order),
                             "--word-order", str(word_order)]) == 0
    return models


@pytest.fixture(scope="module")
def trained(corpora) -> Path:
    return train(corpora, 2, 2)


def model_files(root: Path, loaded) -> dict[Path, object]:
    """Each word model file of the directory and the model loaded from it."""
    files = {}
    for line in (root / "manifest.tsv").read_text().splitlines():
        kind, key, value = line.split("\t")
        if kind == "fallback":
            files[root / value] = loaded.da_lms.fallback
        elif kind == "da_lm":
            files[root / value] = loaded.da_lms.models[key]
    return files


def add_unigram(path: Path, line: str) -> None:
    """Give the ARPA file one more unigram line, last, as write_arpa would
    place a token that sorts after every other."""
    lines = path.read_text(encoding="utf-8").split("\n")
    n = next(i for i, line in enumerate(lines) if line.startswith("ngram 1="))
    lines[n] = f"ngram 1={int(lines[n].split('=')[1]) + 1}"
    at = lines.index("\\1-grams:") + 1
    while lines[at]:
        at += 1
    lines.insert(at, line)
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("orders", [(2, 2), (2, 3), (3, 4)],
                         ids=["words-2", "words-3", "grammar-3-words-4"])
@pytest.mark.parametrize("edited", [False, True],
                         ids=["as-trained", "one-file-edited"])
def test_a_directory_loads_into_one_store_that_writes_its_files_back(
        corpora, tmp_path, orders, edited):
    root = tmp_path / "models"
    shutil.copytree(train(corpora, *orders), root)
    loaded = cli.load_models(root)
    save_discourse(loaded.grammar, tmp_path / "discourse.arpa")
    assert (tmp_path / "discourse.arpa").read_bytes() == \
        (root / "discourse.arpa").read_bytes()
    files = model_files(root, loaded)
    assert len(files) > 1
    if edited:
        # one act's own file gains a token the other files lack, a context
        # with a backoff weight and no probability (smoothing needs the
        # vocabularies equal), so the files' token sets differ and the
        # merge maps each to the union
        path = next(p for p, m in files.items()
                    if m is not loaded.da_lms.fallback)
        add_unigram(path, f"-99\t{EXTRA}\t-0.5")
        loaded = cli.load_models(root)
        files = model_files(root, loaded)
        assert EXTRA in read_arpa(path).tokens
        assert all(EXTRA not in read_arpa(p).tokens for p in files if p != path)
        assert EXTRA not in files[path].vocab
    assert len({id(m._store) for m in files.values()}) == 1
    assert len(set(map(id, files.values()))) == len(set(files))
    rng = random.Random(3)
    vocab = WORDS + [EXTRA, "never-seen"]
    seqs = [[rng.choice(vocab) for _ in range(rng.randint(0, 9))]
            for _ in range(300)]
    for path, model in files.items():
        write_arpa(model, tmp_path / "back.arpa")
        assert (tmp_path / "back.arpa").read_bytes() == path.read_bytes()
        own = read_arpa(path)
        assert (model.order, model.vocab, model.padded) == \
            (own.order, own.vocab, own.padded)
        got = CompiledModelSet([model]).score(seqs)
        want = CompiledModelSet([own]).score(seqs)
        assert got.tobytes() == want.tobytes(), path.name


def test_a_directory_is_laid_out_in_one_build(trained, monkeypatch):
    built, init = [], ngram._Store.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(ngram._Store, "__init__", counted)
    cli.load_models(trained)
    # the word models and the grammar; 44 here when each file was a store
    # of its own and a merge laid out their union again
    assert len(built) == 2


STORE_ARRAYS = ("keys", "lp", "bow", "first", "has_children")


@pytest.mark.parametrize("orders", [(2, 2), (2, 3), (3, 4)],
                         ids=["words-2", "words-3", "grammar-3-words-4"])
def test_one_build_lays_out_the_store_a_merge_of_its_files_does(corpora,
                                                                orders):
    root = train(corpora, *orders)
    loaded = cli.load_models(root)
    files = model_files(root, loaded)
    # the files in the order load_models read them: by their group
    paths = sorted(files, key=lambda p: files[p]._group)
    assert sorted(files[p]._group for p in paths) == list(range(len(paths)))
    got = loaded.da_lms.fallback._store
    want = _merge([read_arpa(p) for p in paths])[0]._store
    assert (got.tokens, got.groups) == (want.tokens, want.groups)
    for name in ("in_vocab", "orders", "log_uniform"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for name in STORE_ARRAYS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert len(mine) == len(theirs), name
        for n, (a, b) in enumerate(zip(mine, theirs)):
            if a is None or b is None:
                assert a is b, (name, n)
            else:
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), \
                    (name, n)


def test_a_loaded_store_keeps_one_string_per_token(trained):
    loaded = cli.load_models(trained)
    store = loaded.da_lms.fallback._store
    strings = {id(t) for t in store.tokens}
    for model in loaded.da_lms.models.values():
        assert {id(t) for t in model.vocab} <= strings
    # and one set per distinct vocabulary
    models = loaded.da_lms.models.values()
    assert len({id(m.vocab) for m in models}) == len({m.vocab for m in models})


def allocated(build) -> int:
    """The traced peak of ``build()``, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_compiled_sets_read_the_loaded_store_in_place(trained):
    loaded = cli.load_models(trained)
    da_lms, smoothed = loaded.da_lms, loaded.smoothed
    # the scorer lists of word_likelihood_tables and rescore_corpus
    lists = {"tables": [da_lms.models[lab] for lab in da_lms.labels],
             "rescore": [*(da_lms.models[lab] for lab in da_lms.labels),
                         *(smoothed.models[lab] for lab in smoothed.labels),
                         smoothed.fallback]}
    for name, scorers in lists.items():
        CompiledModelSet(scorers)
        # a copy of the level arrays would take about 0.25 MB here
        size = allocated(lambda: CompiledModelSet(scorers))
        assert size <= 4096 + 256 * len(scorers), (name, size)
    store = da_lms.fallback._store
    for name, scorers in lists.items():
        walked = CompiledModelSet(scorers)._store
        for n in range(1, int(store.orders.max()) + 1):
            for mine, held in zip(
                    (walked.lp[n], walked.bow[n], walked.has_children[n]),
                    (store.lp[n], store.bow[n], store.has_children[n])):
                assert np.shares_memory(mine, held), (name, n)
            if n > 1:
                assert np.shares_memory(walked.keys[n], store.keys[n])


# ---------------------------------------------------------------------------
# The store builder, through its two callers
# ---------------------------------------------------------------------------

def level_rows(model, n: int) -> list:
    """The model's level-n rows as (gram strings, log prob bytes, backoff
    bytes); the id past the store's tokens reads None."""
    grams, lp, bow = model.level(n)
    names = model.tokens + (None,)
    return [(tuple(names[i] for i in gram), a.tobytes(), b.tobytes())
            for gram, a, b in zip(grams.tolist(), lp, bow)]


@pytest.mark.parametrize("pad", [True, False], ids=["padded", "unpadded"])
def test_a_merge_keeps_every_row_of_every_model(tmp_path, pad):
    rng = random.Random(11)
    vocabs = [WORDS[:6], WORDS[3:12], WORDS[10:14] + [EXTRA], WORDS[:3]]

    def sequences(words):
        return [rng.choices(words, k=rng.randint(1, 7)) for _ in range(40)]

    # orders 1 to 4 over different vocabularies, each a store of its own
    sources = [train_ngram(sequences(words), order, pad=pad)
               for order, words in enumerate(vocabs, 1)]
    # two groups of one store, so a source's rows need not start at row 0
    sources += _train_set([sequences(vocabs[1]), sequences(vocabs[1])], 3,
                          pad=pad)
    # and a store read from a file
    write_arpa(sources[2], tmp_path / "m.arpa")
    sources.append(read_arpa(tmp_path / "m.arpa"))
    merged = _merge(sources)
    assert len({id(m._store) for m in merged}) == 1
    assert len({id(m._store) for m in sources}) == len(sources) - 1
    for j, (source, model) in enumerate(zip(sources, merged)):
        assert (model.order, model.vocab, model.padded) == \
            (source.order, source.vocab, source.padded)
        for n in range(model.order + 1):
            got, want = level_rows(model, n), level_rows(source, n)
            if n == 1:
                # level 1 is dense over the union's tokens; the source's
                # are the ones it holds anything at
                extra = [row for row in got
                         if row[0][0] not in source.tokens + (None,)]
                assert all(math.isnan(np.frombuffer(lp)[0])
                           and np.frombuffer(bow)[0] == 0.0
                           for _, lp, bow in extra), (j, n)
                got = [row for row in got if row not in extra]
            assert got == want, (j, n)


LN10 = math.log(10.0)

# a declared section with no lines, and a 3-gram whose 2-gram prefix has
# no line of its own
EMPTY_SECTION = """\\data\\
ngram 1=3
ngram 2=0
ngram 3=1

\\1-grams:
-0.5\ta\t-0.2
-0.6\tb
-99\t<start>\t-0.1

\\2-grams:

\\3-grams:
-0.3\t<start> a b

\\end\\
"""

# "z" leads 2-grams but has no 1-gram line, and "x x" leads a 3-gram but
# has no 2-gram line
NO_PREFIX_LINES = """\\data\\
ngram 1=2
ngram 2=2
ngram 3=2

\\1-grams:
-0.3\tx
-0.4\ty

\\2-grams:
-0.2\tz x\t-0.15
-0.1\tz y

\\3-grams:
-0.05\tz y x
-0.07\tx x y

\\end\\
"""


def katz(text: str, context: tuple, token: str) -> float:
    """log P(token | context) by the ARPA backoff rule over the file's
    lines, adding the backoff weights from the longest context down; a
    context without a line of its own weighs 0."""
    lines = {}
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) > 1:
            lines[tuple(fields[1].split())] = (
                float(fields[0]), float(fields[2]) if len(fields) > 2 else 0.0)
    acc = 0.0
    for k in range(len(context), -1, -1):
        history = context[len(context) - k:]
        lp10, _ = lines.get((*history, token), (-99.0, 0.0))
        if lp10 > -99.0:
            return acc + lp10 * LN10
        acc = acc + lines.get(history, (-99.0, 0.0))[1] * LN10
    raise AssertionError(f"{token!r} has no 1-gram line")


@pytest.mark.parametrize("text, tokens, vocab, prefix_rows", [
    (EMPTY_SECTION, ("<start>", "a", "b"), {"a", "b"},
     {2: [("<start>", "a")]}),
    (NO_PREFIX_LINES, ("x", "y", "z"), {"x", "y"},
     {1: [("z",)], 2: [("x", "x")]}),
], ids=["empty-section", "no-prefix-lines"])
def test_a_read_file_adds_the_prefixes_it_lacks(tmp_path, text, tokens, vocab,
                                                 prefix_rows):
    path = tmp_path / "m.arpa"
    path.write_text(text, encoding="utf-8")
    model = read_arpa(path)
    assert (model.tokens, model.vocab, model.order, model.padded) == \
        (tokens, vocab, 3, False)
    for n, grams in prefix_rows.items():
        rows = {gram: (lp, bow) for gram, lp, bow in level_rows(model, n)}
        for gram in grams:      # a row with no probability or backoff
            lp, bow = map(np.frombuffer, rows[gram])
            assert math.isnan(lp[0]) and bow[0] == 0.0, gram
    probes = [(), *[(t,) for t in tokens], ("q",),
              *[(s, t) for s in tokens for t in tokens], ("q", "x")]
    for context in probes:
        for token in sorted(vocab):
            assert model.cond_log_prob(context, token) == \
                katz(text, context, token), (context, token)


# Each file with one line dropped: the faults the line loop names, by the
# dropped line's index; dropping any other line reads the same model.
DROPPED = {
    "empty-section": (EMPTY_SECTION, {
        0: "15: no \\data\\ section with unigram probabilities",
        1: "5: undeclared section \\1-grams:",
        2: "10: undeclared section \\2-grams:",
        3: "12: undeclared section \\3-grams:",
        5: "6: entry outside any section",
        6: "2: \\1-grams: section has 2 entries, header declared 3",
        7: "2: \\1-grams: section has 2 entries, header declared 3",
        8: "2: \\1-grams: section has 2 entries, header declared 3",
        12: "13: 3-gram in 2-gram section",
        13: "4: \\3-grams: section has 0 entries, header declared 1"}),
    "no-prefix-lines": (NO_PREFIX_LINES, {
        0: "17: no \\data\\ section with unigram probabilities",
        1: "5: undeclared section \\1-grams:",
        2: "9: undeclared section \\2-grams:",
        3: "13: undeclared section \\3-grams:",
        5: "6: entry outside any section",
        6: "2: \\1-grams: section has 1 entries, header declared 2",
        7: "2: \\1-grams: section has 1 entries, header declared 2",
        9: "10: 2-gram in 1-gram section",
        10: "3: \\2-grams: section has 1 entries, header declared 2",
        11: "3: \\2-grams: section has 1 entries, header declared 2",
        13: "14: 3-gram in 2-gram section",
        14: "4: \\3-grams: section has 1 entries, header declared 2",
        15: "4: \\3-grams: section has 1 entries, header declared 2"}),
}


@pytest.mark.parametrize("name, dropped", [
    (name, i) for name, (text, _) in DROPPED.items()
    for i in range(len(text.split("\n")))])
def test_a_file_with_a_dropped_line_reads_whole_or_names_its_fault(
        tmp_path, name, dropped):
    text, faults = DROPPED[name]
    lines = text.split("\n")
    path = tmp_path / "m.arpa"
    path.write_text("\n".join(lines[:dropped] + lines[dropped + 1:]),
                    encoding="utf-8")
    if dropped in faults:
        with pytest.raises(CorpusError) as exc:
            read_arpa(path)
        assert str(exc.value) == f"{path}:{faults[dropped]}"
        return
    path_whole = tmp_path / "whole.arpa"
    path_whole.write_text(text, encoding="utf-8")
    model, whole = read_arpa(path), read_arpa(path_whole)
    assert (model.tokens, model.vocab, model.order) == \
        (whole.tokens, whole.vocab, whole.order)
    for n in range(whole.order + 1):
        assert level_rows(model, n) == level_rows(whole, n), n
