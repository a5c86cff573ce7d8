"""A model directory is one n-gram store, read in place by every scorer.

``load_models`` reads each ARPA file into a store of its own and merges
them into one, whose rows every compiled scorer set then walks without a
copy.  The directory here is shaped like the Switchboard bench data: the
42 bundled acts with Zipf frequencies (so rare acts share the pooled
file), an 80-word vocabulary, and bigram word models.
"""

import gc
import random
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dialact import cli
from dialact.corpus import default_tagset
from dialact.ngram import CompiledModelSet, read_arpa, write_arpa

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
def trained(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("store")
    rng = random.Random(7)
    write_corpus(root / "train.tsv", rng, "tr", 20)
    write_corpus(root / "heldout.tsv", rng, "ho", 6)
    with warnings.catch_warnings():     # rare acts: no data, no held-out
        warnings.simplefilter("ignore")
        assert cli.main(["train", "--corpus", str(root / "train.tsv"),
                         "--heldout", str(root / "heldout.tsv"),
                         "--models", str(root / "models"), "--order", "2",
                         "--word-order", "2"]) == 0
    return root / "models"


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


@pytest.mark.parametrize("edited", [False, True],
                         ids=["as-trained", "one-file-edited"])
def test_a_directory_loads_into_one_store_that_writes_its_files_back(
        trained, tmp_path, edited):
    root = tmp_path / "models"
    shutil.copytree(trained, root)
    loaded = cli.load_models(root)
    files = model_files(root, loaded)
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
