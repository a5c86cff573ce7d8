"""Evaluation reports and the balanced two-class subtask."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact.corpus import (CorpusError, FeatureSchema, FeatureVector, TagSet,
                            Utterance, downsample_uniform, jackknife_split)
from dialact.metrics import (CLASSIFIERS, EvalReport, focused_binary_task,
                             tagging_accuracy)
from dialact.ngram import CompiledModelSet, train_ngram
from dialact.prosody import TreeConfig, train_tree, tree_posterior


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def test_confusion_layout_and_rates():
    report = tagging_accuracy(["S", "Q", "S", "S"], ["S", "Q", "Q", "S"])
    assert report.labels == ("Q", "S")
    # rows are references, columns predictions
    assert report.confusion[report.labels.index("Q"),
                            report.labels.index("S")] == 1
    assert report.total == 4
    assert report.accuracy == 0.75
    assert report.chance == 0.5
    assert report.reference_count("Q") == 2


def test_row_sums_are_reference_counts():
    rng = random.Random(21)
    labels = ("S", "Q", "B")
    ref = [rng.choice(labels) for _ in range(200)]
    pred = [rng.choice(labels) for _ in range(200)]
    report = tagging_accuracy(pred, ref, labels)
    for lab in labels:
        assert report.confusion[report.labels.index(lab)].sum() == \
            ref.count(lab)
        assert report.confusion[:, report.labels.index(lab)].sum() == \
            pred.count(lab)
    assert np.trace(report.confusion) == \
        sum(p == r for p, r in zip(pred, ref))


def test_constant_predictor_scores_exactly_chance():
    ref = ["S", "S", "Q", "S", "B", "S"]
    report = tagging_accuracy(["S"] * len(ref), ref)
    assert report.accuracy == report.chance == 4 / 6


def test_precision_recall_and_nan_cases():
    report = tagging_accuracy(["S", "S", "Q"], ["S", "Q", "Q"],
                              labels=("S", "Q", "B"))
    assert report.precision("S") == 0.5
    assert report.recall("S") == 1.0
    assert report.precision("Q") == 1.0
    assert report.recall("Q") == 0.5
    # B never referenced nor predicted
    assert math.isnan(report.precision("B"))
    assert math.isnan(report.recall("B"))


def loop_confusion(predicted, reference, labels):
    """The confusion matrix counted one utterance at a time."""
    index = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=int)
    for pred, ref in zip(predicted, reference):
        confusion[index[ref], index[pred]] += 1
    return confusion


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.just(tuple(f"L{i}" for i in range(k))),
    st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
             min_size=1, max_size=60))))
def test_confusion_counts_equal_the_per_utterance_loop(case):
    labels, pairs = case
    predicted = [labels[p] for p, _ in pairs]
    reference = [labels[r] for _, r in pairs]
    report = tagging_accuracy(predicted, reference, labels=labels)
    want = loop_confusion(predicted, reference, labels)
    assert report.confusion.dtype == want.dtype
    assert report.confusion.tolist() == want.tolist()
    assert report.format() == EvalReport(labels, want).format()


def test_report_validation():
    with pytest.raises(ValueError, match="mismatch"):
        tagging_accuracy(["S"], ["S", "Q"])
    with pytest.raises(ValueError, match="empty"):
        tagging_accuracy([], [])
    with pytest.raises(ValueError, match="not in report"):
        tagging_accuracy(["Z"], ["S"], labels=("S", "Q"))
    with pytest.raises(ValueError, match="shape"):
        EvalReport(("S", "Q"), np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError, match="empty"):
        EvalReport(("S",), np.zeros((1, 1), dtype=int))


def test_tsv_and_text_rendering():
    report = tagging_accuracy(["S", "S", "Q"], ["S", "Q", "Q"],
                              labels=("S", "Q", "B"))
    tsv = report.to_tsv()
    header, *rows = tsv.strip().split("\n")
    assert header.split("\t") == ["label", "count", "precision", "recall"]
    assert len(rows) == 3
    assert rows[0].split("\t") == ["S", "1", "0.5000", "1.0000"]
    text = report.format()
    assert "accuracy 66.67%" in text
    assert "chance 66.67%" in text
    assert "B" not in text  # empty rows are dropped from the pretty view
    assert "n/a" not in text


# ---------------------------------------------------------------------------
# Balanced two-class subtask
# ---------------------------------------------------------------------------

TS = TagSet(("S", "Q", "B"))
SCHEMA = FeatureSchema(("pitch", "len"), ("continuous", "continuous"))


def build_utterances(n_per_class, word_cue, prosody_cue, seed=0):
    """S/Q utterances where each cue carries signal only when asked to."""
    rng = random.Random(seed)
    utts = []
    idx = 0
    for lab in ("S", "Q") * n_per_class:
        if word_cue:
            words = ("yes", "it", "is") if lab == "S" else ("is", "it", "yes")
        else:
            words = tuple(rng.choice(["a", "b", "c"]) for _ in range(3))
        pitch = rng.gauss(1.0 if lab == "Q" else -1.0, 0.3) if prosody_cue \
            else rng.gauss(0.0, 1.0)
        utts.append(Utterance(idx, rng.choice("AB"), lab, words,
                              prosody=FeatureVector(
                                  {"pitch": pitch, "len": rng.gauss(0, 1)})))
        idx += 1
    return utts


def test_prosody_cue_beats_words_when_words_are_noise():
    utts = build_utterances(40, word_cue=False, prosody_cue=True)
    out = focused_binary_task(utts, TS, ("S", "Q"), seed=0, schema=SCHEMA)
    assert out["chance"] == 0.5
    assert out["prosody"] >= 0.9
    assert abs(out["words"] - 0.5) < 0.25
    assert out["combined"] >= 0.75


def test_word_cue_beats_prosody_when_prosody_is_noise():
    utts = build_utterances(40, word_cue=True, prosody_cue=False)
    out = focused_binary_task(utts, TS, ("S", "Q"), seed=0, schema=SCHEMA)
    assert out["words"] >= 0.9
    assert abs(out["prosody"] - 0.5) < 0.3


def test_independent_cues_combine():
    utts = build_utterances(60, word_cue=True, prosody_cue=True)
    out = focused_binary_task(utts, TS, ("S", "Q"), seed=1, schema=SCHEMA)
    assert out["combined"] >= max(out["words"], out["prosody"]) - 0.05
    assert out["combined"] >= 0.9


def test_downsampling_balances_the_classes():
    # 3x as many S as Q: the harness must still report 50% chance
    utts = build_utterances(30, word_cue=True, prosody_cue=True)
    extra = [u for u in build_utterances(60, True, True, seed=9)
             if u.da_label == "S"]
    rebased = [Utterance(i, u.speaker, u.da_label, u.words, prosody=u.prosody)
               for i, u in enumerate(list(utts) + extra)]
    out = focused_binary_task(rebased, TS, ("S", "Q"), seed=0, schema=SCHEMA)
    assert out["chance"] == 0.5


def test_same_seed_reproduces_accuracies():
    utts = build_utterances(40, word_cue=True, prosody_cue=True)
    a = focused_binary_task(utts, TS, ("S", "Q"), seed=3, schema=SCHEMA)
    b = focused_binary_task(utts, TS, ("S", "Q"), seed=3, schema=SCHEMA)
    assert a == b


def test_task_validation():
    utts = build_utterances(10, word_cue=True, prosody_cue=True)
    with pytest.raises(ValueError, match="classifier"):
        focused_binary_task(utts, TS, ("S", "Q"), classifiers=("psychic",))
    with pytest.raises(ValueError, match="distinct"):
        focused_binary_task(utts, TS, ("S", "S"))
    # B never occurs: downsampling has nothing to draw from
    with pytest.raises(CorpusError):
        focused_binary_task(utts, TS, ("S", "B"))


def test_unlabeled_and_off_pair_utterances_are_ignored():
    utts = list(build_utterances(20, word_cue=True, prosody_cue=True))
    n = len(utts)
    utts.append(Utterance(n, "A", None, ("hm",),
                          prosody=FeatureVector({"pitch": 0.0, "len": 0.0})))
    utts.append(Utterance(n + 1, "B", "B", ("hm",),
                          prosody=FeatureVector({"pitch": 0.0, "len": 0.0})))
    out = focused_binary_task(utts, TS, ("S", "Q"), seed=0, schema=SCHEMA)
    ref = focused_binary_task(utts[:n], TS, ("S", "Q"), seed=0, schema=SCHEMA)
    assert out == ref


def test_schema_inference_marks_string_features_categorical():
    rng = random.Random(5)
    utts = []
    for i in range(40):
        lab = ("S", "Q")[i % 2]
        utts.append(Utterance(
            i, "A", lab, ("w",),
            prosody=FeatureVector({"pitch": rng.gauss(0, 1),
                                   "gender": rng.choice(["m", "f"])})))
    # inferred schema must accept the mixed kinds without error
    out = focused_binary_task(utts, TS, ("S", "Q"), seed=0,
                              classifiers=("prosody",))
    assert set(out) == {"prosody", "chance"}


def reference_binary_task(utts, pair, classifiers, seed, order, min_leaf):
    """The two-class task one test utterance at a time: the same balanced
    split and training, each class scored by its word model and the log
    of its leaf posterior over its training prior, and pair[0] winning
    ties."""
    sample = downsample_uniform([u for u in utts if u.da_label in pair],
                                pair, seed)
    train, test = [], []
    for lab in pair:
        half_a, half_b = jackknife_split(
            [u for u in sample if u.da_label == lab], seed)
        train += half_a
        test += half_b
    vocab = sorted({w for u in train for w in u.words})
    lms = [train_ngram([u.words for u in train if u.da_label == lab], order,
                       vocabulary=vocab) for lab in pair]
    tree = train_tree(SCHEMA, [(u.prosody, u.da_label) for u in train],
                      TreeConfig(min_leaf=min_leaf), classes=pair)

    def prosody(u, j):
        ratio = tree_posterior(tree, u.prosody)[j] / tree.training_priors[j]
        return math.log(ratio) if ratio > 0.0 else -math.inf

    def words(u, j):
        return CompiledModelSet([lms[j]]).score([u.words])[0, 0]

    score = {"words": words, "prosody": prosody,
             "combined": lambda u, j: words(u, j) + prosody(u, j)}
    out = {}
    for name in classifiers:
        hits = 0
        for u in test:
            best = 1 if score[name](u, 1) > score[name](u, 0) else 0
            hits += pair[best] == u.da_label
        out[name] = hits / len(test)
    out["chance"] = 0.5
    return out


def test_binary_task_matches_per_utterance_definition():
    rng = random.Random(21)
    for case in range(120):
        utts = build_utterances(rng.randrange(4, 30), rng.random() < 0.5,
                                rng.random() < 0.5, seed=case)
        if case % 4 == 0:   # identical class word models: word scores tie
            utts = [Utterance(u.index, u.speaker, u.da_label, ("w",),
                              prosody=u.prosody) for u in utts]
        pair = rng.choice([("S", "Q"), ("Q", "S")])
        classifiers = rng.choice([CLASSIFIERS, ("combined",),
                                  ("prosody", "words")])
        seed, order, min_leaf = (rng.randrange(100), rng.randrange(1, 4),
                                 rng.randrange(1, 8))
        got = focused_binary_task(utts, TS, pair, classifiers, seed, order,
                                  TreeConfig(min_leaf=min_leaf), SCHEMA)
        assert got == reference_binary_task(utts, pair, classifiers, seed,
                                            order, min_leaf)


def test_classifier_list_is_frozen():
    assert CLASSIFIERS == ("words", "prosody", "combined")
