"""Evaluation: tagging accuracy, chance baseline, confusion matrices, and
the balanced two-class subtask harness.

Accuracy is per-utterance exact match on collapsed labels.  Chance is the
relative frequency of the most frequent reference label, the floor any
constant predictor reaches.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import (Conversation, CorpusError, FeatureSchema, TagSet,
                     Utterance, downsample_uniform, jackknife_split)
from .prosody import TreeConfig, prosody_likelihood_tables, train_tree
from .wordmodels import train_da_lms, word_likelihood_tables


@dataclass(eq=False)
class EvalReport:
    """Confusion counts with reference labels on rows, predictions on
    columns."""

    labels: tuple[str, ...]
    confusion: np.ndarray

    def __post_init__(self) -> None:
        k = len(self.labels)
        self.confusion = np.asarray(self.confusion, dtype=int)
        if self.confusion.shape != (k, k):
            raise ValueError("confusion matrix shape does not match labels")
        if self.total == 0:
            raise ValueError("empty report")

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.confusion)) / self.total

    @property
    def chance(self) -> float:
        return float(self.confusion.sum(axis=1).max()) / self.total

    def reference_count(self, label: str) -> int:
        return int(self.confusion[self.labels.index(label)].sum())

    def precision(self, label: str) -> float:
        i = self.labels.index(label)
        predicted = self.confusion[:, i].sum()
        return float(self.confusion[i, i] / predicted) if predicted else math.nan

    def recall(self, label: str) -> float:
        i = self.labels.index(label)
        referenced = self.confusion[i].sum()
        return float(self.confusion[i, i] / referenced) if referenced else math.nan

    def to_tsv(self) -> str:
        lines = ["\t".join(["label", "count", "precision", "recall"])]
        for lab in self.labels:
            lines.append("\t".join([
                lab, str(self.reference_count(lab)),
                f"{self.precision(lab):.4f}", f"{self.recall(lab):.4f}"]))
        return "\n".join(lines) + "\n"

    def format(self) -> str:
        lines = [f"accuracy {100.0 * self.accuracy:.2f}%  "
                 f"(chance {100.0 * self.chance:.2f}%, n={self.total})"]
        width = max(len(lab) for lab in self.labels)
        for lab in self.labels:
            if self.reference_count(lab) == 0 and self.confusion[
                    :, self.labels.index(lab)].sum() == 0:
                continue
            lines.append(f"  {lab:<{width}}  n={self.reference_count(lab):<6d}"
                         f"precision {_pct(self.precision(lab))}  "
                         f"recall {_pct(self.recall(lab))}")
        return "\n".join(lines) + "\n"


def _pct(x: float) -> str:
    return "   n/a" if math.isnan(x) else f"{100.0 * x:5.1f}%"


def tagging_accuracy(predicted: Sequence[str], reference: Sequence[str],
                     labels: Sequence[str] | None = None) -> EvalReport:
    """Exact-match report for aligned label sequences."""
    if len(predicted) != len(reference):
        raise ValueError(f"length mismatch: {len(predicted)} predictions for "
                         f"{len(reference)} references")
    if not reference:
        raise ValueError("empty label sequences")
    if labels is None:
        labels = sorted(set(reference) | set(predicted))
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    for lab in list(predicted) + list(reference):
        if lab not in index:
            raise ValueError(f"label {lab!r} not in report label set")
    # one count per (reference, prediction) cell, coded ref * k + pred
    k = len(labels)
    codes = np.fromiter((index[ref] * k + index[pred] for pred, ref
                         in zip(predicted, reference)), dtype=np.intp,
                        count=len(reference))
    return EvalReport(labels, np.bincount(codes, minlength=k * k
                                          ).reshape(k, k))


# ---------------------------------------------------------------------------
# Balanced two-class subtask
# ---------------------------------------------------------------------------

CLASSIFIERS = ("words", "prosody", "combined")


def focused_binary_task(utterances: Sequence[Utterance], tagset: TagSet,
                        pair: tuple[str, str],
                        classifiers: Sequence[str] = CLASSIFIERS,
                        seed: int = 0, order: int = 3,
                        config: TreeConfig = TreeConfig(min_leaf=5),
                        schema: FeatureSchema | None = None
                        ) -> dict[str, float]:
    """Train and score classifiers on a balanced two-class subset.

    The labeled utterances are downsampled so both classes are equally
    frequent (chance 50%), split in half per class, and each requested
    classifier is trained on one half and scored on the other with uniform
    class priors by the tagger's evidence routines.  The combined classifier
    is their sum, ``combine_likelihoods`` at alpha = beta = 1 bit for bit.
    Returns accuracy per classifier plus the test-set ``chance`` rate.
    """
    for c in classifiers:
        if c not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {c!r}")
    if len(pair) != 2 or pair[0] == pair[1]:
        raise ValueError("pair must name two distinct classes")
    need_prosody = "prosody" in classifiers or "combined" in classifiers
    need_words = "words" in classifiers or "combined" in classifiers

    pool = []
    for utt in utterances:
        if utt.da_label is None:
            continue
        lab = tagset.collapse(utt.da_label)
        if lab not in pair:
            continue
        if need_prosody and utt.prosody is None:
            continue
        pool.append(dataclasses.replace(utt, da_label=lab))
    sample = downsample_uniform(pool, pair, seed)

    train: list[Utterance] = []
    test: list[Utterance] = []
    for lab in pair:
        cls_items = [u for u in sample if u.da_label == lab]
        if len(cls_items) < 2:
            raise CorpusError(f"class {lab!r}: need at least 2 utterances, "
                              f"have {len(cls_items)}")
        half_a, half_b = jackknife_split(cls_items, seed)
        train.extend(half_a)
        test.extend(half_b)

    # each half as one conversation; log scores by class in ``pair`` order
    train_conv, test_conv = (Conversation("", tuple(dataclasses.replace(
        u, index=i) for i, u in enumerate(half))) for half in (train, test))
    scores: dict[str, np.ndarray] = {}
    if need_words:
        if not any(u.words for u in train):
            raise CorpusError("no training words for the word classifier")
        scores["words"] = word_likelihood_tables(train_da_lms(
            [train_conv], TagSet(pair), order), [test_conv])[0].scores

    if need_prosody:
        if schema is None:
            vectors = [u.prosody.values for u in train]
            names = tuple(dict.fromkeys(n for fv in vectors for n in fv))
            if not names:
                raise CorpusError("no prosodic features present")
            schema = FeatureSchema.infer(names, [[fv.get(n) for fv in vectors]
                                                 for n in names])
        tree = train_tree(schema, [(u.prosody, u.da_label) for u in train],
                          config, classes=pair)
        scores["prosody"] = prosody_likelihood_tables(
            tree, [test_conv])[0].scores
    if "combined" in classifiers:
        scores["combined"] = scores["words"] + scores["prosody"]

    truth = np.array([u.da_label == pair[1] for u in test])
    out: dict[str, float] = {}
    for name in classifiers:
        picks = scores[name][:, 1] > scores[name][:, 0]   # pair[0] wins ties
        out[name] = int((picks == truth).sum()) / len(test)
    counts = [sum(u.da_label == lab for u in test) for lab in pair]
    out["chance"] = max(counts) / len(test)
    return out

