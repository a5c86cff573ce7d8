"""Per-dialogue-act word language models.

One backoff model per tag-set class, trained on the pooled utterances of
that class over a vocabulary shared by all models, plus a fallback model
pooled over everything.  The fallback doubles as the recognizer-style
baseline LM and is substituted (with a warning) for classes that have no
training utterances.

Evidence for the decoder comes in three modes:

  true_words   score the reference transcript under each class model
  nbest        marginalize over recognizer hypotheses with acoustic scores
  one_best     score only the recognizer's first choice, as if true words
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Conversation, NBestList, TagSet
from .hmm import LikelihoodTable, forward_backward_corpus
from .ngram import (CompiledModelSet, NGramModel, _fit_weights, _logsumexp,
                    _train_set, interpolate)

MODES = ("true_words", "nbest", "one_best")
DEFAULT_SMOOTHING = 0.5     # the weight of a class with no held-out data


@dataclass(frozen=True)
class ScoreScaling:
    """Score shaping for acoustic/LM combination.

    A hypothesis with acoustic log score a, LM log probability l and w words
    scores  a / lm_weight + l - word_penalty * w / lm_weight.  Defaults are
    the conventional lm_weight=10, word_penalty=0; neither is tuned here.
    """

    lm_weight: float = 10.0
    word_penalty: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite([self.lm_weight, self.word_penalty]).all():
            raise ValueError("lm_weight and word_penalty must be finite")
        if self.lm_weight <= 0.0:
            raise ValueError("lm_weight must be > 0")

    def hyp_score(self, acoustic: float, lm_log_prob: float, n_words: int) -> float:
        return (acoustic - self.word_penalty * n_words) / self.lm_weight + lm_log_prob

    def hyp_scores(self, nbest: NBestList, lm: np.ndarray) -> np.ndarray:
        """:meth:`hyp_score` of every hypothesis (rows of ``lm``) under
        every LM (columns), elementwise, so each entry is bit-identical."""
        acoustic = np.array([[h.acoustic_score] for h in nbest])
        n_words = np.array([[len(h.words)] for h in nbest])
        return self.hyp_score(acoustic, lm, n_words)


@dataclass
class DaLmSet:
    """The per-class word models plus shared metadata."""

    tagset: TagSet
    models: dict[str, object]          # class label -> scorer
    fallback: NGramModel               # pooled over all classes

    @property
    def labels(self) -> tuple[str, ...]:
        return self.tagset.labels


def _words_by_class(convs: Sequence[Conversation], tagset: TagSet
                    ) -> dict[str, list[tuple[str, ...]]]:
    """The words of every labeled utterance by collapsed class, in tag-set
    order, each class's in corpus order."""
    by_class: dict[str, list[tuple[str, ...]]] = {lab: [] for lab in tagset}
    for conv in convs:
        for label, words in zip(conv.labels, conv.words):
            if label is not None:
                by_class[tagset.collapse(label)].append(words)
    return by_class


def train_da_lms(convs: Sequence[Conversation], tagset: TagSet,
                 order: int = 3) -> DaLmSet:
    """Train one model per tag-set class over a shared vocabulary."""
    by_class = _words_by_class(convs, tagset)
    pooled = [words for seqs in by_class.values() for words in seqs]
    if not pooled:
        raise ValueError("no labeled training utterances")
    trained = [lab for lab in tagset.labels if by_class[lab]]
    # the pooled model and every class model with data, in one pass
    fallback, *rest = _train_set(
        [pooled, *(by_class[lab] for lab in trained)], order, pad=True)
    own = dict(zip(trained, rest))
    models: dict[str, object] = {}
    for lab in tagset.labels:
        if lab not in own:
            warnings.warn(f"no training utterances for {lab!r}; "
                          f"using the pooled fallback model")
        models[lab] = own.get(lab, fallback)
    return DaLmSet(tagset, models, fallback)


def smooth_da_lms(da_lms: DaLmSet, heldout: Sequence[Conversation]
                  ) -> tuple[DaLmSet, dict[str, float]]:
    """Interpolate each class model with the pooled fallback.

    Per-class weights are EM-fit on that class's held-out utterances; a class
    with no held-out data gets DEFAULT_SMOOTHING, with a warning.
    Returns the smoothed set and the weights.  The unsmoothed set remains
    the right choice for classification; the smoothed one is for rescoring.
    """
    heldout_by_class = _words_by_class(heldout, da_lms.tagset)
    fallback = da_lms.fallback
    fitted = [lab for lab in da_lms.labels
              if da_lms.models[lab] is not fallback and heldout_by_class[lab]]
    # every class's EM from one engine over the class models
    fit = dict(zip(fitted, _fit_weights(
        [da_lms.models[lab] for lab in fitted], fallback,
        [heldout_by_class[lab] for lab in fitted])))
    weights: dict[str, float] = {}
    models: dict[str, object] = {}
    for lab in da_lms.labels:
        model = da_lms.models[lab]
        if model is fallback:
            weights[lab] = 0.0
            models[lab] = fallback
            continue
        if lab not in fit:
            warnings.warn(f"no held-out utterances for {lab!r}; "
                          f"interpolation weight defaults to "
                          f"{DEFAULT_SMOOTHING}")
        weights[lab] = fit.get(lab, DEFAULT_SMOOTHING)
        models[lab] = interpolate(model, fallback, weights[lab])
    return DaLmSet(da_lms.tagset, models, da_lms.fallback), weights


# ---------------------------------------------------------------------------
# Evidence scoring
# ---------------------------------------------------------------------------

def _evidence_sequences(words: tuple[str, ...], nbest: NBestList | None,
                        mode: str) -> tuple[tuple[str, ...], ...]:
    """The word sequences one utterance's evidence is scored from."""
    if mode == "true_words":
        return (words,)
    if mode == "one_best":
        return (nbest.first.words,)
    return tuple(h.words for h in nbest)


# Utterances are scored in groups costing at most this many cells of 8
# bytes (an utterance costing more is a group of its own), so what a group
# holds while it scores stays near 512 KB at any corpus or conversation
# size.  A sequence costs a row of (sequence, scorer) scores, and each of
# its events (its words and the end) a row of (event window, scorer)
# scores plus ``_EVENT_CELLS``: the event's entries in the index arrays of
# :meth:`CompiledModelSet.score` (its token stream, window keys and their
# ``np.unique``), about 110 bytes.  The backoff walk over the windows runs
# in blocks of its own (``ngram._BLOCK_CELLS``), which add up to about
# 1 MB more.
_GROUP_CELLS = 1 << 16
_EVENT_CELLS = 16


def _scored_evidence(engine: CompiledModelSet, convs: Sequence[Conversation],
                     labels: tuple[str, ...], mode: str, scaling: ScoreScaling,
                     references: bool = False):
    """Yield ``(tables, held)`` each time a group of utterances is scored.

    The first ``len(labels)`` scorers of ``engine`` are the class models of
    ``labels``.  Each distinct word sequence of a group is scored once under
    every scorer; the sequences are those the evidence reads, plus every
    utterance's own words when ``references`` is set.  A conversation may
    span groups: ``tables`` holds the evidence table of each conversation
    whose last utterance the group scored, in input order, assembled from
    its groups.  With ``references``, ``held`` holds per such table one
    array per utterance, the scores of its evidence sequences and then of
    its own words (rows) under every scorer (columns); else it is None.
    """
    t = len(labels)
    # per conversation begun and not yet yielded: [conversation, its
    # evidence rows in blocks, its held arrays, the sequence rows of its
    # utterances awaiting the next flush]
    pending: list[list] = []
    row_of: dict[tuple[str, ...], int] = {}
    cells = 0

    def flush():
        scores = engine.score(list(row_of))
        for conv, parts, held, index in pending:
            if not index:
                continue
            scored = sum(map(len, parts))
            if mode == "nbest":
                # the acoustic-weighted hypothesis sum of every label
                rows = [_logsumexp(scaling.hyp_scores(
                    nbest, scores[i[:len(nbest)], :t]), axis=0)
                    for nbest, i in zip(
                        conv.nbest[scored:scored + len(index)], index)]
            else:
                rows = scores[[i[0] for i in index], :t]
            parts.append(np.reshape(rows, (len(index), t)))
            if references:
                held += [scores[i] for i in index]
            index.clear()
        done = list(itertools.takewhile(
            lambda entry: sum(map(len, entry[1])) == len(entry[0]), pending))
        del pending[:len(done)]
        return ([LikelihoodTable(conv.conv_id, labels, conv.speakers,
                                 np.concatenate([np.empty((0, t)), *parts]))
                 for conv, parts, _, _ in done],
                [held for _, _, held, _ in done] if references else None)

    for conv in convs:
        pending.append([conv, [], [], []])
        for i, (words, nbest) in enumerate(zip(conv.words, conv.nbest)):
            if mode != "true_words" and nbest is None:
                raise ValueError(f"{conv.conv_id}:{i}: mode "
                                 f"{mode!r} needs an n-best list")
            seqs = _evidence_sequences(words, nbest, mode)
            if references:
                seqs += (words,)
            cost = sum(engine.n_scorers + (len(seq) + 1) * (
                engine.n_scorers + _EVENT_CELLS) for seq in seqs)
            if row_of and cells + cost > _GROUP_CELLS:
                yield flush()
                row_of, cells = {}, 0
            cells += cost
            pending[-1][3].append([row_of.setdefault(seq, len(row_of))
                                   for seq in seqs])
    if pending:
        yield flush()


def word_likelihood_tables(da_lms: DaLmSet, convs: Sequence[Conversation],
                           mode: str = "true_words",
                           scaling: ScoreScaling = ScoreScaling()
                           ) -> list[LikelihoodTable]:
    """Build the decoder's evidence tables from the word stream.

    Each distinct word sequence of a group of conversations is scored once
    under every class model, all of them in one :class:`CompiledModelSet`.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    labels = da_lms.labels
    engine = CompiledModelSet([da_lms.models[lab] for lab in labels])
    return [table for tables, _ in
            _scored_evidence(engine, convs, labels, mode, scaling)
            for table in tables]


def classify_from_words(da_lms: DaLmSet, grammar, convs: Sequence[Conversation],
                        mode: str = "true_words") -> list[list[str]]:
    """Tag every utterance: posterior decoding over word evidence, with the
    default :class:`ScoreScaling`.

    Returns one label list per conversation.  With an order-0 grammar this
    reduces to per-utterance maximum likelihood.
    """
    tables = word_likelihood_tables(da_lms, convs, mode)
    return [[table.labels[j] for j in np.argmax(posts, axis=1)]
            for table, posts in zip(tables, forward_backward_corpus(
                grammar, tables))]
