"""N-best rescoring with dialogue-act language models, and word error rate.

Every hypothesis score has the shape  a / lm_weight + L - word_penalty *
|W| / lm_weight  where a is the recognizer's acoustic log score and L a
language model log probability.  The methods differ in L:

  baseline              the pooled fallback LM
  one_best / oracle     the single most probable (or true) DA's LM
  mixture_of_lms        log sum_U P(W | U) P(U | E), posterior-weighted
  mixture_of_posteriors per-DA normalized hypothesis weights recombined
                        with the DA posteriors (scores the posterior mass
                        of each hypothesis rather than its probability)

WER alignments minimize substitutions + insertions + deletions, preferring
a substitution over an insertion-deletion pair when totals tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Conversation, NBestList
from .hmm import forward_backward_corpus
from .ngram import CompiledModelSet, _logsumexp
from .wordmodels import DaLmSet, ScoreScaling, _scored_evidence


# ---------------------------------------------------------------------------
# Word error rate
# ---------------------------------------------------------------------------

class WordErrors(NamedTuple):
    substitutions: int
    insertions: int
    deletions: int
    rate: float


def wer(reference: Sequence[str], hypothesis: Sequence[str]) -> WordErrors:
    """Minimum-edit alignment counts and the error rate.

    Rate is (S+I+D) / |reference|; an empty reference yields rate nan with
    the insertions still counted.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    # One integer per DP cell, edits * k + (insertions + deletions): the
    # second term, always below k, prefers a substitution over an
    # insertion-deletion pair when edit totals tie.
    k = n + m + 1
    indel = k + 1
    prev = [j * indel for j in range(m + 1)]
    for i, r in enumerate(ref, 1):
        cur = [i * indel]
        for j, h in enumerate(hyp):
            cur.append(min(prev[j] + (0 if r == h else k),
                           cur[j] + indel, prev[j + 1] + indel))
        prev = cur
    edits, indels = divmod(prev[m], k)
    # every alignment has insertions - deletions = m - n
    ins = (indels + m - n) // 2
    dels = indels - ins
    return WordErrors(edits - indels, ins, dels, edits / n if n else math.nan)


def _pooled_wer(errors: Sequence[WordErrors], ref_words: int) -> WordErrors:
    """Add up alignment counts over ``ref_words`` reference words."""
    s, i, d = (sum(e[k] for e in errors) for k in range(3))
    return WordErrors(s, i, d, (s + i + d) / ref_words if ref_words else math.nan)


def per_da_wer_report(references: Mapping[tuple[str, int], Sequence[str]],
                      labels: Mapping[tuple[str, int], str],
                      baseline: Mapping[tuple[str, int], WordErrors],
                      method: Mapping[tuple[str, int], WordErrors]
                      ) -> list[dict]:
    """Per-label WER comparison, sorted by reduction (best improvement first).

    ``baseline`` and ``method`` map utterances to their alignment counts.
    Each row: label, share of reference words (percent, rows sum to 100),
    baseline and method error rates, and their difference.
    """
    by_label: dict[str, list[tuple[str, int]]] = {}
    total_words = 0
    for key, ref in references.items():
        by_label.setdefault(labels[key], []).append(key)
        total_words += len(ref)
    if total_words == 0:
        raise ValueError("no reference words")
    rows = []
    for label, keys in by_label.items():
        words = sum(len(references[k]) for k in keys)
        base = _pooled_wer([baseline[k] for k in keys], words)
        meth = _pooled_wer([method[k] for k in keys], words)
        rows.append({
            "label": label,
            "word_share": 100.0 * words / total_words,
            "baseline_wer": base.rate,
            "method_wer": meth.rate,
            "delta": meth.rate - base.rate,
        })
    rows.sort(key=lambda r: (r["delta"], r["label"]))
    return rows


# ---------------------------------------------------------------------------
# Per-utterance rescoring primitives
# ---------------------------------------------------------------------------

# The two mixtures of one n-best list, each scored in one compiled-engine
# call; rescore_corpus gets the same numbers for a whole group of
# conversations at once and shares the mixture formulas below.

def mixture_lm_scores(nbest: NBestList, da_lms: DaLmSet,
                      posterior: Mapping[str, float],
                      scaling: ScoreScaling = ScoreScaling()) -> np.ndarray:
    """Sentence-level mixture: acoustic and penalty terms plus
    log sum_U P(W | U) P(U | E)."""
    mixed = _mixed_log_probs(_label_scores(nbest, da_lms),
                             [posterior[lab] for lab in da_lms.labels])
    return scaling.hyp_scores(nbest, mixed[:, None])[:, 0]


def mixture_posterior_scores(nbest: NBestList, da_lms: DaLmSet,
                             posterior: Mapping[str, float],
                             scaling: ScoreScaling = ScoreScaling(),
                             per_da_normalizer: bool = True) -> np.ndarray:
    """Posterior-mass rescoring.

    With ``per_da_normalizer`` each DA's hypothesis scores are normalized
    over the n-best list before being mixed with the DA posteriors (the
    acoustic prior P(A|U) is realized on the list).  Setting it False uses
    one shared normalizer for all DAs, which reduces the method to a
    monotone transform of :func:`mixture_lm_scores`.
    """
    return _mixture_posterior(
        scaling.hyp_scores(nbest, _label_scores(nbest, da_lms)),
        [posterior.get(lab, 0.0) for lab in da_lms.labels], per_da_normalizer)


def _label_scores(nbest: NBestList, da_lms: DaLmSet) -> np.ndarray:
    return CompiledModelSet([da_lms.models[lab] for lab in da_lms.labels]
                            ).score([h.words for h in nbest])


# The mixtures, from scores already computed: one row per hypothesis and
# one column per label, the columns aligned with ``post``, the labels'
# posterior probabilities.

def _mixed_log_probs(lm: np.ndarray, post: Sequence[float]) -> np.ndarray:
    """log sum_U P(W | U) P(U | E) of every row of LM log probabilities,
    over the labels with posterior mass (-inf if none has any)."""
    keep = [j for j, p in enumerate(post) if p > 0.0]
    return _logsumexp(lm[:, keep] + [math.log(post[j]) for j in keep], axis=1)


def _mixture_posterior(hyp_scores: np.ndarray, post: Sequence[float],
                       per_da_normalizer: bool = True) -> np.ndarray:
    keep = [j for j, p in enumerate(post) if p > 0.0]
    if not keep:
        raise ValueError("posterior puts no mass on any label")
    if per_da_normalizer:
        # each label's scores normalized over the list, then mixed
        scores = hyp_scores[:, keep]
        return (np.exp(scores - _logsumexp(scores, axis=0))
                * [post[j] for j in keep]).sum(axis=1)
    mixed = _mixed_log_probs(hyp_scores, post)
    return np.exp(mixed - _logsumexp(mixed, axis=0))


def best_hypothesis(nbest: NBestList, scores: Sequence[float]) -> int:
    """Index of the highest score; exact ties go to the smaller word tuple,
    making the choice independent of list order."""
    best = 0
    for i in range(1, len(nbest)):
        if scores[i] > scores[best] or (
                scores[i] == scores[best]
                and nbest.hypotheses[i].words < nbest.hypotheses[best].words):
            best = i
    return best


# ---------------------------------------------------------------------------
# Corpus-level driver
# ---------------------------------------------------------------------------

METHODS = ("baseline", "one_best", "oracle", "mixture_of_lms",
           "mixture_of_posteriors")


@dataclass
class MethodResult:
    chosen: dict[tuple[str, int], tuple[str, ...]]
    errors: dict[tuple[str, int], WordErrors]   # each choice's alignment
    wer: WordErrors
    perplexity: float | None


@dataclass
class RescoreResult:
    methods: dict[str, MethodResult]
    posteriors: dict[tuple[str, int], dict[str, float]]
    skipped: list[tuple[str, int]]
    references: dict[tuple[str, int], tuple[str, ...]]
    labels: dict[tuple[str, int], str]


def rescore_corpus(convs: Sequence[Conversation], grammar,
                   da_lms: DaLmSet, rescoring_lms: DaLmSet | None = None,
                   methods: Sequence[str] = METHODS,
                   scaling: ScoreScaling = ScoreScaling()) -> RescoreResult:
    """Run the requested rescoring methods over every utterance with an
    n-best list.

    DA posteriors come from forward-backward over n-best word evidence using
    ``da_lms`` (the unsmoothed classification set); hypothesis probabilities
    use ``rescoring_lms`` (typically the smoothed set; defaults to
    ``da_lms``).  In each group of utterances, each distinct word sequence
    (hypothesis or reference) is scored once under every model of both
    sets, and the evidence, every method and every perplexity read those
    scores.
    Utterances without recognizer output are skipped and reported.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if rescoring_lms is None:
        rescoring_lms = da_lms

    kept_utts, subs = [], []
    skipped = []
    for conv in convs:
        missing = [u.index for u in conv if u.nbest is None]
        if missing:
            skipped.extend((conv.conv_id, i) for i in missing)
        if len(missing) < len(conv):
            # decode over the utterances that do have recognizer output
            kept = [u for u in conv if u.nbest is not None]
            kept_utts.append(kept)
            subs.append(Conversation(conv.conv_id, tuple(
                u.__class__(i, u.speaker, u.da_label, u.words, u.nbest,
                            u.prosody)
                for i, u in enumerate(kept))))

    labels = da_lms.labels
    # columns: the unsmoothed set (evidence), the rescoring set, and the
    # rescoring fallback (baseline), all from one compiled model set
    rescoring_col = {lab: len(labels) + j
                     for j, lab in enumerate(rescoring_lms.labels)}
    baseline_col = len(labels) + len(rescoring_col)
    mixing = slice(len(labels), baseline_col)
    engine = CompiledModelSet([
        *(da_lms.models[lab] for lab in labels),
        *(rescoring_lms.models[lab] for lab in rescoring_lms.labels),
        rescoring_lms.fallback])

    methods = tuple(dict.fromkeys(methods))
    posteriors: dict[tuple[str, int], dict[str, float]] = {}
    references: dict[tuple[str, int], tuple[str, ...]] = {}
    true_labels: dict[tuple[str, int], str] = {}
    chosen: dict[str, dict[tuple[str, int], tuple[str, ...]]] = {
        method: {} for method in methods}
    log_totals = dict.fromkeys(methods, 0.0)
    tokens = 0
    def decoded():
        # every distinct hypothesis and reference, scored once under every
        # model of the group of utterances it falls in, and the
        # conversations each group completes decoded together
        for tables, held in _scored_evidence(
                engine, subs, labels, "nbest", scaling, references=True):
            yield from zip(tables, forward_backward_corpus(grammar, tables),
                           held)

    for kept, (table, posts, held) in zip(kept_utts, decoded()):
        conv_id = table.conversation_id
        for row, utt, scores in zip(posts, kept, held):
            key = (conv_id, utt.index)
            post = posteriors[key] = {lab: float(p) for lab, p in
                                      zip(labels, row)}
            words = references[key] = utt.words
            if utt.da_label is not None:
                true_labels[key] = da_lms.tagset.collapse(utt.da_label)
            nbest = utt.nbest
            lm, ref = scores[:-1], scores[-1]
            scaled = scaling.hyp_scores(nbest, lm)
            for method in methods:
                if method == "mixture_of_lms":
                    mix_post = [post[lab] for lab in rescoring_lms.labels]
                    mixed = _mixed_log_probs(
                        np.vstack([lm[:, mixing], ref[mixing]]), mix_post)
                    by_hyp = scaling.hyp_scores(nbest, mixed[:-1, None])[:, 0]
                    # the reference's sentence probability is itself a
                    # mixture
                    log_totals[method] += float(mixed[-1])
                elif method == "mixture_of_posteriors":
                    by_hyp = _mixture_posterior(
                        scaled[:, mixing],
                        [post.get(lab, 0.0) for lab in rescoring_lms.labels])
                else:
                    if method == "baseline":
                        col = baseline_col
                    elif method == "one_best":
                        col = rescoring_col[max(labels,
                                                key=lambda lab: post[lab])]
                    elif key in true_labels:
                        col = rescoring_col[true_labels[key]]
                    else:
                        raise ValueError(f"{key}: oracle rescoring needs a "
                                         f"labeled reference")
                    by_hyp = scaled[:, col]
                    log_totals[method] += float(ref[col])
                chosen[method][key] = \
                    nbest.hypotheses[best_hypothesis(nbest, by_hyp)].words
            tokens += len(words) + 1
    ref_words = sum(len(words) for words in references.values())
    results = {}
    for method in methods:
        errors = {k: wer(references[k], c) for k, c in chosen[method].items()}
        ppl = (math.exp(-log_totals[method] / tokens)
               if method != "mixture_of_posteriors" and tokens else None)
        results[method] = MethodResult(chosen[method], errors, _pooled_wer(
            list(errors.values()), ref_words), ppl)
    return RescoreResult(results, posteriors, skipped, references, true_labels)
