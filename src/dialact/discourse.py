"""Discourse grammars: n-gram priors over dialogue act sequences.

A grammar event is a (DA label, speaker) pair.  Three views of the event
stream are supported:

  DA_ONLY               tokens are bare DA labels; speaker is ignored.
  JOINT                 tokens are pair tokens ``DA·SPK``; the grammar
                        predicts label and speaker jointly.
  SPEAKER_CONDITIONED   same pair tokens, but scores are renormalized over
                        the labels of the observed speaker, so the grammar
                        predicts the label given the speaker.

Conversation boundaries are modeled with speakerless ``<start>``/``<end>``
tokens.  An order-0 grammar ("no grammar") scores every event uniformly,
so decoding under it is a per-utterance argmax.
"""

from __future__ import annotations

import enum
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (SPEAKERS, Conversation, CorpusError, TagSet, _read_text,
                     content_lines)
from .ngram import (END, START, UNK, NGramModel, _logsumexp, left_sum,
                    read_arpa, train_ngram, write_arpa)

PAIR_SEP = "·"  # middle dot, joins label and speaker in pair tokens


class GrammarVariant(str, enum.Enum):
    DA_ONLY = "da_only"
    JOINT = "joint"
    SPEAKER_CONDITIONED = "conditional"


class DiscourseGrammar:
    """A trained discourse prior plus the tag set it scores.

    ``order`` 0 means "no grammar": uniform scores, no inner model.
    Each context's scores over the model's vocabulary are memoized, as are
    speaker normalizers; one engine call scores a context together with
    every context that differs from it in the last token only.  Every
    score is read from such a row, a token outside the vocabulary from
    ``<unk>``'s column.  Instances are immutable after construction and
    safe to share across decodes.
    """

    def __init__(self, tagset: TagSet, variant: GrammarVariant, order: int,
                 model: NGramModel | None) -> None:
        if order < 0:
            raise ValueError("grammar order must be >= 0")
        if (order == 0) != (model is None):
            raise ValueError("order 0 iff no inner model")
        self.tagset = tagset
        self.variant = GrammarVariant(variant)
        self.order = order
        self.model = model
        self._norm_memo: dict[tuple, float] = {}
        self._rows: dict = {}   # context -> log probs of the sorted vocabulary
        self._columns: dict = {}  # speaker -> row columns of the labels
        self._vocab = {t: i for i, t in enumerate(sorted(model.vocab if model
                                                         else ()))}
        if self.variant == GrammarVariant.JOINT:
            self._log_uniform = -math.log(2 * len(tagset.labels))
        else:
            self._log_uniform = -math.log(len(tagset.labels))

    @classmethod
    def uniform(cls, tagset: TagSet,
                variant: GrammarVariant = GrammarVariant.DA_ONLY) -> "DiscourseGrammar":
        """The no-grammar baseline: every event equally likely."""
        return cls(tagset, variant, 0, None)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.tagset.labels

    @property
    def uses_speakers(self) -> bool:
        """False when no score depends on speakers (DA-only view, order 0)."""
        return self.order > 0 and self.variant != GrammarVariant.DA_ONLY

    def _token(self, label: str, speaker: str) -> str:
        if self.variant == GrammarVariant.DA_ONLY:
            return label
        return f"{label}{PAIR_SEP}{speaker}"

    def _context(self, history: Sequence[tuple[str, str]]) -> tuple[str, ...]:
        if self.order <= 1:
            return ()
        events = list(history)[-(self.order - 1):]
        toks = [self._token(lab, spk) for lab, spk in events]
        pad = self.order - 1 - len(toks)
        return tuple([START] * pad + toks)

    def transition_log_prob(self, history: Sequence[tuple[str, str]],
                            event: tuple[str, str]) -> float:
        """log P(event | history) under the grammar's view.

        ``history`` and ``event`` are (label, speaker) pairs; histories
        longer than order-1 are truncated, shorter ones padded with
        ``<start>``.
        """
        label, speaker = event
        if label not in self.tagset.labels:
            raise CorpusError(f"label {label!r} not in grammar tag set")
        return float(self.transition_row(history, speaker)[
            self.labels.index(label)])

    def transition_row(self, history: Sequence[tuple[str, str]],
                       speaker: str) -> np.ndarray:
        """log P((label, speaker) | history) of every label of the tag set,
        in order."""
        if self.order == 0:
            return np.full(len(self.labels), self._log_uniform)
        ctx = self._context(history)
        row = self._token_row(ctx, speaker)
        if self.variant == GrammarVariant.SPEAKER_CONDITIONED:
            row = row - self._speaker_normalizer(ctx, speaker)
        return row

    def _row(self, ctx: tuple[str, ...]) -> np.ndarray:
        """The model's log probs of the sorted vocabulary after ``ctx``."""
        if ctx not in self._rows:
            self._memoize([ctx, *(ctx[:-1] + (t,) for t in self._vocab if ctx)])
        return self._rows[ctx]

    def _memoize(self, contexts: Sequence[tuple[str, ...]]) -> None:
        """Memoize the rows of every context not memoized yet, in one
        engine call."""
        todo = [ctx for ctx in dict.fromkeys(contexts) if ctx not in self._rows]
        if todo:
            self._rows.update(zip(todo, self.model.log_probs(
                todo, list(self._vocab))))

    def _column(self, token: str) -> int:
        """The column of ``token`` in a context's row: its own, else
        ``<unk>``'s, as the model scores a token outside its vocabulary."""
        i = self._vocab.get(token, self._vocab.get(UNK))
        if i is None:
            raise ValueError(f"token {token!r} not in closed vocabulary")
        return i

    def _token_row(self, ctx: tuple[str, ...], speaker: str) -> np.ndarray:
        """The model's log P(token | ctx) of each label's token for
        ``speaker``, in tag set order."""
        if speaker not in self._columns:
            self._columns[speaker] = np.array(
                [self._column(self._token(lab, speaker)) for lab in self.labels],
                dtype=np.intp)
        return self._row(ctx)[self._columns[speaker]]

    def _speaker_normalizer(self, ctx: tuple[str, ...], speaker: str) -> float:
        key = (ctx, speaker)
        if key not in self._norm_memo:
            self._norm_memo[key] = float(_logsumexp(
                self._token_row(ctx, speaker), axis=0))
        return self._norm_memo[key]

    def end_log_prob(self, history: Sequence[tuple[str, str]]) -> float:
        """log P(<end> | history); the end event is speakerless, so it is
        never divided by a speaker normalizer."""
        if self.order == 0:
            return 0.0
        return float(self._row(self._context(history))[self._column(END)])


def _event_sequence(conv: Conversation, tagset: TagSet) -> list[tuple[str, str]]:
    events = []
    for utt in conv:
        if utt.da_label is None:
            raise CorpusError(f"conversation {conv.conv_id}: utterance "
                              f"{utt.index} is unlabeled")
        events.append((tagset.collapse(utt.da_label), utt.speaker))
    return events


def train_discourse(convs: Sequence[Conversation], tagset: TagSet,
                    order: int, variant: GrammarVariant) -> DiscourseGrammar:
    """Train a discourse grammar of the given order and view.

    Callers wanting speaker symmetry should pass a corpus already run
    through :func:`dialact.corpus.symmetrize_speakers`.
    """
    variant = GrammarVariant(variant)
    if order < 1:
        raise ValueError("train_discourse needs order >= 1; "
                         "use DiscourseGrammar.uniform for the no-grammar case")
    if not convs:
        raise ValueError("no training conversations")
    token = DiscourseGrammar.uniform(tagset, variant)._token
    vocab = {token(lab, spk) for lab in tagset.labels for spk in SPEAKERS}
    seqs = [[token(*ev) for ev in _event_sequence(c, tagset)] for c in convs]
    model = train_ngram(seqs, order, vocabulary=vocab, pad=True)
    return DiscourseGrammar(tagset, variant, order, model)


def discourse_perplexity(grammar: DiscourseGrammar,
                         convs: Sequence[Conversation]) -> float:
    """Per-event perplexity of the grammar on labeled conversations.

    Trained grammars score n transitions plus the ``<end>`` event per
    conversation (n+1 events); an order-0 grammar scores n uniform events.
    """
    if not convs:
        raise ValueError("no conversations to evaluate")
    streams = [_event_sequence(conv, grammar.tagset) for conv in convs]
    if grammar.order == 0:
        total, count = 0.0, sum(map(len, streams))
        for events in streams:
            total += len(events) * grammar._log_uniform
        if count == 0:
            raise ValueError("no events to evaluate")
        return math.exp(-total / count)
    # every event's context (the <end> event's last), token and speaker,
    # in corpus order
    k = grammar.order - 1       # only the last k events condition the next
    contexts: list[tuple[str, ...]] = []
    tokens, speakers = [], []
    for events in streams:
        toks = [START] * k + [grammar._token(*ev) for ev in events]
        contexts += zip(*(toks[j:len(events) + 1 + j] for j in range(k))) \
            if k else [()] * (len(events) + 1)
        tokens += toks[k:] + [END]
        speakers += [spk for _, spk in events] + [None]
    where = {ctx: i for i, ctx in enumerate(dict.fromkeys(contexts))}
    grammar._memoize(list(where))
    rows = np.array([grammar._rows[ctx] for ctx in where])
    column = {t: grammar._column(t) for t in dict.fromkeys(tokens)}
    context = [where[ctx] for ctx in contexts]
    scores = rows[context, [column[t] for t in tokens]]
    if grammar.variant == GrammarVariant.SPEAKER_CONDITIONED:
        # each transition less its context and speaker's normalizer, one
        # memoized log-sum-exp per pair; the speakerless <end> keeps its score
        moves = [spk is not None for spk in speakers]
        scores[moves] -= [grammar._speaker_normalizer(ctx, spk) for ctx, spk
                          in zip(contexts, speakers) if spk is not None]
    return math.exp(-left_sum(scores) / len(scores))


def save_discourse(grammar: DiscourseGrammar, path: str | Path) -> None:
    """Write the inner model as ARPA with variant/order in a header comment."""
    if grammar.order == 0:
        raise ValueError("an order-0 grammar has no model to save")
    write_arpa(grammar.model, path,
               comments=[f"discourse grammar variant={grammar.variant.value} "
                         f"order={grammar.order}"])


def load_discourse(path: str | Path, tagset: TagSet) -> DiscourseGrammar:
    """Read a grammar written by :func:`save_discourse`."""
    header = _read_text(path).partition("\n")[0]
    fields = dict(kv.partition("=")[::2] for kv in
                  header.partition("discourse grammar ")[2].split())
    try:
        variant, order = GrammarVariant(fields["variant"]), int(fields["order"])
    except (KeyError, ValueError):
        raise CorpusError(f"{path}:1: expected a '# discourse grammar "
                          f"variant=<view> order=<n>' header") from None
    model = read_arpa(path)
    if model.order != order:
        raise CorpusError(f"{path}:1: header order {order} != model order "
                          f"{model.order}")
    # every token the view makes of the tag set, as train_discourse builds
    # the vocabulary: a grammar of another tag set would read <unk>'s column
    token = DiscourseGrammar.uniform(tagset, variant)._token
    missing = next((tok for lab in tagset.labels for spk in SPEAKERS
                    if (tok := token(lab, spk)) not in model.vocab), None)
    if missing is not None:
        line = next((n for n, f in content_lines(path)
                     if f[0].strip() == "\\1-grams:"), 1)
        raise CorpusError(f"{path}:{line}: no grammar token {missing!r} for "
                          f"a label of the tag set (is the grammar from "
                          f"another tag set?)")
    return DiscourseGrammar(tagset, variant, order, model)
