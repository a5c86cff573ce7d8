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

    def token(self, label: str, speaker: str) -> str:
        """The grammar token of the event (label, speaker) in this view."""
        if self is self.DA_ONLY:
            return label
        return f"{label}{PAIR_SEP}{speaker}"


class DiscourseGrammar:
    """A trained discourse prior plus the tag set it scores.

    ``order`` 0 means "no grammar": uniform scores, no inner model.  Every
    score is read from one memo that ``_label_rows`` fills in batches: per
    (context, speaker) the labels' columns of the context's row over the
    model's vocabulary (one engine call for the contexts not scored yet),
    less the speaker normalizer in the conditioned view.  A token outside
    the vocabulary reads ``<unk>``'s column.  Instances are immutable after
    construction and safe to share across decodes.
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
        self._memo: dict = {}   # (context, speaker) -> row of _label_rows
        self._vocab = {t: i for i, t in enumerate(sorted(model.vocab))} \
            if model else {END: 0}      # order 0's rows hold <end> alone
        self._log_uniform = -math.log(len(tagset.labels) * (
            2 if self.variant == GrammarVariant.JOINT else 1))

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

    def _context(self, history: Sequence[tuple[str, str]]) -> tuple[str, ...]:
        """The tokens of the last order-1 events, padded with ``<start>``."""
        k = self.order - 1
        events = history[-k:] if k > 0 else ()
        return (START,) * (k - len(events)) + tuple(
            [self.variant.token(lab, spk) for lab, spk in events])

    def transition_log_prob(self, history: Sequence[tuple[str, str]],
                            event: tuple[str, str]) -> float:
        """log P(event | history) under the grammar's view, for (label,
        speaker) pairs: only the last order-1 events of ``history`` count,
        and a shorter one is padded with ``<start>``."""
        label, speaker = event
        if label not in self.tagset.labels:
            raise CorpusError(f"label {label!r} not in grammar tag set")
        return float(self._label_row(history, speaker)[
            self.labels.index(label)])

    def transition_rows(self, histories: Sequence[Sequence[tuple[str, str]]],
                        speaker: str) -> np.ndarray:
        """log P((label, speaker) | history) of every label of the tag set
        (columns, in order) after each of ``histories`` (rows)."""
        return self._label_rows(list(map(self._context, histories)), speaker)

    def end_log_prob(self, history: Sequence[tuple[str, str]]) -> float:
        """log P(<end> | history), never divided by a speaker normalizer."""
        return float(self._label_row(history, END)[self._column(END)])

    def _label_row(self, history: Sequence[tuple[str, str]],
                   speaker: str) -> np.ndarray:
        """The row of ``_label_rows`` after ``history``: one memo lookup
        once its context is scored, which is done in one engine call with
        the contexts that differ from it in the last token only."""
        ctx = self._context(history)
        row = self._memo.get((ctx, self._speaker_key(speaker)))
        if row is None:
            row = self._label_rows([ctx, *(ctx[:-1] + (t,) for t in
                                           self._vocab if ctx)], speaker)[0]
        return row

    def _speaker_key(self, speaker: str) -> str:
        """The memo's speaker: ``""`` for all in a view blind to them."""
        return speaker if speaker == END or self.uses_speakers else ""

    def _label_rows(self, contexts: Sequence[tuple[str, ...]],
                    speaker: str) -> np.ndarray:
        """log P((label, speaker) | context) of each label, in tag set
        order, after each of ``contexts``: the labels' columns of the
        contexts' rows, in the conditioned view less their log-sum-exp.
        Speaker ``<end>`` (the end event has none) gives the whole rows."""
        speaker = self._speaker_key(speaker)
        todo = [ctx for ctx in dict.fromkeys(contexts)
                if (ctx, speaker) not in self._memo]
        if todo and speaker == END:
            block = self.model.log_probs(todo, list(self._vocab)) \
                if self.model else np.zeros((len(todo), 1))  # a sure <end>
        elif todo and self.order == 0:      # no grammar: uniform labels
            block = np.full((len(todo), len(self.labels)), self._log_uniform)
        elif todo:
            cols = [self._column(self.variant.token(lab, speaker))
                    for lab in self.labels]
            # a contiguous copy: a batched log-sum-exp equals the 1-D one
            # of each row bit for bit only over contiguous rows
            block = np.ascontiguousarray(self._label_rows(todo, END)[:, cols])
            if self.variant == GrammarVariant.SPEAKER_CONDITIONED:
                block -= _logsumexp(block, axis=1)[:, None]
        if todo:
            self._memo.update(zip([(ctx, speaker) for ctx in todo], block))
        return np.array([self._memo[ctx, speaker] for ctx in contexts])

    def _column(self, token: str) -> int:
        """The column of ``token`` in a context's row: its own, else
        ``<unk>``'s, as the model scores a token outside its vocabulary."""
        i = self._vocab.get(token, self._vocab.get(UNK))
        if i is None:
            raise ValueError(f"token {token!r} not in closed vocabulary")
        return i


def _event_sequence(conv: Conversation, tagset: TagSet) -> list[tuple[str, str]]:
    """(collapsed label, speaker) per utterance, from the columns."""
    if None in conv.labels:
        raise CorpusError(f"conversation {conv.conv_id}: utterance "
                          f"{conv.labels.index(None)} is unlabeled")
    return list(zip(map(tagset.collapse, conv.labels), conv.speakers))


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
    token = variant.token
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
        count = sum(map(len, streams))
        if count == 0:
            raise ValueError("no events to evaluate")
        return math.exp(-left_sum([len(events) * grammar._log_uniform
                                   for events in streams]) / count)
    k = grammar.order - 1       # only the last k events condition the next
    # every event's context (the <end> event's last) and (label, speaker),
    # in corpus order: (<end>, <end>) for the speakerless <end>
    contexts, moves = [], []
    token = {ev: grammar.variant.token(*ev) for ev in set().union(*streams)}
    for events in streams:
        toks = [START] * k + [token[ev] for ev in events]
        contexts += zip(*(toks[j:len(events) + 1 + j] for j in range(k))) \
            if k else [()] * (len(events) + 1)
        moves += events + [(END, END)]
    where: dict = {}        # each distinct context -> its index
    column = {lab: i for i, lab in enumerate(grammar.labels)}
    column[END] = grammar._column(END)      # of a vocabulary row
    ctx = np.array([where.setdefault(c, len(where)) for c in contexts])
    col = np.array([column[lab] for lab, _ in moves])
    who = np.array([spk for _, spk in moves], dtype=object)
    if not grammar.uses_speakers:       # every speaker reads one row
        who[who != END] = ""
    # each distinct (context, speaker) scored once, one batch per speaker key;
    # <end> reads its context's vocabulary row, so is never normalized
    seen, scores = list(where), np.empty(len(moves))
    for speaker in dict.fromkeys(who):
        mine = who == speaker
        rows = np.flatnonzero(np.bincount(ctx[mine], minlength=len(seen)))
        block = grammar._label_rows([seen[i] for i in rows], speaker)
        scores[mine] = block[np.searchsorted(rows, ctx[mine]), col[mine]]
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
    missing = next((tok for lab in tagset.labels for spk in SPEAKERS
                    if (tok := variant.token(lab, spk)) not in model.vocab),
                   None)
    if missing is not None:
        line = next((n for n, f in content_lines(path)
                     if f[0].strip() == "\\1-grams:"), 1)
        raise CorpusError(f"{path}:{line}: no grammar token {missing!r} for "
                          f"a label of the tag set (is the grammar from "
                          f"another tag set?)")
    return DiscourseGrammar(tagset, variant, order, model)
