"""Conversation-level decoding of dialogue acts.

The hidden state sequence is the DA labels; speakers are observed and
clamped, so a state history is a label tuple and the speakers come from the
conversation.  Any object with ``labels``, ``order``,
``transition_log_prob(history, event)`` and ``end_log_prob(history)`` works
as the prior (see :class:`dialact.discourse.DiscourseGrammar`), where
``history``/``event`` hold (label, speaker) pairs.  Grammars are treated as
immutable: each one is compiled once and the result reused.

Compiling turns the prior into dense arrays over history states.  A state
is the last m = max(order - 1, 1) labels, each axis with one extra "before
the conversation" index, so (t+1)^m states for t labels.  Arrays are built
lazily per speaker pattern (the speakers of the last m utterances and of
the current one): a transition array of (t+1)^m x t entries, O(t^order)
for order >= 2, and an end array per pattern of the last m speakers (one
placeholder speaker, so m + 1 patterns, if ``uses_speakers`` is False).
One forward-backward and one Viterbi recursion then run over these arrays
for every grammar order.

Evidence enters through :class:`LikelihoodTable`: per-utterance natural-log
likelihoods, one column per label.  Decoders:

  viterbi_decode      most probable label sequence (ties: lowest label
                      index at each backtrace step)
  forward_backward    per-utterance posteriors; ``online=True`` restricts
                      to forward-only (filtered) posteriors
  brute_force_decode  exhaustive reference implementation for small cases

Fusion tuning (:func:`tune_alpha_beta`) decodes each conversation once per
prosody weight alpha, with every scale beta of the grid in one batch.

Everything is computed in log space; conversations of 10^4 utterances
decode without underflow.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Conversation, jackknife_split


@dataclass
class LikelihoodTable:
    """Per-utterance x per-label log evidence for one conversation.

    ``scores[i, j]`` is log P(evidence_i | label_j); entries are finite or
    -inf.  ``sources`` records which evidence streams went in.
    """

    conversation_id: str
    labels: tuple[str, ...]
    speakers: tuple[str, ...]
    scores: np.ndarray
    sources: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float)
        n = len(self.speakers)
        if self.scores.shape != (n, len(self.labels)):
            raise ValueError(f"scores shape {self.scores.shape}, expected "
                             f"({n}, {len(self.labels)})")
        if np.isnan(self.scores).any() or (self.scores == np.inf).any():
            raise ValueError("likelihood entries must be finite or -inf")

    def __len__(self) -> int:
        return len(self.speakers)

    @classmethod
    def from_rows(cls, conversation_id: str, labels: Sequence[str],
                  speakers: Sequence[str],
                  rows: Sequence[Mapping[str, float]],
                  sources: frozenset[str] = frozenset()) -> "LikelihoodTable":
        scores = np.array([[row[lab] for lab in labels] for row in rows],
                          dtype=float).reshape(len(rows), len(labels))
        return cls(conversation_id, tuple(labels), tuple(speakers), scores, sources)


def dump_likelihoods(tables: Sequence[LikelihoodTable], path: str | Path) -> None:
    """TSV export (conv, index, label, loglik), for cross-implementation checks."""
    with open(path, "w", encoding="utf-8") as fh:
        for table in tables:
            for i in range(len(table)):
                for j, lab in enumerate(table.labels):
                    # repr of a Python float round-trips exactly
                    fh.write(f"{table.conversation_id}\t{i}\t{lab}\t"
                             f"{float(table.scores[i, j])!r}\n")


def load_likelihoods(path: str | Path, convs: Sequence[Conversation],
                     labels: Sequence[str]) -> list[LikelihoodTable]:
    """Rebuild tables from a TSV dump; ``convs`` supplies the speakers."""
    data: dict[str, dict[tuple[int, str], float]] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        conv_id, idx_s, lab, val = raw.split("\t")
        data.setdefault(conv_id, {})[(int(idx_s), lab)] = float(val)
    labels = tuple(labels)
    out = []
    for conv in convs:
        entries = data.get(conv.conv_id)
        if entries is None:
            raise ValueError(f"no likelihood rows for conversation {conv.conv_id}")
        scores = np.array([[entries[(i, lab)] for lab in labels]
                           for i in range(len(conv))])
        out.append(LikelihoodTable(conv.conv_id, labels, conv.speakers, scores))
    return out


# ---------------------------------------------------------------------------
# Evidence combination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinationWeights:
    """Stream fusion weights: entry = beta * (word + alpha * prosody)."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.beta <= 0.0:
            raise ValueError("beta must be > 0")


def combine_likelihoods(word: LikelihoodTable,
                        prosody: LikelihoodTable | None,
                        weights: CombinationWeights) -> LikelihoodTable:
    """Fuse word and prosody evidence for one conversation."""
    if prosody is None or weights.alpha == 0.0:
        scores = weights.beta * word.scores
        sources = word.sources | {"combined"}
    else:
        for attr in ("conversation_id", "labels", "speakers"):
            if getattr(word, attr) != getattr(prosody, attr):
                raise ValueError(f"word/prosody tables disagree on {attr}")
        scores = weights.beta * (word.scores + weights.alpha * prosody.scores)
        sources = word.sources | prosody.sources | {"combined"}
    return LikelihoodTable(word.conversation_id, word.labels, word.speakers,
                           scores, frozenset(sources))


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------

# Shifting an all -inf row by the most negative float instead of its max
# keeps finite shifts exact and turns that row into -max + log(0) = -inf.
_FLOOR = -np.finfo(float).max


def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(arr))) along ``axis``; callers silence log(0) warnings."""
    shift = np.maximum(arr.max(axis=axis, keepdims=True), _FLOOR)
    diff = arr - shift
    return shift.squeeze(axis) + np.log(np.exp(diff, out=diff).sum(axis=axis))


def _check_inputs(grammar, table: LikelihoodTable) -> None:
    if tuple(grammar.labels) != tuple(table.labels):
        raise ValueError("grammar and likelihood table label sets differ")
    if len(table) == 0:
        raise ValueError("empty conversation")


class _CompiledPrior:
    """A grammar's transitions as dense arrays over history states.

    States are flattened with the oldest label most significant.  A
    transition array has shape (t+1, (t+1)^(m-1), t): oldest label, rest of
    the state, next label.  A speaker pattern holds None before the start,
    and the states it rules out hold -inf.  The grammar is passed to each
    method rather than stored, so the weak-keyed cache can drop it.
    """

    def __init__(self, grammar) -> None:
        self.labels = tuple(grammar.labels)
        self.m = max(grammar.order - 1, 1)
        self._trans: dict[tuple, np.ndarray] = {}
        self._end: dict[tuple, np.ndarray] = {}

    def _histories(self, speakers: tuple):
        """(flat state index, history events) of every state ``speakers`` allows."""
        t = len(self.labels)
        for hist in itertools.product(*[range(t) if spk is not None else (t,)
                                        for spk in speakers]):
            flat = 0
            for h in hist:
                flat = flat * (t + 1) + h
            yield flat, tuple((self.labels[h], spk)
                              for h, spk in zip(hist, speakers) if spk is not None)

    def transition(self, grammar, pattern: tuple) -> np.ndarray:
        arr = self._trans.get(pattern)
        if arr is None:
            t = len(self.labels)
            arr = np.full(((t + 1) ** self.m, t), -np.inf)
            for flat, events in self._histories(pattern[:-1]):
                arr[flat] = [grammar.transition_log_prob(events, (lab, pattern[-1]))
                             for lab in self.labels]
            arr = self._trans[pattern] = arr.reshape(t + 1, -1, t)
        return arr

    def end(self, grammar, speakers: tuple) -> np.ndarray:
        arr = self._end.get(speakers)
        if arr is None:
            arr = np.full((len(self.labels) + 1) ** self.m, -np.inf)
            for flat, events in self._histories(speakers):
                arr[flat] = grammar.end_log_prob(events)
            self._end[speakers] = arr
        return arr


# Grammars are immutable by contract, so each one is compiled once.
_COMPILED: "weakref.WeakKeyDictionary[object, _CompiledPrior]" = \
    weakref.WeakKeyDictionary()


def _compile(grammar, table: LikelihoodTable) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-utterance transition arrays and the end array for one conversation."""
    _check_inputs(grammar, table)
    prior = _COMPILED.get(grammar)
    if prior is None:
        prior = _COMPILED[grammar] = _CompiledPrior(grammar)
    m = prior.m
    speakers = (None,) * m + (tuple(table.speakers)
                              if getattr(grammar, "uses_speakers", True)
                              else ("",) * len(table))
    trans = [prior.transition(grammar, speakers[i:i + m + 1])
             for i in range(len(table))]
    return trans, prior.end(grammar, speakers[-m:])


def viterbi_decode(grammar, table: LikelihoodTable) -> tuple[list[str], float]:
    """Most probable label sequence and its log joint score.

    The joint includes prior transitions, the end-of-conversation term, and
    the evidence log likelihoods.
    """
    trans, end = _compile(grammar, table)
    n, t = table.scores.shape
    size = end.size // (t + 1)
    score = np.full((t + 1, size), -np.inf)
    score[-1, -1] = 0.0                  # every axis "before the conversation"
    state = np.full((size, t + 1), -np.inf)
    back = np.empty((n, size, t), dtype=np.intp)
    for i, step in enumerate(trans):
        cand = score[..., None] + step
        back[i] = cand.argmax(axis=0)
        state[:, :t] = cand.max(axis=0) + table.scores[i]
        if state.max() == -np.inf:
            raise ValueError(f"utterance {i}: no admissible label")
        score = state.reshape(t + 1, size)
    final = score.ravel() + end
    best = int(final.argmax())           # first maximum: lowest label indices
    total = float(final[best])
    if total == -np.inf:
        raise ValueError("no admissible label sequence")
    seq = []
    for i in range(n - 1, -1, -1):
        rest, label = divmod(best, t + 1)
        seq.append(label)
        best = int(back[i, rest, label]) * size + rest
    seq.reverse()
    return [table.labels[j] for j in seq], total


@np.errstate(divide="ignore")
def _posteriors(trans: list[np.ndarray], end: np.ndarray, lik: np.ndarray,
                online: bool) -> np.ndarray:
    """Forward-backward over a leading batch axis: lik (b, n, t) -> posteriors."""
    b, n, t = lik.shape
    size = end.size // (t + 1)
    lik = lik.transpose(1, 0, 2)[:, :, None]          # (n, b, 1, t)
    alpha = np.full((n, b, size, t + 1), -np.inf)
    prev = np.full((b, t + 1, size), -np.inf)
    prev[:, -1, -1] = 0.0                # every axis "before the conversation"
    for i, step in enumerate(trans):
        alpha[i, ..., :t] = _logsumexp(prev[..., None] + step, axis=1) + lik[i]
        prev = alpha[i].reshape(b, t + 1, size)
    if not online:
        beta = np.empty_like(alpha)
        beta[n - 1] = end.reshape(size, t + 1)
        for i in range(n - 2, -1, -1):
            nxt = lik[i + 1] + beta[i + 1, ..., :t]
            beta[i] = _logsumexp(trans[i + 1] + nxt[:, None], axis=-1).reshape(
                b, size, t + 1)
        alpha += beta                    # the joint, for smoothed posteriors
    rows = _logsumexp(alpha, axis=2)[..., :t]
    z = _logsumexp(rows, axis=-1)
    if (z == -np.inf).any():
        raise ValueError("utterance with no admissible label")
    return np.exp(rows - z[..., None]).transpose(1, 0, 2)


def forward_backward(grammar, table: LikelihoodTable,
                     online: bool = False) -> np.ndarray:
    """Per-utterance posterior label probabilities, rows summing to 1.

    ``online=True`` uses only evidence up to each utterance (forward pass,
    no end-of-conversation term): filtered rather than smoothed posteriors.
    """
    trans, end = _compile(grammar, table)
    return _posteriors(trans, end, table.scores[None], online)[0]


@np.errstate(divide="ignore")
def brute_force_decode(grammar, table: LikelihoodTable,
                       limit: int = 1_000_000) -> tuple[list[str], float, np.ndarray]:
    """Exhaustive decode: enumerate all label sequences.

    Returns (best sequence, its log joint score, posterior table).  Guarded
    by ``limit`` on the number of sequences; intended as a test oracle.
    """
    _check_inputs(grammar, table)
    n, t = table.scores.shape
    if t ** n > limit:
        raise ValueError(f"{t}^{n} sequences exceed the enumeration limit")
    lik = table.scores
    labels = table.labels
    speakers = table.speakers
    joint = np.empty(t ** n)
    pos = 0
    events: list[tuple[str, str]] = []

    def descend(i: int, score: float) -> None:
        nonlocal pos
        if i == n:
            joint[pos] = score + grammar.end_log_prob(events)
            pos += 1
            return
        for d in range(t):
            tr = grammar.transition_log_prob(events, (labels[d], speakers[i]))
            events.append((labels[d], speakers[i]))
            descend(i + 1, score + tr + lik[i, d])
            events.pop()

    descend(0, 0.0)

    best_flat = int(np.argmax(joint))  # first maximum = lexicographically least
    best_seq = np.unravel_index(best_flat, (t,) * n)
    grid = joint.reshape((t,) * n)
    total = _logsumexp(joint, axis=0)
    posts = np.empty((n, t))
    for i in range(n):
        margin = grid
        for axis in range(n - 1, -1, -1):
            if axis != i:
                margin = _logsumexp(margin, axis=axis)
        posts[i] = np.exp(margin - total)
    return [labels[d] for d in best_seq], float(joint[best_flat]), posts


# ---------------------------------------------------------------------------
# Fusion weight tuning
# ---------------------------------------------------------------------------

DEFAULT_ALPHAS = tuple(round(0.1 * i, 10) for i in range(0, 21))
DEFAULT_BETAS = tuple(round(0.1 * i, 10) for i in range(1, 21))


@dataclass(frozen=True)
class JackknifeResult:
    """Twofold jackknife outcome: per-half best weights and pooled accuracy."""

    weights: tuple[CombinationWeights, CombinationWeights]
    accuracy: float
    half_accuracies: tuple[float, float]

    @property
    def better(self) -> CombinationWeights:
        """Weights from the half that generalized better (ties: first half)."""
        return self.weights[0] if self.half_accuracies[0] >= self.half_accuracies[1] \
            else self.weights[1]


def tune_alpha_beta(grammar,
                    word_tables: Sequence[LikelihoodTable],
                    prosody_tables: Sequence[LikelihoodTable | None],
                    references: Mapping[str, Sequence[str]],
                    alphas: Sequence[float] = DEFAULT_ALPHAS,
                    betas: Sequence[float] = DEFAULT_BETAS,
                    seed: int = 0) -> JackknifeResult:
    """Grid-search fusion weights by twofold jackknife.

    Conversations are split in two seeded halves; each half's best
    (alpha, beta) on the grid is evaluated on the other half, and the pooled
    accuracy over both evaluations is reported.  Grid ties resolve to the
    smallest alpha, then the smallest beta.  Each conversation is decoded
    once per alpha, with every beta in one batch.
    """
    if len(word_tables) != len(prosody_tables):
        raise ValueError("word/prosody table lists differ in length")
    if len(word_tables) < 2:
        raise ValueError("need at least two conversations to jackknife")
    grid = [[CombinationWeights(a, b) for b in betas] for a in alphas]
    half1, half2 = jackknife_split(list(zip(word_tables, prosody_tables)), seed)

    def correct(half, alphas, betas) -> np.ndarray:
        """Correct posterior picks on ``half`` at each (alpha, beta)."""
        counts = np.zeros((len(alphas), len(betas)), dtype=int)
        scale = np.array(betas, dtype=float)[:, None, None]
        for wt, pt in half:
            trans, end = _compile(grammar, wt)
            index = {lab: j for j, lab in enumerate(wt.labels)}
            truth = np.array([index.get(lab, -1)
                              for lab in references[wt.conversation_id]])
            for a, alpha in enumerate(alphas):
                # beta 1 keeps the scores unscaled; the batch applies each beta
                fused = combine_likelihoods(wt, pt, CombinationWeights(alpha))
                posts = _posteriors(trans, end, scale * fused.scores, False)
                counts[a] += (np.argmax(posts, axis=-1) == truth[:len(wt)]).sum(axis=1)
        return counts

    def best_on(half) -> CombinationWeights:
        counts = correct(half, alphas, betas)
        a, b = np.unravel_index(np.argmax(counts), counts.shape)  # first maximum
        return grid[a][b]

    def hits_on(half, w: CombinationWeights) -> tuple[int, int]:
        return (int(correct(half, (w.alpha,), (w.beta,))[0, 0]),
                sum(len(wt) for wt, _ in half))

    w1 = best_on(half1)
    w2 = best_on(half2)
    c2, t2 = hits_on(half2, w1)
    c1, t1 = hits_on(half1, w2)
    return JackknifeResult(
        weights=(w1, w2),
        accuracy=(c1 + c2) / (t1 + t2),
        half_accuracies=(c2 / t2, c1 / t1),
    )
