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

Decoding is batched over a corpus.  The distinct pattern arrays of the
corpus are stacked once, and each conversation indexes them at every
utterance.  Conversations are sorted by length and decoded together,
start-aligned, in groups whose alpha array (utterances x rows x states)
plus one step's gathered transitions (rows x states x t) stay within
``DECODE_BUDGET`` = 2^19 elements (4 MB of float64); a conversation over
it on its own decodes alone.  A row is a conversation, or in fusion tuning
a conversation at one scale beta.  Padded steps carry no evidence, each
conversation's end array enters the backward sweep at its own last step,
and the backward sweep adds each step's beta into alpha in place, so no
beta array over the whole group is kept.  Results are bit-identical to decoding each conversation alone.

Evidence enters through :class:`LikelihoodTable`: per-utterance natural-log
likelihoods, one column per label.  Decoders:

  viterbi_corpus      most probable label sequence of every table (ties:
                      lowest label index at each backtrace step)
  forward_backward_corpus
                      per-utterance posteriors of every table;
                      ``online=True`` restricts to forward-only (filtered)
                      posteriors
  viterbi_decode, forward_backward
                      the same for one table
  brute_force_decode  exhaustive reference implementation for small cases

Fusion tuning (:func:`tune_alpha_beta`) decodes each jackknife half once
per prosody weight alpha, its conversations and every scale beta of the
grid in one batch.

Everything is computed in log space; conversations of 10^4 utterances
decode without underflow.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import (Conversation, CorpusError, content_lines, jackknife_split,
                     located)


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
    data: dict[tuple[str, int, str], float] = {}
    lineno = 1
    with located(lambda _: f"{path}:{lineno}: bad index or log-likelihood"):
        for lineno, (conv_id, idx_s, lab, val) in content_lines(path, 4):
            data[(conv_id, int(idx_s), lab)] = float(val)
    labels = tuple(labels)
    try:
        return [LikelihoodTable(conv.conv_id, labels, conv.speakers, np.array(
                    [[data[(conv.conv_id, i, lab)] for lab in labels]
                     for i in range(len(conv))]))
                for conv in convs]
    except KeyError as exc:
        raise CorpusError(f"{path}:{lineno}: no likelihood row for "
                          f"{exc.args[0]}") from None


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

# Conversations decode together in groups whose alpha array and one step's
# gathered transitions hold at most this many elements (4 MB of float64);
# a conversation over the budget on its own decodes alone.
DECODE_BUDGET = 1 << 19

_UNSCALED = np.ones(1)


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


class _Compiled(NamedTuple):
    """A corpus against one grammar: the transition and end arrays of its
    speaker patterns, stacked, and per table its row of ``trans`` at each
    utterance and its row of ``end``."""

    trans: np.ndarray
    end: np.ndarray
    steps: list[np.ndarray]
    ends: np.ndarray


def _compile(grammar, tables: Sequence[LikelihoodTable]) -> _Compiled:
    for table in tables:
        _check_inputs(grammar, table)
    prior = _COMPILED.get(grammar)
    if prior is None:
        prior = _COMPILED[grammar] = _CompiledPrior(grammar)
    m = prior.m
    blind = not getattr(grammar, "uses_speakers", True)
    steps, ends = [], []
    for table in tables:
        speakers = (None,) * m + (("",) * len(table) if blind
                                  else tuple(table.speakers))
        steps.append([speakers[i:i + m + 1] for i in range(len(table))])
        ends.append(speakers[-m:])
    step_row = {p: k for k, p in
                enumerate(dict.fromkeys(itertools.chain(*steps)))}
    end_row = {p: k for k, p in enumerate(dict.fromkeys(ends))}
    return _Compiled(
        np.stack([prior.transition(grammar, p) for p in step_row]),
        np.stack([prior.end(grammar, p) for p in end_row]),
        [np.array([step_row[p] for p in s], dtype=np.intp) for s in steps],
        np.array([end_row[p] for p in ends], dtype=np.intp))


def _groups(lengths: Sequence[int], per_step: int, t: int) -> list[list[int]]:
    """Positions of ``lengths`` in decode groups, shortest first.

    A conversation holds ``per_step`` alpha elements per utterance and
    gathers ``per_step * t`` transition elements at each step, so a group
    of c conversations, the longest n utterances, counts
    c * per_step * (n + t) elements.  No group passes DECODE_BUDGET, except
    a conversation over it alone.
    """
    groups: list[list[int]] = []
    for k in sorted(range(len(lengths)), key=lengths.__getitem__):
        if groups and (len(groups[-1]) + 1) * per_step * (lengths[k] + t) \
                <= DECODE_BUDGET:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _gather(comp: _Compiled, group: list[int], liks: Sequence[np.ndarray],
            scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
    """Start-aligned pattern rows (n, c) of a group and its evidence
    (n, c, b, t) at each of b ``scales``, and the positions in the group
    of the conversations ending at each step.  Padded steps use pattern
    row 0 and carry no evidence."""
    n = max(len(liks[k]) for k in group)
    idx = np.zeros((n, len(group)), dtype=np.intp)
    lik = np.zeros((n, len(group), len(scales), comp.trans.shape[-1]))
    ending: dict[int, list[int]] = {}
    for j, k in enumerate(group):
        idx[:len(liks[k]), j] = comp.steps[k]
        lik[:len(liks[k]), j] = liks[k][:, None] * scales[:, None]
        ending.setdefault(len(liks[k]) - 1, []).append(j)
    return idx, lik, ending


@np.errstate(divide="ignore")
def _group_posteriors(comp: _Compiled, group: list[int],
                      liks: Sequence[np.ndarray], scales: np.ndarray,
                      online: bool) -> np.ndarray:
    """Forward-backward over one group, a row per conversation and scale.

    Returns the posteriors as (n, c, b, t) for c conversations, b scales
    and the longest conversation's n utterances; a conversation's steps
    past its own length are padding.
    """
    idx, lik, ending = _gather(comp, group, liks, scales)
    n, c, b, t = lik.shape
    size = comp.trans.shape[2]
    lik = lik[:, :, :, None]             # (n, c, b, 1, t)
    alpha = np.full((n, c, b, size, t + 1), -np.inf)
    prev = np.full((c, b, t + 1, size), -np.inf)
    prev[..., -1, -1] = 0.0              # every axis "before the conversation"
    for i in range(n):
        step = comp.trans[idx[i]][:, None]
        alpha[i, ..., :t] = _logsumexp(prev[..., None] + step, axis=2) + lik[i]
        prev = alpha[i].reshape(c, b, t + 1, size)
    if not online:
        # the backward sweep adds into alpha in place, giving the joint;
        # each conversation's end array enters at its own last step
        ends = comp.end[comp.ends[group]].reshape(c, 1, size, t + 1)
        beta = np.broadcast_to(ends, (c, b, size, t + 1))
        alpha[n - 1] += beta
        for i in range(n - 2, -1, -1):
            nxt = lik[i + 1] + beta[..., :t]
            step = comp.trans[idx[i + 1]][:, None]
            beta = _logsumexp(step + nxt[:, :, None], axis=-1).reshape(
                c, b, size, t + 1)
            last = ending.get(i)
            if last:
                beta[last] = ends[last]
            alpha[i] += beta
    # normalize in blocks of steps, so the temporaries stay small next to
    # alpha; padded steps get z = 0 rather than a -inf - -inf
    pad = np.arange(n)[:, None] >= [len(liks[k]) for k in group]
    block = max(1, DECODE_BUDGET // (32 * c * b * size * (t + 1)))
    out = np.empty((n, c, b, t))
    for lo in range(0, n, block):
        rows = _logsumexp(alpha[lo:lo + block], axis=3)[..., :t]
        z = _logsumexp(rows, axis=-1)
        z[pad[lo:lo + block]] = 0.0
        if (z == -np.inf).any():
            raise ValueError("utterance with no admissible label")
        np.exp(rows - z[..., None], out=out[lo:lo + block])
    return out


def _posteriors(comp: _Compiled, liks: Sequence[np.ndarray],
                scales: np.ndarray, online: bool) -> list[np.ndarray]:
    """Posteriors of each conversation, (b, n, t) for its evidence ``liks``
    scaled by each of the b ``scales``."""
    _, _, size, t = comp.trans.shape
    out: list[np.ndarray] = [np.empty(0)] * len(liks)
    for group in _groups([len(lik) for lik in liks],
                         len(scales) * size * (t + 1), t):
        posts = _group_posteriors(comp, group, liks, scales, online)
        for j, k in enumerate(group):
            out[k] = posts[:len(liks[k]), j].transpose(1, 0, 2)
    return out


def forward_backward_corpus(grammar, tables: Sequence[LikelihoodTable],
                            online: bool = False) -> list[np.ndarray]:
    """Per-utterance posterior label probabilities of every table.

    The same as :func:`forward_backward` table by table, bit for bit; the
    conversations decode together in groups of at most DECODE_BUDGET
    elements.
    """
    if not tables:
        return []
    comp = _compile(grammar, tables)
    return [posts[0] for posts in _posteriors(
        comp, [table.scores for table in tables], _UNSCALED, online)]


def forward_backward(grammar, table: LikelihoodTable,
                     online: bool = False) -> np.ndarray:
    """Per-utterance posterior label probabilities, rows summing to 1.

    ``online=True`` uses only evidence up to each utterance (forward pass,
    no end-of-conversation term): filtered rather than smoothed posteriors.
    """
    return forward_backward_corpus(grammar, [table], online)[0]


def _group_viterbi(comp: _Compiled, group: list[int],
                   liks: Sequence[np.ndarray]) -> list:
    """Viterbi over one group: per conversation, its (label indices, log
    joint score), or the ValueError its own decode raises."""
    idx, lik, ending = _gather(comp, group, liks, _UNSCALED)
    n, c, _, t = lik.shape               # lik: (n, c, 1, t)
    size = comp.trans.shape[2]
    score = np.full((c, t + 1, size), -np.inf)
    score[:, -1, -1] = 0.0               # every axis "before the conversation"
    state = np.full((c, size, t + 1), -np.inf)
    # back pointers are labels 0..t, so the smallest such integer type
    back = np.empty((n, c, size, t), dtype=np.min_scalar_type(t))
    peak = np.empty((n, c))
    final = np.empty((c, size * (t + 1)))
    for i in range(n):
        cand = score[..., None] + comp.trans[idx[i]]
        back[i] = cand.argmax(axis=1)
        state[..., :t] = cand.max(axis=1) + lik[i]
        peak[i] = state.reshape(c, -1).max(axis=1)
        score = state.reshape(c, t + 1, size)
        for j in ending.get(i, ()):
            final[j] = state[j].ravel() + comp.end[comp.ends[group[j]]]
    out: list = []
    for j, k in enumerate(group):
        length = len(liks[k])
        bad = np.flatnonzero(peak[:length, j] == -np.inf)
        if bad.size:
            out.append(ValueError(f"utterance {bad[0]}: no admissible label"))
            continue
        best = int(final[j].argmax())    # first maximum: lowest label indices
        total = float(final[j, best])
        if total == -np.inf:
            out.append(ValueError("no admissible label sequence"))
            continue
        seq = []
        for i in range(length - 1, -1, -1):
            rest, label = divmod(best, t + 1)
            seq.append(label)
            best = int(back[i, j, rest, label]) * size + rest
        seq.reverse()
        out.append((seq, total))
    return out


def viterbi_corpus(grammar, tables: Sequence[LikelihoodTable]
                   ) -> list[tuple[list[str], float]]:
    """Most probable label sequence and its log joint score of every table.

    The same as :func:`viterbi_decode` table by table, ties included; the
    conversations decode together in groups of at most DECODE_BUDGET
    elements.  A failing decode raises the error of the first such table
    in input order.
    """
    if not tables:
        return []
    comp = _compile(grammar, tables)
    _, _, size, t = comp.trans.shape
    liks = [table.scores for table in tables]
    out: list = [None] * len(tables)
    for group in _groups([len(table) for table in tables], size * (t + 1), t):
        for k, result in zip(group, _group_viterbi(comp, group, liks)):
            out[k] = result
    for result in out:
        if isinstance(result, ValueError):
            raise result
    return [([table.labels[j] for j in seq], total)
            for table, (seq, total) in zip(tables, out)]


def viterbi_decode(grammar, table: LikelihoodTable) -> tuple[list[str], float]:
    """Most probable label sequence and its log joint score.

    The joint includes prior transitions, the end-of-conversation term, and
    the evidence log likelihoods.  Ties go to the lowest label index at
    each backtrace step.
    """
    return viterbi_corpus(grammar, [table])[0]


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
    smallest alpha, then the smallest beta.  Each half is decoded once per
    alpha, its conversations and every beta in one batch; the other half's
    hits at a point are read from that half's grid.
    """
    if len(word_tables) != len(prosody_tables):
        raise ValueError("word/prosody table lists differ in length")
    if len(word_tables) < 2:
        raise ValueError("need at least two conversations to jackknife")
    grid = [[CombinationWeights(a, b) for b in betas] for a in alphas]
    half1, half2 = jackknife_split(list(zip(word_tables, prosody_tables)), seed)

    def correct(half) -> np.ndarray:
        """Correct posterior picks on ``half`` at each (alpha, beta)."""
        counts = np.zeros((len(alphas), len(betas)), dtype=int)
        scales = np.array(betas, dtype=float)
        comp = _compile(grammar, [wt for wt, _ in half])
        truths = []
        for wt, _ in half:
            index = {lab: j for j, lab in enumerate(wt.labels)}
            truths.append(np.array([index.get(lab, -1) for lab in
                                    references[wt.conversation_id]])[:len(wt)])
        for a, alpha in enumerate(alphas):
            # beta 1 keeps the scores unscaled; the batch applies each beta
            liks = [combine_likelihoods(wt, pt, CombinationWeights(alpha)).scores
                    for wt, pt in half]
            for posts, truth in zip(_posteriors(comp, liks, scales, False),
                                    truths):
                counts[a] += (np.argmax(posts, axis=-1) == truth).sum(axis=1)
        return counts

    counts1, counts2 = correct(half1), correct(half2)
    # first maximum: ties go to the smallest alpha, then the smallest beta
    a1, b1 = np.unravel_index(np.argmax(counts1), counts1.shape)
    a2, b2 = np.unravel_index(np.argmax(counts2), counts2.shape)
    c2, t2 = int(counts2[a1, b1]), sum(len(wt) for wt, _ in half2)
    c1, t1 = int(counts1[a2, b2]), sum(len(wt) for wt, _ in half1)
    return JackknifeResult(
        weights=(grid[a1][b1], grid[a2][b2]),
        accuracy=(c1 + c2) / (t1 + t2),
        half_accuracies=(c2 / t2, c1 / t1),
    )
