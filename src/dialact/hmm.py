"""Conversation-level decoding of dialogue acts.

The hidden state sequence is the DA labels; speakers are observed and
clamped, so a state history is a label tuple and the speakers come from the
conversation.  Any object with ``labels``, ``order``,
``transition_log_prob(history, event)`` and ``end_log_prob(history)`` works
as the prior (see :class:`dialact.discourse.DiscourseGrammar`), where
``history``/``event`` hold (label, speaker) pairs.  A prior that also has
``transition_rows(histories, speaker)``, each label's log prob after each
history, fills a speaker pattern's transitions in one call.  Grammars are
treated as immutable: each one is compiled once and the result reused.

Compiling turns the prior into dense arrays over history states.  A state
is the last m = max(order - 1, 1) labels, each axis with one extra "before
the conversation" index, so (t+1)^m states for t labels.  Arrays are built
lazily per speaker pattern (the speakers of the last m utterances and of
the current one): a transition array of (t+1)^m x t entries, O(t^order)
for order >= 2, and an end array per pattern of the last m speakers (one
placeholder speaker, so m + 1 patterns, if ``uses_speakers`` is False).
One forward-backward and one Viterbi recursion then run over these arrays
for every grammar order.

Viterbi is max-plus.  Both forward-backward sweeps run one guarded step
(``_steps``), the scaled recursion of Rabiner (1989, "A tutorial on
hidden Markov models") as log-space matrix products: from log scores a
through transitions T a step stores P + M + log(exp(a - P) @ exp(T - M)),
P each row's max and M the max of T over the summed label, exp(T - M)
computed when the corpus is compiled.  A product below 1e-280 from finite
shifts may have lost terms to underflow or digits to subnormals; the step
recomputes such cells with the exact ``ngram._logsumexp``, checking this
guard once per block of 32 steps and rerunning from a block's first
flagged step.  This moves posteriors by float rounding (at most 8.1e-12
on the bench's long conversations) against the exact logsumexp recursion
kept in the tests; labels, Viterbi paths and reruns are unchanged, with
one BLAS thread or many.

Decoding is batched over a corpus.  The distinct pattern arrays of the
corpus are stacked once (each utterance's pattern coded as an integer
window over the speakers), and each conversation indexes them at every
utterance.  Conversations are sorted by length and decoded together,
start-aligned, in groups whose posteriors, kept scores and block buffers
stay within ``DECODE_BUDGET`` = 2^19 elements (4 MB of float64); a
conversation over it on its own decodes alone.  A row is a conversation,
or in fusion tuning a conversation at one scale beta.  Padded steps rule
out every label, and each conversation's end array enters the backward
sweep at its own last step.  Forward-backward holds no array over every
step of a group but its posteriors: the forward sweep runs through one
buffer of 32 steps and keeps the scores before each block, and the
backward sweep, last block first, reruns each block's forward from those
scores (the last block is still in the buffer), adds the block's betas
and normalizes it: checkpointing, as in Grice, Hughey & Speck (1997,
"Reduced space sequence alignment").  The rerun repeats each step's
arithmetic and its underflow guard, so the posteriors are those of one
alpha over the group, bit for bit, and results are bit-identical to
decoding each conversation alone.  Viterbi holds its back pointers and
reads its evidence one block of 32 steps at a time.

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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import jackknife_split
from .ngram import _FLOOR, _logsumexp


@dataclass
class LikelihoodTable:
    """Per-utterance x per-label log evidence for one conversation.

    ``scores[i, j]`` is log P(evidence_i | label_j); entries are finite or
    -inf.
    """

    conversation_id: str
    labels: tuple[str, ...]
    speakers: tuple[str, ...]
    scores: np.ndarray

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


# ---------------------------------------------------------------------------
# Evidence combination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CombinationWeights:
    """Stream fusion weights: entry = beta * (word + alpha * prosody)."""

    alpha: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite([self.alpha, self.beta]).all():
            raise ValueError("alpha and beta must be finite")
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
    else:
        for attr in ("conversation_id", "labels", "speakers"):
            if getattr(word, attr) != getattr(prosody, attr):
                raise ValueError(f"word/prosody tables disagree on {attr}")
        scores = weights.beta * (word.scores + weights.alpha * prosody.scores)
    return LikelihoodTable(word.conversation_id, word.labels, word.speakers,
                           scores)


# ---------------------------------------------------------------------------
# Decoders
# ---------------------------------------------------------------------------

# Conversations decode together in groups whose arrays hold at most this
# many elements (4 MB of float64); a conversation over the budget on its own
# decodes alone.
DECODE_BUDGET = 1 << 19

# The most cells a corpus's transitions may take, products included (512 MB).
_COMPILE_CELLS = 1 << 26

_UNSCALED = np.ones(1)

# Forward-backward steps whose transition tables are gathered, and whose
# underflow guard is checked, together.
_BLOCK = 32

# A shifted product below this, from finite shifts, is recomputed exactly.
# Each term the product drops is below 2^-1074, so above it the dropped
# terms move the log by less than 1e-40.
_LOG_TINY = float(np.log(1e-280))


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
            flats, histories = zip(*self._histories(pattern[:-1]))
            arr = np.full(((t + 1) ** self.m, t), -np.inf)
            arr[list(flats)] = _transition_rows(grammar, histories, pattern[-1])
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


def _transition_rows(grammar, histories: tuple, speaker) -> Sequence:
    """log P((label, speaker) | history) of each of the grammar's labels
    (columns) after each of ``histories`` (rows): its ``transition_rows``
    where it has one, else one ``transition_log_prob`` call per label."""
    if hasattr(grammar, "transition_rows"):
        return grammar.transition_rows(histories, speaker)
    return [[grammar.transition_log_prob(history, (lab, speaker))
             for lab in grammar.labels] for history in histories]


# Grammars are immutable by contract, so each one is compiled once.
_COMPILED: "weakref.WeakKeyDictionary[object, _CompiledPrior]" = \
    weakref.WeakKeyDictionary()


class _Compiled(NamedTuple):
    """A corpus against one grammar: the transition and end arrays of its
    speaker patterns, stacked, and per table its row of ``trans`` at each
    utterance and its row of ``end``.

    For the forward-backward products, which Viterbi does not build,
    ``fwd`` holds exp(T - M) laid out (rest of the state, oldest label,
    next label), M the max over the oldest label (``fwd_max``), and
    ``bwd`` holds exp(T - N) laid out (rest, next label, oldest label), N
    the max over the next label (``bwd_max``).  The maxima are -inf where
    the whole column or row is.
    """

    trans: np.ndarray
    end: np.ndarray
    steps: list[np.ndarray]
    ends: np.ndarray
    fwd: np.ndarray | None = None
    fwd_max: np.ndarray | None = None
    bwd: np.ndarray | None = None
    bwd_max: np.ndarray | None = None


def _compile(grammar, tables: Sequence[LikelihoodTable],
             products: bool) -> _Compiled:
    for table in tables:
        _check_inputs(grammar, table)
    prior = _COMPILED.get(grammar)
    if prior is None:
        prior = _COMPILED[grammar] = _CompiledPrior(grammar)
    m = prior.m
    blind = not getattr(grammar, "uses_speakers", True)
    # each speaker pattern (the speakers of the last m utterances and of the
    # current one, None before the conversation) is a window of integer
    # speaker codes, and the distinct windows of the corpus get rows of
    # ``trans`` in first-seen order
    symbol = {None: 0}
    step_row: dict[tuple, int] = {}
    steps, ends = [], []
    for table in tables:
        codes = [0] * m + [symbol.setdefault(spk, len(symbol)) for spk in (
            itertools.repeat("", len(table)) if blind else table.speakers)]
        ends.append(tuple(codes[len(table):]))
        windows = zip(*(itertools.islice(codes, j, None)
                        for j in range(m + 1)))
        steps.append(np.fromiter((step_row.setdefault(w, len(step_row))
                                  for w in windows),
                                 dtype=np.intp, count=len(table)))
    names = list(symbol)
    end_row = {p: k for k, p in enumerate(dict.fromkeys(ends))}
    t = len(prior.labels)
    cells = len(step_row) * (t + 1) ** m * t * (3 if products else 1)
    if cells > _COMPILE_CELLS:
        raise ValueError(f"an order-{grammar.order} grammar over {t} labels "
                         f"needs {cells} cells; the limit is {_COMPILE_CELLS}")
    trans = np.stack([prior.transition(grammar, tuple(names[c] for c in p))
                      for p in step_row])
    comp = _Compiled(
        trans, np.stack([prior.end(grammar, tuple(names[c] for c in p))
                         for p in end_row]), steps,
        np.array([end_row[p] for p in ends], dtype=np.intp))
    if not products:
        return comp
    cols, rows = trans.max(axis=1), trans.max(axis=3)
    return comp._replace(
        fwd=np.exp(trans - np.maximum(cols, _FLOOR)[:, None]).transpose(
            0, 2, 1, 3).copy(), fwd_max=cols,
        bwd=np.exp(trans - np.maximum(rows, _FLOOR)[..., None]).transpose(
            0, 2, 3, 1).copy(), bwd_max=rows)


def _groups(lengths: Sequence[int], per_step: int,
            extra: int) -> list[list[int]]:
    """Positions of ``lengths`` in decode groups, shortest first.

    A conversation holds ``per_step`` elements per utterance, plus buffers
    worth ``extra`` utterances, so a group of c conversations, the longest
    n utterances, counts c * per_step * (n + extra) elements.  No group
    passes DECODE_BUDGET, except a conversation over it alone.
    """
    groups: list[list[int]] = []
    for k in sorted(range(len(lengths)), key=lengths.__getitem__):
        if groups and (len(groups[-1]) + 1) * per_step * (lengths[k] + extra) \
                <= DECODE_BUDGET:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _gather(comp: _Compiled, group: list[int], liks: Sequence[np.ndarray],
            scales: np.ndarray, lo: int, hi: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Start-aligned pattern rows (hi - lo, c) of steps lo..hi-1 of a group
    and their evidence (hi - lo, c, b, t) at each of b ``scales``.  Steps
    past a conversation's end use pattern row 0 and rule out every label,
    so no product of theirs trips the underflow guard."""
    idx = np.zeros((hi - lo, len(group)), dtype=np.intp)
    lik = np.full((hi - lo, len(group), len(scales), comp.trans.shape[-1]),
                  -np.inf)
    for j, k in enumerate(group):
        end = min(hi, len(liks[k]))
        if end > lo:
            idx[:end - lo, j] = comp.steps[k][lo:end]
            lik[:end - lo, j] = liks[k][lo:end, None] * scales[:, None]
    return idx, lik


def _ending(group: list[int], liks: Sequence[np.ndarray]) -> dict:
    """The positions in the group of the conversations ending at each step."""
    ending: dict[int, list[int]] = {}
    for j, k in enumerate(group):
        ending.setdefault(len(liks[k]) - 1, []).append(j)
    return ending


def _underflow(prods: np.ndarray, evid: np.ndarray, shifts: np.ndarray):
    """The first step of a block, and its cells, whose log product fell
    below the guard although its evidence and shift are finite; the arrays
    broadcast to one layout, steps first.  None if there is no such cell."""
    bad = prods < _LOG_TINY
    bad &= evid > -np.inf
    bad &= shifts > _FLOOR
    steps = np.flatnonzero(bad.any(axis=tuple(range(1, bad.ndim))))
    return (int(steps[0]), bad[steps[0]]) if steps.size else None


def _steps(source, target, tables: np.ndarray, evid: np.ndarray,
           trans: np.ndarray, idx: np.ndarray, lik: np.ndarray | None = None,
           after=lambda i: None) -> None:
    """Run a block of guarded log-space steps, the one step of both sweeps:
    step i reads log scores ``source(i)`` (c, b, size, K) and writes
    log(exp(source - P) @ ``tables[i]``) + ``evid[i]`` + P, P each row's
    max, into the view ``target(i)`` (c, b, size, L); ``tables`` holds
    exp(T - M) per conversation (c, size, K, L).  Cells the guard flags
    are summed exactly over the log transitions ``trans`` (pattern, size,
    K, L) at rows ``idx[i]``, plus ``lik[i]`` if given, and the block
    reruns from the next step.  ``after(i)`` runs after step i's product
    and may write only cells the guard cannot flag."""
    blk, c, size, k, l = tables.shape
    b = target(0).shape[1]
    rows = np.empty((c, size, b, k))
    rows_in = rows.transpose(0, 2, 1, 3)
    prods = np.empty((blk, c, size, b, l))
    shifts = np.empty((blk, c, b, size, 1))
    first = 0
    while first < blk:
        for i in range(first, blk):
            scores = source(i)
            shift = np.maximum.reduce(scores, axis=-1, keepdims=True,
                                      out=shifts[i])
            np.maximum(shift, _FLOOR, out=shift)
            np.subtract(scores, shift, out=rows_in)
            np.exp(rows, out=rows)
            np.matmul(rows, tables[i], out=prods[i])
            np.log(prods[i], out=prods[i])
            out = np.add(prods[i].transpose(0, 2, 1, 3), evid[i],
                         out=target(i))
            out += shift
            after(i)
        found = _underflow(prods[first:],
                           evid[first:].transpose(0, 1, 3, 2, 4),
                           shifts[first:].transpose(0, 1, 3, 2, 4))
        if found is None:
            break
        i = first + found[0]
        cc, rr, bb, ll = np.nonzero(found[1])
        exact = _logsumexp(
            source(i)[cc, bb, rr] + trans[idx[i, cc], rr, :, ll], axis=1)
        target(i)[cc, bb, rr, ll] = exact if lik is None else \
            exact + lik[i, cc, bb, ll]
        first = i + 1


def _forward(comp: _Compiled, idx: np.ndarray, lik: np.ndarray,
             prev: np.ndarray, alpha: np.ndarray) -> None:
    """Fill ``alpha`` (k, c, b, states), whose "before the conversation"
    column holds -inf, with the forward log scores of the k steps of
    ``idx`` and ``lik`` from ``prev``, the scores before the first step
    laid out (c, b, oldest label, rest); a step sums over the oldest."""
    blk, c, b, size, t = alpha.shape[:4] + (alpha.shape[4] - 1,)
    hist = alpha.reshape(blk, c, b, t + 1, size)
    _steps(lambda i: (hist[i - 1] if i else prev).transpose(0, 1, 3, 2),
           lambda i: alpha[i, ..., :t], comp.fwd[idx],
           comp.fwd_max[idx][:, :, None] + lik[:, :, :, None],
           comp.trans.transpose(0, 2, 1, 3), idx, lik)


def _backward(comp: _Compiled, idx: np.ndarray, lik: np.ndarray,
              beta: np.ndarray, ends: np.ndarray, ending: dict, lo: int,
              betas: np.ndarray) -> None:
    """Fill ``betas`` (k, c, b, states) with the backward log scores of
    steps lo + k - 1 down to lo, the j-th at j, from ``beta``, the scores
    of step lo + k, where ``idx`` and ``lik`` hold steps lo..lo + k; a
    step sums over the next label, and each conversation's row of
    ``ends`` enters at its own last step (a step that reads padded
    evidence, so its shift is floored and the guard never flags it)."""
    blk, c, b, size, t = betas.shape[:4] + (betas.shape[4] - 1,)
    nxt = np.empty((c, b, size, t))
    hist = betas.reshape(blk, c, b, t + 1, size).transpose(0, 1, 2, 4, 3)
    steps = idx[blk:0:-1]

    def after(k: int) -> None:
        last = ending.get(lo + blk - 1 - k)
        if last:
            betas[k][last] = ends[last]

    _steps(lambda k: np.add(lik[blk - k][:, :, None],
                            (betas[k - 1] if k else beta)[..., :t], out=nxt),
           hist.__getitem__, comp.bwd[steps],
           comp.bwd_max.transpose(0, 2, 1)[steps][:, :, None],
           comp.trans.transpose(0, 2, 3, 1), steps, after=after)


def _normalize(joint: np.ndarray, lengths: list[int], lo: int,
               out: np.ndarray) -> None:
    """Write into ``out`` (k, c, b, t) the label posteriors of the joint
    log scores (k, c, b, states) of steps lo..lo+k-1; padded steps get
    z = 0 rather than a -inf - -inf."""
    rows = _logsumexp(joint, axis=3)[..., :out.shape[-1]]
    z = _logsumexp(rows, axis=-1)
    z[np.arange(lo, lo + len(joint))[:, None] >= lengths] = 0.0
    if (z == -np.inf).any():
        raise ValueError("utterance with no admissible label")
    np.exp(rows - z[..., None], out=out)


@np.errstate(divide="ignore")
def _group_posteriors(comp: _Compiled, group: list[int],
                      liks: Sequence[np.ndarray], scales: np.ndarray,
                      online: bool) -> np.ndarray:
    """Forward-backward over one group, a row per conversation and scale.

    Returns the posteriors as (n, c, b, t) for c conversations, b scales
    and the longest conversation's n utterances; a conversation's steps
    past its own length are padding.  The forward sweep runs through one
    buffer of ``_BLOCK`` steps and keeps the scores before each block (and
    ``online`` normalizes each block as it goes).  The backward sweep takes
    the blocks last first: it reruns a block's forward from its scores
    (the last block is still in the buffer), adds the block's betas and
    normalizes it.  The rerun repeats every step's arithmetic, so the
    posteriors are bit-identical to those of one alpha over the group.
    """
    lengths = [len(liks[k]) for k in group]
    n, c, b = max(lengths), len(group), len(scales)
    _, _, size, t = comp.trans.shape
    blocks = [(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    alpha = np.full((blocks[0][1], c, b, size, t + 1), -np.inf)
    before = np.full((c, b, size, t + 1), -np.inf)
    before[..., -1, -1] = 0.0           # every axis "before the conversation"
    saved = []                          # the scores before each block
    out = np.empty((n, c, b, t))
    for lo, hi in blocks:
        if not online:
            saved.append(before)
        _forward(comp, *_gather(comp, group, liks, scales, lo, hi),
                 before.reshape(c, b, t + 1, size), alpha[:hi - lo])
        if online:
            _normalize(alpha[:hi - lo], lengths, lo, out[lo:hi])
        before = alpha[hi - lo - 1].copy()
    if online:
        return out
    ends = comp.end[comp.ends[group]].reshape(c, 1, size, t + 1)
    ending = _ending(group, liks)
    beta = np.broadcast_to(ends, (c, b, size, t + 1))
    betas = np.empty_like(alpha)
    for lo, hi in reversed(blocks):
        top = min(hi, n - 1)            # the step whose betas the block reads
        idx, lik = _gather(comp, group, liks, scales, lo, top + 1)
        if hi < n:
            _forward(comp, idx[:hi - lo], lik[:hi - lo],
                     saved[lo // _BLOCK].reshape(c, b, t + 1, size),
                     alpha[:hi - lo])
        else:
            alpha[hi - lo - 1] += beta
        if top > lo:
            _backward(comp, idx, lik, beta, ends, ending, lo,
                      betas[:top - lo])
            alpha[:top - lo] += betas[top - lo - 1::-1]
            beta = betas[top - lo - 1].copy()
        _normalize(alpha[:hi - lo], lengths, lo, out[lo:hi])
    return out


def _posteriors(comp: _Compiled, liks: Sequence[np.ndarray],
                scales: np.ndarray, online: bool) -> list[np.ndarray]:
    """Posteriors of each conversation, (b, n, t) for its evidence ``liks``
    scaled by each of the b ``scales``."""
    _, _, size, t = comp.trans.shape
    b, states = len(scales), size * (t + 1)
    # per utterance, a conversation holds its posteriors and its share of
    # the scores kept before each block; per step of a block, its alpha
    # and beta buffers and at most four steps' worth of evidence, products,
    # joint scores and guard masks, and its gathered tables (t / b steps'
    # worth)
    per_step = b * t + -(-b * states // _BLOCK)
    extra = -(-_BLOCK * states * (6 * b + t) // per_step)
    out: list[np.ndarray] = [np.empty(0)] * len(liks)
    for group in _groups([len(lik) for lik in liks], per_step, extra):
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
    comp = _compile(grammar, tables, products=True)
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
    n, c = max(len(liks[k]) for k in group), len(group)
    ending = _ending(group, liks)
    _, _, size, t = comp.trans.shape
    score = np.full((c, t + 1, size), -np.inf)
    score[:, -1, -1] = 0.0               # every axis "before the conversation"
    state = np.full((c, size, t + 1), -np.inf)
    # back pointers are labels 0..t, so the smallest such integer type
    back = np.empty((n, c, size, t), dtype=np.min_scalar_type(t))
    peak = np.empty((n, c))
    final = np.empty((c, size * (t + 1)))
    for i in range(n):
        if i % _BLOCK == 0:     # lik: (steps, c, 1, t)
            idx, lik = _gather(comp, group, liks, _UNSCALED, i, i + _BLOCK)
        cand = score[..., None] + comp.trans[idx[i % _BLOCK]]
        back[i] = cand.argmax(axis=1)
        state[..., :t] = cand.max(axis=1) + lik[i % _BLOCK]
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
    comp = _compile(grammar, tables, products=False)
    _, _, size, t = comp.trans.shape
    liks = [table.scores for table in tables]
    out: list = [None] * len(tables)
    # one step's candidates, score + transitions, are t steps' worth
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
        comp = _compile(grammar, [wt for wt, _ in half], products=True)
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
