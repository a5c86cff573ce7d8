"""Backoff n-gram language models with Witten-Bell discounting.

Seen events keep probability c(h,w) / (N(h) + T(h)), where N(h) is the
number of tokens observed after context h and T(h) the number of distinct
continuation types.  The reserved mass T(h) / (N(h) + T(h)) goes to unseen
continuations, distributed proportionally to the next-shorter-context
distribution and renormalized over the unseen set (Katz-style backoff).
The unigram level backs off to a uniform distribution over the vocabulary.

Training pads every sequence with order-1 ``<start>`` tokens and one
``<end>`` token, and reserves ``<unk>`` in the vocabulary; unknown tokens
map to ``<unk>`` at query time, which collects probability only through
backoff.  ``pad=False`` turns both the padding and the reserved tokens off
(useful for hand-checkable distributions over a closed token set).

A model is stored once, as sorted arrays (Heafield 2011, "KenLM: faster
and smaller language model queries"): estimation fills them one order at
a time, ARPA files are read into and written from them, and
:class:`CompiledModelSet` scores from them.

All internal arithmetic is in natural logs; the ARPA-style file format
uses log10, as usual.
"""

from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import END, START, CorpusError, content_lines, located

UNK = "<unk>"

# ARPA convention: entries at or below this log10 value carry no probability
# (context-only lines, e.g. <start>).
_LOG10_NONE = -99.0
_LN10 = math.log(10.0)

# A context's unseen mass is 1 minus its seen words' lower-order mass
# (Stolcke 2002, "SRILM -- an extensible language modeling toolkit"); below
# this value that difference has lost too many digits, and the unseen
# words' probabilities are added up instead.
_Z_FLOOR = 1e-9

_EM_TOL, _EM_MAX_ITER = 1e-4, 100       # _fit_weights' stopping rule

# Shifting an all -inf row by the most negative float instead of its max
# keeps finite shifts exact and turns that row into -max + log(0) = -inf.
_FLOOR = -np.finfo(float).max


@np.errstate(divide="ignore")
def _logsumexp(arr: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(arr))) along ``axis``: -inf where every entry is -inf
    or the axis is empty.  The toolkit's one log-sum-exp.  A batched call
    equals the 1-D calls on its rows bit for bit only if each reduced row
    is contiguous (``axis`` the last of a C-contiguous array): numpy adds
    a contiguous row pairwise and a strided one in order, and strided rows
    of 8 or more entries already differ (x86-64, numpy 2.4)."""
    shift = np.maximum(arr.max(axis=axis, keepdims=True, initial=-np.inf),
                       _FLOOR)
    diff = arr - shift
    return shift.squeeze(axis) + np.log(np.exp(diff, out=diff).sum(axis=axis))


def left_sum(values: np.ndarray | Iterable[float]) -> float:
    """Sum added left to right from 0.0 by ``np.add.accumulate``, as
    CompiledModelSet adds events: from Python 3.12 the builtin sum()
    compensates float rounding, and numpy's sum() adds in pairs."""
    if not isinstance(values, np.ndarray):
        values = np.fromiter(values, dtype=float)
    return float(np.add.accumulate(np.append(0.0, values))[-1])


class NGramModel:
    """A trained (or file-loaded) backoff model, stored as arrays.

    Token ids follow the sorted ``tokens``; id ``len(tokens)`` stands for
    any other.  Per level n, ``lp`` and ``bow`` hold log probs (NaN: an
    n-gram stored only as a context) and backoff weights (0.0: none).
    Level 0 is the empty context, level 1 is dense over ids, and a higher
    level's n-grams are its sorted int64 ``keys``, ``parent * B + token``
    (``parent`` the row of the n-gram's prefix one level down, B the id
    count).  Every prefix of a stored n-gram is stored.
    """

    def __init__(self, order: int, vocab: frozenset[str],
                 tokens: tuple[str, ...], keys: list, lp: list, bow: list,
                 padded: bool = True) -> None:
        self.order, self.vocab, self.padded, self.tokens = \
            order, vocab, padded, tokens
        self._base = len(tokens) + 1
        self._keys, self._lp, self._bow = keys, lp, bow
        self._log_uniform = -math.log(len(vocab))
        self._engine: CompiledModelSet | None = None

    @functools.cached_property
    def _ids(self) -> dict[str, int]:
        """Each token's id, built on first use by :meth:`log_probs`:
        estimation, the engine and ARPA files work from ``tokens``."""
        return {t: i for i, t in enumerate(self.tokens)}

    def log_probs(self, contexts: Sequence[Sequence[str]],
                  tokens: Sequence[str]) -> np.ndarray:
        """Natural-log P(token | context) of each of ``tokens`` (columns)
        after each of ``contexts`` (rows), backing off along context
        suffixes, in one engine call."""
        for token in tokens:
            if token not in self.vocab and UNK not in self.vocab:
                raise ValueError(f"token {token!r} not in closed vocabulary")
        k1, none = self.order - 1, self._base - 1
        ctx = np.array([[self._ids.get(t, none) for t in ([None] * k1 + list(
            context))[len(context):]] for context in contexts],
            dtype=np.int64).reshape(len(contexts), k1)
        tok = np.array([self._ids.get(t, none) for t in tokens], dtype=np.int64)
        return _own_engine(self)._event_log_probs(np.column_stack([
            np.repeat(ctx, len(tok), axis=0), np.tile(tok, len(ctx))]))[
            :, 0].reshape(len(ctx), len(tok))

    def cond_log_prob(self, context: Sequence[str], token: str) -> float:
        """Natural-log P(token | context), backing off along context suffixes."""
        return float(self.log_probs([context], [token])[0, 0])

    @property
    def logprob(self) -> tuple[tuple[str, ...], ...]:
        """The contexts with at least one continuation probability, shortest
        first and in sorted order (read-only)."""
        found = [] if np.isnan(self._lp[1]).all() else [()]
        for n in range(2, self.order + 1):
            rows = np.unique(self._keys[n][~np.isnan(self._lp[n])] // self._base)
            found += [tuple(self.tokens[i] for i in gram)
                      for gram in self._grams(n - 1, rows).tolist()]
        return tuple(found)

    def contexts(self) -> Iterator[tuple[str, ...]]:
        return iter(self.logprob)

    def _grams(self, n: int, rows: np.ndarray) -> np.ndarray:
        """Token ids (one row each) of the level-n n-grams at ``rows``."""
        cols = []
        for level in range(n, 1, -1):
            rows, token = np.divmod(self._keys[level][rows], self._base)
            cols.append(token)
        return np.column_stack([rows, *cols[::-1]])


def train_ngram(sequences: Sequence[Sequence[str]], order: int,
                vocabulary: Iterable[str] | None = None,
                pad: bool = True) -> NGramModel:
    """Estimate a Witten-Bell backoff model of the given order.

    ``vocabulary`` closes the token set; training tokens outside it are an
    error.  With the default ``pad=True`` the predictable vocabulary also
    contains ``<end>`` and ``<unk>`` and every sequence is padded with
    order-1 ``<start>`` tokens plus one ``<end>``, so no sequence may hold
    either token itself.  This is the one-group case of :func:`_train_set`.
    """
    return _train_set([sequences], order, vocabulary, pad)[0]


@np.errstate(divide="ignore", invalid="ignore")
def _train_set(groups: Sequence[Sequence[Sequence[str]]], order: int,
               vocabulary: Iterable[str] | None = None,
               pad: bool = True) -> list[NGramModel]:
    """One Witten-Bell model per group of sequences over one vocabulary
    (``vocabulary``, else every group's tokens), each the same as its
    group estimated alone.

    All groups are estimated at once, shortest order first, as sort-based
    estimators do (Heafield et al. 2013, "Scalable modified Kneser-Ney
    language model estimation"): n-grams are packed with their group as
    the leading digit and counted with one ``np.unique`` per order, each
    (group, context)'s counts are segment sums, and each seen n-gram's
    lower-order probability is read at its suffix's row one order down.
    The engine scores only the unseen words of a context whose unseen
    mass is below ``_Z_FLOOR``, under its group's lower-order model.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    groups = [list(seqs) for seqs in groups]
    if not groups or not all(groups):
        raise ValueError("no training sequences")
    seqs = [s for group in groups for s in group]
    seen_tokens = set(itertools.chain.from_iterable(seqs))
    for token in (START, END):
        if pad and token in seen_tokens:
            raise ValueError(f"training sequences hold the reserved token {token!r}")
    vocab = set(seen_tokens if vocabulary is None else vocabulary)
    if seen_tokens - vocab:
        raise ValueError(f"training tokens outside vocabulary: "
                         f"{sorted(seen_tokens - vocab)[:5]}")
    if pad:
        vocab = (vocab | {END, UNK}) - {START}
    if not vocab:
        raise ValueError("empty vocabulary")
    vocab = frozenset(vocab)
    tokens = tuple(sorted(vocab | {START} if pad else vocab))
    ids = {t: i for i, t in enumerate(tokens)}
    base, n_vocab = len(tokens) + 1, len(vocab)
    n_head, n_tail = (order - 1, 1) if pad else (0, 0)
    # every sequence padded with n_head <start> and n_tail <end> tokens, end
    # to end; each token's group, and its position within its sequence
    lengths = np.fromiter(map(len, seqs), dtype=np.int64,
                          count=len(seqs)) + n_head + n_tail
    owner = np.repeat(np.repeat(np.arange(len(groups)), list(map(len, groups))),
                      lengths)
    first = np.cumsum(lengths) - lengths
    index = np.arange(int(lengths.sum())) - np.repeat(first, lengths)
    stream = np.full(len(index), ids.get(START, 0), dtype=np.int64)
    body = index >= n_head
    if pad:
        body[first + lengths - 1] = False
        stream[first + lengths - 1] = ids[END]
    stream[body] = np.fromiter(
        map(ids.__getitem__, itertools.chain.from_iterable(seqs)),
        dtype=np.int64, count=int(body.sum()))
    if np.bincount(owner[index >= n_head], minlength=len(groups)).min() == 0:
        raise ValueError("no training events (all sequences empty and pad=False)")

    # level n's rows: every n-gram ending at some position, either an event
    # (ending past the pads) or the context of one; ``row`` holds the row
    # of the n-gram ending at each position (``below``: one level down),
    # ``at_row`` one position of each row.  Level 1's rows are group * base
    # + token, so each level's rows are those of the groups in turn.
    keys, lp = [None, None], [None]
    bow, row = [np.zeros(len(groups))], owner * base + stream
    for n in range(1, order + 1):
        if n > 1:
            at = np.flatnonzero(index >= n - 1)
            level, inverse = np.unique(row[at - 1] * base + stream[at],
                                       return_inverse=True)
            keys.append(level)
            below, row = row, np.full(len(stream), -1)
            row[at] = inverse
            at_row = np.empty(len(level), dtype=np.int64)
            at_row[inverse] = at
        size = len(keys[n]) if n > 1 else len(groups) * base
        events = np.flatnonzero(index >= max(n_head, n - 1))
        counts = np.bincount(row[events], minlength=size)
        seen = np.flatnonzero(counts)
        # seen rows are sorted by key, so each context's rows are adjacent
        # (level 1: a group's one empty context)
        context, starts, types = np.unique(
            (keys[n][seen] if n > 1 else seen) // base,
            return_index=True, return_counts=True)
        of = np.repeat(np.arange(len(context)), types)
        denom = np.add.reduceat(counts[seen], starts) + types
        reserved, unseen = types / denom, n_vocab - types
        if n == 1:
            lower, z = np.full(len(seen), -math.log(n_vocab)), unseen / n_vocab
        else:
            # a seen n-gram's suffix is the seen (n-1)-gram that ends where
            # it does, at any of its positions, so its probability is stored
            lower = lp[n - 1][below[at_row[seen]]]
            z = 1.0 - np.add.reduceat(np.exp(lower), starts)
            floored = np.flatnonzero((unseen > 0) & (z < _Z_FLOOR)).tolist()
            if floored:
                models = _split_set(n - 1, len(groups), vocab, tokens, keys,
                                    lp, bow, pad)
            for c in floored:
                # the sorted explicit sum over the unseen words, each walked
                # under the context's group's orders 1..n-1
                end = at_row[seen[starts[c]]]
                probe = np.tile(stream[end - n + 2:end + 1], (unseen[c], 1))
                probe[:, -1] = np.setdiff1d([ids[t] for t in vocab],
                                            keys[n][seen[of == c]] % base)
                z[c] = left_sum(map(math.exp, _own_engine(
                    models[owner[end]])._event_log_probs(probe)[:, 0].tolist()))
        c = counts[seen] / denom[of]
        lp.append(np.full(size, math.nan))
        # a context that saw every vocabulary token folds its reserved mass
        # back by interpolation, so its row still sums to 1
        lp[n][seen] = np.log(np.where(unseen[of] == 0, c + reserved[of]
                                      * np.exp(lower), c))
        bow.append(np.zeros(size))
        bow[n - 1][context] = np.where(unseen > 0,
                                       np.log(reserved) - np.log(z), 0.0)
    return _split_set(order, len(groups), vocab, tokens, keys, lp, bow, pad)


def _split_set(order: int, n_groups: int, vocab: frozenset[str],
               tokens: tuple[str, ...], keys: list, lp: list, bow: list,
               padded: bool) -> list[NGramModel]:
    """The order-``order`` models of a set estimated by :func:`_train_set`:
    each group's rows of every level, with its keys' parents counted from
    the group's first row one level down."""
    base = len(tokens) + 1
    first = np.arange(n_groups + 1) * base      # each group's first row
    # each group's keys, log probs and backoff weights by level
    parts = [([None, None], [None, lp[1][lo:hi]],
              [bow[0][g:g + 1], bow[1][lo:hi]])
             for g, (lo, hi) in enumerate(zip(first, first[1:]))]
    for n in range(2, order + 1):
        below, first = first, keys[n].searchsorted(first * base)
        for g, (k, p, b) in enumerate(parts):
            lo, hi = first[g], first[g + 1]
            k.append(keys[n][lo:hi] - below[g] * base)
            p.append(lp[n][lo:hi])
            b.append(bow[n][lo:hi])
    return [NGramModel(order, vocab, tokens, k, p, b, padded)
            for k, p, b in parts]


# ---------------------------------------------------------------------------
# Scoring and perplexity (works for NGramModel and InterpolatedModel alike)
# ---------------------------------------------------------------------------

def _own_engine(scorer) -> "CompiledModelSet":
    """The scorer's compiled view on its own, built on first use."""
    if scorer._engine is None:
        scorer._engine = CompiledModelSet([scorer])
    return scorer._engine


def perplexity(model, sequences: Sequence[Sequence[str]]) -> float:
    """exp of the per-token negative mean log probability; the token count
    includes the ``<end>`` event of each sequence for padded models."""
    seqs = [tuple(s) for s in sequences]
    count = sum(len(s) + (1 if model.padded else 0) for s in seqs)
    if count == 0:
        raise ValueError("no tokens to evaluate")
    total = left_sum(_own_engine(model).score(seqs)[:, 0])
    return math.exp(-total / count)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

class InterpolatedModel:
    """Query-time mixture w * P_first + (1-w) * P_second.

    Both components must share a vocabulary and padding convention.  The
    mixture is evaluated at query time; nothing is re-estimated.
    """

    def __init__(self, first, second, weight: float) -> None:
        if not 0.0 <= weight <= 1.0:
            raise ValueError("interpolation weight must be in [0, 1]")
        if frozenset(first.vocab) != frozenset(second.vocab):
            raise ValueError("interpolated models must share a vocabulary")
        if first.padded != second.padded:
            raise ValueError("interpolated models must share padding")
        self.first, self.second, self.weight = first, second, weight
        self.order = max(first.order, second.order)
        self.vocab = frozenset(first.vocab)
        self.padded = first.padded
        # a zero weight silences its component exactly through logaddexp
        self._log_w = math.log(weight) if weight > 0.0 else -math.inf
        self._log_rest = math.log(1.0 - weight) if weight < 1.0 else -math.inf
        self._engine: CompiledModelSet | None = None


def interpolate(first, second, weight: float) -> InterpolatedModel:
    return InterpolatedModel(first, second, weight)


def _fit_weights(firsts: Sequence, second,
                 heldouts: Sequence[Sequence[Sequence[str]]]) -> list[float]:
    """EM for the interpolation weight of each of ``firsts`` with
    ``second``, started at 0.5: maximizes the held-out log likelihood of
    the two-component mixture on its own held-out sequences, and stops when
    the weight moves less than ``_EM_TOL`` or after ``_EM_MAX_ITER`` steps.
    One engine over ``[*firsts, second]`` and one event table over every
    sequence serve every weight.

    An event's responsibility for weight w is w / (w + (1 - w) * d) if the
    first model scores it at least as high (la >= lb), else
    w * d / (w * d + (1 - w)), with d = exp(-|la - lb|) taken once per
    event.  Each EM step computes a model's responsibilities as one array
    and adds them with ``left_sum``."""
    if not firsts:
        return []
    seqs = [tuple(s) for heldout in heldouts for s in heldout]
    table, window, n_events, _ = CompiledModelSet(
        [*firsts, second])._event_table(seqs)
    owner = np.repeat(np.repeat(np.arange(len(firsts)),
                                [len(h) for h in heldouts]), n_events)
    counts = np.bincount(owner, minlength=len(firsts))
    if not counts.all():
        raise ValueError("no held-out events")
    la, lb = table[window, owner], table[window, len(firsts)]
    ge = la >= lb
    d = np.fromiter(map(math.exp, np.where(ge, lb - la, la - lb).tolist()),
                    dtype=float, count=len(la))
    # with x = w * ex and y = (1 - w) * ey, each responsibility is x / (x + y)
    bounds = np.cumsum(counts)[:-1]
    weights = []
    for ex, ey in zip(np.split(np.where(ge, 1.0, d), bounds),
                      np.split(np.where(ge, d, 1.0), bounds)):
        w = 0.5
        for _ in range(_EM_MAX_ITER):
            x, y = w * ex, (1.0 - w) * ey
            new = left_sum(x / (x + y)) / len(x)
            moved, w = abs(new - w), new
            if moved < _EM_TOL:
                break
        weights.append(w)
    return weights


# ---------------------------------------------------------------------------
# Compiled scoring: every sequence under every model, over integer ids
# ---------------------------------------------------------------------------

# The backoff walk runs on blocks of at most this many (model, window)
# cells, and sequence totals add up in blocks of this many (sequence,
# scorer) cells, which keeps each temporary near 128 KB at any corpus
# size.  Blocks eight times larger were no faster at scoring the 10,000
# utterances of a 4-act, trigram tagging run.
_BLOCK_CELLS = 1 << 14


class CompiledModelSet:
    """Sequence log probabilities of many scorers at once.

    ``scorers`` are NGramModels and interpolations of two NGramModels, all
    padded alike; their orders may differ, as a model directory's ARPA
    files each declare their own.  The set views the distinct NGramModels
    behind them end to end over the union of their tokens (the last id
    stands for every token no model knows): each level's rows are those
    of the models in turn, so every key's parent row moves by the rows of
    the models before, and a model's ids map increasingly into the union,
    so each level stays sorted.

    :meth:`score` runs the backoff walk of each distinct event window
    under every model with ``np.searchsorted``.  Backoff weights
    accumulate from the longest context down and events add up left to
    right, so the set equals the scalar Katz walk of each model bit for
    bit.  An interpolation's event is ``np.logaddexp(log w + first,
    log(1 - w) + second)``, computed once per component event.
    """

    def __init__(self, scorers: Sequence) -> None:
        mixes = {id(s): s for s in scorers if isinstance(s, InterpolatedModel)}
        bases = {id(m): m for s in scorers
                 for m in ([s.first, s.second] if id(s) in mixes else [s])}
        for part in bases.values():
            if not isinstance(part, NGramModel):
                raise TypeError(f"cannot compile a {type(part).__name__}"
                                f" (only NGramModels and interpolations"
                                f" of two NGramModels)")
        if not bases:
            raise ValueError("no models to compile")
        if len({m.padded for m in bases.values()}) > 1:
            raise ValueError("compiled models must share padding")
        row = {key: r for r, key in enumerate([*bases, *mixes])}
        self._columns = [row[id(s)] for s in scorers]
        self.n_scorers = len(self._columns)
        self._n_rows = len(row)
        mixed = list(mixes.values())
        self._mix = (np.array([row[id(s.first)] for s in mixed], dtype=int),
                     np.array([row[id(s.second)] for s in mixed], dtype=int),
                     np.array([s._log_w for s in mixed])[:, None],
                     np.array([s._log_rest for s in mixed])[:, None])
        self._view(list(bases.values()))

    def _view(self, models: list[NGramModel]) -> None:
        # models of one estimate share their tokens and vocabulary, so each
        # distinct token tuple and vocabulary is mapped once
        shared = {m.tokens for m in models}
        tokens = sorted(set().union(*shared))
        self._ids = ids = {t: i for i, t in enumerate(tokens)}
        self._base = base = len(ids) + 1
        none = base - 1
        n_models = len(models)
        self._padded = models[0].padded
        self._order = np.array([m.order for m in models])
        self._in_vocab = np.zeros((n_models, base), dtype=bool)
        self._closed = np.array([UNK not in m.vocab for m in models])
        self._unk = ids.get(UNK, none)
        self._log_uniform = np.array([m._log_uniform for m in models])
        # per level: sorted keys, then log probs and backoff weights, each
        # ending in a sentinel row (key beyond any query, NaN, 0.0) that
        # stands for "no such n-gram"; level 1 is dense over (model, token)
        self._keys, self._lp, self._bow = [None, None], [
            None, np.full(n_models * base, math.nan)], [
            np.concatenate([m._bow[0] for m in models]), np.zeros(n_models * base)]
        # per level: which rows are the prefix of some row one level up
        self._has_children: list = [None,
                                    np.zeros(n_models * base, dtype=bool)]
        # each model's ids (and its "no such token" id) in the union's
        to_union = {toks: np.array([ids[t] for t in toks] + [none])
                    for toks in shared}
        maps = [to_union[m.tokens] for m in models]
        vocab_ids = {v: [ids[t] for t in v] for v in {m.vocab for m in models}}
        for m, (model, to) in enumerate(zip(models, maps)):
            self._in_vocab[m, vocab_ids[model.vocab]] = True
            self._lp[1][m * base + to] = model._lp[1]
            self._bow[1][m * base + to] = model._bow[1]
        offsets = [m * base for m in range(n_models)]
        for n in range(2, int(self._order.max()) + 1):
            parts = []
            for model, to, offset in zip(models, maps, offsets):
                if n <= model.order:
                    parent, token = np.divmod(model._keys[n], model._base)
                    parts.append((((to[parent] if n == 2 else parent)
                                   + offset) * base + to[token],
                                  model._lp[n], model._bow[n]))
            offsets = np.cumsum([0] + [len(m._keys[n]) if n <= m.order else 0
                                       for m in models])
            keys, lps, bows = map(np.concatenate, zip(*parts))
            self._has_children[-1][keys // base] = True
            self._has_children.append(np.zeros(len(keys) + 1, dtype=bool))
            self._keys.append(np.append(keys, np.iinfo(np.int64).max))
            self._lp.append(np.append(lps, math.nan))
            self._bow.append(np.append(bows, 0.0))

    def score(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """Natural-log probability of every sequence (rows) under every
        scorer (columns, in the order given): each sequence adds up its
        events' scores from :meth:`_event_table` left to right."""
        seqs = [tuple(s) for s in sequences]
        table, window, n_events, first = self._event_table(seqs)
        # shortest first in blocks, so the sequences still adding at event
        # e are a block's suffix
        out = np.empty((len(seqs), self.n_scorers))
        by_length = np.argsort(n_events, kind="stable")
        step = max(1, _BLOCK_CELLS // self.n_scorers)
        for lo in range(0, len(seqs), step):
            block = by_length[lo:lo + step]
            counts, starts = n_events[block], first[block]
            totals = np.zeros((len(block), self.n_scorers))
            for e in range(int(counts[-1])):    # left to right
                live = int(np.searchsorted(counts, e, side="right"))
                totals[live:] += table[window[starts[live:] + e]]
            out[block] = totals
        return out

    def _event_table(self, seqs: list[tuple[str, ...]]):
        """``(table, window, n_events, first)``: the log probabilities of
        each distinct event window (its token's id and the k-1 ids before
        it, k the largest order) under every scorer, by
        :meth:`_event_log_probs`; the window of each event in input order;
        each sequence's event count and first event."""
        ids, base = self._ids, self._base
        none = base - 1
        k1 = int(self._order.max()) - 1
        tail = (END,) if self._padded else ()
        n_events = np.fromiter(map(len, seqs), dtype=np.int64,
                               count=len(seqs)) + len(tail)
        first = np.cumsum(n_events) - n_events
        # one token stream: k1 left pads before each sequence's events, so
        # event e of sequence s sits at position e + (s + 1) * k1.  An
        # unpadded model's pads are the unknown id, which no stored context
        # contains, so its walk backs off past them adding nothing.
        pos = np.arange(int(n_events.sum())) + np.repeat(
            np.arange(1, len(seqs) + 1) * k1, n_events)
        stream = np.full(len(pos) + len(seqs) * k1,
                         ids.get(START, none) if self._padded else none,
                         dtype=np.int64)
        ends = first + n_events - 1 if tail else []
        stream[np.delete(pos, ends)] = [
            ids.get(t, none) for t in itertools.chain.from_iterable(seqs)]
        stream[pos[ends]] = ids.get(END, none)
        if self._closed.any():
            unknown = ~self._in_vocab[self._closed].all(axis=0)[stream[pos]]
            if unknown.any():
                e = int(unknown.argmax())
                s = int(np.searchsorted(first, e, side="right")) - 1
                raise ValueError(f"token {(seqs[s] + tail)[e - first[s]]!r} "
                                 f"not in closed vocabulary")
        # pack each window into one int64 key; should the next id not fit,
        # the keys so far are first replaced by their ranks
        key, span = np.zeros(len(pos), dtype=np.int64), 1
        for j in range(-k1, 1):
            if span * base >= 1 << 63:
                _, key = np.unique(key, return_inverse=True)
                span = len(pos)
            key = key * base + stream[pos + j]
            span *= base
        keys, window = np.unique(key, return_inverse=True)
        at = np.empty(len(keys), dtype=np.int64)
        at[window] = pos            # a stream position of each window
        table = self._event_log_probs(
            stream[at[:, None] + np.arange(-k1, 1)])
        return table, window, n_events, first

    def _event_log_probs(self, windows: np.ndarray) -> np.ndarray:
        """Log probability of each window's last id after the ids before it
        (rows) under every scorer (columns), in blocks of windows."""
        table = np.empty((len(windows), self.n_scorers))
        step = max(1, _BLOCK_CELLS // self._n_rows)
        for lo in range(0, len(windows), step):
            table[lo:lo + step] = self._walk(windows[lo:lo + step])[
                self._columns].T
        return table

    def _find(self, n: int, parent: np.ndarray, token: np.ndarray,
              where: np.ndarray) -> np.ndarray:
        """Row in level n of each (parent row, token) where ``where`` holds
        and the parent has rows below it; the sentinel row elsewhere."""
        keys = self._keys[n]
        rows = np.full(parent.shape, len(keys) - 1)
        where = where & self._has_children[n - 1][parent]
        query = parent[where] * self._base + np.broadcast_to(
            token, parent.shape)[where]
        found = keys.searchsorted(query)
        rows[where] = np.where(keys[found] == query, found, len(keys) - 1)
        return rows

    def _walk(self, tok: np.ndarray) -> np.ndarray:
        """(rows, windows) log probabilities of a block of id windows."""
        k1 = tok.shape[1] - 1
        m = np.arange(len(self._order))[:, None]
        word = np.where(self._in_vocab[m, tok[:, k1]], tok[:, k1], self._unk)
        depth = self._order[m] - 1              # context length walked
        offset = m * self._base
        acc = np.zeros(word.shape)
        events = np.zeros(word.shape)
        todo = np.ones(word.shape, dtype=bool)
        for n in range(k1, -1, -1):
            here = todo & (depth >= n)
            if not here.any():
                continue
            if n == 0:
                lp = self._lp[1][offset + word]
                bow = self._bow[0][m]
            else:
                node = offset + tok[:, k1 - n]
                for i in range(2, n + 1):
                    node = self._find(i, node, tok[:, k1 - n + i - 1], here)
                lp = self._lp[n + 1][self._find(n + 1, node, word, here)]
                bow = self._bow[n][node]
            hit = here & ~np.isnan(lp)
            events = np.where(hit, acc + lp, events)
            if n == 0:
                # unseen at the unigram level: uniform base distribution
                events = np.where(here & ~hit, acc + bow
                                  + self._log_uniform[m], events)
            else:
                acc = np.where(here & ~hit, acc + bow, acc)
            todo = todo & ~hit

        rows_a, rows_b, log_w, log_rest = self._mix
        if len(rows_a):
            events = np.concatenate([events, np.logaddexp(
                log_w + events[rows_a], log_rest + events[rows_b])])
        return events


# ---------------------------------------------------------------------------
# ARPA-style serialization
# ---------------------------------------------------------------------------

def write_arpa(model, path: str | Path, comments: Sequence[str] = ()) -> None:
    """Write the model in ARPA text format (log10 probabilities).

    The unigram section is materialized densely over the full vocabulary, so
    the backoff-to-uniform base never needs to be encoded.  ``<start>`` and
    other context-only grams get the conventional -99 probability.  Output is
    byte-deterministic: sections and grams are sorted.
    """
    if not isinstance(model, NGramModel):
        raise TypeError("write_arpa needs a concrete NGramModel; store an "
                        "interpolation as its components and weight")
    sections = []
    for n in range(1, model.order + 1):
        lp, bow = model._lp[n], model._bow[n]
        if n == 1:
            vocab = [t in model.vocab for t in model.tokens] + [False]
            lp = np.where(vocab, np.where(np.isnan(lp), model._bow[0]
                                          + model._log_uniform, lp), math.nan)
        # a context's backoff weight rides on the line of the context itself
        rows = np.flatnonzero(~np.isnan(lp) | (bow != 0.0))
        sections.append([
            (f"{_LOG10_NONE:g}" if math.isnan(lp10) else f"{lp10:.12g}")
            + "\t" + " ".join(model.tokens[i] for i in gram)
            + (f"\t{bow10:.12g}\n" if bow10 else "\n")
            for gram, lp10, bow10 in zip(model._grams(n, rows).tolist(),
                                         (lp[rows] / _LN10).tolist(),
                                         (bow[rows] / _LN10).tolist())])

    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("\n\\data\\\n" + "".join(
            f"ngram {n}={len(lines)}\n" for n, lines in enumerate(sections, 1)))
        for n, lines in enumerate(sections, 1):
            fh.write(f"\n\\{n}-grams:\n")
            fh.writelines(lines)
        fh.write("\n\\end\\\n")


def read_arpa(path: str | Path) -> NGramModel:
    """Read an ARPA-format model written by :func:`write_arpa` (or elsewhere).

    Lines before ``\\data\\`` are ignored.  An n-gram line is
    ``log10 prob <TAB> space-separated gram [<TAB> log10 backoff]``, and an
    n-gram appears at most once per section.
    """
    declared: dict[int, tuple[int, int]] = {}   # order -> (count, line)
    # per section: log10 prob, log10 backoff weight and gram of each line
    entries: dict[int, list[tuple[float, float, list[str]]]] = {}
    first_at: dict[tuple[str, ...], int] = {}   # gram -> its line
    # None before \data\, 0 among its counts or after \end\, else the
    # order of the section being read
    n: int | None = None
    lineno = 1
    with located(lambda exc: f"{path}:{lineno}: {exc}"):
        for lineno, fields in content_lines(path):
            head = fields[0].strip()
            if n is None:
                if head == "\\data\\":
                    n = 0
            elif head.startswith("\\") and head.endswith("-grams:"):
                n = int(head[1:-len("-grams:")])
                if n not in declared:
                    raise ValueError(f"undeclared section {head}")
                entries.setdefault(n, [])
            elif head == "\\end\\":
                n = 0
            elif n == 0 and head.startswith("ngram "):
                n_s, count_s = head[len("ngram "):].split("=")
                declared[int(n_s)] = (int(count_s), lineno)
            elif n == 0:
                raise ValueError("entry outside any section")
            elif len(fields) not in (2, 3):
                raise ValueError("bad n-gram line")
            else:
                gram = fields[1].split()
                if len(gram) != n:
                    raise ValueError(f"{len(gram)}-gram in {n}-gram section")
                first = first_at.setdefault(tuple(gram), lineno)
                if first != lineno:
                    raise ValueError(f"duplicate n-gram {' '.join(gram)!r} "
                                     f"(first at line {first})")
                entries[n].append((float(fields[0]), float(fields[2])
                                   if len(fields) == 3 else 0.0, gram))
    for k, (count, line) in declared.items():
        if len(entries.get(k, ())) != count:
            raise CorpusError(f"{path}:{line}: \\{k}-grams: section has "
                              f"{len(entries.get(k, ()))} entries, header "
                              f"declared {count}")
    tokens = tuple(sorted({t for rows in entries.values()
                           for row in rows for t in row[2]}))
    ids = {t: i for i, t in enumerate(tokens)}
    base, order = len(tokens) + 1, max([1, *declared])
    # per level, top down: each n-gram's token ids, log prob and backoff
    # weight, then every prefix of an n-gram one level up, which becomes a
    # row without a probability or a backoff weight if no line gives one
    grams = {order + 1: np.zeros((0, order + 1), dtype=np.int64)}
    lp, bow = [None] * (order + 1), [np.zeros(1)] + [None] * order
    for k in range(order, 0, -1):
        rows = entries.get(k, [])
        prefixes = grams[k + 1][:, :-1]
        grams[k] = np.concatenate([np.array(
            [[ids[t] for t in row[2]] for row in rows],
            dtype=np.int64).reshape(-1, k), prefixes])
        lp10 = np.array([row[0] for row in rows] + [_LOG10_NONE] * len(prefixes))
        lp[k] = np.where(lp10 > _LOG10_NONE + 1.0, lp10 * _LN10, math.nan)
        bow[k] = np.append([row[1] for row in rows], np.zeros(len(prefixes))
                           ) * _LN10
    keys: list = [None, None]
    for k in range(1, order + 1):
        row = grams[k][:, 0]
        for j in range(2, k):
            row = keys[j].searchsorted(row * base + grams[k][:, j - 1])
        # the first of a key's rows: the line that gave it, if any
        level, pick = np.unique(row * base + grams[k][:, -1] if k > 1
                                else row, return_index=True)
        if k == 1:
            dense = np.full(base, math.nan), np.zeros(base)
            dense[0][level], dense[1][level] = lp[1][pick], bow[1][pick]
            lp[1], bow[1] = dense
        else:
            keys.append(level)
            lp[k], bow[k] = lp[k][pick], bow[k][pick]
    vocab = frozenset(tokens[i] for i in np.flatnonzero(~np.isnan(lp[1])))
    if not vocab:
        raise CorpusError(f"{path}:{lineno}: no \\data\\ section with "
                          f"unigram probabilities")
    return NGramModel(order, vocab, tokens, keys, lp, bow, padded=END in vocab)
