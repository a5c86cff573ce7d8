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

Models are held in stores of sorted arrays, one per estimate, ARPA file
or model directory (Heafield 2011, "KenLM: faster and smaller language
model queries"), and an :class:`NGramModel` is a handle on one model's
rows.  Estimation fills a store for a whole set of models.  The store of
an ARPA file, of a model directory (every file in one build) or of a
merge is laid out by :func:`_build`, the one encoder of n-gram keys;
:meth:`NGramModel.level` is the one decoder.  :class:`CompiledModelSet`
scores from a store in place: only a merge copies arrays.

All internal arithmetic is in natural logs; the ARPA-style file format
uses log10, as usual.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import END, START, CorpusError, content_lines, located

UNK = "<unk>"

# ARPA convention: entries at or below this log10 value carry no probability
# (context-only lines, e.g. <start>).
_LOG10_NONE = -99.0
_NO_KEY = np.iinfo(np.int64).max       # the key of a level's sentinel row
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


class _Store:
    """Backoff models over one token list, each a group of rows of one set
    of arrays.

    Token ids follow the sorted ``tokens``; id B - 1 = ``len(tokens)``
    stands for any other.  Per level n, ``lp`` and ``bow`` hold log probs
    (NaN: a row held only as a context) and backoff weights (0.0: none).
    Level 0 holds each group's empty context, and level 1 is dense over
    ids, row group * B + id.  A higher level's rows are its sorted int64
    ``keys``, parent * B + id (``parent`` the row of the n-gram's prefix
    one level down), so every level holds the groups' rows in turn, each
    group's from its row of ``first``; every prefix of a stored n-gram is
    stored.  Those levels end in a sentinel row (a key beyond any query,
    NaN, 0.0) that stands for "no such n-gram", and ``has_children`` marks
    the rows that are the prefix of some row one level up.  ``groups``
    holds each group's order, vocabulary and padding.
    """

    def __init__(self, tokens: tuple[str, ...],
                 groups: Sequence[tuple[int, frozenset[str], bool]],
                 keys: list, lp: list, bow: list) -> None:
        n_groups = len(groups)
        self.tokens, self.base = tokens, len(tokens) + 1
        self.unk = tokens.index(UNK) if UNK in tokens else len(tokens)
        self.keys, self.bow = keys, bow
        self.lp = [np.full(n_groups, math.nan), *lp[1:]]
        self.groups = list(groups)
        masks = {v: [t in v for t in tokens] + [False]   # each vocabulary once
                 for v in {vocab for _, vocab, _ in groups}}
        self.in_vocab = np.array([masks[vocab] for _, vocab, _ in groups])
        self.orders = np.array([order for order, _, _ in groups])
        self.log_uniform = np.array([-math.log(len(v)) for _, v, _ in groups])
        self.first = [np.arange(n_groups + 1), np.arange(n_groups + 1)
                      * self.base]
        self.has_children = [None, np.zeros(n_groups * self.base, dtype=bool)]
        for n in range(2, len(keys)):
            self.first.append(keys[n].searchsorted(self.first[-1] * self.base))
            self.has_children[-1][keys[n][:-1] // self.base] = True
            self.has_children.append(np.zeros(len(keys[n]), dtype=bool))

    @functools.cached_property
    def ids(self) -> dict[str, int]:    # built on first query, not to merge
        return {t: i for i, t in enumerate(self.tokens)}


class NGramModel:
    """A trained (or file-loaded) backoff model: group ``group`` of a
    store, whose arrays it reads in place.  Its ids follow the store's
    ``tokens``."""

    __slots__ = ("_store", "_group", "order", "vocab", "tokens", "padded")

    def __init__(self, store: _Store, group: int) -> None:
        self._store, self._group, self.tokens = store, group, store.tokens
        self.order, self.vocab, self.padded = store.groups[group]

    def level(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(grams, lp, bow)`` of the model's level-n rows: their token
        ids (one row each; level 0 is the empty context), and views of
        their log probs and backoff weights."""
        s = self._store
        lo, hi = s.first[n][self._group:self._group + 2]
        rows, cols = np.arange(lo, hi), []
        for level in range(n, 1, -1):
            rows, token = np.divmod(s.keys[level][rows], s.base)
            cols.append(token)
        # level 0, the empty context, has no tokens
        return (np.column_stack([rows % s.base, *cols[::-1]])[:, :n],
                s.lp[n][lo:hi], s.bow[n][lo:hi])

    def log_probs(self, contexts: Sequence[Sequence[str]],
                  tokens: Sequence[str]) -> np.ndarray:
        """Natural-log P(token | context) of each of ``tokens`` (columns)
        after each of ``contexts`` (rows), backing off along context
        suffixes, in one engine call."""
        for token in tokens:
            if token not in self.vocab and UNK not in self.vocab:
                raise ValueError(f"token {token!r} not in closed vocabulary")
        ids, none, k1 = self._store.ids, len(self.tokens), self.order - 1
        ctx = np.array([[ids.get(t, none) for t in ([None] * k1 + list(
            context))[len(context):]] for context in contexts],
            dtype=np.int64).reshape(len(contexts), k1)
        tok = np.array([ids.get(t, none) for t in tokens], dtype=np.int64)
        return CompiledModelSet([self])._event_log_probs(np.column_stack([
            np.repeat(ctx, len(tok), axis=0), np.tile(tok, len(ctx))]))[
            :, 0].reshape(len(ctx), len(tok))

    def cond_log_prob(self, context: Sequence[str], token: str) -> float:
        """Natural-log P(token | context), backing off along context suffixes."""
        return float(self.log_probs([context], [token])[0, 0])

    @property
    def logprob(self) -> tuple[tuple[str, ...], ...]:
        """The contexts with at least one continuation probability, shortest
        first and in sorted order (read-only)."""
        found = []
        for n in range(1, self.order + 1):
            grams, lp, _ = self.level(n)
            found += sorted({tuple(map(self.tokens.__getitem__, gram[:-1]))
                             for gram in grams[~np.isnan(lp)].tolist()})
        return tuple(found)


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
    # + token, so each level's rows are those of the groups in turn, and
    # each level above 1 ends in the store's sentinel row.
    keys, lp = [None, None], [None]
    bow, row = [np.zeros(len(groups))], owner * base + stream
    for n in range(1, order + 1):
        if n > 1:
            at = np.flatnonzero(index >= n - 1)
            level, inverse = np.unique(row[at - 1] * base + stream[at],
                                       return_inverse=True)
            keys.append(np.append(level, _NO_KEY))
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
                lower_orders = _Store(tokens, [(n - 1, vocab, pad)]
                                      * len(groups), keys[:n], lp, bow)
            for c in floored:
                # the sorted explicit sum over the unseen words, each walked
                # under the context's group's orders 1..n-1
                end = at_row[seen[starts[c]]]
                probe = np.tile(stream[end - n + 2:end + 1], (unseen[c], 1))
                probe[:, -1] = np.setdiff1d([ids[t] for t in vocab],
                                            keys[n][seen[of == c]] % base)
                z[c] = left_sum(map(math.exp, CompiledModelSet([NGramModel(
                    lower_orders, owner[end])])._event_log_probs(probe)[
                    :, 0].tolist()))
        c = counts[seen] / denom[of]
        lp.append(np.full(size, math.nan))
        # a context that saw every vocabulary token folds its reserved mass
        # back by interpolation, so its row still sums to 1
        lp[n][seen] = np.log(np.where(unseen[of] == 0, c + reserved[of]
                                      * np.exp(lower), c))
        bow.append(np.zeros(size))
        bow[n - 1][context] = np.where(unseen > 0,
                                       np.log(reserved) - np.log(z), 0.0)
    store = _Store(tokens, [(order, vocab, pad)] * len(groups), keys, lp, bow)
    return [NGramModel(store, g) for g in range(len(groups))]


# ---------------------------------------------------------------------------
# Scoring and perplexity (works for NGramModel and InterpolatedModel alike)
# ---------------------------------------------------------------------------

def perplexity(model, sequences: Sequence[Sequence[str]]) -> float:
    """exp of the per-token negative mean log probability; the token count
    includes the ``<end>`` event of each sequence for padded models."""
    seqs = [tuple(s) for s in sequences]
    count = sum(len(s) + (1 if model.padded else 0) for s in seqs)
    if count == 0:
        raise ValueError("no tokens to evaluate")
    total = left_sum(CompiledModelSet([model]).score(seqs)[:, 0])
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
    files each declare their own.  The set reads the store of the distinct
    NGramModels behind them in place and walks only their groups; models
    of several stores are first merged into one by :func:`_merge`.

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
        models = _merge(list(bases.values()))
        self._store = models[0]._store
        self._groups = np.array([m._group for m in models])
        self._padded = models[0].padded

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
        store = self._store
        ids, base, none = store.ids, store.base, len(store.tokens)
        k1 = int(store.orders[self._groups].max()) - 1
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
        closed = self._groups[~store.in_vocab[self._groups, store.unk]]
        if len(closed):
            unknown = ~store.in_vocab[closed].all(axis=0)[stream[pos]]
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
        keys = self._store.keys[n]
        rows = np.full(parent.shape, len(keys) - 1)
        where = where & self._store.has_children[n - 1][parent]
        query = parent[where] * self._store.base + np.broadcast_to(
            token, parent.shape)[where]
        found = keys.searchsorted(query)
        rows[where] = np.where(keys[found] == query, found, len(keys) - 1)
        return rows

    def _walk(self, tok: np.ndarray) -> np.ndarray:
        """(rows, windows) log probabilities of a block of id windows."""
        s = self._store
        k1 = tok.shape[1] - 1
        m = self._groups[:, None]
        word = np.where(s.in_vocab[m, tok[:, k1]], tok[:, k1], s.unk)
        depth = s.orders[m] - 1                 # context length walked
        offset = m * s.base
        acc = np.zeros(word.shape)
        events = np.zeros(word.shape)
        todo = np.ones(word.shape, dtype=bool)
        for n in range(k1, -1, -1):
            here = todo & (depth >= n)
            if not here.any():
                continue
            if n == 0:
                lp = s.lp[1][offset + word]
                bow = s.bow[0][m]
            else:
                node = offset + tok[:, k1 - n]
                for i in range(2, n + 1):
                    node = self._find(i, node, tok[:, k1 - n + i - 1], here)
                lp = s.lp[n + 1][self._find(n + 1, node, word, here)]
                bow = s.bow[n][node]
            hit = here & ~np.isnan(lp)
            events = np.where(hit, acc + lp, events)
            if n == 0:
                # unseen at the unigram level: uniform base distribution
                events = np.where(here & ~hit, acc + bow
                                  + s.log_uniform[m], events)
            else:
                acc = np.where(here & ~hit, acc + bow, acc)
            todo = todo & ~hit

        rows_a, rows_b, log_w, log_rest = self._mix
        if len(rows_a):
            events = np.concatenate([events, np.logaddexp(
                log_w + events[rows_a], log_rest + events[rows_b])])
        return events


def _merge(models: Sequence[NGramModel]) -> list[NGramModel]:
    """The models as handles on one store: themselves if they share one,
    else handles on a store that :func:`_build` lays out from their
    levels."""
    if len({id(m._store) for m in models}) == 1:
        return list(models)
    return _build([(m.tokens, m.order, m.vocab, m.padded,
                    list(map(m.level, range(m.order + 1)))) for m in models])


def _build(models: Sequence[tuple]) -> list[NGramModel]:
    """Handles on a new store over the union of the models' tokens holding
    ``models`` in turn: the one encoder of n-gram keys (``level`` decodes).
    A model is ``(tokens, order, vocab, padded, levels)``, ``levels[n]``
    its rows ``(grams, lp, bow)`` of level n = 0..order as ``level`` gives
    them, with ids into its own ``tokens`` (of level 0 only ``bow`` is
    read).  A missing prefix of a gram becomes a row with no probability
    or backoff weight, and of the rows of one gram the first is kept."""
    tokens = tuple(sorted(set().union(*(model[0] for model in models))))
    ids = {t: i for i, t in enumerate(tokens)}
    # each model's ids mapped into the union's, and each string and each
    # distinct vocabulary held once
    maps = [np.array([ids[t] for t in model[0]] + [len(tokens)])
            for model in models]
    vocabs = {v: frozenset(tokens[ids[t]] for t in v)
              for v in {vocab for _, _, vocab, *_ in models}}
    base, top = len(tokens) + 1, max(order for _, order, *_ in models)
    # per level, top down: each model's rows, led by their level-1 row
    # (the model's index * base + id), then every prefix of a row one
    # level up (level 1 is dense, so it holds every prefix already)
    rows = {top + 1: [np.zeros((0, top + 1), dtype=np.int64)]}
    for n in range(top, 0, -1):
        parts = [(maps[j][grams] + np.eye(1, n, dtype=np.int64) * j * base,
                  lp, bow) for j, (_, order, *_, levels) in enumerate(models)
                 if n <= order for grams, lp, bow in [levels[n]]]
        if n > 1:
            up = rows[n + 1][0][:, :-1]
            parts.append((up, np.full(len(up), math.nan), np.zeros(len(up))))
        rows[n] = [np.concatenate(column) for column in zip(*parts)]
    keys, lp = [None, None], [None, np.full(len(models) * base, math.nan)]
    bow = [np.array([levels[0][2][0] for *_, levels in models]),
           np.zeros(len(lp[1]))]
    for n in range(1, top + 1):
        grams, lps, bows = rows.pop(n)
        row = grams[:, 0]
        for i in range(1, n - 1):
            row = keys[i + 1].searchsorted(row * base + grams[:, i])
        # the first of a key's rows: the one given, if any
        level, pick = np.unique(row * base + grams[:, -1] if n > 1 else row,
                                return_index=True)
        if n == 1:
            lp[1][level], bow[1][level] = lps[pick], bows[pick]
        else:
            keys.append(np.append(level, _NO_KEY))
            lp.append(np.append(lps[pick], math.nan))
            bow.append(np.append(bows[pick], 0.0))
    store = _Store(tokens, [(order, vocabs[vocab], padded) for _, order,
                            vocab, padded, _ in models], keys, lp, bow)
    return [NGramModel(store, j) for j in range(len(models))]


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
    s, g = model._store, model._group
    sections = []
    for n in range(1, model.order + 1):
        grams, lp, bow = model.level(n)
        if n == 1:
            lp = np.where(s.in_vocab[g], np.where(
                np.isnan(lp), s.bow[0][g] + s.log_uniform[g], lp), math.nan)
        # a context's backoff weight rides on the line of the context itself
        rows = np.flatnonzero(~np.isnan(lp) | (bow != 0.0))
        sections.append([
            (f"{_LOG10_NONE:g}" if math.isnan(lp10) else f"{lp10:.12g}")
            + "\t" + " ".join(s.tokens[i] for i in gram)
            + (f"\t{bow10:.12g}\n" if bow10 else "\n")
            for gram, lp10, bow10 in zip(grams[rows].tolist(),
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

    Lines before ``\\data\\`` are ignored.  The header declares each
    order's count once, orders from 1 up, and each declared order has at
    most one section.  An n-gram line is ``log10 prob <TAB> space-separated
    gram [<TAB> log10 backoff]``, and an n-gram appears at most once per
    section.  A log10 probability is finite or ``-inf``, and at or below
    -99 means no probability; a backoff weight is finite.
    """
    return _build([_parse_arpa(path)])[0]


def _parse_arpa(path: str | Path) -> tuple:
    """The model of an ARPA file as :func:`_build` takes it, ``(tokens,
    order, vocab, padded, levels)``, with ids into the file's tokens."""
    declared: dict[int, tuple[int, int]] = {}   # order -> (count, line)
    # per section: each line's gram, keyed to its line, and its log10 prob
    # and log10 backoff weight in turn
    sections: dict[int, tuple[dict[tuple[str, ...], int], array]] = {}
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
                if n in sections:
                    raise ValueError(f"second {head} section")
                grams, values = sections[n] = {}, array("d")
            elif head == "\\end\\":
                n = 0
            elif n == 0 and head.startswith("ngram "):
                n_s, count_s = head[len("ngram "):].split("=")
                k, count = int(n_s), int(count_s)
                if k < 1:
                    raise ValueError(f"order {k} is below 1")
                if k in declared:
                    raise ValueError(f"second count for order {k} (the "
                                     f"first is on line {declared[k][1]})")
                declared[k] = (count, lineno)
            elif n == 0:
                raise ValueError("entry outside any section")
            elif len(fields) not in (2, 3):
                raise ValueError("bad n-gram line")
            else:
                gram = tuple(fields[1].split())
                if len(gram) != n:
                    raise ValueError(f"{len(gram)}-gram in {n}-gram section")
                first = grams.setdefault(gram, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate n-gram {' '.join(gram)!r} "
                                     f"(first at line {first})")
                lp10 = float(fields[0])
                bow10 = float(fields[2]) if len(fields) == 3 else 0.0
                if math.isnan(lp10) or lp10 == math.inf:
                    raise ValueError(f"log10 probability {fields[0]!r} must "
                                     f"be finite or -inf")
                if not math.isfinite(bow10):
                    raise ValueError(f"log10 backoff weight {fields[2]!r} "
                                     f"must be finite")
                values.extend((lp10, bow10))
    for k, (count, line) in declared.items():
        held = len(sections[k][0]) if k in sections else 0
        if held != count:
            raise CorpusError(f"{path}:{line}: \\{k}-grams: section has "
                              f"{held} entries, header declared {count}")
    tokens = tuple(sorted({t for grams, _ in sections.values()
                           for gram in grams for t in gram}))
    ids = {t: i for i, t in enumerate(tokens)}
    order = max([1, *declared])
    levels = [(None, None, [0.0])]
    for k in range(1, order + 1):
        grams, values = sections.pop(k, ({}, array("d")))
        lp10, bow10 = np.frombuffer(values).reshape(-1, 2).T
        levels.append((np.fromiter(
            map(ids.__getitem__, itertools.chain.from_iterable(grams)),
            dtype=np.int64, count=k * len(grams)).reshape(-1, k),
            np.where(lp10 > _LOG10_NONE, lp10 * _LN10, math.nan),
            bow10 * _LN10))
    grams, lp, _ = levels[1]
    vocab = frozenset(tokens[i] for i in grams[~np.isnan(lp), 0].tolist())
    if not vocab:
        raise CorpusError(f"{path}:{lineno}: no \\data\\ section with "
                          f"unigram probabilities")
    return tokens, order, vocab, END in vocab, levels
