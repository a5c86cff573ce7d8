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

All internal arithmetic is in natural logs; the ARPA-style file format
uses log10, as usual.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import CorpusError, content_lines, located

START = "<start>"
END = "<end>"
UNK = "<unk>"

# ARPA convention: entries at or below this log10 value carry no probability
# (context-only lines, e.g. <start>).
_LOG10_NONE = -99.0
_LN10 = math.log(10.0)


def _log_add(x: float, y: float) -> float:
    """log(e^x + e^y) without leaving log space."""
    if x == -math.inf:
        return y
    if y == -math.inf:
        return x
    if x < y:
        x, y = y, x
    return x + math.log1p(math.exp(y - x))


def log_sum(values: Iterable[float]) -> float:
    """Stable log of a sum of exponentials over an iterable of logs."""
    vals = [v for v in values]
    if not vals:
        return -math.inf
    m = max(vals)
    if m == -math.inf:
        return -math.inf
    return m + math.log(left_sum(math.exp(v - m) for v in vals))


def left_sum(values: Iterable[float]) -> float:
    """Sum added left to right.  From Python 3.12 the builtin sum()
    compensates float rounding, so its result would depend on the Python
    version; CompiledModelSet adds events left to right as well."""
    total = 0.0
    for v in values:
        total += v
    return total


class NGramModel:
    """A trained (or file-loaded) backoff model.

    ``logprob`` maps a context tuple (length 0..order-1) to a dict of
    continuation log probabilities; ``logbow`` holds per-context log backoff
    weights.  A context absent from ``logbow`` has backoff weight 1.
    """

    def __init__(self, order: int, vocab: frozenset[str],
                 logprob: dict[tuple[str, ...], dict[str, float]],
                 logbow: dict[tuple[str, ...], float],
                 padded: bool = True) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not vocab:
            raise ValueError("empty vocabulary")
        self.order = order
        self.vocab = vocab
        self.logprob = logprob
        self.logbow = logbow
        self.padded = padded
        self._log_uniform = -math.log(len(vocab))

    def cond_log_prob(self, context: Sequence[str], token: str) -> float:
        """Natural-log P(token | context), backing off along context suffixes."""
        if token not in self.vocab:
            if UNK in self.vocab:
                token = UNK
            else:
                raise ValueError(f"token {token!r} not in closed vocabulary")
        ctx = tuple(context)
        if len(ctx) > self.order - 1:
            ctx = ctx[len(ctx) - self.order + 1:]
        return _backoff(self.logprob, self.logbow, self._log_uniform, ctx,
                        token)

    def backoff_mass(self, context: Sequence[str]) -> float:
        """Linear probability mass the context leaves to unseen continuations."""
        ctx = tuple(context)
        row = self.logprob.get(ctx)
        if row is None:
            return 1.0
        return max(0.0, 1.0 - left_sum(map(math.exp, row.values())))

    def contexts(self) -> Iterator[tuple[str, ...]]:
        return iter(self.logprob)


def _backoff(logprob: dict[tuple[str, ...], dict[str, float]],
             logbow: dict[tuple[str, ...], float], log_uniform: float,
             ctx: tuple[str, ...], token: str) -> float:
    """Natural-log P(token | ctx), backing off along context suffixes.

    A context absent from ``logbow`` has backoff weight 1; a token unseen
    at the unigram level takes the uniform base distribution.
    """
    acc = 0.0
    while True:
        row = logprob.get(ctx)
        if row is not None:
            lp = row.get(token)
            if lp is not None:
                return acc + lp
        if not ctx:
            return acc + logbow.get((), 0.0) + log_uniform
        acc += logbow.get(ctx, 0.0)
        ctx = ctx[1:]


def train_ngram(sequences: Sequence[Sequence[str]], order: int,
                vocabulary: Iterable[str] | None = None,
                pad: bool = True) -> NGramModel:
    """Estimate a Witten-Bell backoff model of the given order.

    ``vocabulary`` closes the token set; training tokens outside it are an
    error.  With the default ``pad=True`` the predictable vocabulary also
    contains ``<end>`` and ``<unk>`` and every sequence is padded with
    order-1 ``<start>`` tokens plus one ``<end>``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    seqs = [list(s) for s in sequences]
    if not seqs:
        raise ValueError("no training sequences")
    seen_tokens = {t for s in seqs for t in s}
    if vocabulary is None:
        vocab = set(seen_tokens)
    else:
        vocab = set(vocabulary)
        extra = seen_tokens - vocab
        if extra:
            raise ValueError(f"training tokens outside vocabulary: {sorted(extra)[:5]}")
    if pad:
        vocab |= {END, UNK}
        vocab.discard(START)
    if not vocab:
        raise ValueError("empty vocabulary")

    counts: dict[tuple[str, ...], Counter] = {}
    for seq in seqs:
        toks = ([START] * (order - 1) + seq + [END]) if pad else seq
        first = order - 1 if pad else 0
        for p in range(first, len(toks)):
            w = toks[p]
            lo = max(0, p - order + 1)
            for j in range(lo, p + 1):
                ctx = tuple(toks[j:p])
                counts.setdefault(ctx, Counter())[w] += 1
    if not counts:
        raise ValueError("no training events (all sequences empty and pad=False)")

    logprob: dict[tuple[str, ...], dict[str, float]] = {}
    logbow: dict[tuple[str, ...], float] = {}
    log_uniform = -math.log(len(vocab))

    # A length-j context backs off to the already-estimated tables of
    # shorter contexts: contexts are processed shortest first.
    for ctx in sorted(counts, key=lambda c: (len(c), c)):
        c = counts[ctx]
        n = sum(c.values())
        t = len(c)
        denom = n + t
        reserved = t / denom
        # sorted: summation order must not depend on set iteration order,
        # or reruns would differ in the last float ulp
        unseen = sorted(vocab - c.keys())
        if unseen:
            row = {w: math.log(cnt / denom) for w, cnt in c.items()}
            base = {w: _backoff(logprob, logbow, log_uniform, ctx[1:], w)
                    if ctx else log_uniform for w in unseen}
            z = left_sum(map(math.exp, base.values()))
            logbow[ctx] = math.log(reserved) - math.log(z)
            logprob[ctx] = row
        else:
            # Every vocabulary token seen after this context; fold the
            # reserved mass back by interpolation so the row still sums to 1.
            row = {}
            for w, cnt in c.items():
                b = (_backoff(logprob, logbow, log_uniform, ctx[1:], w)
                     if ctx else log_uniform)
                row[w] = math.log(cnt / denom + reserved * math.exp(b))
            logprob[ctx] = row

    return NGramModel(order, frozenset(vocab), logprob, logbow, padded=pad)


# ---------------------------------------------------------------------------
# Scoring and perplexity (works for NGramModel and InterpolatedModel alike)
# ---------------------------------------------------------------------------

def sequence_log_prob(model, sequence: Sequence[str]) -> float:
    """Natural-log probability of a sequence under the model's padding rules."""
    return left_sum(_per_event_log_probs(model, sequence))


def _per_event_log_probs(model, sequence: Sequence[str]) -> list[float]:
    k = model.order
    seq = list(sequence)
    toks = ([START] * (k - 1) + seq + [END]) if model.padded else seq
    first = k - 1 if model.padded else 0
    return [model.cond_log_prob(tuple(toks[max(0, p - k + 1):p]), toks[p])
            for p in range(first, len(toks))]


def perplexity(model, sequences: Sequence[Sequence[str]]) -> float:
    """exp of the per-token negative mean log probability.

    The token count includes the ``<end>`` event of each sequence for padded
    models.
    """
    total = 0.0
    count = 0
    for seq in sequences:
        total += sequence_log_prob(model, seq)
        count += len(seq) + (1 if model.padded else 0)
    if count == 0:
        raise ValueError("no tokens to evaluate")
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
        self.first = first
        self.second = second
        self.weight = weight
        self.order = max(first.order, second.order)
        self.vocab = frozenset(first.vocab)
        self.padded = first.padded
        # a zero weight silences its component exactly through _log_add
        self._log_w = math.log(weight) if weight > 0.0 else -math.inf
        self._log_rest = math.log(1.0 - weight) if weight < 1.0 else -math.inf

    def cond_log_prob(self, context: Sequence[str], token: str) -> float:
        return _log_add(self._log_w + self.first.cond_log_prob(context, token),
                        self._log_rest + self.second.cond_log_prob(context, token))


def interpolate(first, second, weight: float) -> InterpolatedModel:
    return InterpolatedModel(first, second, weight)


def fit_interp_weight(first, second, heldout: Sequence[Sequence[str]],
                      tol: float = 1e-4, max_iter: int = 100) -> float:
    """EM for the single interpolation weight, started at 0.5.

    Maximizes held-out log likelihood of the two-component mixture; stops
    when the weight moves less than ``tol``.
    """
    if first.padded != second.padded:
        raise ValueError("models must share padding")
    pairs: list[tuple[float, float]] = []
    for seq in heldout:
        pairs.extend(zip(_per_event_log_probs(first, seq),
                         _per_event_log_probs(second, seq)))
    if not pairs:
        raise ValueError("no held-out events")
    w = 0.5
    for _ in range(max_iter):
        total = 0.0
        for la, lb in pairs:
            # responsibility of the first component, computed stably
            if la >= lb:
                total += w / (w + (1.0 - w) * math.exp(lb - la))
            else:
                ra = w * math.exp(la - lb)
                total += ra / (ra + (1.0 - w))
        new = total / len(pairs)
        moved = abs(new - w)
        w = new
        if moved < tol:
            break
    return w


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
    files each declare their own.  The distinct NGramModels behind them
    are compiled once into integer-id tables: one token id map (with
    ``<start>``; the last id stands for every token no model knows), a
    dense (model, token) unigram level, and per higher order n sorted int64
    keys ``parent * B + token``, where ``parent`` is the row of the
    n-gram's (n-1)-token prefix one level down, with parallel log-prob and
    backoff-weight arrays.  A key thus packs (model, ctx..., w) and stays
    within int64 at any order.

    :meth:`score` runs the backoff walk of each distinct event window
    under every model with ``np.searchsorted``.  Backoff weights
    accumulate in the order :meth:`NGramModel.cond_log_prob` adds them and
    events add up left to right, so a model's column equals
    :func:`sequence_log_prob` bit for bit.  An interpolation's event is
    ``np.logaddexp(log w + first, log(1 - w) + second)``, computed once
    per component event.
    """

    def __init__(self, scorers: Sequence) -> None:
        bases: dict[int, NGramModel] = {}
        mixes: dict[int, InterpolatedModel] = {}
        for scorer in scorers:
            parts = [scorer]
            if isinstance(scorer, InterpolatedModel):
                mixes[id(scorer)] = scorer
                parts = [scorer.first, scorer.second]
            for part in parts:
                if not isinstance(part, NGramModel):
                    raise TypeError(f"cannot compile a {type(part).__name__}"
                                    f" (only NGramModels and interpolations"
                                    f" of two NGramModels)")
                bases[id(part)] = part
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
        self._compile(list(bases.values()))

    def _compile(self, models: list[NGramModel]) -> None:
        tokens = {START}
        for m in models:
            tokens |= m.vocab
            for ctx, row in m.logprob.items():
                tokens.update(ctx)
                tokens.update(row)
            for ctx in m.logbow:
                tokens.update(ctx)
        self._ids = ids = {t: i for i, t in enumerate(sorted(tokens))}
        self._base = base = len(ids) + 1
        none = base - 1
        n_models = len(models)
        self._padded = models[0].padded
        self._order = np.array([m.order for m in models])
        self._in_vocab = np.zeros((n_models, base), dtype=bool)
        self._closed = np.array([UNK not in m.vocab for m in models])
        self._unk = ids.get(UNK, none)
        self._log_uniform = np.array([m._log_uniform for m in models])
        bow0 = np.zeros(n_models)
        lp1 = np.full(n_models * base, np.nan)
        bow1 = np.zeros(n_models * base)
        upper: dict[int, dict[tuple[int, ...], list[float]]] = {}

        def put(m: int, gram: tuple[str, ...], slot: int, value: float) -> None:
            gid = tuple(ids[t] for t in gram)
            if len(gid) == 1:
                (lp1, bow1)[slot][m * base + gid[0]] = value
            else:
                upper.setdefault(len(gid), {}).setdefault(
                    (m, *gid), [math.nan, 0.0])[slot] = value

        for m, model in enumerate(models):
            self._in_vocab[m, [ids[t] for t in model.vocab]] = True
            for ctx, row in model.logprob.items():
                for w, lp in row.items():
                    put(m, ctx + (w,), 0, lp)
            for ctx, bow in model.logbow.items():
                if ctx:
                    put(m, ctx, 1, bow)
                else:
                    bow0[m] = bow
        top = max([int(self._order.max()), *upper])
        for n in range(top, 2, -1):     # every prefix of an n-gram is a row
            for gram in upper.get(n, {}):
                upper.setdefault(n - 1, {}).setdefault(gram[:-1],
                                                       [math.nan, 0.0])
        # per level: sorted keys, then log probs and backoff weights, each
        # ending in a sentinel row (key beyond any query, NaN, 0.0) that
        # stands for "no such n-gram"
        self._keys: list = [None, None]
        self._lp: list = [None, lp1]
        self._bow: list = [bow0, bow1]
        # per level: which rows are the prefix of some row one level up
        self._has_children: list = [None,
                                    np.zeros(n_models * base, dtype=bool)]
        rows: dict[tuple[int, ...], int] = {}
        for n in range(2, top + 1):
            entries = upper.get(n, {})
            grams = list(entries)
            parents = [g[0] * base + g[1] if n == 2 else rows[g[:-1]]
                       for g in grams]
            keys = (np.array(parents, dtype=np.int64) * base
                    + np.array([g[-1] for g in grams], dtype=np.int64))
            order = np.argsort(keys)
            vals = np.array([entries[g] for g in grams]).reshape(-1, 2)[order]
            rows = {grams[i]: r for r, i in enumerate(order.tolist())}
            self._has_children[-1][keys // base] = True
            self._has_children.append(np.zeros(len(keys) + 1, dtype=bool))
            self._keys.append(np.append(keys[order], np.iinfo(np.int64).max))
            self._lp.append(np.append(vals[:, 0], math.nan))
            self._bow.append(np.append(vals[:, 1], 0.0))

    def score(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """Natural-log probability of every sequence (rows) under every
        scorer (columns, in the order given).

        An event's window is its token's id and the k-1 ids before it, k
        the largest order.  Each distinct window is scored once, by
        :meth:`_event_log_probs`, and each sequence adds up its events'
        scores left to right.
        """
        ids, base = self._ids, self._base
        none = base - 1
        k1 = int(self._order.max()) - 1
        seqs = [tuple(s) for s in sequences]
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
                         ids[START] if self._padded else none, dtype=np.int64)
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

    def _event_log_probs(self, windows: np.ndarray) -> np.ndarray:
        """Log probability of each window's last id after the ids before it
        (rows) under every scorer (columns), in blocks of windows."""
        table = np.empty((len(windows), self.n_scorers))
        step = max(1, _BLOCK_CELLS // self._n_rows)
        for lo in range(0, len(windows), step):
            table[lo:lo + step] = self._walk(windows[lo:lo + step]
                                             )[self._columns].T
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
        word = np.where(self._in_vocab[:, tok[:, k1]], tok[:, k1], self._unk)
        depth = self._order[:, None] - 1        # context length walked
        offset = np.arange(len(self._order))[:, None] * self._base
        acc = np.zeros(word.shape)
        events = np.zeros(word.shape)
        todo = np.ones(word.shape, dtype=bool)
        for n in range(k1, -1, -1):
            here = todo & (depth >= n)
            if not here.any():
                continue
            if n == 0:
                lp = self._lp[1][offset + word]
                bow = self._bow[0][:, None]
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
                                  + self._log_uniform[:, None], events)
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
    order = model.order

    # gram -> [log prob or None, log bow or None]
    sections: dict[int, dict[tuple[str, ...], list[float | None]]] = {
        n: {} for n in range(1, order + 1)}
    # Unigram section is dense over the vocabulary, so the uniform backoff
    # base never needs encoding.
    for w in sorted(model.vocab):
        sections[1][(w,)] = [model.cond_log_prob((), w), None]
    for ctx, row in model.logprob.items():
        if not ctx:
            continue
        n = len(ctx) + 1
        if n <= order:
            for w, lp in row.items():
                sections[n].setdefault(ctx + (w,), [None, None])[0] = lp
    # A context's backoff weight rides on the line of the context itself;
    # create a probability-less (-99) line when the context is not an event.
    for ctx in model.logprob:
        n = len(ctx)
        if n == 0 or n > order:
            continue
        bow = model.logbow.get(ctx)
        if bow is None or bow == 0.0:
            continue
        sections[n].setdefault(ctx, [None, None])[1] = bow

    def fmt(val: float) -> str:
        return f"{val / _LN10:.12g}"

    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write("\n\\data\\\n")
        for n in range(1, order + 1):
            fh.write(f"ngram {n}={len(sections[n])}\n")
        for n in range(1, order + 1):
            fh.write(f"\n\\{n}-grams:\n")
            for gram in sorted(sections[n]):
                lp, bow = sections[n][gram]
                line = (f"{_LOG10_NONE:g}" if lp is None else fmt(lp))
                line += f"\t{' '.join(gram)}"
                if bow is not None:
                    line += f"\t{fmt(bow)}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def read_arpa(path: str | Path) -> NGramModel:
    """Read an ARPA-format model written by :func:`write_arpa` (or elsewhere).

    Lines before ``\\data\\`` are ignored.  An n-gram line is
    ``log10 prob <TAB> space-separated gram [<TAB> log10 backoff]``.
    """
    declared: dict[int, tuple[int, int]] = {}   # order -> (count, line)
    found: dict[int, int] = {}
    logprob: dict[tuple[str, ...], dict[str, float]] = {}
    logbow: dict[tuple[str, ...], float] = {}
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
                found.setdefault(n, 0)
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
                gram = tuple(fields[1].split())
                if len(gram) != n:
                    raise ValueError(f"{len(gram)}-gram in {n}-gram section")
                lp10 = float(fields[0])
                found[n] += 1
                if lp10 > _LOG10_NONE + 1.0:
                    logprob.setdefault(gram[:-1], {})[gram[-1]] = lp10 * _LN10
                if len(fields) == 3:
                    logbow[gram] = float(fields[2]) * _LN10
    for k, (count, line) in declared.items():
        if found.get(k, 0) != count:
            raise CorpusError(f"{path}:{line}: \\{k}-grams: section has "
                              f"{found.get(k, 0)} entries, header declared "
                              f"{count}")
    vocab = frozenset(logprob.get((), {}).keys())
    if not vocab:
        raise CorpusError(f"{path}:{lineno}: no \\data\\ section with "
                          f"unigram probabilities")
    return NGramModel(max(declared), vocab, logprob, logbow,
                      padded=END in vocab)
