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

import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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
    return m + math.log(sum(math.exp(v - m) for v in vals))


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
        acc = 0.0
        while True:
            row = self.logprob.get(ctx)
            if row is not None:
                lp = row.get(token)
                if lp is not None:
                    return acc + lp
            if not ctx:
                # Token unseen at the unigram level: uniform base distribution.
                return acc + self.logbow.get((), 0.0) + self._log_uniform
            acc += self.logbow.get(ctx, 0.0)
            ctx = ctx[1:]

    def backoff_mass(self, context: Sequence[str]) -> float:
        """Linear probability mass the context leaves to unseen continuations."""
        ctx = tuple(context)
        row = self.logprob.get(ctx)
        if row is None:
            return 1.0
        return max(0.0, 1.0 - sum(math.exp(v) for v in row.values()))

    def contexts(self) -> Iterator[tuple[str, ...]]:
        return iter(self.logprob)

    def sequence_log_prob(self, sequence: Sequence[str]) -> float:
        return sequence_log_prob(self, sequence)


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

    def base_log_prob(ctx: tuple[str, ...], w: str) -> float:
        # Backoff target for a length-j context: the already-estimated j-1
        # tables (contexts are processed shortest first).
        acc = 0.0
        while True:
            row = logprob.get(ctx)
            if row is not None and w in row:
                return acc + row[w]
            if not ctx:
                return acc + logbow.get((), 0.0) + log_uniform
            acc += logbow.get(ctx, 0.0)
            ctx = ctx[1:]

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
            base = {w: base_log_prob(ctx[1:], w) if ctx else log_uniform
                    for w in unseen}
            z = sum(math.exp(v) for v in base.values())
            logbow[ctx] = math.log(reserved) - math.log(z)
            logprob[ctx] = row
        else:
            # Every vocabulary token seen after this context; fold the
            # reserved mass back by interpolation so the row still sums to 1.
            row = {}
            for w, cnt in c.items():
                b = base_log_prob(ctx[1:], w) if ctx else log_uniform
                row[w] = math.log(cnt / denom + reserved * math.exp(b))
            logprob[ctx] = row

    return NGramModel(order, frozenset(vocab), logprob, logbow, padded=pad)


# ---------------------------------------------------------------------------
# Scoring and perplexity (works for NGramModel and InterpolatedModel alike)
# ---------------------------------------------------------------------------

def sequence_log_prob(model, sequence: Sequence[str]) -> float:
    """Natural-log probability of a sequence under the model's padding rules."""
    k = model.order
    seq = list(sequence)
    toks = ([START] * (k - 1) + seq + [END]) if model.padded else seq
    first = k - 1 if model.padded else 0
    total = 0.0
    for p in range(first, len(toks)):
        total += model.cond_log_prob(tuple(toks[max(0, p - k + 1):p]), toks[p])
    return total


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

    def sequence_log_prob(self, sequence: Sequence[str]) -> float:
        return sequence_log_prob(self, sequence)


def interpolate(first, second, weight: float) -> InterpolatedModel:
    return InterpolatedModel(first, second, weight)


def _per_event_log_probs(model, sequence: Sequence[str]) -> list[float]:
    k = model.order
    seq = list(sequence)
    toks = ([START] * (k - 1) + seq + [END]) if model.padded else seq
    first = k - 1 if model.padded else 0
    return [model.cond_log_prob(tuple(toks[max(0, p - k + 1):p]), toks[p])
            for p in range(first, len(toks))]


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
    """Read an ARPA-format model written by :func:`write_arpa` (or elsewhere)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines) and lines[i].strip() != "\\data\\":
        i += 1
    if i == len(lines):
        raise ValueError(f"{path}: no \\data\\ section")
    i += 1
    declared: dict[int, int] = {}
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("ngram "):
            n_s, count_s = line[len("ngram "):].split("=")
            declared[int(n_s)] = int(count_s)
            i += 1
            continue
        break
    if not declared:
        raise ValueError(f"{path}: no ngram counts declared")
    order = max(declared)

    logprob: dict[tuple[str, ...], dict[str, float]] = {}
    logbow: dict[tuple[str, ...], float] = {}
    found: dict[int, int] = {n: 0 for n in declared}
    current_n: int | None = None
    for lineno in range(i, len(lines)):
        line = lines[lineno].strip()
        if not line or line.startswith("#"):
            continue
        if line == "\\end\\":
            current_n = None
            continue
        if line.startswith("\\") and line.endswith("-grams:"):
            current_n = int(line[1:-len("-grams:")])
            if current_n not in declared:
                raise ValueError(f"{path}:{lineno + 1}: undeclared section {line}")
            continue
        if current_n is None:
            raise ValueError(f"{path}:{lineno + 1}: entry outside any section")
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise ValueError(f"{path}:{lineno + 1}: bad n-gram line")
        gram = tuple(fields[1].split(" "))
        if len(gram) != current_n:
            raise ValueError(f"{path}:{lineno + 1}: {len(gram)}-gram in "
                             f"{current_n}-gram section")
        lp10 = float(fields[0])
        found[current_n] += 1
        if lp10 > _LOG10_NONE + 1.0:
            logprob.setdefault(gram[:-1], {})[gram[-1]] = lp10 * _LN10
        if len(fields) == 3:
            logbow[gram] = float(fields[2]) * _LN10

    for n, cnt in declared.items():
        if found.get(n, 0) != cnt:
            raise ValueError(f"{path}: \\{n}-grams: section has {found.get(n, 0)} "
                             f"entries, header declared {cnt}")

    vocab = frozenset(logprob.get((), {}).keys())
    if not vocab:
        raise ValueError(f"{path}: no unigram probabilities")
    return NGramModel(order, vocab, logprob, logbow, padded=END in vocab)

