"""Backoff n-gram estimation, scoring, interpolation, and ARPA files.

The array-backed models are checked against a reference kept here: the
dict-of-dicts Witten-Bell estimator and the scalar Katz backoff walk.  The
toolkit's one log-sum-exp is checked against a scalar one kept here too.
"""

import functools
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import ngram
from dialact.ngram import (_BLOCK_CELLS, END, START, UNK, CompiledModelSet,
                           InterpolatedModel, NGramModel, _fit_weights,
                           _logsumexp, interpolate, left_sum,
                           perplexity, read_arpa, train_ngram, write_arpa)


def p(model, ctx, tok):
    return math.exp(model.cond_log_prob(tuple(ctx), tok))


# ---------------------------------------------------------------------------
# The reference: dict-of-dicts models and the scalar backoff walk
# ---------------------------------------------------------------------------

def reference_backoff(logprob, logbow, log_uniform, ctx, token):
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


def reference_log_sum(values):
    """Stable log of a sum of exponentials over an iterable of logs, one
    Python float at a time."""
    vals = list(values)
    m = max(vals, default=-math.inf)
    if m == -math.inf:
        return m
    return m + math.log(left_sum(math.exp(v - m) for v in vals))


def reference_train(sequences, order, vocabulary=None, pad=True):
    """``(logprob, logbow)`` of the Witten-Bell model, one context at a
    time: ``logprob`` maps a context tuple to its continuations' log
    probabilities, ``logbow`` a context to its log backoff weight."""
    seqs = [list(s) for s in sequences]
    vocab = set(vocabulary) if vocabulary is not None else \
        {t for s in seqs for t in s}
    if pad:
        vocab = (vocab | {END, UNK}) - {START}
    counts = {}
    for seq in seqs:
        toks = ([START] * (order - 1) + seq + [END]) if pad else seq
        first = order - 1 if pad else 0
        for p in range(first, len(toks)):
            for j in range(max(0, p - order + 1), p + 1):
                counts.setdefault(tuple(toks[j:p]), Counter())[toks[p]] += 1
    logprob, logbow = {}, {}
    log_uniform = -math.log(len(vocab))
    for ctx in sorted(counts, key=lambda c: (len(c), c)):
        c = counts[ctx]
        denom = sum(c.values()) + len(c)
        reserved = len(c) / denom
        unseen = sorted(vocab - c.keys())
        lower = {w: reference_backoff(logprob, logbow, log_uniform, ctx[1:], w)
                 if ctx else log_uniform for w in [*c, *unseen]}
        if unseen:
            logprob[ctx] = {w: math.log(cnt / denom) for w, cnt in c.items()}
            z = left_sum(math.exp(lower[w]) for w in unseen)
            logbow[ctx] = math.log(reserved) - math.log(z)
        else:
            logprob[ctx] = {w: math.log(cnt / denom + reserved
                                        * math.exp(lower[w]))
                            for w, cnt in c.items()}
    return logprob, logbow


@functools.lru_cache(maxsize=64)
def as_dicts(model):
    """``(logprob, logbow)`` of an array-backed model (read only: cached)."""
    logprob, logbow = {}, {}
    if model.level(0)[2][0] != 0.0:
        logbow[()] = model.level(0)[2][0]
    for n in range(1, model.order + 1):
        grams, lps, bows = model.level(n)
        for gram, lp, bow in zip(grams.tolist(), lps.tolist(), bows.tolist()):
            if len(model.tokens) in gram:   # the id of every other token
                continue
            gram = tuple(model.tokens[i] for i in gram)
            if not math.isnan(lp):
                logprob.setdefault(gram[:-1], {})[gram[-1]] = lp
            if bow != 0.0:
                logbow[gram] = bow
    return logprob, logbow


def reference_cond_log_prob(model, context, token):
    if token not in model.vocab:
        if UNK not in model.vocab:
            raise ValueError(f"token {token!r} not in closed vocabulary")
        token = UNK
    ctx = tuple(context)[max(0, len(context) - model.order + 1):]
    logprob, logbow = as_dicts(model)
    return reference_backoff(logprob, logbow, -math.log(len(model.vocab)),
                             ctx, token)


def reference_sequence_log_prob(scorer, sequence):
    """Left-to-right sum of per-event reference log probabilities; an
    interpolation adds its components' probabilities in log space."""
    k = scorer.order
    toks = ([START] * (k - 1) + list(sequence) + [END]) if scorer.padded \
        else list(sequence)
    first = k - 1 if scorer.padded else 0

    def event(model, ctx, tok):
        if isinstance(model, InterpolatedModel):
            a = model._log_w + event(model.first, ctx, tok)
            b = model._log_rest + event(model.second, ctx, tok)
            if a == -math.inf or b == -math.inf:
                return max(a, b)
            return max(a, b) + math.log1p(math.exp(min(a, b) - max(a, b)))
        return reference_cond_log_prob(model, ctx, tok)

    return left_sum(event(scorer, tuple(toks[max(0, p - k + 1):p]), toks[p])
                    for p in range(first, len(toks)))


def backoff_mass(model, context):
    """Linear probability mass the context leaves to unseen continuations:
    1 less its stored continuations' probabilities, added left to right."""
    n = len(context) + 1
    if n > model.order:
        return 1.0
    grams, lp, _ = model.level(n)
    ids = [model.tokens.index(t) if t in model.tokens else -1 for t in context]
    lp = lp[~np.isnan(lp) & (grams[:, :-1] == ids).all(1)]
    return max(0.0, 1.0 - left_sum(map(math.exp, lp.tolist())))


# ---------------------------------------------------------------------------
# Witten-Bell hand fixtures (exact)
# ---------------------------------------------------------------------------

def test_unigram_witten_bell_hand_values():
    # N=3, T=2: seen a 2/5, b 1/5; reserved 2/5 renormalized over unseen {c}
    m = train_ngram([["a", "a", "b"]], 1, vocabulary=["a", "b", "c"],
                    pad=False)
    assert p(m, [], "a") == pytest.approx(2 / 5, abs=1e-12)
    assert p(m, [], "b") == pytest.approx(1 / 5, abs=1e-12)
    assert p(m, [], "c") == pytest.approx(2 / 5, abs=1e-12)
    assert m.cond_log_prob((), "a") == pytest.approx(math.log(2 / 5), abs=1e-12)


def test_bigram_context_hand_values():
    # context `a` seen once, one continuation type: N=1, T=1
    m = train_ngram([["a", "b"]], 2, vocabulary=["a", "b"], pad=False)
    assert p(m, ["a"], "b") == pytest.approx(1 / 2, abs=1e-12)
    assert backoff_mass(m, ("a",)) == pytest.approx(1 / 2, abs=1e-12)


def test_backoff_mass_always_reserved_when_padded():
    # every real token appears after every context; <unk> keeps mass positive
    seqs = [["a", "b"], ["b", "a"], ["a", "a"], ["b", "b"]]
    m = train_ngram(seqs, 2, vocabulary=["a", "b"])
    for ctx in m.logprob:
        assert backoff_mass(m, ctx) > 0.0


def test_float_sums_add_left_to_right():
    # each small term is under half an ulp of the running total, so adding
    # left to right drops it, while a compensated sum (math.fsum, or the
    # builtin sum() from Python 3.12) keeps their total
    probs = [0.5, 0.25] + [1e-17] * 20
    assert left_sum(probs) == 0.75
    assert math.fsum(probs) != 0.75
    logs = [math.log(p) for p in probs]
    # a bigram row after "a" holding those probabilities in token order
    # ("w0" < "w1" < "w10" < ...): tokens w0..w21 and "a", ids in that order
    tokens = tuple(sorted(["a"] + [f"w{i}" for i in range(len(logs))]))
    base = len(tokens) + 1
    keys = np.arange(1, len(tokens)) + base * tokens.index("a")
    # one model's store; the bigram level ends in its sentinel row
    model = NGramModel(ngram._Store(
        tokens, [(2, frozenset(tokens), False)],
        [None, None, np.append(keys, ngram._NO_KEY)],
        [None, np.full(base, math.nan), np.append(logs, math.nan)],
        [np.zeros(1), np.zeros(base), np.zeros(len(logs) + 1)]), 0)
    assert backoff_mass(model, ("a",)) == 1.0 - left_sum(
        math.exp(v) for v in logs)
    assert backoff_mass(model, ("a",)) != 1.0 - math.fsum(
        math.exp(v) for v in logs)


_LOGS = st.one_of(st.floats(-1000.0, 1000.0), st.just(-math.inf))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda width: st.lists(
    st.lists(_LOGS, min_size=width, max_size=width), min_size=1,
    max_size=6)))
def test_logsumexp_matches_the_scalar_reference(rows):
    arr = np.array(rows).reshape(len(rows), -1)
    for axis, lines in ((1, rows), (0, [list(col) for col in zip(*rows)])):
        got = _logsumexp(arr, axis=axis)
        assert got.shape == (len(lines),)
        for value, line in zip(got.tolist(), lines):
            assert math.isclose(value, reference_log_sum(line),
                                rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1000), st.lists(st.integers(1, 3), min_size=0,
                                      max_size=3),
       st.sampled_from([0.5, 5.0, 50.0]), st.floats(0.0, 0.5),
       st.integers(0, 2 ** 32 - 1))
def test_batched_logsumexp_equals_its_contiguous_rows_bit_for_bit(
        width, lead, scale, inf_share, seed):
    # reduced over the last axis of a C-contiguous array, every row adds
    # up as the 1-D call on it does
    rng = np.random.default_rng(seed)
    arr = rng.normal(scale=scale, size=(*lead, width))
    arr[rng.random(arr.shape) < inf_share] = -np.inf
    got = _logsumexp(arr, axis=len(lead))
    assert got.shape == tuple(lead)
    for index in np.ndindex(*lead):
        assert got[index] == _logsumexp(arr[index], axis=0)


def test_logsumexp_of_nothing_is_minus_inf_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _logsumexp(np.full((3, 4), -np.inf), axis=1).tolist() == \
            [-math.inf] * 3
        assert _logsumexp(np.empty((2, 0)), axis=1).tolist() == \
            [-math.inf] * 2
        assert _logsumexp(np.empty(0), axis=0) == -math.inf


def test_context_truncation():
    m = train_ngram([["a", "b", "a", "c"]], 2, vocabulary=["a", "b", "c"])
    long = m.cond_log_prob(("c", "b", "a"), "b")
    short = m.cond_log_prob(("a",), "b")
    assert long == short


def test_unknown_token_maps_to_unk():
    m = train_ngram([["a", "b"]], 2, vocabulary=["a", "b"])
    assert m.cond_log_prob((), "zzz") == m.cond_log_prob((), UNK)
    assert m.cond_log_prob(("a",), "zzz") == m.cond_log_prob(("a",), UNK)


def test_unk_mass_only_through_backoff():
    m = train_ngram([["a", "b"], ["b", "a"]], 3, vocabulary=["a", "b"])
    logprob, _ = as_dicts(m)
    assert len(logprob) == len(m.logprob)
    for row in logprob.values():
        assert UNK not in row


def test_out_of_vocabulary_training_token_rejected():
    with pytest.raises(ValueError):
        train_ngram([["a", "x"]], 1, vocabulary=["a"])


def test_reserved_start_token_rejected_in_padded_training():
    # it would be counted as an event outside the vocabulary, so each
    # context's vocabulary probabilities would not sum to 1
    with pytest.raises(ValueError, match="'<start>'"):
        train_ngram([["a", START, "b"], [START, "a"]], 2)
    with pytest.raises(ValueError, match="'<start>'"):
        train_ngram([["a", START]], 1, vocabulary=["a", START])
    # without padding it is an ordinary token
    m = train_ngram([["a", START, "b"], [START, "a"]], 2, pad=False)
    assert math.isclose(sum(math.exp(m.cond_log_prob((), w))
                            for w in ("a", "b", START)), 1.0)


def test_reserved_end_token_rejected_in_padded_training():
    # counted as the sentence-end event, it would make the probabilities
    # of all word sequences sum above 1
    with pytest.raises(ValueError, match="'<end>'"):
        train_ngram([["a", END, "b"], ["a"], ["b", "a"]], 2)
    with pytest.raises(ValueError, match="'<end>'"):
        train_ngram([["a", END]], 1, vocabulary=["a", END])
    # without padding it is an ordinary token
    m = train_ngram([["a", END, "b"], [END, "a"]], 2, pad=False)
    assert math.isclose(sum(math.exp(m.cond_log_prob((), w))
                            for w in ("a", "b", END)), 1.0)


def test_empty_training_rejected():
    with pytest.raises(ValueError):
        train_ngram([], 2)


# ---------------------------------------------------------------------------
# The array estimator against the dict estimator
# ---------------------------------------------------------------------------

def assert_same_model(got, want, tol):
    """Two (logprob, logbow) pairs store the same n-grams, with values
    within ``tol``."""
    (got_lp, got_bow), (want_lp, want_bow) = got, want
    assert got_lp.keys() == want_lp.keys()
    for ctx, row in want_lp.items():
        assert got_lp[ctx].keys() == row.keys(), ctx
        for w, lp in row.items():
            assert abs(got_lp[ctx][w] - lp) <= tol, (ctx, w)
    for ctx in got_bow.keys() | want_bow.keys():
        assert abs(got_bow.get(ctx, 0.0) - want_bow.get(ctx, 0.0)) <= tol, ctx


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.booleans(),
       st.integers(0, 10 ** 6))
def test_array_estimator_matches_the_dict_estimator(order, pad, closed, seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(1, 7))]
    # a closed vocabulary may hold words training never saw
    seen = words[:rng.randint(1, len(words))]
    seqs = [[rng.choice(seen) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(1, 9))]
    seqs[0].append(seen[0])
    vocab = words if closed else None
    assert_same_model(as_dicts(train_ngram(seqs, order, vocab, pad)),
                      reference_train(seqs, order, vocab, pad), 1e-12)


@pytest.mark.parametrize("seqs, order", [
    ([["a"], ["b"]], 3),                # no bigram or trigram events
    ([["a", "b"]], 4),                  # no 3- or 4-gram events
])
def test_orders_without_events_match_the_dict_estimator(seqs, order):
    for vocab in (None, ["a", "b", "c"]):
        assert_same_model(as_dicts(train_ngram(seqs, order, vocab, False)),
                          reference_train(seqs, order, vocab, False), 1e-12)


def test_unseen_mass_guard_adds_the_unseen_words(monkeypatch):
    # context "a" saw every vocabulary word but the rare "r", so its unseen
    # mass is P(r), about 1e-3.  With N training events no trained context
    # has unseen mass below about 1 / N, so reaching the 1e-9 floor would
    # take 1e9 events; the floor is raised above this one context instead.
    seqs = [["a", "a"], ["a", "b"], ["a", "c"]] * 300 + [["r"]]
    calls = []
    walk = CompiledModelSet._event_log_probs

    def counting(self, windows):
        calls.append(len(windows))
        return walk(self, windows)

    monkeypatch.setattr(CompiledModelSet, "_event_log_probs", counting)
    plain = train_ngram(seqs, 2, pad=False)
    assert calls == []              # seen suffixes are read, not walked
    assert plain.logprob == ((), ("a",))
    assert 1e-9 < p(plain, [], "r") < 1e-2
    monkeypatch.setattr(ngram, "_Z_FLOOR", 1e-2)
    calls.clear()
    guarded = train_ngram(seqs, 2, pad=False)
    assert calls == [1]             # the walk of "a"'s one unseen word
    assert sum(p(guarded, ["a"], w) for w in "abcr") == \
        pytest.approx(1.0, abs=1e-12)
    # the reserved mass T / (N + T) goes to "r" whole
    assert guarded.cond_log_prob(["a"], "r") == \
        pytest.approx(math.log(3 / 903), abs=1e-12)
    assert_same_model(as_dicts(guarded), reference_train(seqs, 2, pad=False),
                      1e-12)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def rand_model(rng):
    vocab = [f"w{i}" for i in range(rng.randint(2, 6))]
    seqs = [[rng.choice(vocab) for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(1, 8))]
    if all(not s for s in seqs):
        seqs[0] = [vocab[0]]
    pad = rng.random() < 0.7
    if not pad:
        seqs = [s for s in seqs if s]
    return train_ngram(seqs, rng.randint(1, 4), vocabulary=vocab, pad=pad)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rows_sum_to_one(seed):
    rng = random.Random(seed)
    m = rand_model(rng)
    contexts = set(m.logprob)
    # also probe unstored and over-long contexts reachable by the scorer
    vocab = sorted(m.vocab)
    contexts.add((vocab[0], vocab[-1]) * m.order)
    contexts.add((UNK,))
    for ctx in contexts:
        # the context's row of every word in one engine call
        total = sum(math.exp(lp) for lp in m.log_probs([ctx], vocab)[0])
        assert total == pytest.approx(1.0, abs=1e-9)


def test_probabilities_in_unit_interval():
    m = train_ngram([["a", "b", "a"], ["b"]], 2, vocabulary=["a", "b", "c"])
    for ctx in m.logprob:
        for w in sorted(m.vocab):
            lp = m.cond_log_prob(ctx, w)
            assert lp <= 0.0 and math.isfinite(lp)


# ---------------------------------------------------------------------------
# Perplexity
# ---------------------------------------------------------------------------

def test_uniform_over_42_tokens_gives_42():
    # balanced unpadded training: Witten-Bell lands exactly on uniform
    vocab = [f"t{i}" for i in range(42)]
    m = train_ngram([vocab], 1, vocabulary=vocab, pad=False)
    for tok in vocab:
        assert p(m, [], tok) == pytest.approx(1 / 42, abs=1e-15)
    assert perplexity(m, [vocab, vocab[:5]]) == pytest.approx(42.0, abs=1e-9)


def test_perplexity_approaches_one_on_memorized_sequence():
    seq = ["a", "b", "c", "d", "e"]
    m = train_ngram([seq] * 50, 6, vocabulary=seq)
    assert perplexity(m, [seq]) < 1.3


def test_perplexity_matches_per_token_resummation():
    m = train_ngram([["a", "b", "b"], ["b", "a"]], 2, vocabulary=["a", "b"])
    seqs = [["a", "b"], ["b", "b", "a"]]
    total, count = 0.0, 0
    for seq in seqs:
        toks = [START] + seq + [END]
        for i in range(1, len(toks)):
            total += m.cond_log_prob(tuple(toks[i - 1:i]), toks[i])
            count += 1
    assert perplexity(m, seqs) == pytest.approx(math.exp(-total / count),
                                                abs=1e-12)


def test_heldout_perplexity_improves_with_order():
    # order-2 Markov source carrying signal at every order: a skewed
    # marginal, a previous-token rule, and a two-token rule
    rng = random.Random(11)
    vocab = ["a", "b", "c", "d"]

    def gen(n):
        out = [rng.choice(vocab), rng.choice(vocab)]
        for _ in range(n - 2):
            r = rng.random()
            if r < 0.45:
                out.append(vocab[(vocab.index(out[-1]) + 1) % 4])
            elif r < 0.75:
                out.append(vocab[(2 * vocab.index(out[-2])
                                  + 3 * vocab.index(out[-1])) % 4])
            else:
                out.append(rng.choice(["a", "a", "a", "b", "c", "d"]))
        return out

    train = [gen(500) for _ in range(200)]
    held = [gen(500) for _ in range(20)]
    ppl = [perplexity(train_ngram(train, k, vocabulary=vocab), held)
           for k in (1, 2, 3)]
    assert ppl[2] <= ppl[1] <= ppl[0]


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def two_models():
    a = train_ngram([["a", "a", "b"]], 1, vocabulary=["a", "b", "c"],
                    pad=False)
    b = train_ngram([["b", "b", "a"]], 1, vocabulary=["a", "b", "c"],
                    pad=False)
    return a, b


def p1(model, tok):
    """P(tok) of an unpadded unigram model or mixture: its one-token
    sequence's probability."""
    return math.exp(CompiledModelSet([model]).score([[tok]])[0, 0])


def test_interpolate_identities():
    a, b = two_models()
    for tok in "abc":
        assert CompiledModelSet([interpolate(a, b, 1.0)]).score(
            [[tok]])[0, 0] == a.cond_log_prob((), tok)
        assert CompiledModelSet([interpolate(a, b, 0.0)]).score(
            [[tok]])[0, 0] == b.cond_log_prob((), tok)


def test_interpolate_arithmetic_mean():
    a, b = two_models()
    # P_a(b) = 1/5 = 0.2, P_b(b) = 2/5 = 0.4 -> mean 0.3
    assert p(a, [], "b") == pytest.approx(0.2, abs=1e-12)
    assert p(b, [], "b") == pytest.approx(0.4, abs=1e-12)
    assert p1(interpolate(a, b, 0.5), "b") == pytest.approx(0.3, abs=1e-12)


def test_interpolate_normalization_and_weight_validation():
    a, b = two_models()
    m = interpolate(a, b, 0.3)
    assert sum(p1(m, t) for t in "abc") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        interpolate(a, b, 1.5)


def test_interpolate_vocabulary_mismatch():
    a = train_ngram([["a"]], 1, vocabulary=["a", "b"])
    c = train_ngram([["a"]], 1, vocabulary=["a", "c"])
    with pytest.raises(ValueError):
        interpolate(a, c, 0.5)


def test_fit_weight_prefers_matching_model():
    rng = random.Random(5)
    vocab = ["x", "y", "z"]
    from_a = [[rng.choice(["x", "x", "y"]) for _ in range(20)]
              for _ in range(30)]
    from_b = [[rng.choice(["z", "z", "y"]) for _ in range(20)]
              for _ in range(30)]
    a = train_ngram(from_a, 1, vocabulary=vocab)
    b = train_ngram(from_b, 1, vocabulary=vocab)
    w = _fit_weights([a], b, [from_a[:10]])[0]
    assert w > 0.95


def test_fit_weight_flat_likelihood_stays_half():
    a, _ = two_models()
    assert _fit_weights([a], a, [[["a", "b"]]])[0] == pytest.approx(0.5,
                                                                    abs=1e-9)


def test_fit_weight_matches_grid_search():
    rng = random.Random(6)
    vocab = ["x", "y", "z"]
    a = train_ngram([[rng.choice(vocab) for _ in range(30)]], 2,
                    vocabulary=vocab)
    b = train_ngram([[rng.choice(["x", "x", "y"]) for _ in range(30)]], 2,
                    vocabulary=vocab)
    held = [[rng.choice(["x", "y", "y", "z"]) for _ in range(25)]
            for _ in range(4)]
    w = _fit_weights([a], b, [held])[0]
    grid = [i * 0.001 for i in range(1001)]
    # every interpolation of the grid scored in one compiled set
    held_ll = CompiledModelSet([
        interpolate(a, b, weight) if 0 < weight < 1 else
        (a if weight == 1 else b) for weight in grid]).score(held).sum(axis=0)
    grid_best = grid[int(np.argmax(held_ll))]     # first maximum, as max()
    assert abs(w - grid_best) < 0.01


# ---------------------------------------------------------------------------
# ARPA serialization
# ---------------------------------------------------------------------------

def test_arpa_round_trip_exact_queries(tmp_path):
    rng = random.Random(7)
    m = rand_model(rng)
    path = tmp_path / "m.arpa"
    write_arpa(m, path)
    back = read_arpa(path)
    assert back.order == m.order and back.vocab == m.vocab
    vocab = sorted(m.vocab)
    for _ in range(1000):
        ctx = tuple(rng.choice(vocab)
                    for _ in range(rng.randint(0, m.order)))
        tok = rng.choice(vocab)
        assert back.cond_log_prob(ctx, tok) == \
            pytest.approx(m.cond_log_prob(ctx, tok), abs=1e-9)


def test_arpa_round_trip_reproduces_the_arrays(tmp_path):
    rng = random.Random(12)
    vocab = [f"w{i}" for i in range(9)]
    seqs = [[rng.choice(vocab[:7]) for _ in range(rng.randint(0, 9))]
            for _ in range(30)]
    m = train_ngram(seqs, 3, vocabulary=vocab)
    write_arpa(m, tmp_path / "a.arpa")
    back = read_arpa(tmp_path / "a.arpa")
    assert (back.order, back.vocab, back.tokens, back.padded) == \
        (m.order, m.vocab, m.tokens, m.padded)
    # the unigram level is written dense over the vocabulary, so an unseen
    # word's probability takes in the empty context's backoff weight
    unigrams = m.log_probs([()], m.tokens)[0]
    in_vocab = [t in m.vocab for t in m.tokens]
    assert back.level(0)[2][0] == 0.0
    _, back_lp, back_bow = back.level(1)
    assert np.allclose(back_lp[:-1][in_vocab], unigrams[in_vocab],
                       rtol=0, atol=1e-10)
    assert np.isnan(back_lp[:-1][np.logical_not(in_vocab)]).all()
    assert np.allclose(back_bow, m.level(1)[2], rtol=0, atol=1e-10)
    for n in range(2, m.order + 1):
        (grams, lp, bow), (m_grams, m_lp, m_bow) = back.level(n), m.level(n)
        assert np.array_equal(grams, m_grams)
        assert np.allclose(lp, m_lp, rtol=0, atol=1e-10, equal_nan=True)
        assert np.allclose(bow, m_bow, rtol=0, atol=1e-10)
    # a model read from a file comes back exactly
    write_arpa(back, tmp_path / "b.arpa")
    again = read_arpa(tmp_path / "b.arpa")
    assert (tmp_path / "b.arpa").read_bytes() == \
        (tmp_path / "a.arpa").read_bytes()
    for n in range(m.order + 1):
        (grams, lp, bow), (b_grams, b_lp, b_bow) = again.level(n), back.level(n)
        if n > 1:
            assert np.array_equal(grams, b_grams)
        if n > 0:
            assert np.array_equal(lp, b_lp, equal_nan=True)
        assert np.array_equal(bow, b_bow)


def test_arpa_section_counts_match_headers(tmp_path):
    m = train_ngram([["a", "b", "a", "c"], ["c", "b"]], 3,
                    vocabulary=["a", "b", "c"])
    path = tmp_path / "m.arpa"
    write_arpa(m, path)
    lines = path.read_text().splitlines()
    declared = {}
    for line in lines:
        if line.startswith("ngram "):
            n, count = line[len("ngram "):].split("=")
            declared[int(n)] = int(count)
    for n, count in declared.items():
        start = lines.index(f"\\{n}-grams:")
        body = 0
        for line in lines[start + 1:]:
            if not line.strip() or line.startswith("\\"):
                break
            body += 1
        assert body == count


def test_hand_written_arpa_file(tmp_path):
    path = tmp_path / "hand.arpa"
    path.write_text("\\data\\\n"
                    "ngram 1=2\n"
                    "\n"
                    "\\1-grams:\n"
                    "-0.3010299957\ta\n"
                    "-0.3010299957\tb\n"
                    "\n"
                    "\\end\\\n")
    m = read_arpa(path)
    assert m.order == 1
    assert p(m, [], "a") == pytest.approx(0.5, abs=1e-9)
    assert p(m, [], "b") == pytest.approx(0.5, abs=1e-9)


def test_only_minus_99_and_below_carry_no_probability(tmp_path):
    # -98.5 is a (tiny) probability; -99 marks a context-only line
    path = tmp_path / "low.arpa"
    path.write_text("\n\\data\\\nngram 1=3\n\n\\1-grams:\n-0.1\ta\n"
                    "-98.5\tb\n-99\tc\t-0.5\n\n\\end\\\n")
    m = read_arpa(path)
    assert m.vocab == {"a", "b"}
    assert m.cond_log_prob((), "b") == -98.5 * math.log(10.0)
    with pytest.raises(ValueError, match="closed vocabulary"):
        m.cond_log_prob((), "c")
    write_arpa(m, tmp_path / "back.arpa")
    assert (tmp_path / "back.arpa").read_bytes() == path.read_bytes()


def test_write_arpa_rejects_interpolations(tmp_path):
    a, b = two_models()
    with pytest.raises(TypeError):
        write_arpa(interpolate(a, b, 0.5), tmp_path / "x.arpa")


def test_training_and_arpa_output_deterministic(tmp_path):
    seqs = [["a", "b", "c"], ["c", "b"], ["b"]]
    m1 = train_ngram(seqs, 2, vocabulary=["a", "b", "c"])
    m2 = train_ngram(seqs, 2, vocabulary=["a", "b", "c"])
    assert as_dicts(m1) == as_dicts(m2)
    p1, p2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
    write_arpa(m1, p1)
    write_arpa(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sequence_log_prob_pads():
    m = train_ngram([["a", "b"]], 2, vocabulary=["a", "b"])
    want = m.cond_log_prob((START,), "a") + m.cond_log_prob(("a",), "b") \
        + m.cond_log_prob(("b",), END)
    got = CompiledModelSet([m]).score([["a", "b"]])[0, 0]
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Compiled scoring against the scalar walk
# ---------------------------------------------------------------------------

def assert_compiled_equals_scalar(scorers, seqs):
    got = CompiledModelSet(scorers).score(seqs)
    assert got.shape == (len(seqs), len(scorers))
    for s, seq in enumerate(seqs):
        for c, scorer in enumerate(scorers):
            want = reference_sequence_log_prob(scorer, seq)
            assert got[s, c] == want, (seq, c)
            assert CompiledModelSet([scorer]).score([seq])[0, 0] == want, \
                (seq, c)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.booleans(),
       st.sampled_from([0.0, 1.0, None]), st.integers(0, 10 ** 6))
def test_compiled_scores_equal_the_scalar_walk(order_a, order_b, pad, weight,
                                               seed):
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d", "e"]

    def model(order):
        seqs = [[rng.choice(vocab[:4]) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 6))]
        return train_ngram(seqs, order, vocabulary=vocab, pad=pad)

    a, b = model(order_a), model(order_b)
    mix = interpolate(a, b, rng.random() if weight is None else weight)
    scorers = [a, b, mix, interpolate(b, a, rng.random()), a]
    # out-of-vocabulary tokens (scored as <unk>) only where there is an <unk>
    tokens = vocab + ([START, UNK, END, "zebra"] if pad else [])
    seqs = [[rng.choice(tokens) for _ in range(rng.randint(0, 7))]
            for _ in range(12)]
    # repeated sequences, and windows shared by different sequences
    seqs += [[], seqs[0], seqs[3][:2], seqs[5][1:] + seqs[0][:3], [], seqs[0]]
    assert_compiled_equals_scalar(scorers, seqs)
    if not pad:
        bad = ["a", "zebra", "b", "yak"]
        with pytest.raises(ValueError, match="closed vocabulary") as scalar:
            reference_sequence_log_prob(a, bad)
        with pytest.raises(ValueError, match="closed vocabulary") as compiled:
            CompiledModelSet(scorers).score([["a"], bad, ["yak"]])
        assert str(compiled.value) == str(scalar.value)
        assert "'zebra'" in str(compiled.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(0, 10 ** 6))
def test_cond_log_prob_equals_the_reference_walk(order, pad, seed):
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d"]
    seqs = [[rng.choice(vocab[:3]) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 6))]
    m = train_ngram(seqs, order, vocabulary=vocab, pad=pad)
    tokens = vocab + ([START, END, UNK, "zebra"] if pad else [])
    for _ in range(60):
        ctx = [rng.choice(tokens) for _ in range(rng.randint(0, order + 1))]
        tok = rng.choice(tokens if pad else vocab)
        assert m.cond_log_prob(ctx, tok) == \
            reference_cond_log_prob(m, ctx, tok), (ctx, tok)
    ctx = [rng.choice(tokens) for _ in range(order)]
    assert m.log_probs([ctx], tokens)[0].tolist() == \
        [reference_cond_log_prob(m, ctx, t) for t in tokens]


def test_discourse_rows_equal_the_reference_walk():
    from dialact.corpus import Conversation, TagSet, Utterance
    from dialact.discourse import GrammarVariant, train_discourse

    rng = random.Random(21)
    labels = ("S", "Q", "B")
    convs = [Conversation(f"c{i}", tuple(
        Utterance(j, rng.choice("AB"), rng.choice(labels), ("w",))
        for j in range(rng.randint(2, 9)))) for i in range(8)]
    for variant in GrammarVariant:
        g = train_discourse(convs, TagSet(labels), 3, variant)
        for _ in range(60):
            hist = [(rng.choice(labels), rng.choice("AB"))
                    for _ in range(rng.randint(0, 3))]
            spk = rng.choice("ABC")     # C: a speaker no pair token has
            ctx = g._context(hist)
            want = {lab: reference_cond_log_prob(g.model, ctx,
                                                 g.variant.token(lab, spk))
                    for lab in labels}
            if variant is GrammarVariant.SPEAKER_CONDITIONED:
                # the toolkit's one log-sum-exp, itself checked against
                # reference_log_sum
                norm = float(_logsumexp(np.array(
                    [want[lab] for lab in labels]), axis=0))
                want = {lab: lp - norm for lab, lp in want.items()}
            for lab in labels:
                assert g.transition_log_prob(hist, (lab, spk)) == want[lab]
            assert g.end_log_prob(hist) == \
                reference_cond_log_prob(g.model, ctx, END)


def test_compiled_scores_of_arpa_models(tmp_path):
    # read models carry -99 context-only grams and backoff weights on
    # n-grams that are no context of any stored row
    rng = random.Random(4)
    words = ["w%d" % i for i in range(12)]
    models = []
    for i, order in enumerate((3, 2, 3)):
        seqs = [[rng.choice(words[:9]) for _ in range(rng.randint(1, 8))]
                for _ in range(40)]
        write_arpa(train_ngram(seqs, order, vocabulary=words),
                   tmp_path / f"{i}.arpa")
        models.append(read_arpa(tmp_path / f"{i}.arpa"))
    scorers = models + [interpolate(models[0], models[1], 0.25),
                        interpolate(models[2], models[0], 0.5)]
    seqs = [[rng.choice(words + ["oov"]) for _ in range(rng.randint(0, 12))]
            for _ in range(60)]
    assert_compiled_equals_scalar(scorers, seqs)


def test_compiled_scores_in_blocks_equal_one_at_a_time():
    rng = random.Random(9)
    vocab = ["a", "b", "c"]
    m = train_ngram([["a", "b", "c", "a"], ["b", "b"]], 3, vocabulary=vocab)
    # lengths up to 500 events: about four blocks
    seqs = [[rng.choice(vocab) for _ in range(rng.randint(0, 499))]
            for _ in range(4 * _BLOCK_CELLS // 500)]
    engine = CompiledModelSet([m])
    whole = engine.score(seqs)
    assert (whole[:, 0] == [engine.score([s])[0, 0] for s in seqs]).all()


def test_compiled_windows_too_wide_for_one_int64_key():
    # 2,048 ids (2,044 words, <start>, <end>, <unk>, one for unknowns)
    # over order-6 windows: packed whole, windows whose first ids differ
    # by 512 would wrap to one key (512 * 2048^5 = 2^64), so the keys are
    # ranked before the last id joins them
    vocab = ["w%04d" % i for i in range(2044)]
    seen = ["w0010", "w0001", "w0002", "w0003", "w0004", "w0005"]
    m = train_ngram([seen, ["w0011", *seen[1:5], "w0006"]], 6,
                    vocabulary=vocab)
    assert CompiledModelSet([m])._store.base == 2048
    # "w0522" is 512 ids after "w0010", and only the order-6 context
    # tells the two apart at the last word
    unseen = ["w0522", *seen[1:]]
    assert m.cond_log_prob(seen[:5], "w0005") \
        != m.cond_log_prob(unseen[:5], "w0005")
    assert_compiled_equals_scalar([m], [seen, unseen, [], unseen[::-1]])


def test_compiled_set_rejects_what_it_cannot_score():
    a = train_ngram([["a"]], 2)
    b = train_ngram([["a"]], 2, pad=False)
    with pytest.raises(ValueError, match="padding"):
        CompiledModelSet([a, b])
    with pytest.raises(TypeError):
        CompiledModelSet([a, object()])
    with pytest.raises(TypeError, match="interpolations of two NGramModels"):
        CompiledModelSet([interpolate(interpolate(a, a, 0.5), a, 0.5)])
