"""The per-act training stages against the per-item routines they replace.

``train`` estimates, smooths and scores the act model set in one pass:
one Witten-Bell estimate for every group, one engine and EM for every
smoothing weight, one row gather for the discourse perplexity.  The
per-item routines they replace are kept below, verbatim but for their
names (and the estimator reading ``_Z_FLOOR`` from the module, so a test
can move it, and holding its levels in a one-model store), as oracles:
model files, smoothing weights and perplexities must come out bit for bit
the same.
"""

import math
import random
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact import ngram
from dialact.corpus import Conversation, TagSet, Utterance
from dialact.discourse import (DiscourseGrammar, GrammarVariant,
                               _event_sequence, discourse_perplexity,
                               train_discourse)
from dialact.ngram import (_EM_MAX_ITER, _EM_TOL, END, START, UNK,
                           CompiledModelSet, NGramModel, _fit_weights,
                           _train_set, left_sum, train_ngram, write_arpa)
from dialact.wordmodels import smooth_da_lms, train_da_lms


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------

@np.errstate(divide="ignore", invalid="ignore")
def reference_train_ngram(sequences: Sequence[Sequence[str]], order: int,
                          vocabulary: Iterable[str] | None = None,
                          pad: bool = True) -> NGramModel:
    """Estimate a Witten-Bell backoff model of the given order.

    ``vocabulary`` closes the token set; training tokens outside it are an
    error.  With the default ``pad=True`` the predictable vocabulary also
    contains ``<end>`` and ``<unk>`` and every sequence is padded with
    order-1 ``<start>`` tokens plus one ``<end>``.

    Orders are estimated shortest first, each from packed n-gram keys
    counted with ``np.unique``; the lower-order probabilities an order
    needs come from the engine's walk over the orders already estimated.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    seqs = [list(s) for s in sequences]
    if not seqs:
        raise ValueError("no training sequences")
    seen_tokens = {t for s in seqs for t in s}
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
    head, tail = ([START] * (order - 1), [END]) if pad else ([], [])
    stream = np.array([ids[t] for s in seqs for t in head + s + tail],
                      dtype=np.int64)
    # each token's position within its (padded) sequence
    index = np.concatenate([np.arange(len(head) + len(s) + len(tail))
                            for s in seqs])
    if not (index >= len(head)).any():
        raise ValueError("no training events (all sequences empty and pad=False)")

    # level n's rows: every n-gram ending at some position, either an event
    # (ending past the pads) or the context of one; ``row`` holds the row
    # of the n-gram ending at each position
    keys, lp, bow, row = [None, None], [None], [np.zeros(1)], stream
    for n in range(1, order + 1):
        if n > 1:
            at = np.flatnonzero(index >= n - 1)
            level, inverse = np.unique(row[at - 1] * base + stream[at],
                                       return_inverse=True)
            keys.append(np.append(level, ngram._NO_KEY))
            row = np.full(len(stream), -1)
            row[at] = inverse
        size = len(keys[n]) if n > 1 else base
        events = np.flatnonzero(index >= max(len(head), n - 1))
        counts = np.bincount(row[events], minlength=size)
        seen = np.flatnonzero(counts)
        # seen rows are sorted by key, so each context's rows are adjacent
        context, starts, types = np.unique(
            keys[n][seen] // base if n > 1 else np.zeros(len(seen), int),
            return_index=True, return_counts=True)
        group = np.repeat(np.arange(len(context)), types)
        denom = np.add.reduceat(counts[seen], starts) + types
        reserved, unseen = types / denom, n_vocab - types
        if n == 1:
            lower, z = np.full(len(seen), -math.log(n_vocab)), unseen / n_vocab
        else:
            # each seen n-gram's suffix, walked under orders 1..n-1
            lower_orders = ngram._Store(tokens, [(n - 1, vocab, pad)],
                                        keys[:n], lp, bow)
            lower_model = NGramModel(lower_orders, 0)
            engine = CompiledModelSet([lower_model])
            # level n - 1 rows are numbered from 0 (level 1: by id)
            parent, token = np.divmod(keys[n][seen], base)
            windows = np.column_stack([lower_model.level(n - 1)[0][parent],
                                       token])[:, 1:]
            lower = engine._event_log_probs(windows)[:, 0]
            z = 1.0 - np.add.reduceat(np.exp(lower), starts)
            for g in np.flatnonzero((unseen > 0) & (z < ngram._Z_FLOOR)).tolist():
                # the sorted explicit sum over the unseen words
                probe = np.tile(windows[starts[g]], (unseen[g], 1))
                probe[:, -1] = np.setdiff1d([ids[t] for t in vocab],
                                            keys[n][seen[group == g]] % base)
                z[g] = left_sum(map(math.exp, engine._event_log_probs(
                    probe)[:, 0].tolist()))
        c = counts[seen] / denom[group]
        lp.append(np.full(size, math.nan))
        # a context that saw every vocabulary token folds its reserved mass
        # back by interpolation, so its row still sums to 1
        lp[n][seen] = np.log(np.where(unseen[group] == 0, c + reserved[group]
                                      * np.exp(lower), c))
        bow.append(np.zeros(size))
        bow[n - 1][context] = np.where(unseen > 0,
                                       np.log(reserved) - np.log(z), 0.0)
    return NGramModel(ngram._Store(tokens, [(order, vocab, pad)], keys, lp,
                                   bow), 0)


def reference_fit_interp_weight(first, second,
                                heldout: Sequence[Sequence[str]]) -> float:
    """EM for the single interpolation weight, started at 0.5: maximizes
    held-out log likelihood of the two-component mixture, and stops when
    the weight moves less than ``_EM_TOL`` or after ``_EM_MAX_ITER`` steps."""
    table, window, _, _ = CompiledModelSet([first, second])._event_table(
        [tuple(s) for s in heldout])
    pairs = table[window].tolist()
    if not pairs:
        raise ValueError("no held-out events")
    w = 0.5
    for _ in range(_EM_MAX_ITER):
        # responsibilities of the first component, computed stably
        new = left_sum(w / (w + (1.0 - w) * math.exp(lb - la)) if la >= lb
                       else w * math.exp(la - lb)
                       / (w * math.exp(la - lb) + (1.0 - w))
                       for la, lb in pairs) / len(pairs)
        moved, w = abs(new - w), new
        if moved < _EM_TOL:
            break
    return w


def reference_discourse_perplexity(grammar: DiscourseGrammar,
                                   convs: Sequence[Conversation]) -> float:
    """Per-event perplexity of the grammar on labeled conversations.

    Trained grammars score n transitions plus the ``<end>`` event per
    conversation (n+1 events); an order-0 grammar scores n uniform events.
    """
    if not convs:
        raise ValueError("no conversations to evaluate")
    total = 0.0
    count = 0
    for conv in convs:
        events = _event_sequence(conv, grammar.tagset)
        if grammar.order == 0:
            total += len(events) * grammar._log_uniform
            count += len(events)
            continue
        k = grammar.order - 1       # only the last k events condition the next
        for i, ev in enumerate(events):
            total += grammar.transition_log_prob(events[max(0, i - k):i], ev)
        total += grammar.end_log_prob(events[max(0, len(events) - k):])
        count += len(events) + 1
    if count == 0:
        raise ValueError("no events to evaluate")
    return math.exp(-total / count)


# ---------------------------------------------------------------------------
# Estimation: one Witten-Bell pass over every group
# ---------------------------------------------------------------------------

def arpa_text(model) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        write_arpa(model, Path(tmp) / "model.arpa")
        return (Path(tmp) / "model.arpa").read_text(encoding="utf-8")


def assert_same_bits(model, ref):
    """N-grams, log probs (NaN rows included) and backoff weights of every
    level equal bit for bit: the manifest's smoothing weights read them
    unrounded."""
    assert model.order == ref.order
    for n in range(model.order + 1):
        for a, b in zip(model.level(n), ref.level(n)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.ascontiguousarray(a).tobytes() == \
                np.ascontiguousarray(b).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from([None, 2.0]), st.integers(0, 10 ** 6))
def test_set_models_write_the_per_group_arpa_files(order, pad, closed, whole,
                                                   floor, seed):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(1, 6))]
    groups = []
    for _ in range(rng.randint(1, 4)):
        # each group sees part of the vocabulary, and has an event
        seen = rng.sample(words, rng.randint(1, len(words)))
        seqs = [[rng.choice(seen) for _ in range(rng.randint(0, 8))]
                for _ in range(rng.randint(1, 5))]
        seqs[0].append(seen[0])
        groups.append(seqs)
    if whole:
        # a group whose empty context (and, unpadded, whose first word)
        # saw every word: unpadded, its rows fold the reserved mass back
        groups.insert(rng.randint(0, len(groups)), [
            [x for w in words for x in (words[0], w)]])
    vocab = words if closed else None
    shared = words if closed else sorted(
        {t for seqs in groups for s in seqs for t in s})
    with pytest.MonkeyPatch.context() as patch:
        if floor is not None:
            # every context with an unseen word takes the explicit sum
            patch.setattr(ngram, "_Z_FLOOR", floor)
        models = _train_set(groups, order, vocab, pad)
        alone = [train_ngram(seqs, order, shared, pad) for seqs in groups]
        want = [reference_train_ngram(seqs, order, shared, pad)
                for seqs in groups]
    assert len(models) == len(groups)
    for model, one, ref in zip(models, alone, want):
        assert model.vocab == ref.vocab and model.tokens == ref.tokens
        assert arpa_text(model) == arpa_text(one) == arpa_text(ref)
        assert_same_bits(model, ref)
        assert_same_bits(one, ref)


def test_set_estimation_covers_fold_back_and_the_floor(monkeypatch):
    # unpadded, "a" is followed by every word and the empty context sees
    # them all: both rows fold their reserved mass back
    groups = [[["a", "a", "a", "b", "a", "c"]], [["b", "c", "b"]]]
    models = _train_set(groups, 2, ["a", "b", "c"], pad=False)
    assert models[0].tokens == ("a", "b", "c")
    assert models[0].level(0)[2][0] == 0.0 and models[0].level(1)[2][0] == 0.0
    assert models[1].level(0)[2][0] != 0.0
    for model, seqs in zip(models, groups):
        ref = reference_train_ngram(seqs, 2, ["a", "b", "c"], pad=False)
        assert arpa_text(model) == arpa_text(ref)
        assert_same_bits(model, ref)
    monkeypatch.setattr(ngram, "_Z_FLOOR", 2.0)
    for order in (1, 2, 3):
        floored = _train_set(groups + [[["c"]]], order, ["a", "b", "c"],
                             pad=False)
        for model, seqs in zip(floored, groups + [[["c"]]]):
            ref = reference_train_ngram(seqs, order, ["a", "b", "c"],
                                        pad=False)
            assert arpa_text(model) == arpa_text(ref)
            assert_same_bits(model, ref)


def test_set_estimation_rejects_what_train_ngram_rejects():
    with pytest.raises(ValueError, match="no training sequences"):
        _train_set([[["a"]], []], 2)
    with pytest.raises(ValueError, match="no training events"):
        _train_set([[["a"]], [[]]], 2, pad=False)
    with pytest.raises(ValueError, match="outside vocabulary"):
        _train_set([[["a"]], [["x"]]], 2, vocabulary=["a"])


def labeled_corpus(rng, labels, n_convs, words):
    return [Conversation(f"c{i}", tuple(
        Utterance(j, rng.choice("AB"), rng.choice(labels), tuple(
            rng.choice(words) for _ in range(rng.randint(0, 6))))
        for j in range(rng.randint(1, 8)))) for i in range(n_convs)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_class_models_and_fallback_are_the_per_class_models(order, seed):
    rng = random.Random(seed)
    tagset = TagSet(("S", "Q", "B", "X"))
    words = [f"w{i}" for i in range(rng.randint(1, 8))]
    # "X" never occurs, so its model is the pooled one
    convs = labeled_corpus(rng, ("S", "Q", "B")[:rng.randint(1, 3)],
                           rng.randint(1, 5), words)
    with pytest.warns(UserWarning) as caught:
        da_lms = train_da_lms(convs, tagset, order)
    assert "no training utterances for 'X'" in str(caught[-1].message)
    utts = [u for conv in convs for u in conv]
    vocab = {w for u in utts for w in u.words}
    assert arpa_text(da_lms.fallback) == arpa_text(reference_train_ngram(
        [u.words for u in utts], order, vocab))
    assert da_lms.models["X"] is da_lms.fallback
    for lab in tagset.labels:
        seqs = [u.words for u in utts if u.da_label == lab]
        if seqs:
            assert arpa_text(da_lms.models[lab]) == arpa_text(
                reference_train_ngram(seqs, order, vocab))
        else:
            assert da_lms.models[lab] is da_lms.fallback


# ---------------------------------------------------------------------------
# Smoothing: every class's EM from one engine
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_smoothing_weights_equal_the_scalar_em(order, seed):
    rng = random.Random(seed)
    tagset = TagSet(("S", "Q", "B", "X"))
    words = [f"w{i}" for i in range(rng.randint(2, 8))]
    convs = labeled_corpus(rng, ("S", "Q", "B"), rng.randint(2, 6), words)
    # held-out words the models never saw score as <unk>; some classes
    # have no held-out utterance
    heldout = labeled_corpus(rng, ("S", "Q", "B", "X")[:rng.randint(1, 4)],
                             rng.randint(1, 4), words + ["oov"])
    with pytest.warns(UserWarning):
        da_lms = train_da_lms(convs, tagset, order)
        _, weights = smooth_da_lms(da_lms, heldout)
    fallback = da_lms.fallback
    for lab in tagset.labels:
        data = [u.words for conv in heldout for u in conv
                if u.da_label == lab]
        model = da_lms.models[lab]
        if model is fallback:
            assert weights[lab] == 0.0
        elif not data:
            assert weights[lab] == 0.5
        else:
            want = reference_fit_interp_weight(model, fallback, data)
            assert weights[lab] == want
            assert _fit_weights([model], fallback, [data])[0] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_fit_interp_weight_equals_the_scalar_em(order_a, order_b, seed):
    rng = random.Random(seed)
    vocab = ["a", "b", "c", "d"]

    def model(order, words):
        return train_ngram([[rng.choice(words) for _ in range(rng.randint(
            0, 9))] for _ in range(rng.randint(1, 6))], order, vocab)

    a, b = model(order_a, vocab[:2]), model(order_b, vocab[1:])
    held = [[rng.choice(vocab + ["zebra"]) for _ in range(rng.randint(0, 7))]
            for _ in range(rng.randint(1, 5))]
    for first, second in ((a, b), (b, a), (a, a)):
        assert _fit_weights([first], second, [held])[0] == \
            reference_fit_interp_weight(first, second, held)


def test_fit_interp_weight_needs_held_out_events():
    a = train_ngram([["a", "b"]], 2, pad=False)
    with pytest.raises(ValueError, match="no held-out events"):
        _fit_weights([a], a, [[[]]])[0]


# ---------------------------------------------------------------------------
# Discourse perplexity: one row gather over the distinct contexts
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.sampled_from(list(GrammarVariant)),
       st.integers(2, 12), st.integers(0, 10 ** 6))
def test_discourse_perplexity_equals_the_per_event_loop(order, variant,
                                                        n_labels, seed):
    rng = random.Random(seed)
    tagset = TagSet(tuple(f"L{i}" for i in range(n_labels)))
    train = labeled_corpus(rng, tagset.labels, rng.randint(1, 8), ["w"])
    # a conversation may be empty when there is an <end> event to score
    test = [Conversation(f"t{i}", tuple(
        Utterance(j, rng.choice("AB"), rng.choice(tagset.labels), ("w",))
        for j in range(rng.randint(0 if order else 1, 40))))
        for i in range(rng.randint(1, 5))]

    def grammar():
        if order == 0:
            return DiscourseGrammar.uniform(tagset, variant)
        return train_discourse(train, tagset, order, variant)

    assert discourse_perplexity(grammar(), test) == \
        reference_discourse_perplexity(grammar(), test)
