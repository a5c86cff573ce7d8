"""Sequence decoding: Viterbi, forward-backward, fusion, weight tuning."""

import contextlib
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact.corpus import (Conversation, TagSet, Utterance, default_tagset,
                            jackknife_split)
from dialact.discourse import DiscourseGrammar, GrammarVariant, train_discourse
from dialact import hmm
from dialact.hmm import (CombinationWeights, LikelihoodTable,
                         brute_force_decode, combine_likelihoods,
                         forward_backward, forward_backward_corpus,
                         tune_alpha_beta, viterbi_corpus, viterbi_decode)


class StubBigram:
    """Hand-specified first-order chain over two labels, unit end term.

    ``start`` and ``trans`` are plain probabilities; the end scale lets a
    test pin a label-dependent end-of-conversation preference.
    """

    labels = ("S", "Q")
    order = 2

    def __init__(self, end=None):
        self.start = {"S": 0.5, "Q": 0.5}
        self.trans = {("S", "S"): 0.8, ("S", "Q"): 0.2,
                      ("Q", "S"): 0.6, ("Q", "Q"): 0.4}
        self.end = end or {}

    def transition_log_prob(self, history, event):
        label = event[0]
        if not history:
            return math.log(self.start[label])
        return math.log(self.trans[(history[-1][0], label)])

    def end_log_prob(self, history):
        if not self.end:
            return 0.0
        return math.log(self.end[history[-1][0]])


def two_state_table():
    return LikelihoodTable(
        "c", ("S", "Q"), ("A", "B"),
        [[math.log(0.1), math.log(0.3)],
         [math.log(0.4), math.log(0.1)]])


def rand_instance(rng, n_labels, order, n_utts, variant=None):
    labels = ("S", "Q", "B", "X")[:n_labels]
    tagset = TagSet(labels)
    convs = []
    for c in range(6):
        utts = tuple(Utterance(i, rng.choice("AB"), rng.choice(labels), ("w",))
                     for i in range(rng.randrange(3, 9)))
        convs.append(Conversation(f"t{c}", utts))
    variant = variant or rng.choice(list(GrammarVariant))
    if order == 0:
        grammar = DiscourseGrammar.uniform(tagset, variant)
    else:
        grammar = train_discourse(convs, tagset, order, variant)
    speakers = tuple(rng.choice("AB") for _ in range(n_utts))
    scores = np.array([[rng.uniform(-6.0, 0.0) for _ in labels]
                       for _ in range(n_utts)])
    return grammar, LikelihoodTable("r", labels, speakers, scores)


# ---------------------------------------------------------------------------
# Two-state hand fixture
# ---------------------------------------------------------------------------

def test_two_state_viterbi_fixture():
    seq, score = viterbi_decode(StubBigram(), two_state_table())
    # joints: SS .016, SQ .001, QS .036, QQ .006
    assert seq == ["Q", "S"]
    assert math.isclose(score, math.log(0.036), rel_tol=0, abs_tol=1e-12)


def test_two_state_posterior_fixture():
    posts = forward_backward(StubBigram(), two_state_table())
    assert math.isclose(posts[0, 1], 0.042 / 0.059, abs_tol=1e-12)
    assert math.isclose(posts[0, 0], 0.017 / 0.059, abs_tol=1e-12)
    assert math.isclose(posts[1, 0], 0.052 / 0.059, abs_tol=1e-12)
    assert math.isclose(posts[1, 1], 0.007 / 0.059, abs_tol=1e-12)


def test_two_state_brute_force_agrees():
    g, table = StubBigram(), two_state_table()
    seq, score, posts = brute_force_decode(g, table)
    vseq, vscore = viterbi_decode(g, table)
    assert seq == vseq and math.isclose(score, vscore, abs_tol=1e-12)
    assert np.allclose(posts, forward_backward(g, table), atol=1e-12)


# ---------------------------------------------------------------------------
# Brute-force equivalence on random instances
# ---------------------------------------------------------------------------

def test_decoders_match_brute_force():
    rng = random.Random(7)
    for trial in range(50):
        if trial < 40:
            order, n_labels, max_n = rng.choice((1, 2, 3)), rng.choice((2, 3)), 6
        else:  # no grammar, and 4-grams over two labels
            order, n_labels, max_n = (0, 3, 6) if trial % 2 else (4, 2, 5)
        grammar, table = rand_instance(rng, n_labels, order,
                                       rng.randrange(1, max_n + 1))
        bseq, bscore, bposts = brute_force_decode(grammar, table)
        vseq, vscore = viterbi_decode(grammar, table)
        assert vseq == bseq, f"trial {trial}: {vseq} vs {bseq}"
        assert math.isclose(vscore, bscore, rel_tol=0, abs_tol=1e-9)
        posts = forward_backward(grammar, table)
        assert np.allclose(posts, bposts, atol=1e-9), f"trial {trial}"


def test_unigram_posterior_argmax_matches_viterbi():
    rng = random.Random(3)
    for _ in range(10):
        grammar, table = rand_instance(rng, 3, 1, 5)
        seq, _ = viterbi_decode(grammar, table)
        posts = forward_backward(grammar, table)
        # no sequence coupling at order 1: both pick the per-row argmax
        assert [table.labels[j] for j in np.argmax(posts, axis=1)] == seq


def test_row_constant_shift_is_invisible():
    rng = random.Random(11)
    grammar, table = rand_instance(rng, 3, 2, 5)
    shifts = np.array([rng.uniform(-4.0, 4.0) for _ in range(5)])
    shifted = LikelihoodTable(table.conversation_id, table.labels,
                              table.speakers, table.scores + shifts[:, None])
    seq, score = viterbi_decode(grammar, table)
    seq2, score2 = viterbi_decode(grammar, shifted)
    assert seq2 == seq
    assert math.isclose(score2, score + shifts.sum(), abs_tol=1e-9)
    assert np.allclose(forward_backward(grammar, shifted),
                       forward_backward(grammar, table), atol=1e-12)


def test_single_utterance_conversation():
    rng = random.Random(19)
    grammar, table = rand_instance(rng, 3, 2, 1)
    start = np.array([grammar.transition_log_prob((), (lab, table.speakers[0]))
                      for lab in table.labels])
    end = np.array([grammar.end_log_prob(((lab, table.speakers[0]),))
                    for lab in table.labels])
    row = start + table.scores[0] + end
    posts = forward_backward(grammar, table)
    assert np.allclose(posts[0], np.exp(row) / np.exp(row).sum(), atol=1e-12)
    seq, score = viterbi_decode(grammar, table)
    assert seq == [table.labels[int(np.argmax(row))]]
    assert math.isclose(score, row.max(), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Online (filtered) posteriors
# ---------------------------------------------------------------------------

def test_online_rows_are_normalized():
    rng = random.Random(23)
    for order in (1, 2, 3):
        grammar, table = rand_instance(rng, 3, order, 6)
        rows = forward_backward(grammar, table, online=True)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_online_equals_offline_on_truncated_prefix():
    # with a unit end term, filtering at i is exactly smoothing over the
    # first i+1 utterances
    g, table = StubBigram(), two_state_table()
    online = forward_backward(g, table, online=True)
    for i in range(len(table)):
        prefix = LikelihoodTable(table.conversation_id, table.labels,
                                 table.speakers[:i + 1],
                                 table.scores[:i + 1])
        assert np.allclose(online[i], forward_backward(g, prefix)[-1],
                           atol=1e-12)


def test_online_ignores_end_preference():
    g = StubBigram(end={"S": 0.9, "Q": 0.1})
    table = two_state_table()
    online = forward_backward(g, table, online=True)
    offline = forward_backward(g, table)
    assert not np.allclose(online[-1], offline[-1], atol=1e-3)
    # the end factor also reaches earlier rows through the backward pass
    assert not np.allclose(online[0], offline[0], atol=1e-3)


# ---------------------------------------------------------------------------
# Evidence fusion
# ---------------------------------------------------------------------------

def fusion_pair():
    word = LikelihoodTable("c", ("S", "Q"), ("A",), np.array([[-1.0, -3.0]]))
    pros = LikelihoodTable("c", ("S", "Q"), ("A",), np.array([[-2.0, -0.5]]))
    return word, pros


def test_combine_unit_weights_adds():
    word, pros = fusion_pair()
    out = combine_likelihoods(word, pros, CombinationWeights(1.0, 1.0))
    assert np.allclose(out.scores, [[-3.0, -3.5]])


def test_combine_alpha_zero_drops_prosody():
    word, pros = fusion_pair()
    out = combine_likelihoods(word, pros, CombinationWeights(0.0, 1.0))
    assert np.allclose(out.scores, word.scores)
    none_out = combine_likelihoods(word, None, CombinationWeights(0.0, 1.0))
    assert np.allclose(none_out.scores, word.scores)


def test_combine_beta_scales_the_sum():
    word = LikelihoodTable("c", ("S",), ("A",), np.array([[-1.0]]))
    pros = LikelihoodTable("c", ("S",), ("A",), np.array([[-2.0]]))
    out = combine_likelihoods(word, pros, CombinationWeights(0.5, 2.0))
    assert math.isclose(out.scores[0, 0], -4.0, abs_tol=1e-12)


def test_combine_rejects_mismatched_tables():
    word, _ = fusion_pair()
    other = LikelihoodTable("other", ("S", "Q"), ("A",),
                            np.array([[-2.0, -0.5]]))
    with pytest.raises(ValueError):
        combine_likelihoods(word, other, CombinationWeights(1.0))


def test_weight_validation():
    assert CombinationWeights(0.0).beta == 1.0
    with pytest.raises(ValueError):
        CombinationWeights(-0.1)
    with pytest.raises(ValueError):
        CombinationWeights(1.0, 0.0)
    for alpha, beta in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf),
                        (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            CombinationWeights(alpha, beta)


# ---------------------------------------------------------------------------
# Table validation and I/O
# ---------------------------------------------------------------------------

def test_table_rejects_nan_and_plus_inf():
    with pytest.raises(ValueError):
        LikelihoodTable("c", ("S",), ("A",), np.array([[math.nan]]))
    with pytest.raises(ValueError):
        LikelihoodTable("c", ("S",), ("A",), np.array([[math.inf]]))
    with pytest.raises(ValueError):
        LikelihoodTable("c", ("S", "Q"), ("A",), np.array([[-1.0]]))
    LikelihoodTable("c", ("S",), ("A",), np.array([[-math.inf]]))


def test_inadmissible_utterance_raises():
    bad = LikelihoodTable("c", ("S", "Q"), ("A", "B"),
                          np.array([[-1.0, -2.0], [-math.inf, -math.inf]]))
    for order in (0, 1, 2, 3):
        grammar, _ = rand_instance(random.Random(5), 2, order, 2)
        with pytest.raises(ValueError, match="admissible"):
            viterbi_decode(grammar, bad)
        with pytest.raises(ValueError, match="admissible"):
            forward_backward(grammar, bad)


def test_empty_conversation_rejected():
    table = LikelihoodTable("c", ("S", "Q"), (), np.empty((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        viterbi_decode(StubBigram(), table)
    with pytest.raises(ValueError, match="empty"):
        forward_backward(StubBigram(), table)


# ---------------------------------------------------------------------------
# Fusion weight tuning
# ---------------------------------------------------------------------------

def tuning_corpus(flat_words):
    """Four conversations whose labels alternate; prosody always knows the
    answer, words only when ``flat_words`` is False."""
    labels = ("S", "Q")
    tagset = TagSet(labels)
    convs, word_tables, pros_tables, refs = [], [], [], {}
    for c in range(4):
        seq = [labels[(c + i) % 2] for i in range(6)]
        spk = tuple("AB"[i % 2] for i in range(6))
        convs.append(Conversation(f"c{c}", tuple(
            Utterance(i, spk[i], lab, ("w",)) for i, lab in enumerate(seq))))
        refs[f"c{c}"] = seq
        wrow = np.array([[0.0 if flat_words else (-0.5 if lab == s else -1.5)
                          for lab in labels] for s in seq])
        prow = np.array([[-0.2 if lab == s else -3.0 for lab in labels]
                         for s in seq])
        word_tables.append(LikelihoodTable(f"c{c}", labels, spk, wrow))
        pros_tables.append(LikelihoodTable(f"c{c}", labels, spk, prow))
    grammar = train_discourse(convs, tagset, 2, GrammarVariant.DA_ONLY)
    return grammar, word_tables, pros_tables, refs


def test_tuning_finds_prosody_when_words_are_flat():
    grammar, wts, pts, refs = tuning_corpus(flat_words=True)
    result = tune_alpha_beta(grammar, wts, pts, refs, seed=0)
    assert result.better.alpha > 0.0
    assert result.accuracy == 1.0
    assert result.half_accuracies == (1.0, 1.0)


def test_tuning_tie_breaks_toward_smallest_weights():
    # words alone already decode perfectly, so the whole grid ties and the
    # scan order must pick the smallest alpha, then the smallest beta
    grammar, wts, pts, refs = tuning_corpus(flat_words=False)
    result = tune_alpha_beta(grammar, wts, pts, refs, seed=0)
    assert result.weights[0] == CombinationWeights(0.0, 0.1)
    assert result.weights[1] == CombinationWeights(0.0, 0.1)
    assert result.better == CombinationWeights(0.0, 0.1)


def test_tuning_decodes_each_half_once_per_alpha(monkeypatch):
    # the cross-half hits come from the grids already decoded, so no half
    # is decoded again at the other half's best point
    grammar, wts, pts, refs = tuning_corpus(flat_words=True)
    calls = []
    decode = hmm._posteriors
    monkeypatch.setattr(hmm, "_posteriors",
                        lambda *args: calls.append(1) or decode(*args))
    alphas = (0.0, 0.5, 1.0)
    tune_alpha_beta(grammar, wts, pts, refs, alphas, (0.5, 1.0), seed=0)
    assert len(calls) == 2 * len(alphas)


def test_tuning_input_validation():
    grammar, wts, pts, refs = tuning_corpus(flat_words=False)
    with pytest.raises(ValueError):
        tune_alpha_beta(grammar, wts, pts[:-1], refs)
    with pytest.raises(ValueError):
        tune_alpha_beta(grammar, wts[:1], pts[:1], refs)


def test_tuning_matches_public_decodes():
    # the batched grid search must agree exactly with decoding each grid
    # point through combine_likelihoods and forward_backward
    rng = random.Random(31)
    grammar, _ = rand_instance(rng, 3, 2, 1)
    wts, pts, refs = [], [], {}
    for c in range(6):
        _, table = rand_instance(rng, 3, 2, rng.randrange(2, 7))
        conv_id = f"c{c}"
        refs[conv_id] = [rng.choice(table.labels) for _ in range(len(table))]
        pros = np.array([[(-0.3 if lab == ref else -2.0) + rng.uniform(-1.0, 0.0)
                          for lab in table.labels] for ref in refs[conv_id]])
        if c == 1:
            pros[0, 2] = -math.inf
        wts.append(LikelihoodTable(conv_id, table.labels, table.speakers,
                                   table.scores))
        pts.append(None if c == 3 else LikelihoodTable(
            conv_id, table.labels, table.speakers, pros))
    alphas, betas = (0.0, 0.5, 1.0, 3.0), (0.1, 0.7, 1.0, 2.0)

    def correct(half, w):
        hits = 0
        for wt, pt in half:
            posts = forward_backward(grammar, combine_likelihoods(wt, pt, w))
            hits += sum(wt.labels[j] == ref for j, ref in
                        zip(np.argmax(posts, axis=1), refs[wt.conversation_id]))
        return hits, sum(len(wt) for wt, _ in half)

    def best(half):
        best_w, best_hits = None, -1
        for a in alphas:
            for b in betas:
                hits, _ = correct(half, CombinationWeights(a, b))
                if hits > best_hits:
                    best_w, best_hits = CombinationWeights(a, b), hits
        return best_w

    for seed in range(3):
        half1, half2 = jackknife_split(list(zip(wts, pts)), seed)
        w1, w2 = best(half1), best(half2)
        c2, t2 = correct(half2, w1)
        c1, t1 = correct(half1, w2)
        with np.errstate(invalid="raise"):  # 0 * -inf would make a NaN
            got = tune_alpha_beta(grammar, wts, pts, refs, alphas, betas,
                                  seed=seed)
        assert got.weights == (w1, w2)
        assert got.accuracy == (c1 + c2) / (t1 + t2)
        assert got.half_accuracies == (c2 / t2, c1 / t1)


class SpeakerBlind:
    """A grammar proxy without ``uses_speakers``: compiled per speaker
    pattern, as any duck-typed prior is."""

    def __init__(self, grammar):
        self.labels, self.order = grammar.labels, grammar.order
        self.transition_log_prob = grammar.transition_log_prob
        self.end_log_prob = grammar.end_log_prob


def test_speaker_blind_grammars_compile_one_pattern_per_depth():
    rng = random.Random(41)
    for trial in range(12):
        order = 2 + trial % 2
        grammar, table = rand_instance(rng, rng.randint(2, 4), order,
                                       rng.randint(1, 7),
                                       GrammarVariant.DA_ONLY)
        assert not grammar.uses_speakers
        proxy = SpeakerBlind(grammar)
        assert viterbi_decode(grammar, table) == viterbi_decode(proxy, table)
        for online in (False, True):
            assert np.array_equal(forward_backward(grammar, table, online),
                                  forward_backward(proxy, table, online))
        # one transition pattern per count of "before the conversation" slots
        assert len(hmm._COMPILED[grammar]._trans) <= order


def test_prior_compiles_by_whole_rows(monkeypatch):
    # DiscourseGrammar compiles through transition_rows, with no per-label
    # call, into the arrays the per-label adapter builds, bit for bit
    rng = random.Random(12)
    tagset = TagSet(("S", "Q", "B"))
    convs = [Conversation(f"c{i}", tuple(
        Utterance(j, rng.choice("AB"), rng.choice(tagset.labels), ("w",))
        for j in range(rng.randint(2, 9)))) for i in range(8)]
    grammars = [DiscourseGrammar.uniform(tagset, variant) if order == 0
                else train_discourse(convs, tagset, order, variant)
                for order in range(4) for variant in GrammarVariant]
    proxies = [SpeakerBlind(grammar) for grammar in grammars]

    def per_label(self, history, event):
        raise AssertionError("compiled one label at a time")

    monkeypatch.setattr(DiscourseGrammar, "transition_log_prob", per_label)
    for grammar, proxy in zip(grammars, proxies):
        m = max(grammar.order - 1, 1)
        for lead in range(m + 1):
            # C: a speaker no pair token has
            for speakers in itertools.product("ABC", repeat=m + 1 - lead):
                pattern = (None,) * lead + speakers
                assert np.array_equal(
                    hmm._CompiledPrior(grammar).transition(grammar, pattern),
                    hmm._CompiledPrior(proxy).transition(proxy, pattern))


# ---------------------------------------------------------------------------
# Batched corpus decoding against a per-table oracle
# ---------------------------------------------------------------------------

def per_table_arrays(grammar, table):
    """Per-utterance transition arrays and the end array of one table."""
    prior = hmm._CompiledPrior(grammar)
    m = prior.m
    speakers = (None,) * m + (tuple(table.speakers)
                              if getattr(grammar, "uses_speakers", True)
                              else ("",) * len(table))
    return ([prior.transition(grammar, speakers[i:i + m + 1])
             for i in range(len(table))], prior.end(grammar, speakers[-m:]))


def oracle_viterbi(grammar, table):
    """Per-table Viterbi recursion, one conversation at a time."""
    trans, end = per_table_arrays(grammar, table)
    n, t = table.scores.shape
    size = end.size // (t + 1)
    score = np.full((t + 1, size), -np.inf)
    score[-1, -1] = 0.0
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
    best = int(final.argmax())
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
def oracle_posteriors(grammar, table, scales=(1.0,), online=False):
    """Per-table forward-backward, batched over fusion scales only:
    posteriors (b, n, t) of ``scale * table.scores`` for each scale."""
    trans, end = per_table_arrays(grammar, table)
    lik = np.array(scales, dtype=float)[:, None, None] * table.scores
    b, n, t = lik.shape
    size = end.size // (t + 1)
    lik = lik.transpose(1, 0, 2)[:, :, None]
    alpha = np.full((n, b, size, t + 1), -np.inf)
    prev = np.full((b, t + 1, size), -np.inf)
    prev[:, -1, -1] = 0.0
    for i, step in enumerate(trans):
        alpha[i, ..., :t] = hmm._logsumexp(prev[..., None] + step, axis=1) + lik[i]
        prev = alpha[i].reshape(b, t + 1, size)
    if not online:
        beta = np.empty_like(alpha)
        beta[n - 1] = end.reshape(size, t + 1)
        for i in range(n - 2, -1, -1):
            nxt = lik[i + 1] + beta[i + 1, ..., :t]
            beta[i] = hmm._logsumexp(trans[i + 1] + nxt[:, None],
                                     axis=-1).reshape(b, size, t + 1)
        alpha += beta
    rows = hmm._logsumexp(alpha, axis=2)[..., :t]
    z = hmm._logsumexp(rows, axis=-1)
    if (z == -np.inf).any():
        raise ValueError("utterance with no admissible label")
    return np.exp(rows - z[..., None]).transpose(1, 0, 2)


@contextlib.contextmanager
def decode_budget(elements):
    saved = hmm.DECODE_BUDGET
    hmm.DECODE_BUDGET = elements
    try:
        yield
    finally:
        hmm.DECODE_BUDGET = saved


class Flat:
    """A prior of any order that scores every event alike, so every label
    sequence ties and Viterbi falls back on its tie-break."""

    def __init__(self, labels, order):
        self.labels, self.order = labels, order

    def transition_log_prob(self, history, event):
        return -1.0

    def end_log_prob(self, history):
        return 0.0


@st.composite
def corpora(draw):
    """A grammar (orders 0-3, every variant, speaker-aware or blind, or a
    flat prior with integer evidence for ties) and 1-5 tables of 1-40
    utterances."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    n_labels = draw(st.integers(1, 4))
    order = draw(st.integers(0, 3))
    ties = draw(st.booleans())
    speakers = draw(st.sampled_from(["A", "AB"]))
    grammar, _ = rand_instance(rng, n_labels, order, 1,
                               draw(st.sampled_from(list(GrammarVariant))))
    if ties:
        grammar = Flat(grammar.labels, order)
    elif draw(st.booleans()):
        grammar = SpeakerBlind(grammar)
    tables = []
    for c, n in enumerate(draw(st.lists(st.integers(1, 40), min_size=1,
                                        max_size=5))):
        scores = np.array([[rng.choice((-1.0, -2.0)) if ties
                            else rng.uniform(-6.0, 0.0)
                            for _ in grammar.labels] for _ in range(n)])
        if not ties and n_labels > 1:
            scores[rng.randrange(n), rng.randrange(n_labels)] = -math.inf
        tables.append(LikelihoodTable(
            f"c{c}", grammar.labels,
            tuple(rng.choice(speakers) for _ in range(n)), scores))
    return grammar, tables


@settings(max_examples=150, deadline=None)
@given(corpora(), st.booleans(), st.sampled_from([1, 300, 5000, None]),
       st.lists(st.sampled_from([0.1, 0.7, 1.0, 2.0]), min_size=1,
                max_size=3))
def test_batched_decoders_equal_per_table_decodes(corpus, online, budget,
                                                  scales):
    grammar, tables = corpus
    with decode_budget(budget or hmm.DECODE_BUDGET):
        posts = forward_backward_corpus(grammar, tables, online)
        paths = viterbi_corpus(grammar, tables)
        scaled = hmm._posteriors(hmm._compile(grammar, tables, products=True),
                                 [table.scores for table in tables],
                                 np.array(scales), online)
    assert len(posts) == len(paths) == len(scaled) == len(tables)
    for table, got, path, by_scale in zip(tables, posts, paths, scaled):
        # batched against per-table decodes, at any budget: bit for bit
        assert np.array_equal(got, forward_backward(grammar, table, online))
        assert np.array_equal(by_scale, hmm._posteriors(
            hmm._compile(grammar, [table], products=True), [table.scores],
            np.array(scales), online)[0])
        # the shifted products against the exact per-table recursion
        assert np.abs(got - oracle_posteriors(
            grammar, table, online=online)[0]).max() <= 1e-12
        assert np.abs(by_scale - oracle_posteriors(
            grammar, table, scales, online)).max() <= 1e-12
        assert path == oracle_viterbi(grammar, table)
        assert path == viterbi_decode(grammar, table)


def test_batched_decoders_equal_per_table_on_the_bundled_tag_set():
    # 42 labels: sums over the label axis take numpy's pairwise path
    tagset = default_tagset()
    rng = random.Random(3)
    convs = [Conversation(f"t{c}", tuple(
        Utterance(i, rng.choice("AB"), rng.choice(tagset.labels), ("w",))
        for i in range(20))) for c in range(5)]
    grammar = train_discourse(convs, tagset, 2, GrammarVariant.JOINT)
    tables = [LikelihoodTable(
        f"c{c}", tagset.labels, tuple(rng.choice("AB") for _ in range(n)),
        np.array([[rng.uniform(-8.0, 0.0) for _ in tagset.labels]
                  for _ in range(n)])) for c, n in enumerate((13, 1, 7))]
    for online in (False, True):
        for table, got in zip(tables, forward_backward_corpus(grammar, tables,
                                                              online)):
            assert np.array_equal(got,
                                  forward_backward(grammar, table, online))
            assert np.abs(got - oracle_posteriors(
                grammar, table, online=online)[0]).max() <= 1e-12
    assert viterbi_corpus(grammar, tables) == \
        [oracle_viterbi(grammar, table) for table in tables]


def test_viterbi_compiles_no_product_tables(monkeypatch):
    # Viterbi is max-plus over the transitions; only forward-backward
    # reads exp(T - M) and exp(T - N)
    rng = random.Random(17)
    grammar, _ = rand_instance(rng, 4, 3, 1, GrammarVariant.JOINT)
    tables = [rand_instance(rng, 4, 0, n)[1] for n in (6, 2, 9)]
    built, compile_ = [], hmm._compile
    monkeypatch.setattr(hmm, "_compile", lambda *args, **kwargs:
                        built.append(compile_(*args, **kwargs)) or built[-1])
    paths = viterbi_corpus(grammar, tables)
    forward_backward_corpus(grammar, tables)
    viterbi, full = built
    assert (viterbi.fwd, viterbi.fwd_max, viterbi.bwd, viterbi.bwd_max) == \
        (None,) * 4
    assert full.fwd.size == full.bwd.size == full.trans.size
    assert np.array_equal(viterbi.trans, full.trans)
    # the same paths as Viterbi over the forward-backward compile
    group = list(range(len(tables)))
    assert paths == [([table.labels[j] for j in seq], total)
                     for table, (seq, total) in zip(tables, hmm._group_viterbi(
                         full, group, [table.scores for table in tables]))]


def ladder(rng):
    """A log score 0, 368 or 736 nats down, less up to 12 nats: a sum of two
    steps down lands in or past the float64 subnormal range (745 nats)."""
    return -368.0 * rng.randrange(3) - rng.uniform(0.0, 12.0)


class Ladder:
    """A prior of order 2 or 3 with ladder scores, drawn on first use."""

    def __init__(self, labels, order, rng):
        self.labels, self.order, self.rng = labels, order, rng
        self.scores = {}

    def _score(self, key):
        if key not in self.scores:
            self.scores[key] = ladder(self.rng)
        return self.scores[key]

    def transition_log_prob(self, history, event):
        return self._score((tuple(history)[2 - self.order:], event))

    def end_log_prob(self, history):
        return self._score(tuple(history)[1 - self.order:])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(2, 3), st.integers(2, 4),
       st.booleans(), st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_shifted_products_match_the_oracle_past_underflow(seed, order,
                                                          n_labels, online,
                                                          lengths):
    # transitions and evidence spread over 1,100 nats, so shifted products
    # underflow to 0 or lose digits as subnormals, and the guard must
    # recompute those cells
    rng = random.Random(seed)
    labels = ("S", "Q", "B", "X")[:n_labels]
    grammar = Ladder(labels, order, rng)
    tables = [LikelihoodTable(f"c{c}", labels, tuple(rng.choice("AB")
                                                     for _ in range(n)),
                              np.array([[ladder(rng) for _ in labels]
                                        for _ in range(n)]))
              for c, n in enumerate(lengths)]
    scales = np.array([1.0, 2.0])
    got = hmm._posteriors(hmm._compile(grammar, tables, products=True),
                          [table.scores for table in tables], scales, online)
    for table, posts in zip(tables, got):
        assert np.abs(posts - oracle_posteriors(grammar, table, scales,
                                                online)).max() <= 1e-10


def test_priors_too_large_to_compile_are_refused_before_allocating(
        monkeypatch):
    # an order-8 prior over the 42 bundled acts has 43^7 states per speaker
    # pattern, and these three utterances have three patterns
    def no_arrays(*args):
        raise AssertionError("a transition array was built")

    monkeypatch.setattr(hmm._CompiledPrior, "transition", no_arrays)
    labels = default_tagset().labels
    table = LikelihoodTable("c", labels, ("A", "B", "A"),
                            np.zeros((3, len(labels))))
    cells = 3 * 43 ** 7 * 42
    for decode, tables in ((viterbi_corpus, 1), (forward_backward_corpus, 3)):
        with pytest.raises(ValueError, match=rf"order-8 grammar over 42 "
                                             rf"labels needs {cells * tables} "
                                             rf"cells"):
            decode(Flat(labels, 8), [table])
    # the limit admits an order-4 speaker-blind prior over the 42 acts on a
    # long conversation (four patterns, with the products) and refuses an
    # order-4 speaker-aware one (30 patterns, even for Viterbi)
    assert 4 * 43 ** 3 * 42 * 3 <= hmm._COMPILE_CELLS < 30 * 43 ** 3 * 42


def test_flat_prior_ties_go_to_the_lowest_labels():
    table = LikelihoodTable("c", ("S", "Q", "B"), ("A",) * 3, np.zeros((3, 3)))
    short = LikelihoodTable("d", ("S", "Q", "B"), ("B",), np.zeros((1, 3)))
    for order in range(4):
        got = viterbi_corpus(Flat(table.labels, order), [table, short])
        assert [labels for labels, _ in got] == [["S"] * 3, ["S"]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3000), max_size=12), st.integers(1, 2000),
       st.integers(1, 43), st.integers(1, 1 << 20))
def test_groups_stay_within_the_budget(lengths, per_step, t, budget):
    with decode_budget(budget):
        groups = hmm._groups(lengths, per_step, t)
    assert sorted(k for group in groups for k in group) == \
        list(range(len(lengths)))
    order = [k for group in groups for k in group]
    assert [lengths[k] for k in order] == sorted(lengths)
    for group in groups:
        cost = len(group) * per_step * (max(lengths[k] for k in group) + t)
        assert cost <= budget or len(group) == 1


def test_empty_corpus_decodes_to_nothing():
    assert forward_backward_corpus(StubBigram(), []) == []
    assert viterbi_corpus(StubBigram(), []) == []


class DeadEnd(StubBigram):
    """The two-state chain, but no conversation may end on S."""

    def end_log_prob(self, history):
        return -math.inf if history[-1][0] == "S" else 0.0


def test_batched_errors_match_the_first_per_table_error():
    def table(conv_id, n, dead=(), last=None):
        scores = np.full((n, 2), -1.0)
        scores[list(dead)] = -math.inf
        if last is not None:
            scores[-1] = [0.0, -math.inf] if last == "S" else [-math.inf, 0.0]
        return LikelihoodTable(conv_id, ("S", "Q"), ("A",) * n, scores)

    cases = [
        # the longer conversation comes first in input order but decodes
        # in a later group than the shorter one
        [table("ok", 4), table("c1", 9, dead=(6, 7)), table("c2", 3, dead=(1,))],
        [table("c0", 6, last="S"), table("c1", 2, dead=(0,))],
        [table("c0", 5, dead=(2,)), table("c1", 7, last="S")],
    ]
    grammar = DeadEnd()
    for tables in cases:
        for budget in (1, hmm.DECODE_BUDGET):
            for decode, oracle in ((viterbi_corpus, oracle_viterbi),
                                   (forward_backward_corpus, oracle_posteriors)):
                with pytest.raises(ValueError) as expected:
                    for t in tables:
                        oracle(grammar, t)
                with decode_budget(budget), pytest.raises(ValueError) as got:
                    decode(grammar, tables)
                assert str(got.value) == str(expected.value)


def test_padded_rows_emit_no_warnings():
    rng = random.Random(23)
    for order in (0, 1, 2, 3):
        grammar, _ = rand_instance(rng, 3, order, 1)
        tables = [rand_instance(rng, 3, order, n)[1] for n in (30, 17, 1, 9)]
        tables = [LikelihoodTable(f"c{c}", t.labels, t.speakers, t.scores)
                  for c, t in enumerate(tables)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for online in (False, True):
                forward_backward_corpus(grammar, tables, online)
            viterbi_corpus(grammar, tables)


# ---------------------------------------------------------------------------
# Checkpointed forward-backward against one alpha over the whole group
# ---------------------------------------------------------------------------

def whole_group_gather(comp, group, liks, scales):
    """Pattern rows (n, c), evidence (n, c, b, t) and the positions ending
    at each step, of every step of a group at once."""
    n = max(len(liks[k]) for k in group)
    idx = np.zeros((n, len(group)), dtype=np.intp)
    lik = np.full((n, len(group), len(scales), comp.trans.shape[-1]), -np.inf)
    ending = {}
    for j, k in enumerate(group):
        idx[:len(liks[k]), j] = comp.steps[k]
        lik[:len(liks[k]), j] = liks[k][:, None] * scales[:, None]
        ending.setdefault(len(liks[k]) - 1, []).append(j)
    return idx, lik, ending


def whole_group_forward(comp, idx, lik, alpha):
    """Fill ``alpha`` (n, c, b, size, t+1) with the forward log scores, in
    blocks of steps whose underflow guard is checked together."""
    n, c, b, size, t = alpha.shape[:4] + (alpha.shape[4] - 1,)
    blk = min(hmm._BLOCK, n)
    start = np.full((c, b, t + 1, size), -np.inf)
    start[..., -1, -1] = 0.0
    hist = alpha.reshape(n, c, b, t + 1, size)
    rows = np.empty((c, size, b, t + 1))
    rows_in = rows.transpose(0, 2, 3, 1)
    prods = np.empty((blk, c, size, b, t))
    shifts = np.empty((blk, c, b, size, 1))
    for lo in range(0, n, blk):
        hi = min(lo + blk, n)
        tables = comp.fwd[idx[lo:hi]]
        evid = comp.fwd_max[idx[lo:hi]][:, :, None] + lik[lo:hi, :, :, None]
        first = lo
        while first < hi:
            for i in range(first, hi):
                k = i - lo
                prev = hist[i - 1] if i else start
                shift = np.maximum.reduce(prev, axis=2, keepdims=True,
                                          out=shifts[k].reshape(c, b, 1, size))
                np.maximum(shift, hmm._FLOOR, out=shift)
                np.subtract(prev, shift, out=rows_in)
                np.exp(rows, out=rows)
                np.matmul(rows, tables[k], out=prods[k])
                np.log(prods[k], out=prods[k])
                out = alpha[i, ..., :t]
                np.add(prods[k].transpose(0, 2, 1, 3), evid[k], out=out)
                out += shifts[k]
            found = hmm._underflow(prods[first - lo:hi - lo],
                                   evid[first - lo:].transpose(0, 1, 3, 2, 4),
                                   shifts[first - lo:hi - lo].transpose(
                                       0, 1, 3, 2, 4))
            if found is None:
                break
            i = first + found[0]
            cc, rr, bb, jj = np.nonzero(found[1])
            prev = hist[i - 1] if i else start
            alpha[i, cc, bb, rr, jj] = hmm._logsumexp(
                prev[cc, bb, :, rr] + comp.trans[idx[i, cc], :, rr, jj],
                axis=1) + lik[i, cc, bb, jj]
            first = i + 1


def whole_group_backward(comp, idx, lik, ends, ending, alpha):
    """Add the backward log scores into ``alpha``, block by block from the
    last step."""
    n, c, b, size, t = alpha.shape[:4] + (alpha.shape[4] - 1,)
    blk = min(hmm._BLOCK, n)
    beta = np.broadcast_to(ends, (c, b, size, t + 1))
    alpha[n - 1] += beta
    nxt = np.empty((c, b, size, t))
    rows = np.empty((c, size, b, t))
    rows_in = rows.transpose(0, 2, 1, 3)
    prods = np.empty((blk, c, size, b, t + 1))
    shifts = np.empty((blk, c, b, size, 1))
    betas = np.empty((blk, c, b, size, t + 1))
    hist = betas.reshape(blk, c, b, t + 1, size)
    for hi in range(n - 1, 0, -blk):
        lo = max(hi - blk, 0)
        tables = comp.bwd[idx[hi:lo:-1]]
        evid = comp.bwd_max[idx[hi:lo:-1]][:, :, None]
        first = 0
        while first < hi - lo:
            for k in range(first, hi - lo):
                np.add(lik[hi - k][:, :, None],
                       (betas[k - 1] if k else beta)[..., :t], out=nxt)
                shift = np.maximum.reduce(nxt, axis=-1, keepdims=True,
                                          out=shifts[k])
                np.maximum(shift, hmm._FLOOR, out=shift)
                np.subtract(nxt, shift, out=rows_in)
                np.exp(rows, out=rows)
                np.matmul(rows, tables[k], out=prods[k])
                np.log(prods[k], out=prods[k])
                np.add(prods[k].transpose(0, 2, 3, 1), evid[k], out=hist[k])
                hist[k] += shift.reshape(c, b, 1, size)
                last = ending.get(hi - 1 - k)
                if last:
                    betas[k][last] = ends[last]
            found = hmm._underflow(prods[first:hi - lo],
                                   evid[first:].transpose(0, 1, 4, 2, 3),
                                   shifts[first:hi - lo].transpose(
                                       0, 1, 3, 2, 4))
            if found is None:
                break
            k = first + found[0]
            cc, rr, bb, oo = np.nonzero(found[1])
            np.add(lik[hi - k][:, :, None],
                   (betas[k - 1] if k else beta)[..., :t], out=nxt)
            hist[k, cc, bb, oo, rr] = hmm._logsumexp(
                comp.trans[idx[hi - k, cc], oo, rr] + nxt[cc, bb, rr], axis=1)
            last = ending.get(hi - 1 - k)
            if last:
                betas[k][last] = ends[last]
            first = k + 1
        alpha[lo:hi] += betas[hi - lo - 1::-1]
        beta = betas[hi - lo - 1].copy()


@np.errstate(divide="ignore")
def whole_group_posteriors(comp, group, liks, scales, online):
    """Forward-backward over one group with one alpha (n, c, b, states)
    over every step, normalized in blocks of steps: the oracle of the
    checkpointed decoder, which holds one block of steps and the scores
    before each block."""
    idx, lik, ending = whole_group_gather(comp, group, liks, scales)
    n, c, b, t = lik.shape
    size = comp.trans.shape[2]
    alpha = np.full((n, c, b, size, t + 1), -np.inf)
    whole_group_forward(comp, idx, lik, alpha)
    if not online:
        whole_group_backward(
            comp, idx, lik, comp.end[comp.ends[group]].reshape(c, 1, size,
                                                               t + 1),
            ending, alpha)
    pad = np.arange(n)[:, None] >= [len(liks[k]) for k in group]
    block = max(1, hmm.DECODE_BUDGET // (32 * c * b * size * (t + 1)))
    out = np.empty((n, c, b, t))
    for lo in range(0, n, block):
        rows = hmm._logsumexp(alpha[lo:lo + block], axis=3)[..., :t]
        z = hmm._logsumexp(rows, axis=-1)
        z[pad[lo:lo + block]] = 0.0
        if (z == -np.inf).any():
            raise ValueError("utterance with no admissible label")
        np.exp(rows - z[..., None], out=out[lo:lo + block])
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
def test_checkpointed_posteriors_equal_one_alpha_over_the_group(order):
    # ragged lengths around the 32-step blocks: one block, one step short
    # of and one past a block edge, two blocks and a step
    rng = random.Random(order)
    grammar, _ = rand_instance(rng, 4, order, 1, GrammarVariant.JOINT)
    tables = [rand_instance(rng, 4, 0, n)[1] for n in (1, 31, 32, 33, 65)]
    groups = [[0, 1, 2, 3, 4], [4], [2], [1, 3], [0]]
    comp = hmm._compile(grammar, tables, products=True)
    liks = [table.scores for table in tables]
    for scales in ([1.0], [0.1, 0.7, 2.0]):
        scales = np.array(scales)
        for online in (False, True):
            for group in groups:
                assert np.array_equal(
                    hmm._group_posteriors(comp, group, liks, scales, online),
                    whole_group_posteriors(comp, group, liks, scales,
                                           online))


def test_checkpointed_posteriors_equal_one_alpha_past_underflow():
    # the ladder prior and evidence trip the underflow guard in both
    # sweeps, in blocks before the last too
    rng = random.Random(0)
    labels = ("S", "Q", "B")
    grammar = Ladder(labels, 2, rng)
    tables = [LikelihoodTable(f"c{c}", labels,
                              tuple(rng.choice("AB") for _ in range(n)),
                              np.array([[ladder(rng) for _ in labels]
                                        for _ in range(n)]))
              for c, n in enumerate((70, 33, 1))]
    comp = hmm._compile(grammar, tables, products=True)
    liks = [table.scores for table in tables]
    tripped = []
    underflow = hmm._underflow
    for scales in (np.array([1.0]), np.array([1.0, 2.0])):
        for online in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hmm, "_underflow", lambda *args: tripped.append(
                    underflow(*args)) or tripped[-1])
                got = hmm._group_posteriors(comp, [0, 1, 2], liks, scales,
                                            online)
            assert np.array_equal(got, whole_group_posteriors(
                comp, [0, 1, 2], liks, scales, online))
    # the forward products have t columns, the backward ones t + 1
    assert {found[1].shape[-1] for found in tripped if found} == {3, 4}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_exact_path_on_every_cell_equals_the_oracle(order, monkeypatch):
    # with the guard above every product, each cell of both sweeps whose
    # evidence and shift are finite is summed again exactly, step after
    # step with a rerun from the next: the oracle's recursion, bit for bit
    monkeypatch.setattr(hmm, "_LOG_TINY", np.inf)
    rng = random.Random(order)
    grammar, _ = rand_instance(rng, 4, order, 1, GrammarVariant.JOINT)
    tables = [rand_instance(rng, 4, 0, n)[1] for n in (1, 33, 65)]
    comp = hmm._compile(grammar, tables, products=True)
    liks = [table.scores for table in tables]
    scales = np.array([1.0, 0.5])
    for online in (False, True):
        posts = hmm._group_posteriors(comp, [0, 1, 2], liks, scales, online)
        for j, table in enumerate(tables):
            assert np.array_equal(
                posts[:len(table), j].transpose(1, 0, 2),
                oracle_posteriors(grammar, table, scales, online))
