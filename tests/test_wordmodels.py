"""Per-class word models: training, smoothing, evidence modes."""

import math
import random

import numpy as np
import pytest

from dialact.corpus import (Conversation, Hypothesis, NBestList, TagSet,
                            Utterance)
from dialact.discourse import (DiscourseGrammar, GrammarVariant,
                               train_discourse)
from dialact import wordmodels
from dialact.ngram import CompiledModelSet, InterpolatedModel, _logsumexp
from dialact.wordmodels import (MODES, ScoreScaling, classify_from_words,
                                smooth_da_lms, train_da_lms,
                                word_likelihood_tables)

TS2 = TagSet(("S", "Q"))

STATEMENTS = [("i", "think", "so"), ("we", "did", "it"), ("i", "agree"),
              ("so", "we", "did"), ("it", "did", "work"), ("we", "think", "so")]
QUESTIONS = [("do", "you", "know"), ("what", "was", "that"), ("can", "you"),
             ("do", "we", "know"), ("what", "do", "you", "think"),
             ("was", "that", "you")]


def mk_corpus():
    utts = []
    i = 0
    for words in STATEMENTS:
        utts.append(Utterance(i, "AB"[i % 2], "S", words))
        i += 1
    for words in QUESTIONS:
        utts.append(Utterance(i, "AB"[i % 2], "Q", words))
        i += 1
    return [Conversation("train", tuple(utts))]


def with_nbest(conv_id, rows):
    """rows: list of (speaker, label, words, nbest hyps or None)."""
    utts = []
    for i, (spk, lab, words, hyps) in enumerate(rows):
        nb = NBestList(tuple(Hypothesis(tuple(w), a) for w, a in hyps)) \
            if hyps is not None else None
        utts.append(Utterance(i, spk, lab, tuple(words), nbest=nb))
    return Conversation(conv_id, tuple(utts))


def true_words_evidence(lms, words):
    """Every label's true-words evidence for one utterance, by label."""
    conv = Conversation("u", (Utterance(0, "A", None, tuple(words)),))
    table = word_likelihood_tables(lms, [conv], "true_words")[0]
    return dict(zip(table.labels, table.scores[0].tolist()))


def nbest_evidence(lms, hyps, label, scaling=ScoreScaling()):
    """One label's n-best evidence for one utterance with hypotheses
    ``hyps``."""
    conv = Conversation("u", (Utterance(0, "A", None, (),
                                        nbest=NBestList(tuple(hyps))),))
    table = word_likelihood_tables(lms, [conv], "nbest", scaling)[0]
    return float(table.scores[0, table.labels.index(label)])


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_class_models_separate_their_classes():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    for words in [("do", "you", "know"), ("what", "was", "that")]:
        evidence = true_words_evidence(lms, words)
        assert evidence["Q"] > evidence["S"]
    for words in [("i", "think", "so"), ("we", "did", "it")]:
        evidence = true_words_evidence(lms, words)
        assert evidence["S"] > evidence["Q"]


def test_shared_vocabulary_across_classes():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    assert lms.models["S"].vocab == lms.models["Q"].vocab == lms.fallback.vocab
    # cross-class words score finitely under every model via backoff
    assert true_words_evidence(lms, ("what", "agree"))["S"] > -math.inf


def test_empty_class_shares_the_fallback():
    ts3 = TagSet(("S", "Q", "Z"))
    with pytest.warns(UserWarning, match="'Z'"):
        lms = train_da_lms(mk_corpus(), ts3, order=2)
    assert lms.models["Z"] is lms.fallback
    assert true_words_evidence(lms, ("i", "agree"))["Z"] == \
        CompiledModelSet([lms.fallback]).score([("i", "agree")])[0, 0]


def test_no_labeled_utterances_rejected():
    conv = Conversation("c", (Utterance(0, "A", None, ("hi",)),))
    with pytest.raises(ValueError):
        train_da_lms([conv], TS2)


def test_collapsed_labels_share_one_model():
    ts = TagSet(("S", "Q"), collapsed=(("Q", ("Yes-No-Question",)),))
    utts = tuple(Utterance(i, "A", lab, words) for i, (lab, words) in enumerate(
        [("S", ("i", "agree")), ("Yes-No-Question", ("do", "you"))]))
    lms = train_da_lms([Conversation("c", utts)], ts, order=2)
    assert set(lms.models) == {"S", "Q"}
    evidence = true_words_evidence(lms, ("do", "you"))
    assert evidence["Q"] > evidence["S"]


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

def test_smoothing_weights_are_probabilities():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    heldout = [Conversation("h", (
        Utterance(0, "A", "S", ("we", "agree")),
        Utterance(1, "B", "Q", ("do", "you", "think")),
    ))]
    smoothed, weights = smooth_da_lms(lms, heldout)
    for lab in TS2.labels:
        assert 0.0 <= weights[lab] <= 1.0
        assert isinstance(smoothed.models[lab], InterpolatedModel)


def test_smoothing_without_heldout_defaults_with_warning():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    with pytest.warns(UserWarning, match="0.5"):
        smoothed, weights = smooth_da_lms(lms, [])
    assert weights == {"S": 0.5, "Q": 0.5}
    # the interpolation really is the even mixture
    words = ("do", "you", "know")
    mix = 0.5 * math.exp(CompiledModelSet([lms.models["Q"]]).score(
        [words])[0, 0]) + 0.5 * math.exp(CompiledModelSet(
            [lms.fallback]).score([words])[0, 0])
    assert math.isclose(math.exp(CompiledModelSet(
        [smoothed.models["Q"]]).score([words])[0, 0]), mix, rel_tol=1e-9)


def test_smoothing_skips_fallback_shared_classes():
    ts3 = TagSet(("S", "Q", "Z"))
    with pytest.warns(UserWarning):
        lms = train_da_lms(mk_corpus(), ts3, order=2)
    with pytest.warns(UserWarning):
        smoothed, weights = smooth_da_lms(lms, [])
    assert weights["Z"] == 0.0
    assert smoothed.models["Z"] is lms.fallback


# ---------------------------------------------------------------------------
# N-best scoring identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lm_weight,word_penalty", [
    (math.nan, 0.0), (math.inf, 0.0), (10.0, math.nan), (10.0, math.inf),
    (10.0, -math.inf)])
def test_scaling_rejects_non_finite_values(lm_weight, word_penalty):
    with pytest.raises(ValueError, match="finite"):
        ScoreScaling(lm_weight, word_penalty)


def test_single_hypothesis_sum_is_the_score():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    scaling = ScoreScaling(lm_weight=8.0, word_penalty=0.5)
    words = ("do", "you", "know")
    nb = [Hypothesis(words, -42.0)]
    expect = (-42.0 - 0.5 * 3) / 8.0 + \
        CompiledModelSet([lms.models["Q"]]).score([words])[0, 0]
    got = nbest_evidence(lms, nb, "Q", scaling)
    assert math.isclose(got, expect, rel_tol=0, abs_tol=1e-12)


def test_duplicate_hypothesis_adds_ln2():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    words = ("can", "you")
    one = [Hypothesis(words, -10.0)]
    two = [Hypothesis(words, -10.0), Hypothesis(words, -10.0)]
    assert math.isclose(nbest_evidence(lms, two, "Q"),
                        nbest_evidence(lms, one, "Q") + math.log(2),
                        abs_tol=1e-12)


def test_hypothesis_order_does_not_change_the_sum():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    rng = random.Random(4)
    hyps = [Hypothesis(tuple(rng.choice(["do", "you", "know", "what"])
                             for _ in range(rng.randrange(1, 4))),
                       rng.uniform(-60.0, -20.0)) for _ in range(6)]
    base = nbest_evidence(lms, hyps, "Q")
    for _ in range(5):
        rng.shuffle(hyps)
        assert math.isclose(nbest_evidence(lms, hyps, "Q"), base,
                            abs_tol=1e-12)


def test_log_sum_matches_linear_resummation():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    scaling = ScoreScaling()
    hyps = [Hypothesis(("do", "you"), -30.0), Hypothesis(("can", "you"), -31.0),
            Hypothesis(("what",), -29.5)]
    linear = sum(math.exp(scaling.hyp_score(
        h.acoustic_score, CompiledModelSet([lms.models["Q"]]).score(
            [h.words])[0, 0], len(h.words))) for h in hyps)
    got = nbest_evidence(lms, hyps, "Q", scaling)
    assert math.isclose(got, math.log(linear), rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Evidence modes
# ---------------------------------------------------------------------------

def test_nbest_of_truth_at_score_zero_equals_true_words():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    conv = with_nbest("c", [
        ("A", "S", ("i", "agree"), [(("i", "agree"), 0.0)]),
        ("B", "Q", ("do", "you"), [(("do", "you"), 0.0)]),
    ])
    truth = word_likelihood_tables(lms, [conv], "true_words")[0]
    nbest = word_likelihood_tables(lms, [conv], "nbest")[0]
    assert np.allclose(nbest.scores, truth.scores, atol=1e-12)


def test_one_best_scores_the_top_hypothesis_as_truth():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    # recognizer got it wrong: truth differs from the rank-1 hypothesis
    conv = with_nbest("c", [
        ("A", "S", ("i", "agree"),
         [(("do", "you"), -5.0), (("i", "agree"), -9.0)]),
    ])
    table = word_likelihood_tables(lms, [conv], "one_best")[0]
    for j, lab in enumerate(table.labels):
        assert math.isclose(
            table.scores[0, j],
            CompiledModelSet([lms.models[lab]]).score([("do", "you")])[0, 0],
            abs_tol=1e-12)
    # no acoustic term leaks in: identical under any scaling
    other = word_likelihood_tables(lms, [conv], "one_best",
                                   ScoreScaling(3.0, 7.0))[0]
    assert np.array_equal(other.scores, table.scores)


def test_tables_equal_the_per_utterance_definitions_exactly():
    # every mode, smoothed and unsmoothed models, word strings repeated
    # within and across utterances and conversations, one unknown word
    lms = train_da_lms(mk_corpus(), TS2, order=3)
    smoothed, _ = smooth_da_lms(lms, [Conversation("h", (
        Utterance(0, "A", "S", ("we", "agree")),
        Utterance(1, "B", "Q", ("do", "you", "think"))))])
    hyps = [(("do", "you"), -5.0), (("i", "agree"), -9.0),
            (("do", "you"), -7.5), (("zebra", "so", "we", "did"), -6.0)]
    convs = [with_nbest("c", [("A", "S", ("i", "agree"), hyps),
                              ("B", "Q", ("do", "you"), hyps[1:])]),
             with_nbest("d", [("A", "Q", ("do", "you"), hyps[::-1])])]
    scaling = ScoreScaling(7.0, 0.5)
    for da_lms in (lms, smoothed):
        for mode in MODES:
            tables = word_likelihood_tables(da_lms, convs, mode, scaling)
            for table, conv in zip(tables, convs):
                for i, utt in enumerate(conv):
                    for j, lab in enumerate(table.labels):
                        model = da_lms.models[lab]
                        if mode == "nbest":
                            lm = np.array([CompiledModelSet([model]).score(
                                [h.words])[0] for h in utt.nbest])
                            want = _logsumexp(scaling.hyp_scores(
                                utt.nbest, lm), axis=0)[0]
                        else:
                            words = (utt.words if mode == "true_words"
                                     else utt.nbest.first.words)
                            want = CompiledModelSet([model]).score(
                                [words])[0, 0]
                        assert table.scores[i, j] == want, (mode, i, lab)


def test_tables_are_scored_in_bounded_groups_of_conversations(monkeypatch):
    lms = train_da_lms(mk_corpus(), TS2, order=3)
    rng = random.Random(3)
    words = [w for s in STATEMENTS + QUESTIONS for w in s]

    def hyps():
        return [(tuple(rng.choice(words) for _ in range(rng.randint(1, 5))),
                 -float(rng.randint(1, 9))) for _ in range(4)]

    # at most 6 utterances x 4 hypotheses x 2 labels = 48 scores each, and
    # one conversation of 40 utterances (320 scores) that spans groups
    convs = [with_nbest(f"c{k}", [("AB"[i % 2], "S", (), hyps())
                                  for i in range(rng.randint(1, 6))])
             for k in range(30)]
    convs.insert(12, with_nbest("long", [("AB"[i % 2], "S", (), hyps())
                                         for i in range(40)]))
    whole = word_likelihood_tables(lms, convs, "nbest")
    cells = []
    score = CompiledModelSet.score

    def recording(self, sequences):
        cells.append(len(sequences) * self.n_scorers)
        return score(self, sequences)

    monkeypatch.setattr(CompiledModelSet, "score", recording)
    monkeypatch.setattr(wordmodels, "_GROUP_CELLS", 64)
    grouped = word_likelihood_tables(lms, convs, "nbest")
    assert len(cells) > 5 and max(cells) <= 64
    assert [t.conversation_id for t in grouped] == \
        [c.conv_id for c in convs]
    for a, b in zip(whole, grouped):
        assert np.array_equal(a.scores, b.scores)


def test_group_budget_counts_the_event_window_table(monkeypatch):
    lms = train_da_lms(mk_corpus(), TS2, order=3)
    rng = random.Random(4)
    words = [w for s in STATEMENTS + QUESTIONS for w in s]
    # each conversation alone: at most 24 sequences of at most 5 words,
    # 24 * (5 + 2) * 2 = 336 cells of scores and windows
    convs = [with_nbest(f"c{k}", [("AB"[i % 2], "S", (), [
        (tuple(rng.choice(words) for _ in range(rng.randint(1, 5))), -1.0)
        for _ in range(4)]) for i in range(rng.randint(1, 6))])
        for k in range(30)]
    cells = []
    event_table = CompiledModelSet._event_table

    def recording(self, seqs):
        out = event_table(self, seqs)
        # the window table and the scores it fills, alive together
        cells.append(out[0].size + len(seqs) * self.n_scorers)
        return out

    monkeypatch.setattr(CompiledModelSet, "_event_table", recording)
    whole = word_likelihood_tables(lms, convs, "nbest")
    assert max(cells) > 400
    cells.clear()
    monkeypatch.setattr(wordmodels, "_GROUP_CELLS", 400)
    grouped = word_likelihood_tables(lms, convs, "nbest")
    assert len(cells) > 5 and max(cells) <= 400
    for a, b in zip(whole, grouped):
        assert np.array_equal(a.scores, b.scores)


def test_modes_requiring_nbest_reject_bare_utterances():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    conv = with_nbest("c", [("A", "S", ("i", "agree"), None)])
    for mode in ("nbest", "one_best"):
        with pytest.raises(ValueError, match="n-best"):
            word_likelihood_tables(lms, [conv], mode)
    with pytest.raises(ValueError, match="mode"):
        word_likelihood_tables(lms, [conv], "guess")


def test_uniform_grammar_reduces_to_per_utterance_argmax():
    lms = train_da_lms(mk_corpus(), TS2, order=2)
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    test = [Conversation("t", tuple(
        Utterance(i, "AB"[i % 2], None, words) for i, words in enumerate(
            [("do", "you", "know"), ("i", "think", "so"), ("what", "was", "that")])))]
    labels = classify_from_words(lms, grammar, test)
    table = word_likelihood_tables(lms, test)[0]
    argmax = [table.labels[j] for j in np.argmax(table.scores, axis=1)]
    assert labels == [argmax] and argmax == ["Q", "S", "Q"]


def test_sequence_grammar_can_overrule_weak_word_evidence():
    # an alternating-label corpus: the bigram grammar strongly expects a
    # switch after each utterance and flips an ambiguous second utterance
    labels = ("S", "Q")
    tagset = TagSet(labels)
    convs = []
    for c in range(10):
        # questions say "yes" now and then, so the word cue stays weak
        utts = tuple(Utterance(i, "AB"[i % 2], labels[i % 2],
                               ("yes",) if i % 2 == 0 or (c + i) % 3 == 0
                               else ("why",))
                     for i in range(8))
        convs.append(Conversation(f"g{c}", utts))
    lms = train_da_lms(convs, tagset, order=2)
    flat = DiscourseGrammar.uniform(tagset, GrammarVariant.DA_ONLY)
    seq_grammar = train_discourse(convs, tagset, 2, GrammarVariant.DA_ONLY)
    # words "yes yes" claim S twice; the grammar has never seen S after S
    probe = [Conversation("p", (Utterance(0, "A", None, ("yes",)),
                                Utterance(1, "B", None, ("yes",))))]
    assert classify_from_words(lms, flat, probe) == [["S", "S"]]
    assert classify_from_words(lms, seq_grammar, probe) == [["S", "Q"]]


def test_mode_list_is_frozen():
    assert MODES == ("true_words", "nbest", "one_best")
