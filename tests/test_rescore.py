"""Word error rate and n-best rescoring."""

import math
import random

import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialact.corpus import (Conversation, Hypothesis, NBestList, TagSet,
                            Utterance)
from dialact.discourse import DiscourseGrammar, GrammarVariant, train_discourse
from dialact import wordmodels
from dialact.hmm import forward_backward
from dialact.ngram import CompiledModelSet, _logsumexp
from dialact.rescore import (METHODS, WordErrors, _pooled_wer, best_hypothesis,
                             mixture_lm_scores, mixture_posterior_scores,
                             per_da_wer_report, rescore_corpus, wer)
from dialact.wordmodels import (ScoreScaling, smooth_da_lms, train_da_lms,
                                word_likelihood_tables)

TS2 = TagSet(("S", "Q"))


def train_lms(tagset=TS2):
    rows = [("S", ("i", "think", "so")), ("S", ("we", "did", "it")),
            ("S", ("i", "agree", "so")), ("S", ("so", "we", "did")),
            ("Q", ("do", "you", "know")), ("Q", ("what", "was", "that")),
            ("Q", ("do", "we", "know")), ("Q", ("what", "do", "you"))]
    utts = tuple(Utterance(i, "AB"[i % 2], lab, words)
                 for i, (lab, words) in enumerate(rows))
    return train_da_lms([Conversation("train", utts)], tagset, order=2)


def nb(*hyps):
    return NBestList(tuple(Hypothesis(tuple(w.split()), a) for w, a in hyps))


# ---------------------------------------------------------------------------
# Word error rate
# ---------------------------------------------------------------------------

def test_wer_counts_each_edit_kind():
    e = wer("a b c".split(), "x b c d".split())
    assert e == WordErrors(1, 1, 0, 2 / 3)
    assert sum(e[:3]) == 2


def test_wer_single_deletion():
    e = wer("so do you go".split(), "so you go".split())
    assert e == WordErrors(0, 0, 1, 0.25)


def test_wer_prefers_substitution_over_ins_del_pair():
    # "a b" vs "a c" is one substitution, not one insertion + one deletion
    e = wer("a b".split(), "a c".split())
    assert (e.substitutions, e.insertions, e.deletions) == (1, 0, 0)
    e = wer("x y z".split(), "p q r".split())
    assert (e.substitutions, e.insertions, e.deletions) == (3, 0, 0)


def test_wer_edges():
    assert wer("a b".split(), "a b".split()) == WordErrors(0, 0, 0, 0.0)
    assert wer("a b".split(), []) == WordErrors(0, 0, 2, 1.0)
    empty = wer([], "a b".split())
    assert (empty.substitutions, empty.insertions, empty.deletions) == (0, 2, 0)
    assert math.isnan(empty.rate)
    assert math.isnan(wer([], []).rate)


def test_wer_rate_can_exceed_one():
    assert wer("a".split(), "x y z".split()).rate == 3.0


def test_wer_never_beats_length_difference_bound():
    rng = random.Random(8)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        ref = [rng.choice(vocab) for _ in range(rng.randrange(0, 8))]
        hyp = [rng.choice(vocab) for _ in range(rng.randrange(0, 8))]
        e = wer(ref, hyp)
        total = sum(e[:3])
        assert total >= abs(len(ref) - len(hyp))
        assert total <= max(len(ref), len(hyp))
        # symmetry: swapping roles swaps insertions and deletions
        back = wer(hyp, ref)
        assert sum(back[:3]) == total
        assert (back.insertions, back.deletions) == (e.deletions, e.insertions)


# The tuple DP that the one-integer-per-cell wer replaced, kept verbatim as
# the oracle: per cell (total edits, insertions + deletions) plus the
# (sub, ins, del) counts of the best candidate.

def oracle_wer(reference, hypothesis):
    ref = list(reference)
    hyp = list(hypothesis)
    n, m = len(ref), len(hyp)
    # DP over (total edits, insertions + deletions); the second component
    # implements the substitution-over-ins+del preference on ties.
    prev = [(j, j) for j in range(m + 1)]
    prev_counts = [(0, j, 0) for j in range(m + 1)]  # (sub, ins, del)
    for i in range(1, n + 1):
        cur = [(i, i)]
        cur_counts = [(0, 0, i)]
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                cand = [(prev[j - 1], prev_counts[j - 1], (0, 0, 0))]
            else:
                cand = [(add2(prev[j - 1], (1, 0)), prev_counts[j - 1], (1, 0, 0))]
            cand.append((add2(cur[j - 1], (1, 1)), cur_counts[j - 1], (0, 1, 0)))
            cand.append((add2(prev[j], (1, 1)), prev_counts[j], (0, 0, 1)))
            best = min(cand, key=lambda c: c[0])
            cur.append(best[0])
            cur_counts.append(tuple(a + b for a, b in zip(best[1], best[2])))
        prev = cur
        prev_counts = cur_counts
    s, ins, dels = prev_counts[m]
    rate = (s + ins + dels) / n if n else math.nan
    return WordErrors(s, ins, dels, rate)


def add2(pair, step):
    return (pair[0] + step[0], pair[1] + step[1])


@settings(max_examples=600, deadline=None)
@given(st.integers(2, 6).flatmap(lambda size: st.tuples(
    *[st.lists(st.sampled_from("abcdef"[:size]), max_size=12)] * 2)))
@example(([], []))
@example(([], list("ab")))
@example((list("ab"), []))
def test_wer_matches_the_tuple_dp_oracle(pair):
    ref, hyp = pair
    got, want = wer(ref, hyp), oracle_wer(ref, hyp)
    assert got[:3] == want[:3]
    assert all(isinstance(c, int) for c in got[:3])
    assert got.rate == want.rate or (math.isnan(got.rate)
                                     and math.isnan(want.rate))


def corpus_wer(pairs):
    """Alignment counts pooled over (reference, hypothesis) pairs."""
    return _pooled_wer([wer(ref, hyp) for ref, hyp in pairs],
                       sum(len(ref) for ref, _ in pairs))


def test_corpus_wer_pools_error_counts():
    pairs = [("a b c".split(), "a b c".split()),
             ("a b".split(), "a x".split()),
             ("q".split(), "q r".split())]
    pooled = corpus_wer(pairs)
    assert pooled == WordErrors(1, 1, 0, 2 / 6)
    assert math.isnan(corpus_wer([]).rate)


def test_per_da_report_shares_and_sorting():
    refs = {("c", 0): ("a", "b"), ("c", 1): ("c", "d"), ("c", 2): ("e", "f")}
    labels = {("c", 0): "S", ("c", 1): "Q", ("c", 2): "S"}
    base = {("c", 0): ("a", "x"), ("c", 1): ("c", "d"), ("c", 2): ("e", "x")}
    meth = {("c", 0): ("a", "b"), ("c", 1): ("c", "x"), ("c", 2): ("e", "x")}
    rows = per_da_wer_report(refs, labels,
                             {k: wer(refs[k], h) for k, h in base.items()},
                             {k: wer(refs[k], h) for k, h in meth.items()})
    assert [r["label"] for r in rows] == ["S", "Q"]  # improvement first
    assert math.isclose(sum(r["word_share"] for r in rows), 100.0)
    s_row = rows[0]
    assert math.isclose(s_row["baseline_wer"], 0.5)
    assert math.isclose(s_row["method_wer"], 0.25)
    assert math.isclose(s_row["delta"], -0.25)
    with pytest.raises(ValueError):
        per_da_wer_report({}, {}, {}, {})


# ---------------------------------------------------------------------------
# Scoring primitives
# ---------------------------------------------------------------------------

def test_hypothesis_scores_formula():
    lms = train_lms()
    scaling = ScoreScaling(lm_weight=5.0, word_penalty=2.0)
    nbest = nb(("do you", -20.0), ("i think", -25.0))
    scores = scaling.hyp_scores(nbest, CompiledModelSet([lms.fallback]).score(
        [h.words for h in nbest]))[:, 0]
    for i, hyp in enumerate(nbest):
        expect = (hyp.acoustic_score - 2.0 * len(hyp.words)) / 5.0 + \
            CompiledModelSet([lms.fallback]).score([hyp.words])[0, 0]
        assert math.isclose(scores[i], expect, abs_tol=1e-12)


def test_mixture_lm_scores_are_posterior_weighted():
    lms = train_lms()
    nbest = nb(("do you know", -30.0), ("i think so", -30.0))
    post = {"S": 0.3, "Q": 0.7}
    scores = mixture_lm_scores(nbest, lms, post)
    for i, hyp in enumerate(nbest):
        mix = sum(p * math.exp(CompiledModelSet([lms.models[lab]]).score(
                      [hyp.words])[0, 0]) for lab, p in post.items())
        expect = hyp.acoustic_score / 10.0 + math.log(mix)
        assert math.isclose(scores[i], expect, rel_tol=1e-9)


def test_certain_posterior_collapses_mixture_to_one_model():
    lms = train_lms()
    nbest = nb(("do you know", -30.0), ("i think so", -28.0))
    mixed = mixture_lm_scores(nbest, lms, {"S": 0.0, "Q": 1.0})
    single = ScoreScaling().hyp_scores(nbest, CompiledModelSet(
        [lms.models["Q"]]).score([h.words for h in nbest]))[:, 0]
    assert np.allclose(mixed, single, atol=1e-12)


def test_mixture_posterior_rows_are_distributions():
    lms = train_lms()
    nbest = nb(("do you know", -30.0), ("i think so", -31.0), ("what", -29.0))
    for flag in (True, False):
        weights = mixture_posterior_scores(nbest, lms, {"S": 0.4, "Q": 0.6},
                                           per_da_normalizer=flag)
        assert weights.shape == (3,)
        assert math.isclose(weights.sum(), 1.0, abs_tol=1e-9)
        assert (weights >= 0).all()


def test_normalizer_switch_preserves_mixture_lm_ranking():
    lms = train_lms()
    rng = random.Random(12)
    words = ["do", "you", "know", "what", "i", "think", "so", "we"]
    for _ in range(30):
        hyps = [(" ".join(rng.choice(words)
                          for _ in range(rng.randrange(1, 4))),
                 rng.uniform(-40.0, -20.0)) for _ in range(4)]
        nbest = nb(*hyps)
        q = rng.uniform(0.05, 0.95)
        post = {"S": 1.0 - q, "Q": q}
        shared = mixture_posterior_scores(nbest, lms, post,
                                          per_da_normalizer=False)
        mix = mixture_lm_scores(nbest, lms, post)
        assert list(np.argsort(-shared, kind="stable")) == \
            list(np.argsort(-mix, kind="stable"))


def test_massless_posterior_gives_minus_inf_mixture_scores():
    # a sum over no labels: the empty axis gives -inf, with no warning
    lms = train_lms()
    nbest = nb(("do you know", -30.0), ("i think so", -28.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = mixture_lm_scores(nbest, lms, {"S": 0.0, "Q": 0.0})
    assert scores.tolist() == [-math.inf, -math.inf]


def test_mixture_posterior_rejects_massless_posterior():
    lms = train_lms()
    with pytest.raises(ValueError, match="mass"):
        mixture_posterior_scores(nb(("do you", -20.0)), lms,
                                 {"S": 0.0, "Q": 0.0})


def test_best_hypothesis_tie_breaks_on_words():
    nbest = nb(("b b", -10.0), ("a a", -10.0))
    assert best_hypothesis(nbest, [1.5, 1.5]) == 1  # "a a" < "b b"
    assert best_hypothesis(nbest, [1.5, 1.0]) == 0
    flipped = nb(("a a", -10.0), ("b b", -10.0))
    assert flipped.hypotheses[best_hypothesis(flipped, [2.0, 2.0])].words == \
        nbest.hypotheses[best_hypothesis(nbest, [2.0, 2.0])].words


# ---------------------------------------------------------------------------
# Corpus driver
# ---------------------------------------------------------------------------

def eval_conv(conv_id="e"):
    # acoustics tuned so every utterance's DA posterior favors the truth,
    # yet the pooled baseline LM still picks the wrong words at index 2
    rows = [
        ("A", "S", "i think so",
         [("do you know", -15.0), ("i think so", -5.0)]),
        ("B", "Q", "do you know",
         [("we did it", -10.0), ("do you know", -10.8)]),
        ("A", "S", "we did it",
         [("we did it", -10.0), ("what was that", -18.0)]),
    ]
    utts = []
    for i, (spk, lab, words, hyps) in enumerate(rows):
        utts.append(Utterance(i, spk, lab, tuple(words.split()),
                              nbest=nb(*hyps)))
    return Conversation(conv_id, tuple(utts))


def test_rescore_corpus_runs_all_methods():
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    result = rescore_corpus([eval_conv()], grammar, lms)
    assert set(result.methods) == set(METHODS)
    assert result.skipped == []
    for name, mres in result.methods.items():
        assert set(mres.chosen) == set(result.references)
        if name == "mixture_of_posteriors":
            assert mres.perplexity is None
        else:
            assert mres.perplexity > 1.0
    # posteriors are distributions over the tag set
    for post in result.posteriors.values():
        assert math.isclose(sum(post.values()), 1.0, abs_tol=1e-9)


def test_oracle_never_loses_to_picking_blind():
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    result = rescore_corpus([eval_conv()], grammar, lms)
    oracle = result.methods["oracle"].wer.rate
    baseline = result.methods["baseline"].wer.rate
    assert oracle < baseline
    # the class LM recovers "we did it"; the pooled LM prefers the
    # question words despite their acoustic handicap
    assert oracle == 0.0
    assert result.methods["baseline"].chosen[("e", 2)] == \
        ("what", "was", "that")


def test_identical_class_lms_reduce_every_method_to_baseline():
    # one class in the tag set: every model IS the fallback's training data
    ts1 = TagSet(("S",))
    utts = tuple(Utterance(i, "AB"[i % 2], "S", words) for i, words in
                 enumerate([("i", "think", "so"), ("do", "you", "know"),
                            ("we", "did", "it")]))
    lms = train_da_lms([Conversation("t", utts)], ts1, order=2)
    grammar = DiscourseGrammar.uniform(ts1, GrammarVariant.DA_ONLY)
    conv = Conversation("e", (
        Utterance(0, "A", "S", ("i", "think", "so"),
                  nbest=nb(("do you know", -10.0), ("i think so", -10.4))),))
    result = rescore_corpus([conv], grammar, lms)
    expect = result.methods["baseline"].chosen
    for name in ("one_best", "oracle", "mixture_of_lms"):
        assert result.methods[name].chosen == expect


def test_true_label_posterior_makes_one_best_match_oracle():
    # the fixture's posteriors all favor the truth, so one_best scores with
    # the same class model as oracle and must choose identically
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    result = rescore_corpus([eval_conv()], grammar, lms)
    for key, post in result.posteriors.items():
        assert post[result.labels[key]] > 0.5
    assert result.methods["one_best"].chosen == result.methods["oracle"].chosen
    assert result.methods["one_best"].perplexity == \
        result.methods["oracle"].perplexity


def test_rescore_skips_and_reports_bare_utterances():
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    conv = Conversation("m", (
        Utterance(0, "A", "S", ("i", "think", "so"),
                  nbest=nb(("i think so", -9.0))),
        Utterance(1, "B", "Q", ("do", "you", "know")),
    ))
    result = rescore_corpus([conv], grammar, lms)
    assert result.skipped == [("m", 1)]
    assert set(result.references) == {("m", 0)}


def test_oracle_requires_labels():
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    conv = Conversation("u", (
        Utterance(0, "A", None, ("i", "think", "so"),
                  nbest=nb(("i think so", -9.0))),))
    with pytest.raises(ValueError, match="label"):
        rescore_corpus([conv], grammar, lms, methods=("oracle",))
    # other methods run fine without labels
    result = rescore_corpus([conv], grammar, lms,
                            methods=("baseline", "mixture_of_lms"))
    assert result.labels == {}


def test_unknown_method_rejected():
    lms = train_lms()
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    with pytest.raises(ValueError, match="method"):
        rescore_corpus([eval_conv()], grammar, lms, methods=("magic",))


def test_separate_rescoring_lms_are_used_for_scores():
    # posteriors come from the first set, hypothesis scores from the second:
    # make the second set prefer the opposite hypothesis and watch the pick
    lms = train_lms()
    ts1 = TagSet(("S",))
    swapped_utts = tuple(Utterance(i, "AB"[i % 2], "S", words)
                         for i, words in enumerate(
                             [("do", "you", "know"), ("what", "was", "that")]))
    prefer_q = train_da_lms([Conversation("t", swapped_utts)], ts1, order=2)
    conv = Conversation("e", (
        Utterance(0, "A", "S", ("i", "think", "so"),
                  nbest=nb(("i think so", -5.0), ("do you know", -9.0))),))
    grammar = DiscourseGrammar.uniform(TS2, GrammarVariant.DA_ONLY)
    own = rescore_corpus([conv], grammar, lms, methods=("baseline",))
    other = rescore_corpus([conv], grammar, lms, rescoring_lms=prefer_q,
                           methods=("baseline",))
    assert own.methods["baseline"].chosen[("e", 0)] == ("i", "think", "so")
    assert other.methods["baseline"].chosen[("e", 0)] == ("do", "you", "know")


# ---------------------------------------------------------------------------
# Shared per-utterance scores
# ---------------------------------------------------------------------------

POOL = ["i", "think", "so", "we", "did", "it", "do", "you", "know", "what",
        "was", "that", "agree", "zebra"]


def smoothed_setup():
    """Three classes, one without training data (its model is the
    fallback), the EM-smoothed rescoring set and an order-2 grammar."""
    ts3 = TagSet(("S", "Q", "B"))
    heldout = Conversation("h", (
        Utterance(0, "A", "S", ("i", "think", "it")),
        Utterance(1, "B", "Q", ("what", "do", "we", "know"))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the empty class warns
        lms = train_lms(ts3)
        smoothed, _ = smooth_da_lms(lms, [heldout])
    assert smoothed.models["B"] is lms.fallback
    grammar = train_discourse([eval_conv()], ts3, 2,
                              GrammarVariant.SPEAKER_CONDITIONED)
    return lms, smoothed, grammar


def random_corpus(rng, n_convs=4):
    """Random conversations whose n-best lists repeat word strings, within
    an utterance and across utterances, and often contain the reference."""
    convs = []
    for c in range(n_convs):
        utts = []
        for i in range(rng.randint(1, 5)):
            ref = tuple(rng.choice(POOL) for _ in range(rng.randint(1, 4)))
            hyps = [(ref if rng.random() < 0.5 else
                     tuple(rng.choice(POOL) for _ in range(rng.randint(0, 4))),
                     rng.uniform(-30.0, -10.0))
                    for _ in range(rng.randint(1, 5))]
            hyps.append((hyps[0][0], rng.uniform(-30.0, -10.0)))
            utts.append(Utterance(i, rng.choice("AB"), rng.choice("SQB"), ref,
                                  nbest=NBestList(tuple(
                                      Hypothesis(w, a) for w, a in hyps))))
        convs.append(Conversation(f"r{c}", tuple(utts)))
    return convs


def rescore_by_primitives(convs, grammar, lms, rescoring, scaling):
    """Each method rescored through the public per-method primitives, every
    hypothesis and reference scored afresh for every method."""
    posts = {}
    for conv in convs:
        table = word_likelihood_tables(lms, [conv], "nbest", scaling)[0]
        for row, utt in zip(forward_backward(grammar, table), conv):
            posts[(conv.conv_id, utt.index)] = {
                lab: float(p) for lab, p in zip(lms.labels, row)}
    utts = [((conv.conv_id, u.index), u) for conv in convs for u in conv]
    out = {}
    for method in METHODS:
        chosen, log_total, tokens = {}, 0.0, 0
        for key, utt in utts:
            post, nbest, words = posts[key], utt.nbest, utt.words
            top = max(lms.labels, key=lambda lab: post[lab])
            model = {"baseline": rescoring.fallback,
                     "one_best": rescoring.models[top],
                     "oracle": rescoring.models[utt.da_label]}.get(method)
            if model is not None:
                scores = scaling.hyp_scores(nbest, CompiledModelSet(
                    [model]).score([h.words for h in nbest]))[:, 0]
                log_total += CompiledModelSet([model]).score([words])[0, 0]
            elif method == "mixture_of_lms":
                scores = mixture_lm_scores(nbest, rescoring, post, scaling)
                log_total += float(_logsumexp(np.array([
                    math.log(post[lab])
                    + CompiledModelSet([rescoring.models[lab]]).score(
                        [words])[0, 0]
                    for lab in rescoring.labels if post[lab] > 0.0]), axis=0))
            else:
                scores = mixture_posterior_scores(nbest, rescoring, post,
                                                  scaling)
            chosen[key] = nbest.hypotheses[best_hypothesis(nbest,
                                                           scores)].words
            tokens += len(words) + 1
        ppl = (None if method == "mixture_of_posteriors"
               else math.exp(-log_total / tokens))
        out[method] = (chosen, corpus_wer([(u.words, chosen[k])
                                           for k, u in utts]), ppl)
    return posts, out


def test_rescore_corpus_equals_the_per_method_primitives(monkeypatch):
    lms, smoothed, grammar = smoothed_setup()
    rng = random.Random(23)
    cells = wordmodels._GROUP_CELLS
    for trial in range(6):
        # odd trials score every utterance in a group of its own, so each
        # conversation spans groups
        monkeypatch.setattr(wordmodels, "_GROUP_CELLS", 1 if trial % 2
                            else cells)
        convs = random_corpus(rng)
        scaling = ScoreScaling(rng.uniform(4.0, 12.0), rng.uniform(0.0, 2.0))
        result = rescore_corpus(convs, grammar, lms, smoothed, METHODS,
                                scaling)
        posts, expected = rescore_by_primitives(convs, grammar, lms, smoothed,
                                                scaling)
        assert result.posteriors == posts
        for method, (chosen, errors, ppl) in expected.items():
            got = result.methods[method]
            assert got.chosen == chosen
            assert got.wer == errors
            assert got.perplexity == ppl


def test_each_sequence_is_scored_once_per_model_and_utterance(monkeypatch):
    lms, smoothed, grammar = smoothed_setup()
    compiled, calls = [], Counter()
    init, score = CompiledModelSet.__init__, CompiledModelSet.score

    def recording(self, scorers):
        compiled.append({id(s) for s in scorers})
        init(self, scorers)

    def counting(self, sequences):
        calls.update(tuple(seq) for seq in sequences)
        return score(self, sequences)

    monkeypatch.setattr(CompiledModelSet, "__init__", recording)
    monkeypatch.setattr(CompiledModelSet, "score", counting)
    convs = random_corpus(random.Random(5), n_convs=6)
    rescore_corpus(convs, grammar, lms, smoothed)
    # one compiled set holds every rescoring model, and each call to it
    # scores every sequence under each of its models once (the grammar
    # reads its transition rows through sets of its own model)
    compiled = [ids for ids in compiled if ids != {id(grammar.model)}]
    assert len(compiled) == 1
    assert {id(m) for m in (smoothed.fallback, *smoothed.models.values())} \
        <= compiled[0]
    # utterances in which each word string occurs (hypothesis or reference)
    utterances = Counter(seq for conv in convs for u in conv
                         for seq in {u.words, *(h.words for h in u.nbest)})
    assert set(calls) == set(utterances)
    for seq, n in calls.items():
        assert n <= utterances[seq], (seq, n)
