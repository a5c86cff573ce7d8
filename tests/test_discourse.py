"""Discourse grammars: event encoding, conditioning variants, perplexity."""

import math
import random

import pytest

from dialact.corpus import Conversation, CorpusError, TagSet, Utterance
from dialact.discourse import (PAIR_SEP, DiscourseGrammar, GrammarVariant,
                               discourse_perplexity, load_discourse,
                               save_discourse, train_discourse)
from dialact.ngram import END, START

TS3 = TagSet(("S", "Q", "B"))


def mk_conv(conv_id, seq):
    return Conversation(conv_id, tuple(
        Utterance(i, spk, lab, ("w",)) for i, (lab, spk) in enumerate(seq)))


def sample_convs():
    return [mk_conv("c1", [("S", "A"), ("B", "B"), ("Q", "A"), ("S", "B")]),
            mk_conv("c2", [("Q", "A"), ("S", "B"), ("B", "A")])]


# ---------------------------------------------------------------------------
# Event encoding
# ---------------------------------------------------------------------------

def test_joint_events_are_pair_tokens():
    conv = mk_conv("c", [("Q", "A"), ("S", "B")])
    g = train_discourse([conv], TS3, 2, GrammarVariant.JOINT)
    vocab = g.model.vocab
    assert f"Q{PAIR_SEP}A" in vocab and f"S{PAIR_SEP}B" in vocab
    assert END in vocab
    # start/end are speakerless: no paired variant exists
    assert not any(tok.startswith(START) and PAIR_SEP in tok for tok in vocab)
    # the single observed bigram: P(S·B | Q·A) reflects one count
    lp = g.transition_log_prob([("Q", "A")], ("S", "B"))
    assert math.exp(lp) > 0.3


def test_da_only_strips_speakers():
    conv = mk_conv("c", [("Q", "A"), ("S", "B")])
    g = train_discourse([conv], TS3, 2, GrammarVariant.DA_ONLY)
    assert "Q" in g.model.vocab and "S" in g.model.vocab
    assert not any(PAIR_SEP in tok for tok in g.model.vocab)
    # speakers are ignored entirely
    assert g.transition_log_prob([("Q", "A")], ("S", "A")) == \
        g.transition_log_prob([("Q", "B")], ("S", "B"))


def test_uses_speakers_only_for_pair_views_with_a_model():
    for variant in GrammarVariant:
        trained = train_discourse(sample_convs(), TS3, 2, variant)
        assert trained.uses_speakers == (variant != GrammarVariant.DA_ONLY)
        assert not DiscourseGrammar.uniform(TS3, variant).uses_speakers
    with pytest.raises(AttributeError):
        trained.uses_speakers = True


def test_unlabeled_utterance_rejected():
    conv = Conversation("c", (Utterance(0, "A", None, ("w",)),))
    with pytest.raises(CorpusError):
        train_discourse([conv], TS3, 2, GrammarVariant.DA_ONLY)


def test_order_zero_forbidden_for_training():
    with pytest.raises(ValueError):
        train_discourse(sample_convs(), TS3, 0, GrammarVariant.DA_ONLY)


def test_bigram_reproduces_adjacency_statistic():
    # 30% of questions followed by answers in the data -> P(ans|q) near 0.30
    rng = random.Random(13)
    ts = TagSet(("Q", "Ans", "S"))
    convs = []
    for c in range(60):
        seq = []
        lab = "S"
        for i in range(40):
            spk = "AB"[i % 2]
            seq.append((lab, spk))
            if lab == "Q":
                lab = "Ans" if rng.random() < 0.30 else "S"
            else:
                lab = "Q" if rng.random() < 0.4 else "S"
        convs.append(mk_conv(f"c{c}", seq))
    g = train_discourse(convs, ts, 2, GrammarVariant.DA_ONLY)
    got = math.exp(g.transition_log_prob([("Q", "A")], ("Ans", "B")))
    assert got == pytest.approx(0.30, abs=0.03)


# ---------------------------------------------------------------------------
# Conditioning variants
# ---------------------------------------------------------------------------

def test_conditional_rows_normalize_per_speaker():
    g = train_discourse(sample_convs(), TS3, 2,
                        GrammarVariant.SPEAKER_CONDITIONED)
    for hist in ([], [("S", "A")], [("Q", "B")], [("B", "A"), ("S", "B")]):
        for spk in ("A", "B"):
            total = sum(math.exp(g.transition_log_prob(hist, (lab, spk)))
                        for lab in TS3.labels)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_conditional_equals_joint_minus_speaker_normalizer():
    convs = sample_convs()
    gj = train_discourse(convs, TS3, 2, GrammarVariant.JOINT)
    gc = train_discourse(convs, TS3, 2, GrammarVariant.SPEAKER_CONDITIONED)
    for hist in ([], [("S", "A")], [("Q", "A"), ("B", "B")]):
        for spk in ("A", "B"):
            norm = math.log(sum(
                math.exp(gj.transition_log_prob(hist, (lab, spk)))
                for lab in TS3.labels))
            for lab in TS3.labels:
                want = gj.transition_log_prob(hist, (lab, spk)) - norm
                got = gc.transition_log_prob(hist, (lab, spk))
                assert got == pytest.approx(want, abs=1e-9)


def test_conditional_perplexity_never_exceeds_joint():
    convs = sample_convs()
    for order in (1, 2, 3):
        pj = discourse_perplexity(
            train_discourse(convs, TS3, order, GrammarVariant.JOINT), convs)
        pc = discourse_perplexity(
            train_discourse(convs, TS3, order,
                            GrammarVariant.SPEAKER_CONDITIONED), convs)
        assert pc <= pj + 1e-9


def test_speaker_habits_make_conditioning_pay():
    # speaker A mostly makes statements, B mostly backchannels
    rng = random.Random(14)
    convs = []
    for c in range(40):
        seq = []
        for i in range(30):
            spk = "AB"[i % 2]
            if spk == "A":
                lab = "S" if rng.random() < 0.8 else rng.choice(("Q", "B"))
            else:
                lab = "B" if rng.random() < 0.8 else rng.choice(("Q", "S"))
            seq.append((lab, spk))
        convs.append(mk_conv(f"c{c}", seq))
    for order in (2, 3):
        p_cond = discourse_perplexity(
            train_discourse(convs, TS3, order,
                            GrammarVariant.SPEAKER_CONDITIONED), convs)
        p_plain = discourse_perplexity(
            train_discourse(convs, TS3, order, GrammarVariant.DA_ONLY), convs)
        assert p_cond < p_plain


def test_higher_order_fits_training_data_better():
    # The data must carry structure at every order and enough events per
    # context.  Witten-Bell discounting can invert the ordering on tiny
    # corpora where nearly every high-order context is novel.
    rng = random.Random(15)
    convs = []
    for c in range(30):
        seq = []
        labs = ["S", "S"]
        for i in range(50):
            if rng.random() < 0.5:
                nxt = {"SS": "Q", "SQ": "B", "QB": "S", "BS": "S",
                       "QS": "S", "SB": "Q", "BQ": "S", "QQ": "B",
                       "BB": "Q"}[labs[-2] + labs[-1]]
            elif rng.random() < 0.5:
                nxt = {"S": "B", "B": "Q", "Q": "S"}[labs[-1]]
            else:
                nxt = rng.choice(["S", "S", "S", "Q", "B"])
            seq.append((nxt, "AB"[i % 2]))
            labs.append(nxt)
        convs.append(mk_conv(f"c{c}", seq))
    ppl = [discourse_perplexity(
        train_discourse(convs, TS3, k, GrammarVariant.DA_ONLY), convs)
        for k in (1, 2, 3)]
    assert ppl[2] <= ppl[1] <= ppl[0]


class ContextRecorder(DiscourseGrammar):
    """A grammar whose model records every context it scores."""

    class Model:
        def __init__(self, model, contexts):
            self.vocab, self.model, self.contexts = model.vocab, model, contexts

        def log_probs(self, contexts, tokens):
            self.contexts += contexts
            return self.model.log_probs(contexts, tokens)

    def __init__(self, grammar):
        self.contexts = []
        super().__init__(grammar.tagset, grammar.variant, grammar.order,
                         self.Model(grammar.model, self.contexts))


def test_perplexity_passes_only_the_conditioning_history():
    # a long conversation must cost linear time: each event's context holds
    # at most the order-1 events the grammar conditions on, and each
    # distinct context is scored once, with the same result
    rng = random.Random(16)
    convs = [mk_conv("long", [(rng.choice("SQB"), "AB"[i % 2])
                              for i in range(200)])]
    for variant in GrammarVariant:
        for order in (1, 2, 3):
            grammar = train_discourse(sample_convs(), TS3, order, variant)
            recorder = ContextRecorder(grammar)
            want = discourse_perplexity(grammar, convs)
            assert discourse_perplexity(recorder, convs) == want
            assert {len(ctx) for ctx in recorder.contexts} == {order - 1}
            assert len(set(recorder.contexts)) == len(recorder.contexts)
            # every context the 201 events (200 labels and <end>) can have
            assert len(recorder.contexts) <= min(201, (1 + 3 * (
                1 if variant is GrammarVariant.DA_ONLY else 2)) ** (order - 1))


# ---------------------------------------------------------------------------
# The no-grammar baseline
# ---------------------------------------------------------------------------

def test_uniform_grammar_perplexities_42_84_42():
    labels = tuple(f"d{i:02d}" for i in range(42))
    ts = TagSet(labels)
    convs = [Conversation("c", tuple(
        Utterance(i, "AB"[i % 2], labels[i % 42], ("w",)) for i in range(10)))]
    assert discourse_perplexity(
        DiscourseGrammar.uniform(ts, GrammarVariant.DA_ONLY), convs) == \
        pytest.approx(42.0, abs=1e-9)
    assert discourse_perplexity(
        DiscourseGrammar.uniform(ts, GrammarVariant.JOINT), convs) == \
        pytest.approx(84.0, abs=1e-9)
    assert discourse_perplexity(
        DiscourseGrammar.uniform(ts, GrammarVariant.SPEAKER_CONDITIONED),
        convs) == pytest.approx(42.0, abs=1e-9)


def test_uniform_grammar_scores():
    g = DiscourseGrammar.uniform(TS3, GrammarVariant.DA_ONLY)
    assert g.order == 0
    assert g.transition_log_prob([], ("S", "A")) == \
        pytest.approx(-math.log(3), abs=1e-12)
    assert g.end_log_prob([]) == 0.0
    with pytest.raises(ValueError):
        save_discourse(g, "/dev/null")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", list(GrammarVariant))
def test_grammar_round_trip(tmp_path, variant):
    g = train_discourse(sample_convs(), TS3, 2, variant)
    path = tmp_path / "g.arpa"
    save_discourse(g, path)
    back = load_discourse(path, TS3)
    assert back.variant == variant and back.order == 2
    for hist in ([], [("S", "A")], [("B", "B")]):
        for lab in TS3.labels:
            for spk in ("A", "B"):
                assert back.transition_log_prob(hist, (lab, spk)) == \
                    pytest.approx(g.transition_log_prob(hist, (lab, spk)),
                                  abs=1e-9)
        assert back.end_log_prob(hist) == pytest.approx(g.end_log_prob(hist),
                                                        abs=1e-9)


def test_load_rejects_plain_arpa(tmp_path):
    from dialact.ngram import train_ngram, write_arpa
    path = tmp_path / "plain.arpa"
    write_arpa(train_ngram([["a"]], 1), path)
    with pytest.raises(ValueError):
        load_discourse(path, TS3)


def test_first_decode_scores_each_context_row_in_one_engine_call(monkeypatch):
    # an order-3 DA-only grammar over the 42 bundled acts: filling one
    # speaker pattern's transitions once took 43^2 x 42 = 77,658 scalar
    # backoff walks
    import numpy as np

    from dialact import hmm
    from dialact.corpus import default_tagset
    from dialact.hmm import LikelihoodTable, forward_backward
    from dialact.ngram import CompiledModelSet

    tagset = default_tagset()
    labels = tagset.labels
    rng = random.Random(42)
    convs = [mk_conv(f"c{i}", [(rng.choice(labels), "AB"[j % 2])
                               for j in range(30)]) for i in range(20)]
    g = train_discourse(convs, tagset, 3, GrammarVariant.DA_ONLY)
    calls = []
    walk = CompiledModelSet._event_log_probs

    def counting(self, windows):
        calls.append(len(windows))
        return walk(self, windows)

    monkeypatch.setattr(CompiledModelSet, "_event_log_probs", counting)
    table = LikelihoodTable("t", labels, tuple("AB"[j % 2] for j in range(30)),
                            np.log(np.full((30, len(labels)), 0.5)))
    forward_backward(g, table)
    # at most one call per transition pattern (the DA-only view compiles
    # one per count of "before the conversation" slots; the end pattern
    # reads the rows they scored), scoring the whole row of each context
    # once: every context the 43^2 history states can have
    compiled = hmm._COMPILED[g]
    assert len(calls) <= len(compiled._trans) <= 3
    scored = [ctx for ctx, speaker in g._memo if speaker == END]
    assert len(scored) == 1 + len(labels) + len(labels) ** 2
    assert sum(calls) == len(scored) * len(g.model.vocab)


def test_closed_vocabulary_rows_read_only_their_own_columns():
    # a pair model trained without padding has neither <unk> nor <end>:
    # tokens outside it have no column to read and raise as the model does
    import numpy as np

    from dialact.ngram import UNK, _logsumexp, train_ngram

    token = lambda lab, spk: f"{lab}{PAIR_SEP}{spk}"
    seqs = [[token(lab, spk) for lab, spk in conv_events]
            for conv_events in ([("S", "A"), ("B", "B"), ("Q", "A")],
                                [("Q", "B"), ("S", "A"), ("S", "B")])]
    model = train_ngram(seqs, 2, vocabulary={
        token(lab, spk) for lab in TS3.labels for spk in "AB"}, pad=False)
    assert UNK not in model.vocab and END not in model.vocab
    for variant in (GrammarVariant.JOINT, GrammarVariant.SPEAKER_CONDITIONED):
        g = DiscourseGrammar(TS3, variant, 2, model)
        with pytest.raises(ValueError,
                           match=f"token '{token('S', 'C')}' not in closed "
                                 f"vocabulary"):
            g.transition_rows([[("Q", "A")]], "C")
        with pytest.raises(ValueError,
                           match=f"token '{END}' not in closed vocabulary"):
            g.end_log_prob([("Q", "A")])
        for hist in ([], [("Q", "A")], [("S", "B")]):
            for spk in "AB":
                ctx = g._context(hist)
                want = np.array([model.cond_log_prob(ctx, token(lab, spk))
                                 for lab in TS3.labels])
                if variant is GrammarVariant.SPEAKER_CONDITIONED:
                    want = want - float(_logsumexp(want, axis=0))
                assert g.transition_rows([hist], spk)[0].tolist() == \
                    want.tolist()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_any_speaker_reads_its_own_row_never_the_vocabulary_row(order):
    # the DA-only view ignores the speaker, None included, and keeps one
    # memoized row per context for every speaker; in a pair view a speaker
    # no pair token has (None too) reads <unk>'s column; neither is ever
    # read from, nor stored as, a context's row over the vocabulary
    from dialact.ngram import UNK

    history = [("S", "A"), ("Q", "B")]
    for variant in (GrammarVariant.DA_ONLY, GrammarVariant.JOINT):
        g = train_discourse(sample_convs(), TagSet(("S", "Q", "B")), order,
                            variant)
        vocab = sorted(g.model.vocab)
        row = g.model.log_probs([g._context(history)], vocab)[0]
        for speaker in (None, "A", "B", "C"):
            tokens = [variant.token(lab, speaker) for lab in g.labels]
            want = [row[vocab.index(tok if tok in vocab else UNK)]
                    for tok in tokens]
            assert [g.transition_log_prob(history, (lab, speaker))
                    for lab in g.labels] == want
            assert g.transition_rows([history], speaker).tolist() == [want]
            assert g.end_log_prob(history) == row[vocab.index(END)]
        speakers = {speaker for _, speaker in g._memo}
        if variant is GrammarVariant.DA_ONLY:
            assert speakers == {"", END}
        else:
            assert speakers == {None, "A", "B", "C", END}


@pytest.mark.parametrize("order", [2, 3])
def test_conditioned_rows_equal_one_normalizer_per_row(order):
    # over the 42 bundled acts a speaker's label row holds more than the 8
    # terms from which numpy sums a strided row in another order than a
    # contiguous one: the batched normalizers must equal one 1-D
    # log-sum-exp per row, bit for bit, in decoding and in perplexity
    import itertools

    import numpy as np

    from dialact.corpus import default_tagset
    from dialact.ngram import UNK, _logsumexp, left_sum

    tagset = default_tagset()
    labels = tagset.labels
    rng = random.Random(28)
    convs = [mk_conv(f"c{i}", [(rng.choice(labels), rng.choice("AB"))
                               for _ in range(rng.randint(2, 30))])
             for i in range(20)]
    trained = train_discourse(convs, tagset, order,
                              GrammarVariant.SPEAKER_CONDITIONED)
    model = trained.model
    vocab = sorted(model.vocab)

    def reference(contexts, speaker):
        """Each context's label row for ``speaker``, less one 1-D
        log-sum-exp; its <end> score where ``speaker`` is None."""
        rows = model.log_probs(contexts, vocab)
        if speaker is None:
            return rows[:, vocab.index(END)].tolist()
        # C: a speaker no pair token has, read from <unk>'s column
        tokens = [trained.variant.token(lab, speaker) for lab in labels]
        cols = [vocab.index(tok if tok in model.vocab else UNK)
                for tok in tokens]
        return [(row[cols] - float(_logsumexp(row[cols], axis=0))).tolist()
                for row in rows]

    k = order - 1
    for speakers in [("A",) * k, ("B", "A")[-k:], (None, "B")[-k:],
                     (None,) * k]:
        histories = list(dict.fromkeys(
            tuple((lab, spk) for lab, spk in zip(labs, speakers)
                  if spk is not None)
            for labs in itertools.product(labels, repeat=k)))
        for speaker in "ABC":
            g = DiscourseGrammar(tagset, trained.variant, order, model)
            assert g.transition_rows(histories, speaker).tolist() == \
                reference([g._context(h) for h in histories], speaker)

    g = DiscourseGrammar(tagset, trained.variant, order, model)
    scores = []
    for conv in convs:
        events = [(utt.da_label, utt.speaker) for utt in conv]
        for i, (lab, spk) in enumerate([*events, (END, None)]):
            row = reference([g._context(events[:i])], spk)[0]
            scores.append(row if spk is None else row[labels.index(lab)])
    assert discourse_perplexity(g, convs) == \
        math.exp(-left_sum(scores) / len(scores))
