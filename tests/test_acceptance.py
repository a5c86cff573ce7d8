"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Each test prints ``criterion N <name>: PASS`` (or FAIL) with timing, and
fails hard when its bound is missed.  Sizes are desk scale; the directional
criteria use synthetic corpora with known structure.
"""

import math
import random
import time

import numpy as np

from dialact.corpus import (Conversation, FeatureSchema, FeatureVector,
                            Hypothesis, NBestList, TagSet, Utterance,
                            parse_conversations, parse_nbest, parse_prosody,
                            serialize_conversations, serialize_nbest,
                            serialize_prosody)
from dialact.discourse import (DiscourseGrammar, GrammarVariant,
                               discourse_perplexity, load_discourse,
                               save_discourse, train_discourse)
from dialact.hmm import (LikelihoodTable, brute_force_decode, forward_backward,
                         tune_alpha_beta, viterbi_decode)
from dialact.ngram import (UNK, read_arpa, train_ngram, write_arpa)
from dialact.prosody import (DecisionTree, Node, TreeConfig, load_tree,
                             serialize_tree, train_tree, tree_posterior,
                             tree_scaled_likelihood)
from dialact.rescore import (mixture_lm_scores, mixture_posterior_scores,
                             rescore_corpus)
from dialact.wordmodels import (classify_from_words, smooth_da_lms,
                                train_da_lms)


def verdict(num: int, name: str, ok: bool, started: float, budget: float,
            detail: str = "") -> None:
    elapsed = time.monotonic() - started
    ok = ok and elapsed < budget
    extra = f" [{detail}]" if detail else ""
    line = (f"criterion {num} {name}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s of {budget:.0f}s){extra}")
    print(line)
    assert ok, line


def labeled_conv(conv_id, events, words=None):
    utts = tuple(
        Utterance(i, spk, lab, words[i] if words else ("w",))
        for i, (lab, spk) in enumerate(events))
    return Conversation(conv_id, utts)


def random_grammar_instance(rng, n_labels, order, n_utts):
    labels = ("S", "Q", "B", "X")[:n_labels]
    tagset = TagSet(labels)
    convs = [labeled_conv(f"t{c}", [(rng.choice(labels), rng.choice("AB"))
                                    for _ in range(rng.randrange(3, 9))])
             for c in range(6)]
    grammar = train_discourse(convs, tagset, order,
                              rng.choice(list(GrammarVariant)))
    speakers = tuple(rng.choice("AB") for _ in range(n_utts))
    scores = np.array([[rng.uniform(-6.0, 0.0) for _ in labels]
                       for _ in range(n_utts)])
    return grammar, LikelihoodTable("r", labels, speakers, scores)


# ---------------------------------------------------------------------------
# 1. Decoder oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_01_decoder_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(101)
    max_n = {2: 8, 3: 7, 4: 5}  # keeps the enumeration under 2^11 sequences
    ok = True
    for _ in range(200):
        t = rng.choice((2, 3, 4))
        order = rng.choice((1, 2, 3))
        n = rng.randrange(1, max_n[t] + 1)
        grammar, table = random_grammar_instance(rng, t, order, n)
        bseq, bscore, bposts = brute_force_decode(grammar, table)
        vseq, vscore = viterbi_decode(grammar, table)
        posts = forward_backward(grammar, table)
        ok = ok and vseq == bseq and abs(vscore - bscore) <= 1e-9 \
            and np.allclose(posts, bposts, atol=1e-9)
        if not ok:
            break
    verdict(1, "decoder oracle equivalence", ok, started, 10.0,
            "200 instances vs exhaustive enumeration")


# ---------------------------------------------------------------------------
# 2. Normalization suite
# ---------------------------------------------------------------------------

def test_criterion_02_normalization_everywhere():
    started = time.monotonic()
    rng = random.Random(202)
    cases = 0
    ok = True

    def close1(total, tol=1e-9):
        return abs(total - 1.0) <= tol

    # n-gram rows: every stored context plus unstored and <unk> probes
    for _ in range(40):
        vocab = [f"w{i}" for i in range(rng.randint(2, 6))]
        seqs = [[rng.choice(vocab) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, 8))]
        m = train_ngram(seqs, rng.randint(1, 4), vocabulary=vocab)
        probes = set(m.logprob)
        probes.add((vocab[0],) * (m.order + 1))
        probes.add((UNK,))
        for ctx in probes:
            total = sum(math.exp(m.cond_log_prob(ctx, w))
                        for w in sorted(m.vocab))
            ok = ok and close1(total)
            cases += 1

    # discourse conditionals: label sums at 1 for the per-speaker view,
    # full-vocabulary sums for the other variants
    for _ in range(25):
        labels = ("S", "Q", "B")[:rng.choice((2, 3))]
        tagset = TagSet(labels)
        convs = [labeled_conv(f"c{i}", [(rng.choice(labels), rng.choice("AB"))
                                        for _ in range(rng.randrange(4, 10))])
                 for i in range(5)]
        order = rng.choice((1, 2, 3))
        variant = rng.choice(list(GrammarVariant))
        g = train_discourse(convs, tagset, order, variant)
        if variant is GrammarVariant.SPEAKER_CONDITIONED:
            for _ in range(8):
                hist = [(rng.choice(labels), rng.choice("AB"))
                        for _ in range(rng.randrange(0, order))]
                for spk in "AB":
                    total = sum(math.exp(g.transition_log_prob(hist, (lab, spk)))
                                for lab in labels)
                    ok = ok and close1(total)
                    cases += 1
        else:
            for ctx in g.model.logprob:
                total = sum(math.exp(g.model.cond_log_prob(ctx, w))
                            for w in sorted(g.model.vocab))
                ok = ok and close1(total)
                cases += 1

    # decision tree leaves
    schema = FeatureSchema(("f", "g"), ("continuous", "categorical"))
    for _ in range(12):
        samples = [(FeatureVector({"f": rng.gauss(0, 1),
                                   "g": rng.choice("uvw")}),
                    rng.choice(("S", "Q", "B")))
                   for _ in range(rng.randrange(40, 120))]
        tree = train_tree(schema, samples, TreeConfig(min_leaf=2))

        def walk(node):
            nonlocal cases, ok
            if node.is_leaf:
                ok = ok and close1(sum(node.posterior), 1e-12)
                cases += 1
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    # forward-backward rows, smoothed and filtered
    for _ in range(40):
        grammar, table = random_grammar_instance(
            rng, rng.choice((2, 3)), rng.choice((1, 2, 3)),
            rng.randrange(1, 7))
        for online in (False, True):
            rows = forward_backward(grammar, table, online=online)
            for row in rows:
                ok = ok and close1(float(row.sum()))
                cases += 1

    verdict(2, "normalization suite", ok and cases >= 1000, started, 30.0,
            f"{cases} cases")


# ---------------------------------------------------------------------------
# 3. Forward-backward vs Viterbi accuracy
# ---------------------------------------------------------------------------

class _KnownBigram:
    labels = ("S", "Q", "B")
    order = 2

    start = np.log(np.array([0.5, 0.3, 0.2]))
    trans = np.log(np.array([[0.6, 0.3, 0.1],
                             [0.2, 0.2, 0.6],
                             [0.45, 0.35, 0.2]]))

    def transition_log_prob(self, history, event):
        j = self.labels.index(event[0])
        if not history:
            return float(self.start[j])
        return float(self.trans[self.labels.index(history[-1][0]), j])

    def end_log_prob(self, history):
        return 0.0


def test_criterion_03_posterior_decoding_accuracy():
    started = time.monotonic()
    rng = random.Random(303)
    g = _KnownBigram()
    emit = np.array([[0.5, 0.3, 0.1, 0.1],
                     [0.2, 0.5, 0.2, 0.1],
                     [0.15, 0.2, 0.5, 0.15]])
    log_emit = np.log(emit)
    start_p = np.exp(g.start)
    trans_p = np.exp(g.trans)
    correct_fb = correct_vit = total = 0
    for c in range(10_000):
        n = 8
        states = [rng.choices((0, 1, 2), weights=start_p)[0]]
        for _ in range(n - 1):
            states.append(rng.choices((0, 1, 2),
                                      weights=trans_p[states[-1]])[0])
        obs = [rng.choices((0, 1, 2, 3), weights=emit[s])[0] for s in states]
        table = LikelihoodTable(
            f"c{c}", g.labels, tuple("AB"[i % 2] for i in range(n)),
            log_emit[:, obs].T)
        posts = forward_backward(g, table)
        fb = np.argmax(posts, axis=1)
        vit, _ = viterbi_decode(g, table)
        for i, s in enumerate(states):
            total += 1
            correct_fb += fb[i] == s
            correct_vit += vit[i] == g.labels[s]
    acc_fb = correct_fb / total
    acc_vit = correct_vit / total
    verdict(3, "posterior decoding accuracy", acc_fb >= acc_vit - 0.002,
            started, 120.0,
            f"fb {100 * acc_fb:.2f}% vs viterbi {100 * acc_vit:.2f}%")


# ---------------------------------------------------------------------------
# 4. Perplexity ordering
# ---------------------------------------------------------------------------

def test_criterion_04_perplexity_ordering():
    started = time.monotonic()
    rng = random.Random(404)
    labels = ("S", "Q", "B", "X")

    # order-2 Markov DA source with signal at every order
    def gen_conv(conv_id, n):
        seq = [rng.choice(labels), rng.choice(labels)]
        for _ in range(n - 2):
            r = rng.random()
            if r < 0.45:
                seq.append(labels[(labels.index(seq[-1]) + 1) % 4])
            elif r < 0.75:
                seq.append(labels[(2 * labels.index(seq[-2])
                                   + 3 * labels.index(seq[-1])) % 4])
            else:
                seq.append(rng.choice(("S", "S", "S", "Q", "B", "X")))
        return labeled_conv(conv_id,
                            [(lab, "AB"[i % 2]) for i, lab in enumerate(seq)])

    tagset = TagSet(labels)
    train = [gen_conv(f"t{i}", 500) for i in range(200)]
    held = [gen_conv(f"h{i}", 500) for i in range(20)]
    ppl = [discourse_perplexity(
        train_discourse(train, tagset, k, GrammarVariant.DA_ONLY), held)
        for k in (1, 2, 3)]
    monotone = ppl[2] <= ppl[1] <= ppl[0]

    # distinct per-speaker habits: conditioning on the speaker must help
    def habit_conv(conv_id, n):
        seq = []
        for i in range(n):
            spk = "AB"[i % 2]
            pool = ("S", "S", "S", "B", "Q", "X") if spk == "A" \
                else ("Q", "Q", "Q", "X", "S", "B")
            seq.append((rng.choice(pool), spk))
        return labeled_conv(conv_id, seq)

    htrain = [habit_conv(f"ht{i}", 60) for i in range(60)]
    hheld = [habit_conv(f"hh{i}", 60) for i in range(10)]
    conditional_wins = True
    for k in (2, 3):
        da_only = discourse_perplexity(
            train_discourse(htrain, tagset, k, GrammarVariant.DA_ONLY), hheld)
        cond = discourse_perplexity(
            train_discourse(htrain, tagset, k,
                            GrammarVariant.SPEAKER_CONDITIONED), hheld)
        conditional_wins = conditional_wins and cond < da_only

    verdict(4, "perplexity ordering", monotone and conditional_wins,
            started, 60.0,
            f"ppl {ppl[2]:.2f} <= {ppl[1]:.2f} <= {ppl[0]:.2f}, "
            f"speaker conditioning helps: {conditional_wins}")


# ---------------------------------------------------------------------------
# 5. N-best vs 1-best classification
# ---------------------------------------------------------------------------

CLASS_VOCAB = {"S": [f"s{i}" for i in range(6)],
               "Q": [f"q{i}" for i in range(6)]}
SHARED_VOCAB = [f"x{i}" for i in range(4)]
FULL_VOCAB = CLASS_VOCAB["S"] + CLASS_VOCAB["Q"] + SHARED_VOCAB


def gen_utterance_words(rng, lab):
    return tuple(rng.choice(CLASS_VOCAB[lab]) if rng.random() < 0.7
                 else rng.choice(SHARED_VOCAB)
                 for _ in range(rng.randrange(3, 7)))


def noisy_nbest(rng, truth, corrupt_rate=0.5, n_corrupt=2):
    hyps = [(truth, -10.0 + rng.gauss(0, 0.5))]
    for _ in range(n_corrupt):
        words = tuple(rng.choice(FULL_VOCAB) if rng.random() < corrupt_rate
                      else w for w in truth)
        hyps.append((words, -10.0 + rng.gauss(0.3, 1.0)))
    hyps.sort(key=lambda h: -h[1])  # recognizer ranks by acoustic score
    return NBestList(tuple(Hypothesis(w, a) for w, a in hyps))


def classification_corpus(rng, n_train=300, n_test=150):
    tagset = TagSet(("S", "Q"))
    train_utts = tuple(
        Utterance(i, "AB"[i % 2], ("S", "Q")[i % 2],
                  gen_utterance_words(rng, ("S", "Q")[i % 2]))
        for i in range(n_train))
    lms = train_da_lms([Conversation("train", train_utts)], tagset, order=2)
    test_utts = []
    truth = []
    for i in range(n_test):
        lab = ("S", "Q")[rng.randrange(2)]
        words = gen_utterance_words(rng, lab)
        truth.append(lab)
        test_utts.append(Utterance(i, "AB"[i % 2], None, words,
                                   nbest=noisy_nbest(rng, words)))
    return tagset, lms, [Conversation("test", tuple(test_utts))], truth


def test_criterion_05_nbest_beats_one_best():
    started = time.monotonic()
    wins = 0
    for seed in range(20):
        rng = random.Random(500 + seed)
        tagset, lms, convs, truth = classification_corpus(rng)
        grammar = DiscourseGrammar.uniform(tagset, GrammarVariant.DA_ONLY)
        accs = {}
        for mode in ("nbest", "one_best"):
            predicted = classify_from_words(lms, grammar, convs, mode=mode)[0]
            accs[mode] = sum(p == t for p, t in zip(predicted, truth)) \
                / len(truth)
        wins += accs["nbest"] >= accs["one_best"]
    verdict(5, "n-best marginalization vs one-best", wins >= 16, started,
            300.0, f"{wins}/20 seeds")


# ---------------------------------------------------------------------------
# 6. Fusion benefit
# ---------------------------------------------------------------------------

def fusion_corpus(rng, n_convs, n_utts):
    # words deliberately weak (0.35 class-vocabulary rate) so the pitch cue
    # carries real complementary signal
    tagset = TagSet(("S", "Q"))
    schema = FeatureSchema(("pitch",), ("continuous",))
    convs = []
    for c in range(n_convs):
        utts = []
        lab = rng.choice(("S", "Q"))
        for i in range(n_utts):
            if rng.random() < 0.7:
                lab = "Q" if lab == "S" else "S"
            words = tuple(
                rng.choice(CLASS_VOCAB[lab]) if rng.random() < 0.35
                else rng.choice(SHARED_VOCAB) for _ in range(3))
            pitch = rng.gauss(1.2 if lab == "Q" else -1.2, 1.0)
            utts.append(Utterance(i, "AB"[i % 2], lab, words,
                                  prosody=FeatureVector({"pitch": pitch})))
        convs.append(Conversation(f"f{c}", tuple(utts)))
    return tagset, schema, convs


def test_criterion_06_tuned_fusion_beats_words_alone():
    from dialact.prosody import prosody_likelihood_tables
    from dialact.wordmodels import word_likelihood_tables

    started = time.monotonic()
    wins = 0
    for seed in range(20):
        rng = random.Random(600 + seed)
        tagset, schema, train = fusion_corpus(rng, 12, 15)
        _, _, test = fusion_corpus(rng, 10, 20)
        lms = train_da_lms(train, tagset, order=2)
        grammar = train_discourse(train, tagset, 2, GrammarVariant.DA_ONLY)
        tree = train_tree(schema,
                          [(u.prosody, u.da_label)
                           for conv in train for u in conv],
                          TreeConfig(min_leaf=5), classes=tagset.labels)
        word_tables = word_likelihood_tables(lms, test)
        pros_tables = prosody_likelihood_tables(tree, test)
        refs = {c.conv_id: [u.da_label for u in c] for c in test}
        combined = tune_alpha_beta(grammar, word_tables, pros_tables, refs,
                                   seed=seed).accuracy
        words_only = tune_alpha_beta(grammar, word_tables, pros_tables, refs,
                                     alphas=(0.0,), betas=(1.0,),
                                     seed=seed).accuracy
        wins += combined >= words_only
    verdict(6, "tuned fusion vs words alone", wins >= 16, started, 300.0,
            f"{wins}/20 seeds")


# ---------------------------------------------------------------------------
# 7. Rescoring dominance
# ---------------------------------------------------------------------------

def rescoring_corpus(rng, lms_tagset, n_test=240):
    test_utts = []
    for i in range(n_test):
        lab = ("S", "Q")[rng.randrange(2)]
        truth = gen_utterance_words(rng, lab)
        other = "Q" if lab == "S" else "S"
        hyps = [(truth, -10.0 + rng.gauss(0, 0.6))]
        for _ in range(2):
            # confusions lean toward the other class's vocabulary
            words = tuple(
                w if rng.random() > 0.5 else
                (rng.choice(CLASS_VOCAB[other]) if rng.random() < 0.7
                 else rng.choice(SHARED_VOCAB))
                for w in truth)
            hyps.append((words, -10.0 + rng.gauss(0.2, 0.8)))
        hyps.sort(key=lambda h: -h[1])
        test_utts.append(Utterance(
            i, "AB"[i % 2], lab, truth,
            nbest=NBestList(tuple(Hypothesis(w, a) for w, a in hyps))))
    return [Conversation("resc", tuple(test_utts))]


def test_criterion_07_rescoring_dominance():
    started = time.monotonic()
    rates = {"oracle": [], "mixture_of_lms": [], "baseline": []}
    for seed in range(20):
        rng = random.Random(700 + seed)
        tagset, lms, _, _ = classification_corpus(rng, n_train=300, n_test=1)
        heldout_utts = tuple(
            Utterance(i, "AB"[i % 2], ("S", "Q")[i % 2],
                      gen_utterance_words(rng, ("S", "Q")[i % 2]))
            for i in range(100))
        smoothed, _ = smooth_da_lms(lms, [Conversation("h", heldout_utts)])
        convs = rescoring_corpus(rng, tagset)
        grammar = DiscourseGrammar.uniform(tagset, GrammarVariant.DA_ONLY)
        result = rescore_corpus(convs, grammar, lms, smoothed,
                                methods=("baseline", "oracle",
                                         "mixture_of_lms"))
        for name in rates:
            rates[name].append(result.methods[name].wer.rate)
    means = {name: sum(r) / len(r) for name, r in rates.items()}
    v1 = sum(o > m + 1e-12 for o, m in
             zip(rates["oracle"], rates["mixture_of_lms"]))
    v2 = sum(m > b + 1e-12 for m, b in
             zip(rates["mixture_of_lms"], rates["baseline"]))
    ok = (means["oracle"] <= means["mixture_of_lms"] <= means["baseline"]
          and v1 <= 4 and v2 <= 4)
    verdict(7, "rescoring dominance", ok, started, 300.0,
            f"mean WER {100 * means['oracle']:.1f} <= "
            f"{100 * means['mixture_of_lms']:.1f} <= "
            f"{100 * means['baseline']:.1f}, violations {v1}/{v2}")


# ---------------------------------------------------------------------------
# 8. Mixture equivalence under the shared normalizer
# ---------------------------------------------------------------------------

def test_criterion_08_shared_normalizer_matches_mixture_ranking():
    started = time.monotonic()
    rng = random.Random(808)
    tagset, lms, _, _ = classification_corpus(rng, n_train=200, n_test=1)
    ok = True
    for _ in range(120):
        m = rng.randrange(2, 6)
        hyps = tuple(Hypothesis(gen_utterance_words(rng, rng.choice("SQ")),
                                -10.0 + rng.gauss(0, 1.0))
                     for _ in range(m))
        nbest = NBestList(hyps)
        q = rng.uniform(0.05, 0.95)
        post = {"S": 1.0 - q, "Q": q}
        mix = mixture_lm_scores(nbest, lms, post)
        shared = mixture_posterior_scores(nbest, lms, post,
                                          per_da_normalizer=False)
        # the switch must be an exact softmax of the mixture scores,
        # hence ranking-identical
        softmax = np.exp(mix - mix.max())
        softmax /= softmax.sum()
        ok = ok and np.allclose(shared, softmax, atol=1e-9)
        ok = ok and int(np.argmax(shared)) == int(np.argmax(mix))
        ok = ok and list(np.argsort(-shared, kind="stable")) == \
            list(np.argsort(-mix, kind="stable"))
    verdict(8, "shared-normalizer mixture equivalence", ok, started, 10.0,
            "120 fixtures")


# ---------------------------------------------------------------------------
# 9. Hand-computed fixtures
# ---------------------------------------------------------------------------

def test_criterion_09_hand_fixtures_exact():
    started = time.monotonic()
    m = train_ngram([["a", "a", "b"]], 1, vocabulary=["a", "b", "c"],
                    pad=False)
    probs = [math.exp(m.cond_log_prob((), w)) for w in ("a", "b", "c")]
    wb_ok = all(abs(p - e) <= 1e-12
                for p, e in zip(probs, (2 / 5, 1 / 5, 2 / 5)))

    tree = DecisionTree(("S", "Q"), FeatureSchema(("f",), ("continuous",)),
                        Node(posterior=(0.6, 0.4)), (0.8, 0.2))
    scores = tree_scaled_likelihood(tree, FeatureVector({"f": 0.0}),
                                    {"S": 0.8, "Q": 0.2}, TagSet(("S", "Q")))
    bayes_ok = abs(scores["S"] - 3 / 11) <= 1e-12 \
        and abs(scores["Q"] - 8 / 11) <= 1e-12
    verdict(9, "hand-computed fixtures", wb_ok and bayes_ok, started, 1.0,
            f"unigram {probs[0]:.4f}/{probs[1]:.4f}/{probs[2]:.4f}, "
            f"likelihood ratio {scores['S']:.4f}/{scores['Q']:.4f}")


# ---------------------------------------------------------------------------
# 10. Serialization round-trips
# ---------------------------------------------------------------------------

def test_criterion_10_round_trips(tmp_path):
    started = time.monotonic()
    rng = random.Random(1010)
    ok = True

    # conversations: labels, gaps, empty word strings
    labels = ("S", "Q", "B")
    convs = []
    for c in range(20):
        utts = tuple(
            Utterance(i, rng.choice("AB"),
                      rng.choice(labels + (None,)),
                      tuple(rng.choice(FULL_VOCAB)
                            for _ in range(rng.randrange(0, 5))))
            for i in range(rng.randrange(1, 8)))
        convs.append(Conversation(f"c{c}", utts))
    serialize_conversations(convs, tmp_path / "c.tsv")
    ok = ok and parse_conversations(tmp_path / "c.tsv",
                                    TagSet(labels)) == convs

    # n-best tables
    table = {}
    for c in range(15):
        for i in range(rng.randrange(1, 4)):
            hyps = tuple(
                Hypothesis(tuple(rng.choice(FULL_VOCAB)
                                 for _ in range(rng.randrange(1, 5))),
                           rng.uniform(-60, -10))
                for _ in range(rng.randrange(1, 5)))
            table[(f"n{c}", i)] = NBestList(hyps)
    serialize_nbest(table, tmp_path / "n.tsv")
    ok = ok and parse_nbest(tmp_path / "n.tsv") == table

    # prosody with missing and categorical values
    schema = FeatureSchema(("pitch", "site"), ("continuous", "categorical"))
    feats = {}
    for c in range(15):
        for i in range(rng.randrange(1, 4)):
            feats[(f"p{c}", i)] = FeatureVector({
                "pitch": None if rng.random() < 0.2 else rng.gauss(0, 5),
                "site": None if rng.random() < 0.2 else rng.choice(["aa", "bb"]),
            })
    serialize_prosody(schema, feats, tmp_path / "p.tsv")
    back_schema, back_feats = parse_prosody(tmp_path / "p.tsv")
    ok = ok and back_schema == schema and back_feats == feats

    # ARPA: queries agree within the documented 1e-9 after reload
    vocab = [f"w{i}" for i in range(5)]
    seqs = [[rng.choice(vocab) for _ in range(rng.randint(1, 9))]
            for _ in range(12)]
    m = train_ngram(seqs, 3, vocabulary=vocab)
    write_arpa(m, tmp_path / "m.arpa")
    back = read_arpa(tmp_path / "m.arpa")
    for _ in range(300):
        ctx = tuple(rng.choice(vocab)
                    for _ in range(rng.randrange(0, 3)))
        tok = rng.choice(vocab)
        ok = ok and abs(back.cond_log_prob(ctx, tok)
                        - m.cond_log_prob(ctx, tok)) <= 1e-9

    # discourse grammars keep their variant and order
    tagset = TagSet(labels)
    tconvs = [labeled_conv(f"g{i}", [(rng.choice(labels), rng.choice("AB"))
                                     for _ in range(8)]) for i in range(6)]
    for variant in GrammarVariant:
        g = train_discourse(tconvs, tagset, 2, variant)
        save_discourse(g, tmp_path / "g.arpa")
        gb = load_discourse(tmp_path / "g.arpa", tagset)
        ok = ok and gb.variant == g.variant and gb.order == g.order
        for _ in range(40):
            hist = [(rng.choice(labels), rng.choice("AB"))]
            ev = (rng.choice(labels), rng.choice("AB"))
            ok = ok and abs(gb.transition_log_prob(hist, ev)
                            - g.transition_log_prob(hist, ev)) <= 1e-9

    # decision trees reload exactly
    tschema = FeatureSchema(("f", "site"), ("continuous", "categorical"))
    samples = [(FeatureVector({"f": rng.gauss(0, 1),
                               "site": rng.choice(["aa", "bb", "cc"])}),
                rng.choice(labels)) for _ in range(100)]
    tree = train_tree(tschema, samples, TreeConfig(min_leaf=2))
    serialize_tree(tree, tmp_path / "t.txt")
    tback = load_tree(tmp_path / "t.txt")
    for _ in range(50):
        probe = FeatureVector({"f": rng.gauss(0, 1),
                               "site": rng.choice(["aa", "bb", "cc", "dd"])})
        ok = ok and np.array_equal(tree_posterior(tback, probe),
                                   tree_posterior(tree, probe))

    verdict(10, "serialization round-trips", ok, started, 30.0)
