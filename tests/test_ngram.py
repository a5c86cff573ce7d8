"""Backoff n-gram estimation, scoring, interpolation, and ARPA files."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialact.ngram import (_BLOCK_CELLS, END, START, UNK, CompiledModelSet,
                           InterpolatedModel, NGramModel, fit_interp_weight,
                           interpolate, left_sum, log_sum, perplexity,
                           read_arpa, sequence_log_prob, train_ngram,
                           write_arpa)


def p(model, ctx, tok):
    return math.exp(model.cond_log_prob(tuple(ctx), tok))


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
    assert m.backoff_mass(("a",)) == pytest.approx(1 / 2, abs=1e-12)


def test_backoff_mass_always_reserved_when_padded():
    # every real token appears after every context; <unk> keeps mass positive
    seqs = [["a", "b"], ["b", "a"], ["a", "a"], ["b", "b"]]
    m = train_ngram(seqs, 2, vocabulary=["a", "b"])
    for ctx in m.contexts():
        assert m.backoff_mass(ctx) > 0.0


def test_float_sums_add_left_to_right():
    # each small term is under half an ulp of the running total, so adding
    # left to right drops it, while a compensated sum (math.fsum, or the
    # builtin sum() from Python 3.12) keeps their total
    probs = [0.5, 0.25] + [1e-17] * 20
    assert left_sum(probs) == 0.75
    assert math.fsum(probs) != 0.75
    logs = [math.log(p) for p in probs]
    assert log_sum(logs) == math.log(0.5) + math.log(left_sum(
        math.exp(v - math.log(0.5)) for v in logs))
    assert log_sum(logs) != math.log(0.5) + math.log(math.fsum(
        math.exp(v - math.log(0.5)) for v in logs))
    tokens = [f"w{i}" for i in range(len(logs))]
    model = NGramModel(2, frozenset(tokens), {("a",): dict(zip(tokens, logs))},
                       {}, padded=False)
    assert model.backoff_mass(("a",)) == 1.0 - left_sum(
        math.exp(v) for v in logs)
    assert model.backoff_mass(("a",)) != 1.0 - math.fsum(
        math.exp(v) for v in logs)


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
    for row in m.logprob.values():
        assert UNK not in row


def test_out_of_vocabulary_training_token_rejected():
    with pytest.raises(ValueError):
        train_ngram([["a", "x"]], 1, vocabulary=["a"])


def test_empty_training_rejected():
    with pytest.raises(ValueError):
        train_ngram([], 2)


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
    contexts = set(m.contexts())
    # also probe unstored and over-long contexts reachable by the scorer
    vocab = sorted(m.vocab)
    contexts.add((vocab[0], vocab[-1]) * m.order)
    contexts.add((UNK,))
    for ctx in contexts:
        total = sum(math.exp(m.cond_log_prob(ctx, w)) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_probabilities_in_unit_interval():
    m = train_ngram([["a", "b", "a"], ["b"]], 2, vocabulary=["a", "b", "c"])
    for ctx in m.contexts():
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


def test_interpolate_identities():
    a, b = two_models()
    for ctx, tok in [((), "a"), ((), "b"), ((), "c")]:
        assert interpolate(a, b, 1.0).cond_log_prob(ctx, tok) == \
            a.cond_log_prob(ctx, tok)
        assert interpolate(a, b, 0.0).cond_log_prob(ctx, tok) == \
            b.cond_log_prob(ctx, tok)


def test_interpolate_arithmetic_mean():
    a, b = two_models()
    # P_a(b) = 1/5 = 0.2, P_b(b) = 2/5 = 0.4 -> mean 0.3
    assert p(a, [], "b") == pytest.approx(0.2, abs=1e-12)
    assert p(b, [], "b") == pytest.approx(0.4, abs=1e-12)
    assert p(interpolate(a, b, 0.5), [], "b") == pytest.approx(0.3, abs=1e-12)


def test_interpolate_normalization_and_weight_validation():
    a, b = two_models()
    m = interpolate(a, b, 0.3)
    assert sum(p(m, [], t) for t in "abc") == pytest.approx(1.0, abs=1e-12)
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
    w = fit_interp_weight(a, b, from_a[:10])
    assert w > 0.95


def test_fit_weight_flat_likelihood_stays_half():
    a, _ = two_models()
    assert fit_interp_weight(a, a, [["a", "b"]]) == pytest.approx(0.5,
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
    w = fit_interp_weight(a, b, held)

    def held_ll(weight):
        m = interpolate(a, b, weight) if 0 < weight < 1 else \
            (a if weight == 1 else b)
        return sum(sequence_log_prob(m, s) for s in held)

    grid_best = max((i * 0.001 for i in range(1001)), key=held_ll)
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


def test_write_arpa_rejects_interpolations(tmp_path):
    a, b = two_models()
    with pytest.raises(TypeError):
        write_arpa(interpolate(a, b, 0.5), tmp_path / "x.arpa")


def test_training_and_arpa_output_deterministic(tmp_path):
    seqs = [["a", "b", "c"], ["c", "b"], ["b"]]
    m1 = train_ngram(seqs, 2, vocabulary=["a", "b", "c"])
    m2 = train_ngram(seqs, 2, vocabulary=["a", "b", "c"])
    assert m1.logprob == m2.logprob and m1.logbow == m2.logbow
    p1, p2 = tmp_path / "a.arpa", tmp_path / "b.arpa"
    write_arpa(m1, p1)
    write_arpa(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sequence_log_prob_pads():
    m = train_ngram([["a", "b"]], 2, vocabulary=["a", "b"])
    want = m.cond_log_prob((START,), "a") + m.cond_log_prob(("a",), "b") \
        + m.cond_log_prob(("b",), END)
    assert sequence_log_prob(m, ["a", "b"]) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Compiled scoring against the scalar walk
# ---------------------------------------------------------------------------

def assert_compiled_equals_scalar(scorers, seqs):
    got = CompiledModelSet(scorers).score(seqs)
    assert got.shape == (len(seqs), len(scorers))
    for s, seq in enumerate(seqs):
        for c, scorer in enumerate(scorers):
            assert got[s, c] == sequence_log_prob(scorer, seq), (seq, c)


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
            sequence_log_prob(a, bad)
        with pytest.raises(ValueError, match="closed vocabulary") as compiled:
            CompiledModelSet(scorers).score([["a"], bad, ["yak"]])
        assert str(compiled.value) == str(scalar.value)
        assert "'zebra'" in str(compiled.value)


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
    assert CompiledModelSet([m])._base == 2048
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
