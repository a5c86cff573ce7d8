"""Memory held while reading, scoring and decoding does not grow with the
length of a conversation.

Each reader, the word scorer and both decoders run on one conversation
of N and of 4N utterances under ``tracemalloc``, whose counts repeat
exactly.  What a call holds at its traced peak beyond what its result
holds is its transient.  The transient may grow by the decoded text of
the file, which is read whole, by Viterbi's back pointers, and by a few
bytes per utterance for the indices a call keeps per row; per-row text
lists, an alpha or evidence over every step or a scoring group per long
conversation each grow it by tens to hundreds of bytes per utterance.
Two bounds are absolute: what a parsed conversation holds per utterance
beyond its word tuples, and word scoring's whole transient.
"""

import gc
import random
import sys
import tracemalloc

import numpy as np
import pytest

from dialact.corpus import TagSet, parse_conversations, parse_prosody
from dialact.discourse import GrammarVariant, train_discourse
from dialact.hmm import (LikelihoodTable, forward_backward_corpus,
                         viterbi_corpus)
from dialact.ngram import read_arpa, train_ngram, write_arpa
from dialact.wordmodels import train_da_lms, word_likelihood_tables

N = 4096                # a full chunk of prosody rows, two scoring groups
LABELS = ("s", "q", "b", "a")
WORDS = ("i think we did so it do you what was know that uh-huh right "
         "yeah okay").split()
PER_ROW = 32            # bytes a call may keep per added utterance


def transient(call) -> int:
    """The traced peak of ``call()`` less what its result holds, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per size, a one-conversation corpus file and a prosody file with four
    continuous features and one categorical."""
    root = tmp_path_factory.mktemp("memory")
    files = {}
    for n in (N, 4 * N):
        rng = random.Random(n)
        corpus, prosody = root / f"corpus{n}.tsv", root / f"prosody{n}.tsv"
        corpus.write_text("".join(
            f"c\t{i}\t{'AB'[i % 2]}\t{rng.choice(LABELS)}\t"
            f"{' '.join(rng.choices(WORDS, k=rng.randrange(2, 9)))}\n"
            for i in range(n)))
        prosody.write_text("f0\tf1\tf2\tf3\tgender\n" + "".join(
            f"c\t{i}\t" + "\t".join(repr(rng.gauss(0.0, 1.0))
                                    for _ in range(4))
            + f"\t{rng.choice('mf')}\n" for i in range(n)))
        files[n] = corpus, prosody
    return files


def growth(call, n: int = N) -> int:
    return transient(lambda: call(4 * n)) - transient(lambda: call(n))


def text_growth(paths) -> int:
    return paths[4 * N].stat().st_size - paths[N].stat().st_size


def test_prosody_reader_holds_a_chunk_of_texts(inputs):
    paths = {n: prosody for n, (_, prosody) in inputs.items()}
    assert growth(lambda n: parse_prosody(paths[n])) <= \
        text_growth(paths) + PER_ROW * 3 * N


def test_conversation_reader_holds_a_slice_of_lines(inputs):
    tagset = TagSet(LABELS)
    paths = {n: corpus for n, (corpus, _) in inputs.items()}
    assert growth(lambda n: parse_conversations(paths[n], tagset)) <= \
        text_growth(paths) + PER_ROW * 3 * N


# What a parsed conversation may hold per utterance beyond its word
# tuples: a reference each to its speaker, label, words and n-best list
# (8 bytes each), its feature table's position (4) and its feature row (8)
# come to 44 bytes, and 44.7 were measured with and without prosody.
COLUMN_BYTES = 48


def test_a_parsed_conversation_holds_columns(inputs):
    tagset = TagSet(LABELS)
    corpus, prosody = inputs[4 * N]
    _, table = parse_prosody(prosody)
    for joined in (None, table):
        gc.collect()
        tracemalloc.start()
        try:
            (conv,) = parse_conversations(corpus, tagset, prosody=joined)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        words = sum(map(sys.getsizeof, conv.words))
        assert held - words <= COLUMN_BYTES * len(conv)


# What reading an ARPA file may trace at its peak per n-gram line: the
# decoded text, each line's gram tuple, held once as the key of its line,
# its log prob and backoff weight as 8-byte floats, and the store laid out
# from them.  356 bytes were measured on this file, and 731 when each line
# also kept a tuple of floats and a list of strings beside its gram tuple.
ARPA_LINE_BYTES = 400


def test_an_arpa_file_reads_through_columns(tmp_path):
    rng = random.Random(5)
    words = [f"w{i:04d}" for i in range(2000)]
    model = train_ngram([rng.choices(words[:rng.randrange(50, 2000)],
                                     k=rng.randrange(3, 12))
                         for _ in range(4000)], 3)
    path = tmp_path / "m.arpa"
    write_arpa(model, path)
    lines = sum(line.count("\t") > 0 for line in
                path.read_text(encoding="utf-8").splitlines())
    read_arpa(path)
    gc.collect()
    tracemalloc.start()
    try:
        read_arpa(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ARPA_LINE_BYTES * lines, (peak / lines, lines)


def test_word_scoring_holds_one_group_of_utterances(inputs):
    tagset = TagSet(LABELS)
    convs = {n: parse_conversations(corpus, tagset)
             for n, (corpus, _) in inputs.items()}
    da_lms = train_da_lms(convs[N], tagset, order=3)
    assert growth(lambda n: word_likelihood_tables(da_lms, convs[n])) \
        <= 64 * 1024
    # a group's scores and index arrays near 512 KB, and the backoff walk's
    # block; 0.83 MB measured
    assert transient(lambda: word_likelihood_tables(da_lms, convs[4 * N])) \
        <= 1 << 20


def test_forward_backward_holds_one_block_and_its_checkpoints(inputs):
    # a quarter of N utterances: a decode step is slow under tracemalloc
    tagset = TagSet(LABELS)
    grammar = train_discourse(parse_conversations(inputs[N][0], tagset),
                              tagset, 3, GrammarVariant.SPEAKER_CONDITIONED)
    tables = {n: [LikelihoodTable(
        "c", LABELS, tuple("AB"[i % 2] for i in range(n)),
        np.log(np.random.default_rng(n).dirichlet(np.ones(len(LABELS)), n)))]
        for n in (N // 4, N)}
    forward_backward_corpus(grammar, tables[N])    # compile the prior first
    assert growth(lambda n: forward_backward_corpus(grammar, tables[n]),
                  N // 4) <= PER_ROW * 3 * N // 4


def test_viterbi_holds_its_back_pointers_and_one_block(inputs):
    # the forward-backward test's tables; Viterbi keeps a back pointer per
    # (rest of the state, label) and step, one byte each here, and reads
    # its evidence one block of steps at a time
    tagset = TagSet(LABELS)
    grammar = train_discourse(parse_conversations(inputs[N][0], tagset),
                              tagset, 3, GrammarVariant.SPEAKER_CONDITIONED)
    tables = {n: [LikelihoodTable(
        "c", LABELS, tuple("AB"[i % 2] for i in range(n)),
        np.log(np.random.default_rng(n).dirichlet(np.ones(len(LABELS)), n)))]
        for n in (N // 4, N)}
    viterbi_corpus(grammar, tables[N])              # compile the prior first
    back = (len(LABELS) + 1) * len(LABELS)
    assert growth(lambda n: viterbi_corpus(grammar, tables[n]), N // 4) \
        <= (back + PER_ROW) * 3 * N // 4
