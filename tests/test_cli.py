"""Command-line frontend: train, tag, rescore, perplexity, eval."""

import argparse
import dataclasses
import random
import shutil
import warnings
from pathlib import Path

import pytest

from dialact import cli
from dialact.corpus import (Conversation, CorpusError, load_tagset,
                            parse_conversations, parse_nbest, parse_prosody)
from dialact.ngram import CompiledModelSet
from dialact.wordmodels import smooth_da_lms, train_da_lms

LABELS = ("Statement", "Question", "Backchannel/Acknowledge")
WORDS = {
    "Statement": ["i", "think", "we", "did", "so", "it"],
    "Question": ["do", "you", "what", "was", "know", "that"],
    "Backchannel/Acknowledge": ["uh-huh", "right", "yeah", "okay"],
}
PITCH = {"Statement": -1.5, "Question": 1.5, "Backchannel/Acknowledge": 4.5}


def build_fixtures(root: Path, n_convs=8, n_utts=8, seed=0):
    rng = random.Random(seed)
    (root / "tagset.txt").write_text("".join(f"{lab}\n" for lab in LABELS))
    corpus, nbest, prosody = [], [], ["pitch"]
    for c in range(n_convs):
        for i in range(n_utts):
            lab = LABELS[(c + i) % 3]
            words = rng.sample(WORDS[lab], rng.randrange(2, 5))
            decoy_lab = LABELS[(c + i + 1) % 3]
            decoy = rng.sample(WORDS[decoy_lab], len(words))
            corpus.append(f"c{c}\t{i}\t{'AB'[i % 2]}\t{lab}\t"
                          f"{' '.join(words)}")
            if i % 2 == 0:
                hyps = [(words, -10.0), (decoy, -11.0)]
            else:  # recognizer errs: the truth sits at rank 2
                hyps = [(decoy, -10.0), (words, -10.3)]
            for rank, (w, score) in enumerate(hyps, 1):
                nbest.append(f"c{c}\t{i}\t{rank}\t{score}\t{' '.join(w)}")
            prosody.append(f"c{c}\t{i}\t{rng.gauss(PITCH[lab], 0.4)!r}")
    (root / "corpus.tsv").write_text("".join(l + "\n" for l in corpus))
    (root / "nbest.tsv").write_text("".join(l + "\n" for l in nbest))
    (root / "prosody.tsv").write_text("".join(l + "\n" for l in prosody))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    build_fixtures(root)
    rc = cli.main([
        "train", "--corpus", str(root / "corpus.tsv"),
        "--models", str(root / "models"),
        "--tagset", str(root / "tagset.txt"),
        "--order", "2", "--word-order", "2",
        "--prosody", str(root / "prosody.tsv"), "--min-leaf", "5",
    ])
    assert rc == 0
    return root


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_reports_and_model_layout(workdir, capsys, tmp_path):
    out = tmp_path / "m2"
    rc = cli.main([
        "train", "--corpus", str(workdir / "corpus.tsv"),
        "--models", str(out), "--tagset", str(workdir / "tagset.txt"),
        "--order", "2", "--word-order", "2",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "discourse_perplexity\t" in captured.out
    assert "word_perplexity_baseline\t" in captured.out
    assert captured.out.count("smoothing_weight\t") == len(LABELS)
    assert "no --heldout" in captured.err
    # slash in the label cannot reach the filesystem
    assert (out / "da_lms" / "Backchannel_Acknowledge.arpa").is_file()
    assert (out / "da_lms" / "_fallback.arpa").is_file()
    assert (out / "manifest.tsv").is_file()
    assert not (out / "prosody.tree").exists()  # no --prosody this time
    manifest = (out / "manifest.tsv").read_text()
    assert "da_lm\tBackchannel/Acknowledge\tda_lms/Backchannel_Acknowledge.arpa" \
        in manifest


def test_train_rejects_unlabeled_utterances(tmp_path, capsys):
    (tmp_path / "c.tsv").write_text("c0\t0\tA\t-\thello there\n")
    rc = cli.main(["train", "--corpus", str(tmp_path / "c.tsv"),
                   "--models", str(tmp_path / "m")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unlabeled_utterances_are_named_by_their_corpus_line(workdir,
                                                            tmp_path, capsys):
    # a comment line and a second conversation put c1:1 on line 5
    corpus = tmp_path / "c.tsv"
    corpus.write_text("# two conversations\nc0\t0\tA\tStatement\ti think\n"
                      "c0\t1\tB\tQuestion\tdo you\n"
                      "c1\t0\tA\tStatement\tso we did\n"
                      "c1\t1\tB\t-\tright\nc1\t2\tA\t-\tyeah\n")
    pros = tmp_path / "p.tsv"
    pros.write_text("pitch\n" + "".join(f"c{c}\t{i}\t{0.5 * i}\n"
                                        for c, n in ((0, 2), (1, 3))
                                        for i in range(n)))
    for argv, message in (
            (["train", "--models", str(tmp_path / "m"), "--tagset",
              str(workdir / "tagset.txt")],
             "training corpus has an unlabeled utterance"),
            (["tag", "--models", str(workdir / "models"), "--prosody",
              str(pros), "--tune-fusion"],
             "--tune-fusion needs labels on every utterance"),
            (["perplexity", "--models", str(workdir / "models")],
             "perplexity needs labeled utterances")):
        capsys.readouterr()
        assert cli.main(argv + ["--corpus", str(corpus)]) == 1
        assert capsys.readouterr().err == f"error: {corpus}:5: {message}\n"


@pytest.mark.parametrize("mode", ["nbest", "one_best"])
def test_missing_nbest_lists_are_named_by_their_corpus_line(workdir, tmp_path,
                                                            capsys, mode):
    # n-best lists for c0 and c1:0 only, so c1:1 on line 5 is the first
    # utterance without one
    corpus = tmp_path / "c.tsv"
    corpus.write_text("# two conversations\nc0\t0\tA\tStatement\ti think\n"
                      "c0\t1\tB\tQuestion\tdo you\n"
                      "c1\t0\tA\tStatement\tso we did\n"
                      "c1\t1\tB\tQuestion\tdo you\nc1\t2\tA\tStatement\tyeah\n")
    nbest = tmp_path / "n.tsv"
    nbest.write_text("c0\t0\t1\t-10.0\ti think\nc0\t1\t1\t-10.0\tdo you\n"
                     "c1\t0\t1\t-10.0\tso we did\n")
    assert cli.main(["tag", "--models", str(workdir / "models"), "--corpus",
                     str(corpus), "--nbest", str(nbest), "--mode", mode]) == 1
    assert capsys.readouterr().err == \
        f"error: {corpus}:5: mode {mode!r} needs an n-best list\n"


def test_train_names_the_prosody_header_when_no_row_matches(workdir, tmp_path,
                                                            capsys):
    pros = tmp_path / "p.tsv"
    pros.write_text("# pitch only\npitch\nz9\t0\t1.5\n")
    rc = cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                   "--models", str(tmp_path / "m"), "--tagset",
                   str(workdir / "tagset.txt"), "--prosody", str(pros)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(
        f"\nerror: {pros}:2: no features match the corpus\n")


def test_a_training_column_with_too_many_categories_fails_at_its_header(
        workdir, tmp_path, capsys):
    pros = tmp_path / "p.tsv"
    pros.write_text("pitch\tsite\n" + "".join(
        f"c{c}\t{i}\t{0.1 * i}\ts{(8 * c + i) % 21}\n"
        for c in range(8) for i in range(8)))
    rc = cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                   "--models", str(tmp_path / "m"), "--tagset",
                   str(workdir / "tagset.txt"), "--prosody", str(pros)])
    assert rc == 1
    assert capsys.readouterr().err.endswith(
        f"\nerror: {pros}:1: feature 'site' holds 21 categories, more than "
        f"the 20 a split search may take\n")
    assert not (tmp_path / "m").exists()


def test_tag_prosody_columns_must_match_the_tree(tmp_path, capsys):
    # g is categorical in training ("a", "1", "2") and the tree tests
    # g in {1, 2}; an all-numeric tag file reads g as continuous
    (tmp_path / "tags.txt").write_text("S\nQ\n")
    (tmp_path / "train.tsv").write_text("".join(
        f"c0\t{i}\tA\t{lab}\tw\n" for i, lab in enumerate("SQQSQQ")))
    (tmp_path / "train_p.tsv").write_text("g\n" + "".join(
        f"c0\t{i}\t{g}\n" for i, g in enumerate("a12a12")))
    (tmp_path / "test.tsv").write_text("c0\t0\tA\tQ\tw\nc0\t1\tA\tQ\tw\n")
    models = tmp_path / "m"
    assert cli.main(["train", "--tagset", str(tmp_path / "tags.txt"),
                     "--corpus", str(tmp_path / "train.tsv"), "--models",
                     str(models), "--order", "1", "--word-order", "1",
                     "--min-leaf", "1", "--prosody",
                     str(tmp_path / "train_p.tsv")]) == 0
    assert "node\tg\tin\t1,2\t" in (models / "prosody.tree").read_text()
    for name, text, message in (
            ("numbers.tsv", "g\nc0\t0\t1\nc0\t1\t2\n",
             "feature 'g' is read as categorical but holds continuous "
             "values"),
            ("absent.tsv", "# no g\nh\nc0\t0\tx\nc0\t1\ty\n",
             "feature 'g' queried by the tree is absent from the probe's "
             "schema")):
        probe = tmp_path / name
        probe.write_text(text)
        capsys.readouterr()
        rc = cli.main(["tag", "--models", str(models), "--corpus",
                       str(tmp_path / "test.tsv"), "--prosody", str(probe)])
        line = text.count("\n", 0, text.index("\nc0")) + 1
        assert rc == 1
        assert capsys.readouterr().err == f"error: {probe}:{line}: {message}\n"
    # a tag file that gives g the kind it had in training routes as trained
    good = tmp_path / "good.tsv"
    good.write_text("g\nc0\t0\t1\nc0\t1\ta\n")
    out = tmp_path / "pred.tsv"
    assert cli.main(["tag", "--models", str(models), "--corpus",
                     str(tmp_path / "test.tsv"), "--prosody", str(good),
                     "--output", str(out)]) == 0
    assert [row.split("\t")[2] for row in
            out.read_text().splitlines()] == ["Q", "S"]


def test_train_rejects_the_reserved_start_word(tmp_path, capsys):
    (tmp_path / "c.tsv").write_text("c0\t0\tA\tStatement\thello there\n"
                                    "c0\t1\tB\tStatement\tso <start> it\n")
    rc = cli.main(["train", "--corpus", str(tmp_path / "c.tsv"),
                   "--models", str(tmp_path / "m")])
    assert rc == 1
    assert (f"error: {tmp_path / 'c.tsv'}:2: reserved word '<start>'\n"
            in capsys.readouterr().err)


def test_train_rejects_the_reserved_end_word(tmp_path, capsys):
    (tmp_path / "c.tsv").write_text("c0\t0\tA\tStatement\thello there\n"
                                    "c0\t1\tB\tStatement\ta <end> b\n")
    rc = cli.main(["train", "--corpus", str(tmp_path / "c.tsv"),
                   "--models", str(tmp_path / "m")])
    assert rc == 1
    assert (f"error: {tmp_path / 'c.tsv'}:2: reserved word '<end>'\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("token", ["<start>", "<end>"])
def test_train_rejects_a_reserved_label_at_its_tagset_line(tmp_path, capsys,
                                                           token):
    # with --variant da_only a bare label is a grammar token; "<end>" would
    # share the end-of-conversation event's probability
    (tmp_path / "tags.txt").write_text(f"S\n{token}\nQ\n")
    (tmp_path / "c.tsv").write_text("c0\t0\tA\tS\thello\n"
                                    "c0\t1\tB\tQ\tso\n")
    rc = cli.main(["train", "--corpus", str(tmp_path / "c.tsv"),
                   "--models", str(tmp_path / "m"), "--variant", "da_only",
                   "--tagset", str(tmp_path / "tags.txt")])
    assert rc == 1
    assert (f"error: {tmp_path / 'tags.txt'}:2: reserved label '{token}'\n"
            in capsys.readouterr().err)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flag,value,low", [
    ("--min-leaf", "0", 1), ("--min-leaf", "-3", 1), ("--max-depth", "-1", 0)])
def test_tree_limits_out_of_range_are_usage_errors(workdir, tmp_path, capsys,
                                                   flag, value, low):
    # these used to fail with exit 1 after the grammar and word models
    # had been estimated
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                  "--models", str(tmp_path / "m"),
                  "--tagset", str(workdir / "tagset.txt"),
                  "--prosody", str(workdir / "prosody.tsv"), flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be at least {low}" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("flag,value", [
    ("--order", "0"), ("--order", "-1"), ("--word-order", "0")])
def test_train_orders_below_one_are_usage_errors(tmp_path, capsys, flag,
                                                 value):
    # these used to exit 1 after the corpus had been read; the corpus named
    # here does not exist, so the usage error comes before any file is read
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--corpus", str(tmp_path / "missing.tsv"),
                  "--models", str(tmp_path / "m"), flag, value])
    assert exc.value.code == 2
    assert f"{flag}: must be at least 1, got {value}" in \
        capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_tagging_under_a_prior_too_large_to_compile_fails_cleanly(
        tmp_path, capsys):
    # an order-6 grammar over the 42 bundled acts trains from a sparse
    # corpus, but its dense transitions would take terabytes
    corpus = tmp_path / "c.tsv"
    corpus.write_text("c0\t0\tA\tStatement\ti think we did\n"
                      "c0\t1\tB\tYes-No-Question\tdo you know that\n"
                      "c0\t2\tA\tStatement\tso we did it\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")      # 40 acts have no utterances
        assert cli.main(["train", "--corpus", str(corpus),
                         "--models", str(tmp_path / "m"),
                         "--order", "6"]) == 0
    capsys.readouterr()
    for decoder in ("viterbi", "posterior"):
        assert cli.main(["tag", "--models", str(tmp_path / "m"),
                         "--corpus", str(corpus), "--decoder", decoder,
                         "--output", str(tmp_path / "p.tsv")]) == 1
        err = capsys.readouterr().err
        assert "error: an order-6 grammar over 42 labels needs " in err
        assert "Traceback" not in err
    assert not (tmp_path / "p.tsv").exists()


def test_empty_inputs_name_line_one(workdir, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no conversations here\n")
    unlabeled = tmp_path / "unlabeled.tsv"
    unlabeled.write_text("c0\t0\tA\t-\thello there\n")
    for argv, message in [
            (["train", "--corpus", str(empty), "--models", str(tmp_path / "m")],
             f"{empty}:1: no conversations"),
            (["tag", "--models", str(workdir / "models"), "--corpus",
              str(empty)], f"{empty}:1: no conversations"),
            (["eval", "--reference", str(unlabeled), "--predictions",
              str(empty)], f"{unlabeled}:1: no labeled utterances")]:
        assert cli.main(argv) == 1
        assert f"error: {message}\n" in capsys.readouterr().err


def test_one_pass_load_equals_parsing_then_attaching(workdir, tmp_path):
    # n-best and prosody rows missing for some utterances, and rows for
    # utterances and conversations the corpus does not have
    nbest, prosody = tmp_path / "nbest.tsv", tmp_path / "prosody.tsv"
    nbest.write_text("".join(
        line + "\n" for line in (workdir / "nbest.tsv").read_text()
        .splitlines() if not line.startswith(("c0\t1\t", "c3\t")))
        + "c0\t99\t1\t-3.0\tyeah\nc9\t0\t1\t-3.0\tright\n")
    prosody.write_text("".join(
        line + "\n" for line in (workdir / "prosody.tsv").read_text()
        .splitlines() if not line.startswith(("c0\t2\t", "c5\t")))
        + "c1\t99\t0.5\nc9\t0\t0.5\n")
    tagset = load_tagset(workdir / "tagset.txt")
    corpus = workdir / "corpus.tsv"
    schema, table = parse_prosody(prosody)

    def attached(nbest_table):
        return [Conversation(conv.conv_id, tuple(dataclasses.replace(
            u, nbest=nbest_table.get((conv.conv_id, u.index)),
            prosody=table.get((conv.conv_id, u.index))) for u in conv))
            for conv in parse_conversations(corpus, tagset)]

    for max_hyps in (None, 1):
        args = argparse.Namespace(corpus=str(corpus), nbest=str(nbest),
                                  prosody=str(prosody), max_hyps=max_hyps)
        want = attached(parse_nbest(nbest, max_hyps))
        assert cli._load_convs(args, tagset) == (want, schema)
    # train reads no n-best file
    args = argparse.Namespace(corpus=str(corpus), prosody=str(prosody))
    assert cli._load_convs(args, tagset) == (attached({}), schema)


def test_zero_count_class_shares_the_fallback_after_reload(workdir, tmp_path):
    tags = tmp_path / "tags.txt"
    tags.write_text("".join(f"{lab}\n" for lab in LABELS) + "Filler\n")
    out = tmp_path / "m"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the zero-count class warns
        rc = cli.main([
            "train", "--corpus", str(workdir / "corpus.tsv"),
            "--models", str(out), "--tagset", str(tags),
            "--order", "2", "--word-order", "2",
        ])
    assert rc == 0
    models = cli.load_models(out)
    assert models.da_lms.models["Filler"] is models.da_lms.fallback
    assert models.smoothed.models["Filler"] is models.smoothed.fallback


def test_smoothed_set_round_trips_through_the_model_directory(workdir,
                                                              tmp_path):
    build_fixtures(tmp_path, n_convs=3, seed=5)      # held-out data
    out = tmp_path / "m"
    assert cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                     "--models", str(out),
                     "--tagset", str(tmp_path / "tagset.txt"),
                     "--order", "2", "--word-order", "2",
                     "--heldout", str(tmp_path / "corpus.tsv")]) == 0
    tagset = load_tagset(tmp_path / "tagset.txt")
    da_lms = train_da_lms(parse_conversations(workdir / "corpus.tsv", tagset),
                          tagset, order=2)
    smoothed, weights = smooth_da_lms(
        da_lms, parse_conversations(tmp_path / "corpus.tsv", tagset))
    loaded = cli.load_models(out).smoothed
    assert not (out / "da_lms_smoothed").exists()
    assert len(set(weights.values())) == len(LABELS)  # EM-fit, not defaults
    for lab in LABELS:
        assert loaded.models[lab].weight == weights[lab]
    rng = random.Random(11)
    vocab = sorted(da_lms.fallback.vocab) + ["unseen-word"]
    for _ in range(200):
        words = [rng.choice(vocab) for _ in range(rng.randrange(0, 8))]
        for lab in LABELS:
            got, want = (CompiledModelSet([lms.models[lab]]).score(
                [words])[0, 0] for lms in (loaded, smoothed))
            assert abs(got - want) <= 1e-9


def _drop_weight(lines):
    row = lines.index(next(l for l in lines
                           if l.startswith("smoothing_weight\tQuestion\t")))
    da_lm = next(i for i, l in enumerate(lines)
                 if l.startswith("da_lm\tQuestion\t"))
    return lines[:row] + lines[row + 1:], da_lm + 1


def _set_weight(text):
    def edit(lines):
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("smoothing_weight\tStatement\t"))
        lines[row] = f"smoothing_weight\tStatement\t{text}"
        return lines, row + 1
    return edit


def _append(line):
    return lambda lines: (lines + [line], len(lines) + 1)


@pytest.mark.parametrize("edit, message", [
    (_drop_weight, "no smoothing_weight row for 'Question'"),
    (_set_weight("heavy"), "weight 'heavy': could not convert"),
    (_set_weight("nan"), "weight 'nan': interpolation weight must be in"),
    (_set_weight("1.5"), "weight '1.5': interpolation weight must be in"),
    (_set_weight("-0.25"), "weight '-0.25': interpolation weight must be in"),
    (_append("smoothing_weight\tFiller\t0.5"), "not in the tag set"),
    (_append("da_lm\tFiller\tda_lms/_fallback.arpa"),
     "da_lm row for 'Filler', which is not in the tag set"),
    (_append("da_lm_smoothed\tStatement\tda_lms_smoothed/Statement.arpa"),
     "re-run `dialact train`"),
    (_append("da_lm\tStatement\tda_lms/_fallback.arpa"),
     "second da_lm row for 'Statement'"),
    (_append("smoothing_weight\tStatement\t0.5"),
     "second smoothing_weight row for 'Statement'"),
    (_append("bogus_kind\tx\ty"), "unknown kind 'bogus_kind'"),
], ids=["missing", "not-a-float", "nan", "above-one", "below-zero",
        "unknown-label", "unknown-da-lm-label", "old-dense-row",
        "second-da-lm", "second-weight", "unknown-kind"])
def test_bad_manifest_rows_name_the_line(workdir, tmp_path, capsys, edit,
                                         message):
    models = tmp_path / "models"
    shutil.copytree(workdir / "models", models)
    manifest = models / "manifest.tsv"
    lines, lineno = edit(manifest.read_text().splitlines())
    manifest.write_text("".join(l + "\n" for l in lines))
    with pytest.raises(CorpusError) as exc:
        cli.load_models(models)
    assert f"manifest.tsv:{lineno}: " in str(exc.value)
    assert message in str(exc.value)
    assert cli.main(["tag", "--models", str(models),
                     "--corpus", str(workdir / "corpus.tsv")]) == 1
    assert f"manifest.tsv:{lineno}: " in capsys.readouterr().err


def test_collapsed_tagset_survives_the_model_directory(workdir, tmp_path,
                                                       capsys):
    tags = tmp_path / "collapsed.txt"
    tags.write_text("Statement\nQuestion\n"
                    "collapse\tQuestion\tBackchannel/Acknowledge\n")
    out = tmp_path / "m"
    assert cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                     "--models", str(out), "--tagset", str(tags),
                     "--order", "2", "--word-order", "2"]) == 0
    capsys.readouterr()
    pred = tmp_path / "pred.tsv"
    assert cli.main(["tag", "--models", str(out),
                     "--corpus", str(workdir / "corpus.tsv"),
                     "--output", str(pred)]) == 0
    assert {line.split("\t")[2] for line in pred.read_text().splitlines()} \
        == {"Statement", "Question"}
    # eval collapses a member label in the predictions as in the reference,
    # and reports on tag's predictions what tag reported
    tagged = capsys.readouterr().out
    assert "n=64)" in tagged
    assert cli.main(["eval", "--reference", str(workdir / "corpus.tsv"),
                     "--predictions", str(pred), "--tagset", str(tags)]) == 0
    assert capsys.readouterr().out == tagged
    members = tmp_path / "members.tsv"
    members.write_text("".join(
        "\t".join(line.split("\t")[:2] + line.split("\t")[3:4]) + "\n"
        for line in (workdir / "corpus.tsv").read_text().splitlines()))
    assert cli.main(["eval", "--reference", str(workdir / "corpus.tsv"),
                     "--predictions", str(members), "--tagset",
                     str(tags)]) == 0
    assert capsys.readouterr().out.startswith("accuracy 100.00%")


# ---------------------------------------------------------------------------
# tag
# ---------------------------------------------------------------------------

def test_tag_to_file_reports_accuracy(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    rc = cli.main([
        "tag", "--models", str(workdir / "models"),
        "--corpus", str(workdir / "corpus.tsv"), "--output", str(pred),
    ])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    lines = pred.read_text().splitlines()
    assert len(lines) == 8 * 8
    conv_ids = [l.split("\t")[0] for l in lines]
    assert conv_ids == sorted(conv_ids)
    first = lines[0].split("\t")
    assert first[2] in LABELS
    float(first[3])  # posterior column parses


def test_tag_to_stdout_moves_report_to_stderr(workdir, capsys):
    rc = cli.main([
        "tag", "--models", str(workdir / "models"),
        "--corpus", str(workdir / "corpus.tsv"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "accuracy" in captured.err
    assert "accuracy" not in captured.out
    assert captured.out.count("\n") == 8 * 8


def test_tag_decoder_and_grammar_switches(workdir, tmp_path):
    base = tmp_path / "base.tsv"
    cli.main(["tag", "--models", str(workdir / "models"),
              "--corpus", str(workdir / "corpus.tsv"),
              "--output", str(base)])
    vit = tmp_path / "vit.tsv"
    rc = cli.main(["tag", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--decoder", "viterbi", "--output", str(vit)])
    assert rc == 0
    rows = [l.split("\t") for l in vit.read_text().splitlines()]
    assert all(r[3] == "-" for r in rows)  # no posterior column for viterbi
    flat = tmp_path / "flat.tsv"
    rc = cli.main(["tag", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--grammar", "none", "--online", "--output", str(flat)])
    assert rc == 0
    # these word cues are strong: every configuration tags most rows alike
    agree = sum(a.split("\t")[2] == b.split("\t")[2] for a, b in
                zip(base.read_text().splitlines(), vit.read_text().splitlines()))
    assert agree >= 0.9 * 8 * 8


def test_tag_nbest_modes(workdir, tmp_path):
    for mode in ("nbest", "one_best"):
        out = tmp_path / f"{mode}.tsv"
        rc = cli.main(["tag", "--models", str(workdir / "models"),
                       "--corpus", str(workdir / "corpus.tsv"),
                       "--nbest", str(workdir / "nbest.tsv"),
                       "--mode", mode, "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 8 * 8


def test_tag_fusion_and_tuning(workdir, tmp_path, capsys):
    fused = tmp_path / "fused.tsv"
    rc = cli.main(["tag", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--prosody", str(workdir / "prosody.tsv"),
                   "--alpha", "0.5", "--beta", "0.8",
                   "--output", str(fused)])
    assert rc == 0
    capsys.readouterr()
    tuned = tmp_path / "tuned.tsv"
    rc = cli.main(["tag", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--prosody", str(workdir / "prosody.tsv"),
                   "--tune-fusion", "--output", str(tuned)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "fusion half 1:" in err and "fusion half 2:" in err
    assert "fusion pooled accuracy" in err


def test_tag_flag_validation(workdir, capsys):
    # usage errors before any file is read: neither path exists
    for flags, message in [
            (["--mode", "nbest"], "--mode nbest needs an --nbest file"),
            (["--mode", "one_best"], "--mode one_best needs an --nbest file"),
            (["--decoder", "viterbi", "--online"],
             "--online applies to --decoder posterior only"),
            (["--tune-fusion"], "--tune-fusion needs a --prosody file")]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["tag", "--models", str(workdir / "missing"),
                      "--corpus", str(workdir / "missing.tsv"), *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_tag_fusion_weights_nothing_reads_are_usage_errors(workdir, capsys):
    # an explicit weight counts even at its default value; neither path
    # exists, so each error comes before any file is read
    prosody = ["--prosody", str(workdir / "missing_prosody.tsv")]
    for flags, message in [
            (["--alpha", "2"], "--alpha weights the --prosody stream"),
            (["--alpha", "1"], "--alpha weights the --prosody stream"),
            ([*prosody, "--tune-fusion", "--alpha", "0.3"],
             "--tune-fusion chooses --alpha and --beta itself"),
            ([*prosody, "--tune-fusion", "--beta", "0.4"],
             "--tune-fusion chooses --alpha and --beta itself"),
            ([*prosody, "--tune-fusion", "--beta", "1", "--alpha", "1"],
             "--tune-fusion chooses --alpha and --beta itself")]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["tag", "--models", str(workdir / "missing"),
                      "--corpus", str(workdir / "missing.tsv"), *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_tag_default_fusion_weights_are_one(workdir, tmp_path, capsys):
    # leaving --alpha and --beta out is the same as giving 1 for each; with
    # no --prosody file too, --beta still scales the word evidence
    prosody = ["--prosody", str(workdir / "prosody.tsv")]
    outs = []
    for flags in ([*prosody], [*prosody, "--alpha", "1", "--beta", "1"],
                  [], ["--beta", "0.5"]):
        outs.append(tmp_path / f"pred{len(outs)}.tsv")
        rc = cli.main(["tag", "--models", str(workdir / "models"),
                       "--corpus", str(workdir / "corpus.tsv"), *flags,
                       "--output", str(outs[-1])])
        assert rc == 0
    capsys.readouterr()
    assert outs[0].read_text() == outs[1].read_text()
    assert len(outs[3].read_text().splitlines()) == 8 * 8
    assert outs[2].read_text() != outs[3].read_text()


# ---------------------------------------------------------------------------
# rescore
# ---------------------------------------------------------------------------

def test_rescore_writes_all_reports(workdir, tmp_path, capsys):
    out = tmp_path / "resc"
    rc = cli.main(["rescore", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--nbest", str(workdir / "nbest.tsv"),
                   "--output", str(out)])
    assert rc == 0
    for method in cli.METHODS:
        hyp_file = out / f"hyps_{method}.tsv"
        assert len(hyp_file.read_text().splitlines()) == 8 * 8
    report = (out / "report.tsv").read_text().splitlines()
    assert report[0].startswith("method\twer")
    by_method = {l.split("\t")[0]: l.split("\t") for l in report[1:]}
    assert by_method["mixture_of_posteriors"][5] == "n/a"
    assert float(by_method["baseline"][1]) >= float(by_method["oracle"][1])
    per_da = (out / "per_da.tsv").read_text().splitlines()
    assert per_da[0].startswith("label\tword_share")
    assert len(per_da) == 1 + len(LABELS)
    shares = sum(float(l.split("\t")[1]) for l in per_da[1:])
    assert abs(shares - 100.0) < 1e-9
    assert "WER" in capsys.readouterr().out


def test_rescore_skips_utterances_missing_from_nbest(workdir, tmp_path, capsys):
    partial = tmp_path / "partial.tsv"
    lines = (workdir / "nbest.tsv").read_text().splitlines()
    kept = [l for l in lines if not l.startswith("c0\t0\t")]
    partial.write_text("".join(l + "\n" for l in kept))
    rc = cli.main(["rescore", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--nbest", str(partial),
                   "--methods", "baseline,mixture_of_lms",
                   "--output", str(tmp_path / "out")])
    assert rc == 0
    assert "1 utterances without n-best lists" in capsys.readouterr().err
    hyp = (tmp_path / "out" / "hyps_baseline.tsv").read_text().splitlines()
    assert len(hyp) == 8 * 8 - 1


def test_rescore_max_hyps_one_keeps_rank_one(workdir, tmp_path):
    out = tmp_path / "r1"
    rc = cli.main(["rescore", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--nbest", str(workdir / "nbest.tsv"),
                   "--max-hyps", "1", "--methods", "baseline,oracle",
                   "--output", str(out)])
    assert rc == 0
    # single-hypothesis lists leave nothing to choose: methods coincide
    assert (out / "hyps_baseline.tsv").read_bytes() == \
        (out / "hyps_oracle.tsv").read_bytes()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_hyps_below_one_is_a_usage_error(workdir, tmp_path, capsys,
                                             value):
    # -1 used to drop the last hypothesis of every list, 0 to fail unlocated
    with pytest.raises(SystemExit) as exc:
        cli.main(["rescore", "--models", str(workdir / "models"),
                  "--corpus", str(workdir / "corpus.tsv"),
                  "--nbest", str(workdir / "nbest.tsv"),
                  "--max-hyps", value, "--output", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--max-hyps: must be at least 1" in capsys.readouterr().err


def test_rescore_rejects_unknown_method(workdir, tmp_path, capsys):
    # a usage error before any file is read (there is no such model
    # directory), as is an empty entry
    for methods, bad in [("magic", "'magic'"), ("baseline,", "''")]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["rescore", "--models", str(workdir / "missing"),
                      "--corpus", str(workdir / "corpus.tsv"),
                      "--nbest", str(workdir / "nbest.tsv"),
                      "--methods", methods,
                      "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"--methods: unknown method {bad}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rescore_keeps_a_repeated_method_once(workdir, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["rescore", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"),
                   "--nbest", str(workdir / "nbest.tsv"),
                   "--methods", "oracle,baseline,oracle,baseline",
                   "--output", str(out)])
    assert rc == 0
    report = (out / "report.tsv").read_text().splitlines()
    assert [row.split("\t")[0] for row in report[1:]] == ["oracle", "baseline"]
    stdout = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in stdout] == ["oracle", "baseline"]


# ---------------------------------------------------------------------------
# perplexity and eval
# ---------------------------------------------------------------------------

def test_perplexity_reports_per_label_rows(workdir, capsys):
    rc = cli.main(["perplexity", "--models", str(workdir / "models"),
                   "--corpus", str(workdir / "corpus.tsv"), "--words"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "discourse_perplexity\t" in out
    assert "word_perplexity\t-\t" in out
    for lab in LABELS:
        assert f"word_perplexity\t{lab}\t" in out


def test_eval_round_trip(workdir, tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    cli.main(["tag", "--models", str(workdir / "models"),
              "--corpus", str(workdir / "corpus.tsv"),
              "--output", str(pred)])
    capsys.readouterr()
    tsv = tmp_path / "report.tsv"
    rc = cli.main(["eval", "--reference", str(workdir / "corpus.tsv"),
                   "--predictions", str(pred),
                   "--tagset", str(workdir / "tagset.txt"),
                   "--tsv", str(tsv)])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    header = tsv.read_text().splitlines()[0]
    assert header.split("\t") == ["label", "count", "precision", "recall"]


def test_eval_missing_prediction_fails(workdir, tmp_path, capsys):
    pred = tmp_path / "short.tsv"
    pred.write_text("c0\t0\tStatement\t-\n")
    rc = cli.main(["eval", "--reference", str(workdir / "corpus.tsv"),
                   "--predictions", str(pred),
                   "--tagset", str(workdir / "tagset.txt")])
    assert rc == 1
    assert "no prediction" in capsys.readouterr().err


def test_eval_names_the_reference_line_of_a_missing_prediction(tmp_path,
                                                               capsys):
    ref = tmp_path / "ref.tsv"
    ref.write_text("c0\t0\tA\tS\ta\nc0\t1\tB\tQ\tb\n# c1 follows\n"
                   "c0\t2\tA\tS\tc\nc1\t0\tB\tQ\td\nc1\t1\tA\tS\te\n")
    (tmp_path / "tags.txt").write_text("S\nQ\n")
    part = tmp_path / "part.tsv"
    part.write_text("c0\t0\tS\t-\nc0\t1\tQ\t-\nc0\t2\tS\t-\n")
    rc = cli.main(["eval", "--reference", str(ref), "--predictions",
                   str(part), "--tagset", str(tmp_path / "tags.txt")])
    assert rc == 1
    # c1:0 sits on the reference's fifth line
    assert (f"error: {ref}:5: no prediction for c1:0\n"
            in capsys.readouterr().err)


def test_eval_rejects_a_second_prediction_for_one_utterance(
        workdir, tmp_path, capsys):
    pred = tmp_path / "pred.tsv"
    cli.main(["tag", "--models", str(workdir / "models"),
              "--corpus", str(workdir / "corpus.tsv"), "--output", str(pred)])
    capsys.readouterr()
    rows = pred.read_text().splitlines()
    # a later row would silently replace the first and change the accuracy
    label = "Statement" if rows[0].split("\t")[2] != "Statement" else "Question"
    pred.write_text("".join(f"{row}\n" for row in rows)
                    + f"c0\t0\t{label}\t-\n")
    rc = cli.main(["eval", "--reference", str(workdir / "corpus.tsv"),
                   "--predictions", str(pred),
                   "--tagset", str(workdir / "tagset.txt")])
    assert rc == 1
    assert f"{pred}:{len(rows) + 1}: second prediction row for c0:0 (the " \
        f"first is on line 1)" in capsys.readouterr().err


def test_eval_rejects_a_prediction_for_an_utterance_the_reference_lacks(
        tmp_path, capsys):
    ref = tmp_path / "ref.tsv"
    ref.write_text("c0\t0\tA\tS\ta\nc0\t1\tB\tQ\tb\n")
    (tmp_path / "tags.txt").write_text("S\nQ\n")
    pred = tmp_path / "pred.tsv"
    pred.write_text("c0\t0\tS\t-\n# c9 is no reference conversation\n"
                    "c9\t0\tQ\t-\nc0\t1\tQ\t-\nc0\t7\tS\t-\n")
    rc = cli.main(["eval", "--reference", str(ref), "--predictions",
                   str(pred), "--tagset", str(tmp_path / "tags.txt")])
    assert rc == 1
    assert (f"error: {pred}:3: prediction for c9:0, which the reference "
            f"lacks\n" in capsys.readouterr().err)


def test_a_prosody_tree_of_another_tag_set_fails_at_load(workdir, tmp_path,
                                                         capsys):
    tags = tmp_path / "two.txt"
    tags.write_text("Statement\nQuestion\n"
                    "collapse\tQuestion\tBackchannel/Acknowledge\n")
    other = tmp_path / "other"
    assert cli.main(["train", "--corpus", str(workdir / "corpus.tsv"),
                     "--models", str(other), "--tagset", str(tags),
                     "--prosody", str(workdir / "prosody.tsv")]) == 0
    grams = next(n for n, line in enumerate(
        (other / "discourse.arpa").read_text().splitlines(), 1)
        if line == "\\1-grams:")
    # each file of the other directory in turn, the first naming its
    # classes line, the second its unigram section
    for name, line, message in (
            ("prosody.tree", 2, "tree classes differ from the labels of "
                                "tagset.txt"),
            ("discourse.arpa", grams, "no grammar token "
                                      "'Backchannel/Acknowledge·A' for a "
                                      "label of the tag set (is the grammar "
                                      "from another tag set?)")):
        swapped = tmp_path / f"swapped_{name}"
        shutil.copytree(workdir / "models", swapped)
        shutil.copy(other / name, swapped / name)
        capsys.readouterr()
        rc = cli.main(["tag", "--models", str(swapped), "--corpus",
                       str(workdir / "corpus.tsv"), "--prosody",
                       str(workdir / "prosody.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {swapped / name}:{line}: {message}\n" in err
        assert "Traceback" not in err
    # the directory the tree came from still loads
    assert cli.load_models(other).tree.classes == ("Statement", "Question")


# ---------------------------------------------------------------------------
# Determinism and exit codes
# ---------------------------------------------------------------------------

def test_reruns_are_byte_identical(workdir, tmp_path):
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.main([
            "train", "--corpus", str(workdir / "corpus.tsv"),
            "--models", str(out), "--tagset", str(workdir / "tagset.txt"),
            "--order", "2", "--word-order", "2",
            "--prosody", str(workdir / "prosody.tsv"), "--min-leaf", "5",
        ])
        assert rc == 0
        dirs.append(out)
    files_a = sorted(p.relative_to(dirs[0])
                     for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1])
                     for p in dirs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
    tags = []
    for name in ("t1", "t2"):
        out = tmp_path / f"{name}.tsv"
        cli.main(["tag", "--models", str(dirs[0]),
                  "--corpus", str(workdir / "corpus.tsv"),
                  "--output", str(out)])
        tags.append(out.read_bytes())
    assert tags[0] == tags[1]


def test_missing_corpus_file_is_a_clean_failure(workdir, tmp_path, capsys):
    rc = cli.main(["tag", "--models", str(workdir / "models"),
                   "--corpus", str(tmp_path / "nope.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_not_a_model_directory(workdir, tmp_path, capsys):
    rc = cli.main(["tag", "--models", str(tmp_path / "void"),
                   "--corpus", str(workdir / "corpus.tsv")])
    assert rc == 1
    assert "model directory" in capsys.readouterr().err


_REQUIRED = {
    "train": ["--corpus", "c.tsv", "--models", "m"],
    "tag": ["--models", "m", "--corpus", "c.tsv"],
    "rescore": ["--models", "m", "--corpus", "c.tsv", "--nbest", "n.tsv",
                "--output", "out"],
    "perplexity": ["--models", "m", "--corpus", "c.tsv"],
    "eval": ["--reference", "c.tsv", "--predictions", "p.tsv"],
}


@pytest.mark.parametrize("command,flag,value", [
    *[(cmd, "--seed", "3") for cmd in ("train", "rescore", "perplexity",
                                       "eval")],
    *[(cmd, "--tagset", "t.txt") for cmd in ("tag", "rescore", "perplexity")],
    ("perplexity", "--nbest", "n.tsv"), ("perplexity", "--prosody", "p.tsv"),
    ("perplexity", "--lm-weight", "2"), ("perplexity", "--word-penalty", "1"),
    ("perplexity", "--max-hyps", "3"),
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, value,
                                                        capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *_REQUIRED[command], flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--tagset", "t.txt"), ("eval", "--tagset", "t.txt"),
    ("tag", "--seed", "3"), ("tag", "--max-hyps", "3"),
    ("rescore", "--lm-weight", "2.5"), ("perplexity", "--grammar", "none"),
])
def test_flags_a_command_reads_still_parse(command, flag, value):
    args = cli._build_parser().parse_args(
        [command, *_REQUIRED[command], flag, value])
    assert str(getattr(args, flag[2:].replace("-", "_"))) == value


@pytest.mark.parametrize("command,flag,value,message", [
    ("tag", "--lm-weight", "nan", "must be finite"),
    ("tag", "--lm-weight", "0", "must be above 0"),
    ("rescore", "--lm-weight", "-2", "must be above 0"),
    ("tag", "--word-penalty", "nan", "must be finite"),
    ("rescore", "--word-penalty", "inf", "must be finite"),
    ("tag", "--alpha", "nan", "must be finite"),
    ("tag", "--alpha", "-1", "must be at least 0"),
    ("tag", "--beta", "inf", "must be finite"),
    ("tag", "--beta", "0", "must be above 0"),
    ("tag", "--beta", "x", "invalid float value"),
])
def test_float_flags_out_of_range_are_usage_errors(command, flag, value,
                                                   message, capsys):
    # these used to exit 1 only after every model had been loaded and
    # scored, some with a misleading message; the paths here do not exist
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *_REQUIRED[command], f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["tag", "--corpus", "x"])  # --models is required
    assert exc.value.code == 2
