"""Checks that need a fresh interpreter for each run.

Each test runs ``python -m dialact.cli`` as child processes, with the test
run's own interpreter, working directory and environment, so the children
import the package the tests import.  Every child of one command must write
byte-identical files, stdout and stderr:

- two children with different ``PYTHONHASHSEED`` values, so an output that
  depends on set or dict order shows; reruns inside one process share its
  hash seed and cannot see that;
- where a command's sums run in BLAS, a third child on one BLAS thread
  (``OPENBLAS_NUM_THREADS=1``) against children at the default count.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dialact
from dialact import cli

# the default run leaves the BLAS thread count to the library
ENV = {k: v for k, v in os.environ.items()
       if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS")}
SEEDS = {"seed1": {"PYTHONHASHSEED": "1"}, "seed2": {"PYTHONHASHSEED": "2"}}
# the two hash seeds, and the first again on one BLAS thread
ONE_THREAD = {**SEEDS, "one_thread": {"PYTHONHASHSEED": "1",
                                      "OPENBLAS_NUM_THREADS": "1"}}


def rows(width: int, *fields) -> str:
    """Tab-separated lines of ``width`` fields each."""
    return "".join("\t".join(map(str, fields[i:i + width])) + "\n"
                   for i in range(0, len(fields), width))


# c0 and c1 hold 3 and 2 utterances, so they decode as one ragged batch
INPUTS = {
    "corpus.tsv": rows(5, "c0", 0, "A", "Statement", "i think we did",
                       "c0", 1, "B", "Yes-No-Question", "do you know that",
                       "c0", 2, "A", "Statement", "so we did it",
                       "c1", 0, "B", "Yes-No-Question", "did you know",
                       "c1", 1, "A", "Statement", "i think so"),
    "nbest.tsv": rows(5, "c0", 0, 1, -10.0, "i think we did",
                      "c0", 0, 2, -11.0, "i think you did",
                      "c0", 1, 1, -10.0, "do you know that",
                      "c0", 1, 2, -10.5, "do you know",
                      "c0", 2, 1, -10.0, "so we did it",
                      "c1", 0, 1, -10.0, "did you know",
                      "c1", 0, 2, -12.0, "did you so",
                      "c1", 1, 1, -10.0, "i think so"),
    # one continuous and one categorical column, one value NA
    "prosody.tsv": "f0\tcontour\n" + rows(
        4, "c0", 0, 110.5, "fall", "c0", 1, "NA", "rise", "c0", 2, 98.0,
        "fall", "c1", 0, 131.25, "rise", "c1", 1, 101.0, "level"),
    "heldout.tsv": rows(5, "h0", 0, "A", "Statement", "i think we know",
                        "h0", 1, "B", "Yes-No-Question", "do you think so",
                        "h0", 2, "A", "Statement", "we did"),
    # one 100-utterance conversation spans four 32-step decode blocks, so
    # the backward sweep reruns the forward sweep from its checkpoints and
    # Viterbi reads its evidence a block at a time
    "long.tsv": "".join(
        f"long\t{i}\tA\tYes-No-Question\tdo you know that\n" if i % 3 == 0
        else f"long\t{i}\tB\tStatement\ti think we did\n" for i in range(100)),
}

# model directories by name: word order 3 (the default) with held-out
# smoothing and a prosody tree, and word order 4 under an order-3 grammar
TRAIN = {
    "models": ("--heldout", "{root}/heldout.tsv", "--prosody",
               "{root}/prosody.tsv", "--min-leaf", "1"),
    "models_o4": ("--heldout", "{root}/heldout.tsv", "--order", "3",
                  "--word-order", "4"),
}


@pytest.fixture(scope="module")
def root(tmp_path_factory) -> Path:
    """The inputs, and each TRAIN directory trained in this process."""
    root = tmp_path_factory.mktemp("children")
    for name, text in INPUTS.items():
        (root / name).write_text(text, encoding="utf-8")
    with warnings.catch_warnings():     # 40 bundled acts have no utterances
        warnings.simplefilter("ignore")
        for name, flags in TRAIN.items():
            assert cli.main(["train", "--corpus", str(root / "corpus.tsv"),
                             "--models", str(root / name),
                             *(f.format(root=root) for f in flags)]) == 0
    return root


def written(path: Path) -> dict:
    """The bytes of each file at ``path``, a file or a directory tree."""
    if path.is_file():
        return {"": path.read_bytes()}
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def same_in_every_child(argv, root: Path, out: Path, envs: dict):
    """Run ``dialact *argv`` once per entry of ``envs``, the children at
    once, each with that entry's variables added to ``ENV``; ``{root}`` in
    ``argv`` names the inputs and ``{out}`` the child's own output under
    ``out``.  Every child must exit 0 and write the same stdout, stderr
    and output files as the first; returns the first's."""
    procs = {name: subprocess.Popen(
        [sys.executable, "-m", "dialact.cli",
         *(a.format(root=root, out=out / name) for a in argv)],
        env={**ENV, **extra}, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for name, extra in envs.items()}
    results = {}
    try:
        for name, proc in procs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, (name, stderr.decode())
            results[name] = (stdout, stderr, written(out / name))
    finally:    # children a failed check left running
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    first, *others = results
    for name in others:
        for part, got, want in zip(("stdout", "stderr", "files"),
                                   results[name], results[first]):
            assert got == want, (name, part)
    return results[first]


def test_children_import_the_package_the_tests_import():
    out = subprocess.run(
        [sys.executable, "-c", "import dialact; print(dialact.__file__)"],
        env=ENV, capture_output=True, text=True, check=True)
    assert os.path.realpath(out.stdout.strip()) == \
        os.path.realpath(dialact.__file__)


@pytest.mark.parametrize("name", TRAIN)
def test_train_writes_one_directory_and_report(root, tmp_path, name):
    stdout, _, files = same_in_every_child(
        ["train", "--corpus", "{root}/corpus.tsv", "--models", "{out}",
         *TRAIN[name]], root, tmp_path, SEEDS)
    # and the directory this process trained
    assert files == written(root / name)
    assert b"\nsmoothing_weight\t" in stdout
    if "--prosody" in TRAIN[name]:
        assert files["prosody.tree"]


@pytest.mark.parametrize("models, corpus, flags, envs", [
    ("models", "corpus", ("--prosody", "{root}/prosody.tsv", "--decoder",
                          "viterbi"), SEEDS),
    ("models", "corpus", ("--prosody", "{root}/prosody.tsv", "--decoder",
                          "posterior"), ONE_THREAD),
    ("models", "corpus", ("--prosody", "{root}/prosody.tsv",
                          "--tune-fusion"), ONE_THREAD),
    ("models_o4", "corpus", ("--decoder", "viterbi"), SEEDS),
    ("models_o4", "corpus", ("--decoder", "posterior"), SEEDS),
    ("models", "corpus", ("--nbest", "{root}/nbest.tsv", "--mode", "nbest"),
     SEEDS),
    ("models", "corpus", ("--nbest", "{root}/nbest.tsv", "--mode",
                          "one_best"), SEEDS),
    ("models", "long", ("--decoder", "posterior"), ONE_THREAD),
    ("models", "long", ("--online",), ONE_THREAD),
    ("models", "long", ("--decoder", "viterbi"), ONE_THREAD),
], ids=["viterbi", "posterior", "tune-fusion", "o4-viterbi", "o4-posterior",
        "nbest", "one-best", "long-posterior", "long-online", "long-viterbi"])
def test_tag_writes_one_set_of_predictions(root, tmp_path, models, corpus,
                                           flags, envs):
    _, _, files = same_in_every_child(
        ["tag", "--models", f"{{root}}/{models}", "--corpus",
         f"{{root}}/{corpus}.tsv", *flags, "--output", "{out}"],
        root, tmp_path, envs)
    assert len(files[""].splitlines()) == \
        len(INPUTS[f"{corpus}.tsv"].splitlines())


def test_perplexity_writes_one_report(root, tmp_path):
    stdout, _, _ = same_in_every_child(
        ["perplexity", "--models", "{root}/models_o4", "--corpus",
         "{root}/corpus.tsv", "--words"], root, tmp_path, SEEDS)
    assert stdout.startswith(b"discourse_perplexity\t")
    assert b"\nword_perplexity\t" in stdout


def test_rescore_writes_one_directory_and_report(root, tmp_path):
    stdout, _, files = same_in_every_child(
        ["rescore", "--models", "{root}/models", "--corpus",
         "{root}/corpus.tsv", "--nbest", "{root}/nbest.tsv", "--output",
         "{out}"], root, tmp_path, ONE_THREAD)
    assert files["report.tsv"].startswith(b"method\twer")
    assert stdout.startswith(b"baseline: WER ")
