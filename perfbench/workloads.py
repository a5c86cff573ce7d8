"""The four benchmark workloads: sizes, CLI commands and output checks.

Sizes are chosen so that one run of each workload (set-up repeated three
times plus at least two measured passes) fits the benchmark's time budget
on the seed code; see README.md for the figures.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen import CorpusSpec, utterance_count

SRC = Path(__file__).resolve().parents[1] / "src"
SWBD_VOCAB = 80
DESK_LABELS = ("statement", "question", "backchannel", "agreement")


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Command:
    """One CLI invocation of a pass and how to judge what it wrote."""

    argv: list[str]                       # arguments after ``-m dialact.cli``
    outputs: list[Path]                   # fingerprinted after the run
    check: Callable[[Path], dict]         # gets the stdout file; raises
                                          # CheckFailed; returns quality figures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    train_flags: tuple[str, ...]
    trains_in_pass: bool                  # swbd-train: the pass is training
    commands: Callable[["Workload", dict, Path, Path, int], list[Command]]
    processed: Callable[[dict], int]      # utterances one pass processes

    def train_argv(self, inputs: dict, models: Path) -> list[str]:
        return ["train", "--tagset", str(inputs["tagset"]), "--corpus",
                str(inputs["train"]), "--models", str(models), "--heldout",
                str(inputs["heldout"]), "--prosody",
                str(inputs["train_prosody"]), *self.train_flags]


def bundled_labels() -> tuple[str, ...]:
    """The 42-act label set shipped with dialact, read as plain text so the
    benchmark process never imports dialact (and numpy) in untraced runs."""
    text = (SRC / "dialact" / "data" / "swbd_damsl_42.txt").read_text(
        encoding="utf-8")
    return tuple(line.strip() for line in text.splitlines()
                 if line.strip() and not line.strip().startswith("#"))


# ---------------------------------------------------------------------------
# Reading the generated inputs back, independently of dialact's parsers
# ---------------------------------------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def reference_labels(corpus: Path) -> dict[tuple[str, int], str]:
    return {(r[0], int(r[1])): r[3] for r in _rows(corpus)}


def reference_words(corpus: Path) -> dict[tuple[str, int], list[str]]:
    return {(r[0], int(r[1])): r[4].split() for r in _rows(corpus)}


def nbest_hypotheses(path: Path) -> dict[tuple[str, int], set[tuple[str, ...]]]:
    out: dict[tuple[str, int], set[tuple[str, ...]]] = {}
    for r in _rows(path):
        out.setdefault((r[0], int(r[1])), set()).add(tuple(r[4].split()))
    return out


def edit_distance(ref, hyp) -> int:
    """Plain Levenshtein distance over words."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_models(models: Path, seed: int) -> dict:
    """The directory loads, and sampled contexts of every unsmoothed model
    (and the pooled fallback) sum to one over the vocabulary.

    Runs in a child: loading the models here would raise the benchmark's
    own peak RSS, which every child it starts later inherits in ru_maxrss.
    """
    proc = subprocess.run([sys.executable, __file__, str(models), str(seed)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise CheckFailed(proc.stderr.strip()[-500:] or
                          f"model check exited {proc.returncode}")
    return {}


def _model_sums(models: Path, seed: int, contexts_per_model: int = 5) -> str:
    from dialact.cli import load_models
    from dialact.corpus import CorpusError

    try:
        trained = load_models(models)
    except (CorpusError, ValueError, OSError) as exc:
        return f"load_models: {exc}"
    rng = random.Random(seed)
    lms = trained.da_lms
    unique = {id(m): m for m in [lms.fallback, *lms.models.values()]}
    for model in unique.values():
        contexts = sorted(model.logprob)
        for ctx in rng.sample(contexts, min(contexts_per_model, len(contexts))):
            total = math.fsum(math.exp(model.cond_log_prob(ctx, w))
                              for w in model.vocab)
            if abs(total - 1.0) > 1e-6:
                return f"context {ctx}: probabilities sum to {total!r}"
    return ""


def check_predictions(pred: Path, stdout: Path, reference: Path,
                      labels: tuple[str, ...], viterbi: bool,
                      name: str = "accuracy") -> dict:
    """One prediction per utterance, posteriors in [0, 1], and an accuracy
    recount that agrees with the figure the CLI printed."""
    refs = reference_labels(reference)
    seen: set[tuple[str, int]] = set()
    correct = 0
    for row in _rows(pred):
        if len(row) != 4:
            raise CheckFailed(f"{pred.name}: bad row {row}")
        key = (row[0], int(row[1]))
        if key in seen or key not in refs:
            raise CheckFailed(f"{pred.name}: duplicate or unknown {key}")
        seen.add(key)
        if row[2] not in labels:
            raise CheckFailed(f"{pred.name}: unknown label {row[2]!r}")
        if viterbi != (row[3] == "-"):
            raise CheckFailed(f"{pred.name}: posterior field {row[3]!r}")
        if not viterbi and not 0.0 <= float(row[3]) <= 1.0:
            raise CheckFailed(f"{pred.name}: posterior {row[3]} outside [0, 1]")
        correct += row[2] == refs[key]
    if seen != set(refs):
        raise CheckFailed(f"{pred.name}: {len(refs) - len(seen)} utterances "
                          f"without a prediction")
    accuracy = correct / len(refs)
    printed = stdout.read_text(encoding="utf-8").split("%", 1)[0]
    if printed != f"accuracy {100.0 * accuracy:.2f}":
        raise CheckFailed(f"CLI reported {printed!r}, recount "
                          f"{100.0 * accuracy:.2f}%")
    return {name: accuracy}


def check_rescore(out: Path, reference: Path, nbest: Path,
                  methods: tuple[str, ...]) -> dict:
    """Each method picked a listed hypothesis for every utterance, and an
    edit-distance recount of its choices matches report.tsv."""
    refs = reference_words(reference)
    lists = nbest_hypotheses(nbest)
    ref_words = sum(len(w) for w in refs.values())
    report = {r[0]: r for r in _rows(out / "report.tsv")[1:]}
    figures = {}
    for method in methods:
        chosen = {(r[0], int(r[1])): tuple(r[2].split())
                  for r in _rows(out / f"hyps_{method}.tsv")}
        if set(chosen) != set(refs):
            raise CheckFailed(f"{method}: utterances differ from the corpus")
        for key, hyp in chosen.items():
            if hyp not in lists[key]:
                raise CheckFailed(f"{method}: {key} chose an unlisted hypothesis")
        edits = sum(edit_distance(refs[k], chosen[k]) for k in refs)
        row = report.get(method)
        if row is None:
            raise CheckFailed(f"report.tsv has no row for {method}")
        reported = float(row[1])
        if sum(int(x) for x in row[2:5]) != edits or \
                abs(reported - edits / ref_words) > 1e-12:
            raise CheckFailed(f"{method}: report says WER {reported!r} "
                              f"({row[2:5]}), recount {edits}/{ref_words}")
        figures[f"wer_{method}"] = edits / ref_words
    return figures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

RESCORE_METHODS = ("baseline", "one_best", "oracle", "mixture_of_lms",
                   "mixture_of_posteriors")


def _train_commands(wl: Workload, inputs: dict, models: Path, out: Path,
                    seed: int) -> list[Command]:
    written = out / "models"
    return [Command(wl.train_argv(inputs, written), [written],
                    lambda stdout: check_models(written, seed))]


def _tag_commands(wl: Workload, inputs: dict, models: Path, out: Path,
                  seed: int) -> list[Command]:
    pred = out / "pred.tsv"
    argv = ["tag", "--models", str(models), "--corpus", str(inputs["test"]),
            "--nbest", str(inputs["test_nbest"]), "--mode", "nbest",
            "--prosody", str(inputs["test_prosody"]), "--tune-fusion",
            "--seed", str(seed), "--output", str(pred)]
    return [Command(argv, [pred], lambda stdout: check_predictions(
        pred, stdout, inputs["test"], wl.spec.labels, viterbi=False))]


def _rescore_commands(wl: Workload, inputs: dict, models: Path, out: Path,
                      seed: int) -> list[Command]:
    res = out / "rescore"
    argv = ["rescore", "--models", str(models), "--corpus", str(inputs["test"]),
            "--nbest", str(inputs["test_nbest"]), "--methods",
            ",".join(RESCORE_METHODS), "--output", str(res)]
    return [Command(argv, [res], lambda stdout: check_rescore(
        res, inputs["test"], inputs["test_nbest"], RESCORE_METHODS))]


def _desk_commands(wl: Workload, inputs: dict, models: Path, out: Path,
                   seed: int) -> list[Command]:
    cmds = []
    for decoder in ("viterbi", "posterior"):
        pred = out / f"pred_{decoder}.tsv"
        argv = ["tag", "--models", str(models), "--corpus", str(inputs["test"]),
                "--prosody", str(inputs["test_prosody"]), "--decoder", decoder,
                "--output", str(pred)]
        cmds.append(Command(argv, [pred], lambda stdout, pred=pred, d=decoder:
                            check_predictions(pred, stdout, inputs["test"],
                                              wl.spec.labels, d == "viterbi",
                                              f"accuracy_{d}")))
    return cmds


def _swbd_spec(labels: tuple[str, ...], test_convs: int, test_utts: int,
               nbest: int) -> CorpusSpec:
    # Training data comes first from the seeded stream, so every SWBD-shaped
    # workload with one seed trains the same models.
    return CorpusSpec(labels, SWBD_VOCAB, train_convs=20, train_utts=30,
                      heldout_convs=6, test_convs=test_convs,
                      test_utts=test_utts, nbest=nbest)


SWBD_TRAIN_FLAGS = ("--order", "2", "--word-order", "2", "--min-leaf", "10")
DESK_TRAIN_FLAGS = ("--order", "3", "--word-order", "3", "--min-leaf", "10")


def workloads() -> dict[str, Workload]:
    """The workloads by name."""
    swbd_labels = bundled_labels()
    test_utts = lambda inputs: utterance_count(inputs["test"])
    wls = [
        Workload(
            "swbd-train",
            "the only workload where estimation, smoothing, dense "
            "materialization, ARPA writes and tree growing do the work",
            _swbd_spec(swbd_labels, 1, 1, 0), SWBD_TRAIN_FLAGS, True,
            _train_commands,
            lambda inputs: utterance_count(inputs["train"])
            + utterance_count(inputs["heldout"])),
        Workload(
            "swbd-tag",
            "many small bigram decodes of short conversations under the "
            "fusion grid search, after ARPA reads",
            _swbd_spec(swbd_labels, 2, 2, 10), SWBD_TRAIN_FLAGS, False,
            _tag_commands, test_utts),
        Workload(
            "swbd-rescore",
            "per-act LM queries over n-best hypotheses plus WER, with one "
            "forward-backward per conversation",
            _swbd_spec(swbd_labels, 4, 30, 10), SWBD_TRAIN_FLAGS, False,
            _rescore_commands, test_utts),
        Workload(
            "desk-long",
            "general-order decoders and trigram backoff chains over few "
            "long conversations, so per-step cost dominates",
            CorpusSpec(DESK_LABELS, 50, train_convs=8, train_utts=50,
                       heldout_convs=4, test_convs=4, test_utts=2500),
            DESK_TRAIN_FLAGS, False,
            _desk_commands, lambda inputs: 2 * test_utts(inputs)),
    ]
    return {wl.name: wl for wl in wls}


if __name__ == "__main__":
    problem = _model_sums(Path(sys.argv[1]), int(sys.argv[2]))
    if problem:
        print(problem, file=sys.stderr)
    sys.exit(1 if problem else 0)
