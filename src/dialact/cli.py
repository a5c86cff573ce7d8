"""Batch command-line frontend wiring the pipeline.

Subcommands
  train       estimate models from a labeled corpus into a model directory
  tag         predict a dialogue act per utterance, optionally fusing prosody
  rescore     pick n-best hypotheses per rescoring method and report WER
  perplexity  score a corpus under the trained models
  eval        compare a predictions file against reference labels

Model directory layout (written by train, read by everything else):
  manifest.tsv           kind, key, relative path per artifact; and per
                         label a smoothing_weight row, the weight of its model
                         in a query-time mix with the pooled one (rescoring)
  tagset.txt             the label inventory
  discourse.arpa         the dialogue-act sequence prior
  da_lms/<label>.arpa    per-DA word models plus _fallback.arpa (pooled)
  prosody.tree           decision tree (only when trained with --prosody)

Labels may contain characters unfit for filenames, so the manifest records
the label-to-filename mapping and loading never globs.  The only randomness,
the jackknife split of ``tag --tune-fusion``, follows ``tag --seed``.  Reruns
with identical inputs and flags produce byte-identical outputs; rows are
ordered by conversation id, then utterance index.  Exit status: 0 on
success, 1 on validation or I/O failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import (Conversation, CorpusError, FeatureSchema, TagSet,
                     content_lines, default_tagset, located, load_tagset,
                     parse_conversations, parse_nbest, parse_prosody,
                     save_tagset, symmetrize_speakers)
from .discourse import (DiscourseGrammar, GrammarVariant, discourse_perplexity,
                        load_discourse, save_discourse, train_discourse)
from .hmm import (CombinationWeights, combine_likelihoods,
                  forward_backward_corpus, tune_alpha_beta, viterbi_corpus)
from .metrics import EvalReport, confusion_counts
from .ngram import _build, _parse_arpa, interpolate, perplexity, write_arpa
from .prosody import (DecisionTree, TreeConfig, load_tree,
                      prosody_likelihood_tables, serialize_tree,
                      train_corpus_tree)
from .rescore import METHODS, per_da_wer_report, rescore_corpus
from .wordmodels import (DEFAULT_SMOOTHING, DaLmSet, MODES, ScoreScaling,
                         _words_by_class, smooth_da_lms, train_da_lms,
                         word_likelihood_tables)


# ---------------------------------------------------------------------------
# Model directory I/O
# ---------------------------------------------------------------------------

_FALLBACK_STEM = "_fallback"
_MANIFEST_KINDS = ("tagset", "discourse", "fallback", "da_lm",
                   "smoothing_weight", "prosody")


@dataclass
class TrainedModels:
    tagset: TagSet
    grammar: DiscourseGrammar
    da_lms: DaLmSet
    smoothed: DaLmSet
    tree: DecisionTree | None


def _sanitize(label: str, used: set[str]) -> str:
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in label)
    safe = safe or "_"
    stem, n = safe, 1
    while stem in used:
        n += 1
        stem = f"{safe}-{n}"
    used.add(stem)
    return stem


def save_models(directory: str | Path, tagset: TagSet,
                grammar: DiscourseGrammar, da_lms: DaLmSet,
                weights: Mapping[str, float], tree: DecisionTree | None) -> None:
    """Write the model directory; ``weights`` are the per-label smoothing
    weights of :func:`dialact.wordmodels.smooth_da_lms`."""
    out = Path(directory)
    (out / "da_lms").mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, str, str]] = []

    save_tagset(tagset, out / "tagset.txt")
    rows.append(("tagset", "-", "tagset.txt"))
    save_discourse(grammar, out / "discourse.arpa")
    rows.append(("discourse", "-", "discourse.arpa"))

    fallback_path = f"da_lms/{_FALLBACK_STEM}.arpa"
    write_arpa(da_lms.fallback, out / fallback_path)
    rows.append(("fallback", "-", fallback_path))

    used = {_FALLBACK_STEM}
    for lab in tagset.labels:
        stem = _sanitize(lab, used)
        model = da_lms.models[lab]
        if model is da_lms.fallback:
            # zero-count class: share the pooled file instead of duplicating
            rows.append(("da_lm", lab, fallback_path))
        else:
            path = f"da_lms/{stem}.arpa"
            write_arpa(model, out / path)
            rows.append(("da_lm", lab, path))
        rows.append(("smoothing_weight", lab, repr(float(weights[lab]))))

    if tree is not None:
        serialize_tree(tree, out / "prosody.tree")
        rows.append(("prosody", "-", "prosody.tree"))

    with open(out / "manifest.tsv", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(row) + "\n")


def load_models(directory: str | Path) -> TrainedModels:
    root = Path(directory)
    manifest = root / "manifest.tsv"
    if not manifest.is_file():
        raise CorpusError(f"{manifest}: not found (is this a model directory?)")
    # kind -> key -> (value, manifest line)
    by_kind: dict[str, dict[str, tuple[str, int]]] = {}
    lineno = 1
    for lineno, (kind, key, value) in content_lines(manifest, 3):
        if kind == "da_lm_smoothed":
            raise CorpusError(f"{manifest}:{lineno}: old dense smoothed model "
                              f"row; re-run `dialact train`")
        if kind not in _MANIFEST_KINDS:
            raise CorpusError(f"{manifest}:{lineno}: unknown kind {kind!r}")
        if key != "-" and kind not in ("da_lm", "smoothing_weight"):
            raise CorpusError(f"{manifest}:{lineno}: a {kind} row takes key '-'")
        if kind != "smoothing_weight" and not (root / value).is_file():
            raise CorpusError(f"{manifest}:{lineno}: no file {value!r}")
        rows = by_kind.setdefault(kind, {})
        if key in rows:
            raise CorpusError(f"{manifest}:{lineno}: second {kind} row for "
                              f"{key!r} (the first is on line {rows[key][1]})")
        rows[key] = (value, lineno)
    for kind in ("tagset", "discourse", "fallback"):
        if kind not in by_kind:
            raise CorpusError(f"{manifest}:{lineno}: missing {kind} entry")

    tagset = load_tagset(root / by_kind["tagset"]["-"][0])
    grammar = load_discourse(root / by_kind["discourse"]["-"][0], tagset)

    table = by_kind.get("da_lm", {})
    weights = by_kind.get("smoothing_weight", {})
    for kind, rows in (("da_lm", table), ("smoothing_weight", weights)):
        for lab, (_, line) in rows.items():
            if lab not in tagset.labels:
                raise CorpusError(f"{manifest}:{line}: {kind} row for "
                                  f"{lab!r}, which is not in the tag set")
    for lab in tagset.labels:
        if lab not in table:
            raise CorpusError(f"{manifest}:{by_kind['tagset']['-'][1]}: no "
                              f"da_lm entry for {lab!r} of this tag set")
        if lab not in weights:
            raise CorpusError(f"{manifest}:{table[lab][1]}: no "
                              f"smoothing_weight row for {lab!r}")
    # each model file read once, and all of them laid out as one store
    paths = list(dict.fromkeys([by_kind["fallback"]["-"][0], *(
        table[lab][0] for lab in tagset.labels)]))
    model_at = dict(zip(paths, _build([_parse_arpa(root / p) for p in paths])))
    fallback = model_at[paths[0]]
    models, smoothed = {}, {}
    for lab in tagset.labels:
        model = models[lab] = model_at[table[lab][0]]
        text, line = weights[lab]
        try:    # non-numbers, NaN and weights outside [0, 1] all raise
            mix = interpolate(model, fallback, float(text))
        except ValueError as exc:
            raise CorpusError(f"{manifest}:{line}: cannot smooth {lab!r} "
                              f"with weight {text!r}: {exc}") from None
        smoothed[lab] = model if model is fallback else mix
    tree = None
    if "prosody" in by_kind:
        tree = load_tree(path := root / by_kind["prosody"]["-"][0])
        if tree.classes != tagset.labels:   # name the tree's classes line
            line = next(n for n, f in content_lines(path) if f[0].strip() == "classes")
            raise CorpusError(f"{path}:{line}: tree classes differ from the "
                              f"labels of {by_kind['tagset']['-'][0]}")
    return TrainedModels(tagset, grammar, DaLmSet(tagset, models, fallback),
                         DaLmSet(tagset, smoothed, fallback), tree)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load_tagset(args) -> TagSet:
    return load_tagset(args.tagset) if args.tagset else default_tagset()


def _load_convs(args, tagset: TagSet
                ) -> tuple[list[Conversation], FeatureSchema | None]:
    """The corpus with the n-best lists and prosody of ``args`` attached,
    and the prosody file's schema."""
    nbest, schema, prosody = {}, None, {}
    if getattr(args, "nbest", None):
        nbest = parse_nbest(args.nbest, args.max_hyps)
    if getattr(args, "prosody", None):
        schema, prosody = parse_prosody(args.prosody)
    convs = parse_conversations(args.corpus, tagset, nbest, prosody)
    if not convs:
        raise CorpusError(f"{args.corpus}:1: no conversations")
    return convs, schema


def _require(path: str, convs, message: str, column: str = "labels") -> None:
    """Raise ``message`` at the line of corpus file ``path`` that holds the
    first utterance of ``convs`` whose entry in ``column`` is None, if
    there is one."""
    for conv in convs:
        entries = getattr(conv, column)
        if None in entries:                     # read the file for its line
            index = entries.index(None)
            line = next(n for n, (c, i, *_) in content_lines(path, 5)
                        if c == conv.conv_id and int(i) == index)
            raise CorpusError(f"{path}:{line}: {message}")


def _at_header(path: str):
    """Report a ValueError of the block, a fault of the prosody file's
    columns as a whole, at the file's header line."""
    return located(lambda exc: f"{path}:{next(content_lines(path))[0]}: {exc}")


def _grammar_for(args, models: TrainedModels) -> DiscourseGrammar:
    if args.grammar == "none":
        return DiscourseGrammar.uniform(models.tagset, models.grammar.variant)
    return models.grammar


def _scaling(args) -> ScoreScaling:
    return ScoreScaling(args.lm_weight, args.word_penalty)


@contextlib.contextmanager
def _out_stream(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh


def _g(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    tagset = _load_tagset(args)
    convs, schema = _load_convs(args, tagset)
    _require(args.corpus, convs, "training corpus has an unlabeled utterance")

    grammar_data = symmetrize_speakers(convs) if args.symmetrize else convs
    grammar = train_discourse(grammar_data, tagset, args.order,
                              GrammarVariant(args.variant))
    da_lms = train_da_lms(convs, tagset, order=args.word_order)

    if args.heldout:
        heldout = parse_conversations(args.heldout, tagset)
        _, weights = smooth_da_lms(da_lms, heldout)
    else:
        print(f"note: no --heldout corpus; smoothing weights default to "
              f"{DEFAULT_SMOOTHING}", file=sys.stderr)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, weights = smooth_da_lms(da_lms, [])

    tree = None
    if args.prosody:
        config = TreeConfig(args.min_leaf, args.max_depth)
        with _at_header(args.prosody):
            tree = train_corpus_tree(schema, convs, tagset, config)

    save_models(args.models, tagset, grammar, da_lms, weights, tree)

    print(f"discourse_perplexity\t{_g(discourse_perplexity(grammar, convs))}")
    all_words = [words for conv in convs for words in conv.words]
    print(f"word_perplexity_baseline\t{_g(perplexity(da_lms.fallback, all_words))}")
    for lab in tagset.labels:
        print(f"smoothing_weight\t{lab}\t{_g(weights[lab])}")
    return 0


def cmd_tag(args) -> int:
    models = load_models(args.models)
    tagset = models.tagset
    convs, _ = _load_convs(args, tagset)
    if args.mode != "true_words":
        _require(args.corpus, convs,
                 f"mode {args.mode!r} needs an n-best list", "nbest")
    grammar = _grammar_for(args, models)
    word_tables = word_likelihood_tables(models.da_lms, convs, args.mode,
                                         _scaling(args))
    prosody_tables = [None] * len(word_tables)
    weights = CombinationWeights(*(1.0 if w is None else w
                                   for w in (args.alpha, args.beta)))
    if args.prosody:
        if models.tree is None:
            raise CorpusError("model directory has no prosody tree")
        with _at_header(args.prosody):
            prosody_tables = prosody_likelihood_tables(models.tree, convs)
        if args.tune_fusion:
            _require(args.corpus, convs, "--tune-fusion needs labels "
                                         "on every utterance")
            refs = {conv.conv_id: list(map(tagset.collapse, conv.labels))
                    for conv in convs}
            result = tune_alpha_beta(grammar, word_tables, prosody_tables,
                                     refs, seed=args.seed)
            for half, (w, acc) in enumerate(zip(result.weights,
                                                result.half_accuracies)):
                print(f"fusion half {half + 1}: alpha={_g(w.alpha)} "
                      f"beta={_g(w.beta)} heldout accuracy {_g(100 * acc)}%",
                      file=sys.stderr)
            print(f"fusion pooled accuracy {_g(100 * result.accuracy)}%",
                  file=sys.stderr)
            weights = result.better
    # from here on tag reads only the label columns, for its report
    references = [(conv.conv_id, conv.labels) for conv in convs]
    del convs
    tables = [combine_likelihoods(w, p, weights)
              for w, p in zip(word_tables, prosody_tables)]

    # conversation id -> (label per utterance, posterior array or None)
    predicted: dict[str, tuple] = {}
    if args.decoder == "viterbi":
        for table, (path, _) in zip(tables, viterbi_corpus(grammar, tables)):
            predicted[table.conversation_id] = (path, None)
    else:
        for table, posts in zip(tables, forward_backward_corpus(
                grammar, tables, online=args.online)):
            predicted[table.conversation_id] = (
                np.array(table.labels, dtype=object)[posts.argmax(axis=1)],
                posts.max(axis=1))

    with _out_stream(args.output) as fh:
        for conv_id in sorted(predicted):
            labels, best = predicted[conv_id]
            texts = itertools.repeat("-") if best is None \
                else map(repr, best.tolist())
            fh.writelines(f"{conv_id}\t{i}\t{lab}\t{post}\n" for i, (lab, post)
                          in enumerate(zip(labels, texts)))

    report = _accuracy(references, tagset, lambda c, i: predicted[c][0][i])
    if report is not None:
        stream = sys.stdout if args.output != "-" else sys.stderr
        stream.write(report.format())
    return 0


def _accuracy(references, tagset: TagSet, predicted) -> EvalReport | None:
    """The accuracy report of ``predicted(conv_id, index)``'s label for each
    labeled utterance against its reference, both collapsed; None if no
    utterance is labeled.  ``references`` holds per conversation its id and
    its label column, read one pair at a time."""
    confusion = confusion_counts(
        ((tagset.collapse(label), tagset.collapse(predicted(conv_id, i)))
         for conv_id, labels in references for i, label in enumerate(labels)
         if label is not None), tagset.labels)
    return EvalReport(tagset.labels, confusion) if confusion.any() else None


def cmd_rescore(args) -> int:
    models = load_models(args.models)
    convs, _ = _load_convs(args, models.tagset)
    methods = args.methods
    result = rescore_corpus(convs, _grammar_for(args, models), models.da_lms,
                            models.smoothed, methods, _scaling(args))
    if not result.references:
        raise CorpusError("no utterance has an n-best list")
    if result.skipped:
        print(f"note: {len(result.skipped)} utterances without n-best lists "
              f"were skipped", file=sys.stderr)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for method in methods:
        chosen = result.methods[method].chosen
        with open(out / f"hyps_{method}.tsv", "w", encoding="utf-8") as fh:
            for key in sorted(chosen):
                fh.write(f"{key[0]}\t{key[1]}\t{' '.join(chosen[key])}\n")

    with open(out / "report.tsv", "w", encoding="utf-8") as fh:
        fh.write("method\twer\tsubstitutions\tinsertions\tdeletions\t"
                 "perplexity\n")
        for method in methods:
            r = result.methods[method]
            ppl = "n/a" if r.perplexity is None else _g(r.perplexity)
            fh.write(f"{method}\t{r.wer.rate!r}\t{r.wer.substitutions}\t"
                     f"{r.wer.insertions}\t{r.wer.deletions}\t{ppl}\n")
            print(f"{method}: WER {_g(100 * r.wer.rate)}%  perplexity {ppl}")

    if "baseline" in methods and "mixture_of_lms" in methods and result.labels:
        rows = per_da_wer_report(
            {k: result.references[k] for k in result.labels}, result.labels,
            result.methods["baseline"].errors,
            result.methods["mixture_of_lms"].errors)
        with open(out / "per_da.tsv", "w", encoding="utf-8") as fh:
            fh.write("label\tword_share\tbaseline_wer\tmixture_wer\tdelta\n")
            for row in rows:
                fh.write(f"{row['label']}\t{row['word_share']!r}\t"
                         f"{row['baseline_wer']!r}\t{row['method_wer']!r}\t"
                         f"{row['delta']!r}\n")
    return 0


def cmd_perplexity(args) -> int:
    models = load_models(args.models)
    convs, _ = _load_convs(args, models.tagset)
    _require(args.corpus, convs, "perplexity needs labeled utterances")
    grammar = _grammar_for(args, models)
    print(f"discourse_perplexity\t{_g(discourse_perplexity(grammar, convs))}")
    if args.words:
        all_words = [words for conv in convs for words in conv.words]
        print(f"word_perplexity\t-\t"
              f"{_g(perplexity(models.da_lms.fallback, all_words))}")
        for lab, seqs in _words_by_class(convs, models.tagset).items():
            if seqs:
                print(f"word_perplexity\t{lab}\t"
                      f"{_g(perplexity(models.da_lms.models[lab], seqs))}")
    return 0


def cmd_eval(args) -> int:
    tagset = _load_tagset(args)
    convs = parse_conversations(args.reference, tagset)
    preds: dict[tuple[str, int], tuple[str, int]] = {}  # key -> label, line
    at = {(c, int(i)): n    # the reference's line per utterance
          for n, (c, i, *_) in content_lines(args.reference, 5)}
    with located(lambda _: f"{args.predictions}:{lineno}: bad utterance "
                           f"index {fields[1]!r}"):
        for lineno, fields in content_lines(args.predictions):
            if len(fields) < 3:
                raise CorpusError(f"{args.predictions}:{lineno}: expected at "
                                  f"least 3 fields")
            if fields[2] not in tagset:
                raise CorpusError(f"{args.predictions}:{lineno}: label "
                                  f"{fields[2]!r} not in tag set")
            key = (fields[0], int(fields[1]))
            if key in preds:
                raise CorpusError(f"{args.predictions}:{lineno}: second "
                                  f"prediction row for {key[0]}:{key[1]} "
                                  f"(the first is on line {preds[key][1]})")
            if key not in at:
                raise CorpusError(f"{args.predictions}:{lineno}: prediction "
                                  f"for {key[0]}:{key[1]}, which the "
                                  f"reference lacks")
            preds[key] = (fields[2], lineno)

    def predicted(conv_id: str, index: int) -> str:
        if (conv_id, index) not in preds:
            raise CorpusError(f"{args.reference}:{at[conv_id, index]}: no "
                              f"prediction for {conv_id}:{index}")
        return preds[conv_id, index][0]

    report = _accuracy([(conv.conv_id, conv.labels) for conv in convs],
                       tagset, predicted)
    if report is None:
        raise CorpusError(f"{args.reference}:1: no labeled utterances")
    sys.stdout.write(report.format())
    if args.tsv:
        Path(args.tsv).write_text(report.to_tsv(), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an int of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    parse.__name__ = "int"      # argparse names it in "invalid int value"
    return parse


def _finite_float(low: float = -math.inf, strict: bool = False):
    """An argparse type: a finite float of at least ``low``, or above it
    if ``strict``."""
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must be {'above' if strict else 'at least'} {low:g}, "
                f"got {text}")
        return value
    parse.__name__ = "float"    # argparse names it in "invalid float value"
    return parse


def _methods(text: str) -> list[str]:
    """An argparse type: a comma list of rescoring methods, each kept once
    in first-seen order."""
    methods = text.split(",")
    for method in methods:
        if method not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {method!r} (choose from {', '.join(METHODS)})")
    return list(dict.fromkeys(methods))


def _tag_conflict(args) -> str | None:
    """What makes ``tag``'s options contradict each other, if anything."""
    if args.mode != "true_words" and not args.nbest:
        return f"--mode {args.mode} needs an --nbest file"
    if args.online and args.decoder != "posterior":
        return "--online applies to --decoder posterior only"
    if args.tune_fusion and not args.prosody:
        return "--tune-fusion needs a --prosody file"
    if args.alpha is not None and not args.prosody:
        return "--alpha weights the --prosody stream, and there is none"
    if args.tune_fusion and (args.alpha, args.beta) != (None, None):
        return "--tune-fusion chooses --alpha and --beta itself"
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialact",
        description="Dialogue-act tagging and n-best rescoring.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each option sits only on the commands that read it: train and eval
    # take --tagset, the others read the tag set from the model directory
    tagset = argparse.ArgumentParser(add_help=False)
    tagset.add_argument("--tagset", help="label inventory file "
                        "(default: bundled 42-label set)")

    grammar = argparse.ArgumentParser(add_help=False)
    grammar.add_argument("--grammar", choices=("trained", "none"),
                         default="trained",
                         help="'none' replaces the discourse prior with a "
                         "uniform one")

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--lm-weight", type=_finite_float(0.0, strict=True),
                         default=10.0,
                         help="recognizer LM weight lambda (default 10)")
    scoring.add_argument("--word-penalty", type=_finite_float(), default=0.0,
                         help="recognizer insertion penalty mu (default 0)")
    scoring.add_argument("--max-hyps", type=_int_at_least(1), default=None,
                         help="truncate n-best lists to this many hypotheses")

    p = sub.add_parser("train", parents=[tagset],
                       help="estimate models from a labeled corpus")
    p.add_argument("--corpus", required=True, help="labeled conversation file")
    p.add_argument("--models", required=True, help="output model directory")
    p.add_argument("--order", type=_int_at_least(1), default=2,
                   help="discourse grammar n-gram order (default 2)")
    p.add_argument("--variant",
                   choices=tuple(v.value for v in GrammarVariant),
                   default=GrammarVariant.SPEAKER_CONDITIONED.value,
                   help="discourse grammar view (default conditional)")
    p.add_argument("--word-order", type=_int_at_least(1), default=3,
                   help="per-DA word model order (default 3)")
    p.add_argument("--heldout",
                   help="held-out conversations for smoothing weights")
    p.add_argument("--symmetrize", action="store_true",
                   help="train the grammar on speaker-swapped copies too")
    p.add_argument("--prosody", help="prosodic feature file; trains a tree")
    p.add_argument("--min-leaf", type=_int_at_least(1), default=10,
                   help="minimum tree leaf size (default 10)")
    p.add_argument("--max-depth", type=_int_at_least(0), default=None,
                   help="maximum tree depth (default unlimited)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", parents=[scoring, grammar],
                       help="predict a dialogue act per utterance")
    p.add_argument("--models", required=True, help="trained model directory")
    p.add_argument("--corpus", required=True, help="conversation file")
    p.add_argument("--nbest", help="n-best file (modes nbest and one_best)")
    p.add_argument("--prosody", help="prosodic feature file for fusion")
    p.add_argument("--mode", choices=MODES, default="true_words",
                   help="word evidence source (default true_words)")
    p.add_argument("--decoder", choices=("posterior", "viterbi"),
                   default="posterior",
                   help="posterior (per-utterance argmax) or viterbi")
    p.add_argument("--online", action="store_true",
                   help="filtered posteriors: no look-ahead")
    # None: not given, which _tag_conflict tells from an explicit 1
    p.add_argument("--alpha", type=_finite_float(0.0), default=None,
                   help="prosody stream weight (default 1)")
    p.add_argument("--beta", type=_finite_float(0.0, strict=True),
                   default=None,
                   help="evidence flattening weight (default 1)")
    p.add_argument("--tune-fusion", action="store_true",
                   help="jackknife-tune alpha and beta on the labels")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the --tune-fusion split (default 0)")
    p.add_argument("--output", default="-",
                   help="predictions file (default stdout)")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("rescore", parents=[scoring, grammar],
                       help="rescore n-best lists and report WER")
    p.add_argument("--models", required=True, help="trained model directory")
    p.add_argument("--corpus", required=True,
                   help="conversation file with reference words")
    p.add_argument("--nbest", required=True, help="n-best file")
    p.add_argument("--methods", type=_methods, default=",".join(METHODS),
                   help="comma list of " + ", ".join(METHODS))
    p.add_argument("--output", required=True, help="output directory")
    p.set_defaults(func=cmd_rescore)

    p = sub.add_parser("perplexity", parents=[grammar],
                       help="score a corpus under the trained models")
    p.add_argument("--models", required=True, help="trained model directory")
    p.add_argument("--corpus", required=True, help="conversation file")
    p.add_argument("--words", action="store_true",
                   help="also report word model perplexities")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("eval", parents=[tagset],
                       help="compare predictions against reference labels")
    p.add_argument("--reference", required=True,
                   help="labeled conversation file")
    p.add_argument("--predictions", required=True,
                   help="tag output (conv, index, label columns)")
    p.add_argument("--tsv", help="also write the per-label report here")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    conflict = _tag_conflict(args) if args.func is cmd_tag else None
    if conflict:
        parser.error(conflict)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
