"""In-process span tracing of the toolkit's public functions.

``Tracer.install`` replaces every public module-level function of the
``dialact`` modules with a wrapper that records a span (name, parent, start,
end), and rebinds every module attribute that referred to the original, so
calls through ``from .ngram import read_arpa`` style imports are seen too.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

Two hot helpers would cost more to trace than they do work: ``log_sum`` and
``rescore.add2`` are left alone, and ``ngram.sequence_log_prob`` gets a
count-only wrapper.

A span's self time is its duration minus its children's durations.  Layer
metrics sum self times by span name (``LAYER_OF``); spans under an
absorbing span (``ABSORBING``) are charged to the absorbing span's layer.
Self time of unmapped spans plus time outside every span is
``trace.uncovered_s``, so the ``_s`` metrics add up to ``trace.total_s``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

MODULES = ("corpus", "discourse", "ngram", "wordmodels", "prosody", "hmm",
           "rescore", "metrics", "cli")
UNTRACED = {"ngram.log_sum", "rescore.add2", "cli.main"}
COUNT_ONLY = {"ngram.sequence_log_prob"}

# span name -> layer metric; a name ending in ".*" matches a whole module
LAYER_OF = {
    "corpus.*": "corpus.parse_s",
    "discourse.*": "discourse.s",
    "ngram.train_ngram": "ngram.train_s",
    "ngram.fit_interp_weight": "ngram.fit_interp_s",
    "wordmodels.train_da_lms": "wordmodels.train_s",
    "wordmodels.smooth_da_lms": "wordmodels.smooth_s",
    "ngram.interpolate": "wordmodels.smooth_s",
    "ngram.materialize": "ngram.materialize_s",
    "ngram.write_arpa": "ngram.write_arpa_s",
    "cli.save_models": "cli.save_models_s",
    "prosody.serialize_tree": "cli.save_models_s",
    "ngram.read_arpa": "ngram.read_arpa_s",
    "cli.load_models": "cli.load_models_s",
    "prosody.load_tree": "cli.load_models_s",
    "wordmodels.word_likelihood_tables": "wordmodels.tables_s",
    "wordmodels.nbest_da_log_likelihood": "wordmodels.tables_s",
    "wordmodels.true_word_log_likelihood": "wordmodels.tables_s",
    "prosody.train_tree": "prosody.train_tree_s",
    "prosody.prosody_likelihood_tables": "prosody.tables_s",
    "prosody.tree_posterior": "prosody.tables_s",
    "prosody.tree_scaled_likelihood": "prosody.tables_s",
    "hmm.tune_alpha_beta": "hmm.tune_s",
    "hmm.forward_backward": "hmm.forward_backward_s",
    "hmm.viterbi_decode": "hmm.viterbi_s",
    "rescore.rescore_corpus": "rescore.corpus_s",
    "rescore.hypothesis_scores": "rescore.corpus_s",
    "rescore.mixture_lm_scores": "rescore.corpus_s",
    "rescore.mixture_posterior_scores": "rescore.corpus_s",
    "rescore.best_hypothesis": "rescore.corpus_s",
    "rescore.per_da_wer_report": "rescore.corpus_s",
    "rescore.wer": "rescore.wer_s",
    "rescore.corpus_wer": "rescore.wer_s",
}
# The discourse grammar trains and reads its own n-gram model, and fusion
# tuning runs many decodes; both charge that work to themselves.
ABSORBING = {"discourse.*", "hmm.tune_alpha_beta"}

TIME_METRICS = tuple(dict.fromkeys(LAYER_OF.values())) + ("trace.uncovered_s",)
COUNT_METRICS = ("corpus.lines", "ngram.arpa_mb_written", "ngram.arpa_mb_read",
                 "wordmodels.hyp_model_pairs", "ngram.seq_calls_per_hyp",
                 "prosody.tree_leaves", "hmm.decodes", "hmm.utt_steps",
                 "rescore.hyps_ranked")
# trace.total_s comes from layer_metrics; run.py adds the other two times
# and ngram.dense_ratio from outside the traced pass.
EXTRA_TIMES = ("trace.total_s", "cli.import_s", "trace.overhead_s")
UNITS = {**{m: "s" for m in TIME_METRICS + EXTRA_TIMES},
         **{m: "count" for m in COUNT_METRICS},
         "ngram.arpa_mb_written": "MB", "ngram.arpa_mb_read": "MB",
         "ngram.seq_calls_per_hyp": "ratio", "ngram.dense_ratio": "ratio"}


def _match(table: dict, name: str):
    return table.get(name, table.get(name.split(".")[0] + ".*"))


def _absorbs(name: str) -> bool:
    return name in ABSORBING or name.split(".")[0] + ".*" in ABSORBING


def _file_mb(path) -> float:
    return Path(path).stat().st_size / 1e6


class Tracer:
    """Spans and counters for one traced run; create one per run."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, parent index, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return wrapper

    def _seq_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "sequence_log_prob":   # model method
                caller = caller.f_back
            if caller.f_globals.get("__name__") in ("dialact.wordmodels",
                                                    "dialact.rescore"):
                counts["seq_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counter_hooks(self, name: str, fn):
        """Result hooks that count work at the layer boundary."""
        c = self.counts
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def parsed(args, kwargs, result):
            if name == "corpus.parse_conversations":
                c["corpus.lines"] += sum(len(conv) for conv in result)
            elif name == "corpus.parse_nbest":
                hyps = sum(len(nb) for nb in result.values())
                c["corpus.lines"] += hyps
                c["hypotheses"] += hyps
            else:
                c["corpus.lines"] += len(result[1]) + 1

        def tables(args, kwargs, result):
            a = bound(args, kwargs)
            per_label = len(a["da_lms"].labels)
            for conv in a["convs"]:
                for utt in conv:
                    n = len(utt.nbest) if a["mode"] == "nbest" else 1
                    c["wordmodels.hyp_model_pairs"] += n * per_label

        def decoded(args, kwargs, result):
            c["hmm.decodes"] += 1
            c["hmm.utt_steps"] += len(bound(args, kwargs)["table"])

        def leaves(args, kwargs, result):
            c["prosody.tree_leaves"] = result.n_leaves()

        return {
            "corpus.parse_conversations": parsed,
            "corpus.parse_nbest": parsed,
            "corpus.parse_prosody": parsed,
            "ngram.write_arpa": lambda a, k, r: c.update(
                {"ngram.arpa_mb_written": _file_mb(bound(a, k)["path"])}),
            "ngram.read_arpa": lambda a, k, r: c.update(
                {"ngram.arpa_mb_read": _file_mb(bound(a, k)["path"])}),
            "wordmodels.word_likelihood_tables": tables,
            "hmm.forward_backward": decoded,
            "hmm.viterbi_decode": decoded,
            "prosody.train_tree": leaves,
            "prosody.load_tree": leaves,
            "rescore.best_hypothesis": lambda a, k, r: c.update(
                {"rescore.hyps_ranked": len(bound(a, k)["nbest"])}),
        }.get(name)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        import importlib
        modules = {m: importlib.import_module(f"dialact.{m}") for m in MODULES}
        wrapped: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = self._seq_counter(obj)
                else:
                    wrapped[id(obj)] = self._span(
                        name, obj, self._counter_hooks(name, obj))
        for mod in [m for n, m in sys.modules.items()
                    if n == "dialact" or n.startswith("dialact.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, counts, total_s: float) -> dict[str, float]:
    """Per-layer self times and counts for one traced pass.

    ``total_s`` is the wall time of the traced commands; whatever no mapped
    span accounts for is reported as ``trace.uncovered_s``.
    """
    out = {m: 0.0 for m in TIME_METRICS}
    selfs = self_times(spans)
    owner: list[str | None] = []     # layer of the absorbing ancestor, if any
    covered = 0.0
    for i, (name, parent, _, _) in enumerate(spans):
        inherited = None
        if parent >= 0:
            pname = spans[parent][0]
            inherited = owner[parent] or (
                _match(LAYER_OF, pname) if _absorbs(pname) else None)
        owner.append(inherited)
        layer = inherited or _match(LAYER_OF, name)
        if layer is not None:
            out[layer] += selfs[i]
            covered += selfs[i]
    out["trace.uncovered_s"] = total_s - covered
    for m in COUNT_METRICS:
        out[m] = float(counts.get(m, 0))
    hyps = counts.get("hypotheses", 0)
    out["ngram.seq_calls_per_hyp"] = counts.get("seq_calls", 0) / hyps if hyps else 0.0
    out["trace.total_s"] = total_s
    return out

