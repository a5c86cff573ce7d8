"""Tests of the benchmark itself (not of dialact).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import run  # noqa: E402
import spans  # noqa: E402
from dialact.corpus import (default_tagset, load_tagset,  # noqa: E402
                            parse_conversations, parse_nbest, parse_prosody)
from gen import CorpusSpec, generate  # noqa: E402
from workloads import edit_distance, workloads  # noqa: E402

WORKLOADS = workloads()
SMALL = dict(train_convs=4, train_utts=12, heldout_convs=2, test_convs=2,
             test_utts=3)


def small(name: str):
    wl = WORKLOADS[name]
    sizes = dict(SMALL, test_utts=40) if name == "desk-long" else SMALL
    return replace(wl, spec=replace(wl.spec, **sizes))


def _spec(nbest: int = 4) -> CorpusSpec:
    return CorpusSpec(default_tagset().labels, 40, 3, 8, 1, 2, 5, nbest=nbest)


def _bytes(paths: dict) -> dict:
    return {role: p.read_bytes() for role, p in paths.items()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = _bytes(generate(_spec(), 7, tmp_path / "a"))
    b = _bytes(generate(_spec(), 7, tmp_path / "b"))
    c = _bytes(generate(_spec(), 8, tmp_path / "c"))
    assert a == b
    assert all(a[role] != c[role] for role in a if role != "tagset")


def test_generated_files_parse_with_dialact(tmp_path):
    paths = generate(replace(_spec(), train_convs=20, train_utts=30), 3,
                     tmp_path)
    tagset = load_tagset(paths["tagset"])
    assert tagset.labels == default_tagset().labels
    train = parse_conversations(paths["train"], tagset)
    assert [len(c) for c in train] == [30] * 20
    test = parse_conversations(paths["test"], tagset)
    nbest = parse_nbest(paths["test_nbest"])
    assert set(nbest) == {(c.conv_id, u.index) for c in test for u in c}
    assert all(len(nb) == 4 for nb in nbest.values())
    schema, table = parse_prosody(paths["train_prosody"])
    assert schema.kinds == ("continuous",) * 4 + ("categorical",)
    assert len(table) == 600
    missing = sum(v is None for fv in table.values() for v in fv.values.values())
    assert 0 < missing < 0.1 * 5 * len(table)


def test_edit_distance():
    assert edit_distance("a b c".split(), "a x c d".split()) == 2
    assert edit_distance([], "a b".split()) == 2
    assert edit_distance("a b".split(), []) == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smallest_pass_passes_its_checks(tmp_path, name):
    wl = small(name)
    tally = run.Tally()
    inputs, models, times, scales, _ = run.setup(wl, 5, tmp_path, tally)
    assert len(times) == len(scales) == (
        run.GENERATION_SETUPS if wl.trains_in_pass else run.TRAINING_SETUPS)
    assert all(f > 0 for f in scales)
    quality: dict = {}
    first = run.run_pass(wl, inputs, models, tmp_path / "pass", 5, tally,
                         None, quality)
    again = run.run_pass(wl, inputs, models, tmp_path / "pass", 5, tally,
                         first.prints, quality)
    assert tally.failures == []
    assert tally.attempted == len(first.prints) * 2 + (
        0 if wl.trains_in_pass else len(times))
    assert again.prints == first.prints
    assert first.wall_s > 0 and first.cpu_s > 0 and first.rss_mb > 0
    if name != "swbd-train":
        assert quality


def test_check_catches_a_wrong_report(tmp_path):
    wl = small("swbd-rescore")
    tally = run.Tally()
    inputs, models, _, _, _ = run.setup(wl, 2, tmp_path, tally)
    out = tmp_path / "pass"
    run.run_pass(wl, inputs, models, out, 2, tally, None, {})
    assert tally.failures == []
    report = out / "rescore" / "report.tsv"
    rows = report.read_text().splitlines()
    fields = rows[1].split("\t")
    fields[1] = repr(float(fields[1]) + 0.01)
    report.write_text("\n".join([rows[0], "\t".join(fields), *rows[2:]]) + "\n")
    cmd = wl.commands(wl, inputs, models, out, 2)[0]
    run.judge(cmd, out / "cmd0.out", tally, {})
    assert len(tally.failures) == 1


def test_traced_pass_reports_every_layer_and_adds_up(tmp_path):
    wl = small("swbd-rescore")
    tally = run.Tally()
    inputs, models, _, _, _ = run.setup(wl, 3, tmp_path, tally)
    first = run.run_pass(wl, inputs, models, tmp_path / "pass", 3, tally,
                         None, {})
    layers = run.traced_pass(wl, inputs, models, tmp_path / "traced", 3,
                             tally, first.prints)
    assert tally.failures == []
    assert set(layers) == set(spans.UNITS) - {"cli.import_s",
                                              "trace.overhead_s",
                                              "ngram.dense_ratio"}
    timed = sum(layers[m] for m in spans.TIME_METRICS)
    assert timed == pytest.approx(layers["trace.total_s"], abs=1e-9)
    assert layers["rescore.corpus_s"] > 0
    assert layers["hmm.decodes"] == SMALL["test_convs"]
    assert layers["ngram.seq_calls_per_hyp"] > 0
    assert layers["ngram.train_s"] == 0
    # the tracer put every original function back
    import dialact.ngram
    assert not hasattr(dialact.ngram.read_arpa, "__wrapped__")


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second root [11, 12]
    recorded = [["cli.cmd_tag", -1, 0.0, 10.0],
                ["cli.load_models", 0, 1.0, 4.0],
                ["ngram.read_arpa", 1, 2.0, 3.0],
                ["hmm.forward_backward", -1, 11.0, 12.0]]
    assert spans.self_times(recorded) == [7.0, 2.0, 1.0, 1.0]
    layers = spans.layer_metrics(recorded, {}, 13.0)
    assert layers["cli.load_models_s"] == 2.0
    assert layers["ngram.read_arpa_s"] == 1.0
    assert layers["hmm.forward_backward_s"] == 1.0
    # cli.cmd_tag is unmapped (7) and 1 s lies outside every span
    assert layers["trace.uncovered_s"] == 9.0
    assert sum(layers[m] for m in spans.TIME_METRICS) == 13.0


def test_absorbing_spans_take_their_descendants():
    recorded = [["hmm.tune_alpha_beta", -1, 0.0, 10.0],
                ["hmm.combine_likelihoods", 0, 1.0, 2.0],
                ["hmm.forward_backward", 0, 2.0, 6.0],
                ["ngram.log_sum", 2, 3.0, 4.0],
                ["discourse.load_discourse", -1, 10.0, 12.0],
                ["ngram.read_arpa", 4, 10.5, 11.5]]
    layers = spans.layer_metrics(recorded, {"hmm.decodes": 1}, 12.0)
    assert layers["hmm.tune_s"] == 10.0
    assert layers["hmm.forward_backward_s"] == 0.0
    assert layers["discourse.s"] == 2.0
    assert layers["ngram.read_arpa_s"] == 0.0
    assert layers["trace.uncovered_s"] == 0.0
    assert layers["hmm.decodes"] == 1.0


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS


def test_refuses_to_run_without_the_program(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "swbd-train", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
