"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of the seed and the size spec: the same
seed writes byte-identical files.  The generator models what the toolkit
relies on, not any real corpus:

  acts      Zipf-distributed frequencies plus a preferred successor per act,
            so the discourse grammar has structure to learn
  speakers  A/B, switching with probability 0.65 per turn
  words     a Zipf background over the vocabulary mixed with a small
            act-specific word set and an act-specific length
  prosody   continuous features drawn around act-specific means, one
            categorical feature with an act-preferred value, about 3% of
            values missing ("NA")
  n-best    noisy copies of the reference (substitutions, insertions,
            deletions) ranked by an acoustic score that favours fewer edits

The files use the formats ``dialact.corpus`` parses: five-column corpus and
n-best files, and a prosody file whose first line names the features.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

PROSODY_CONTINUOUS = ("f0_mean", "energy", "duration", "speech_rate")
PROSODY_CATEGORICAL = "contour"
MISSING_RATE = 0.03
_LENGTHS = (6, 2, 4, 8, 3, 7, 5, 9)   # mean words per utterance, by rank


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes of one generated data set."""

    labels: tuple[str, ...]
    vocab_size: int
    train_convs: int
    train_utts: int
    heldout_convs: int
    test_convs: int
    test_utts: int
    nbest: int = 0              # hypotheses per test utterance; 0: no file
    categories: int = 6         # values of the categorical prosody feature


class _Sampler:
    """Cumulative-weight sampling from a fixed table."""

    def __init__(self, items, weights) -> None:
        self.items = list(items)
        self.cum = list(itertools.accumulate(weights))

    def draw(self, rng: random.Random):
        x = rng.random() * self.cum[-1]
        return self.items[bisect.bisect_right(self.cum, x)]


def _zipf(n: int, s: float) -> list[float]:
    return [1.0 / (k + 1) ** s for k in range(n)]


class _World:
    """The hidden generative model, drawn once from the seed."""

    def __init__(self, spec: CorpusSpec, rng: random.Random) -> None:
        # Structure (frequency, successor, length, preferred words' background
        # ranks, prosodic means) hangs on an act's frequency rank, so every
        # seed yields models of about the same size; the seed decides which
        # label and word take which rank, and all the sampled text.
        ranked = list(spec.labels)
        rng.shuffle(ranked)
        n = len(ranked)
        self.acts = _Sampler(ranked, _zipf(n, 1.1))
        self.successor = {a: ranked[(3 * r + 1) % n] for r, a in enumerate(ranked)}
        self.length = {a: _LENGTHS[r % len(_LENGTHS)] for r, a in enumerate(ranked)}
        self.means = {a: [math.sin(1.7 * (r + 1) * (f + 1))
                          for f in range(len(PROSODY_CONTINUOUS))]
                      for r, a in enumerate(ranked)}
        self.categories = [f"c{i}" for i in range(spec.categories)]
        self.category = {a: self.categories[r % spec.categories]
                         for r, a in enumerate(ranked)}
        background = [f"w{i:03d}" for i in range(spec.vocab_size)]
        rng.shuffle(background)
        self.words = _Sampler(background, _zipf(len(background), 1.0))
        v = len(background)
        self.preferred = {a: [background[(5 + 8 * r + k) % v] for k in range(8)]
                          for r, a in enumerate(ranked)}

    def next_act(self, prev: str | None, rng: random.Random) -> str:
        if prev is not None and rng.random() < 0.35:
            return self.successor[prev]
        return self.acts.draw(rng)

    def utterance(self, act: str, rng: random.Random) -> list[str]:
        n = max(1, self.length[act] + rng.randint(-2, 2))
        return [rng.choice(self.preferred[act]) if rng.random() < 0.5
                else self.words.draw(rng) for _ in range(n)]

    def prosody(self, act: str, n_words: int, rng: random.Random) -> list[str]:
        values = [m + rng.gauss(0.0, 0.8) for m in self.means[act]]
        values[2] += 0.25 * n_words           # duration follows length
        cells = [f"{v:.4f}" for v in values]
        cells.append(self.category[act] if rng.random() < 0.5
                     else rng.choice(self.categories))
        return ["NA" if rng.random() < MISSING_RATE else c for c in cells]

    def nbest(self, ref: list[str], n: int, rng: random.Random
              ) -> list[tuple[float, list[str]]]:
        hyps: list[tuple[float, list[str]]] = []
        seen: set[tuple[str, ...]] = set()
        while len(hyps) < n:
            edits = rng.choice((0, 1, 1, 2, 2, 3, 4))
            hyp = list(ref)
            for _ in range(edits):
                op = rng.randrange(3)
                pos = rng.randrange(len(hyp) + (op == 1))
                if op == 0 and hyp:
                    hyp[pos] = self.words.draw(rng)
                elif op == 1:
                    hyp.insert(pos, self.words.draw(rng))
                elif len(hyp) > 1:
                    del hyp[pos]
            if tuple(hyp) in seen:
                continue
            seen.add(tuple(hyp))
            score = -4.0 * len(hyp) - 6.0 * edits + rng.gauss(0.0, 5.0)
            hyps.append((round(score, 3), hyp))
        hyps.sort(key=lambda h: (-h[0], h[1]))
        return hyps


def _conversations(world: _World, rng: random.Random, prefix: str,
                   n_convs: int, n_utts: int):
    for c in range(n_convs):
        speaker = rng.choice("AB")
        act = None
        utts = []
        for i in range(n_utts):
            if i and rng.random() < 0.65:
                speaker = "B" if speaker == "A" else "A"
            act = world.next_act(act, rng)
            utts.append((i, speaker, act, world.utterance(act, rng)))
        yield f"{prefix}{c:03d}", utts


def _write_corpus(path: Path, convs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for conv_id, utts in convs:
            for i, speaker, act, words in utts:
                fh.write(f"{conv_id}\t{i}\t{speaker}\t{act}\t{' '.join(words)}\n")


def _write_prosody(path: Path, world: _World, rng: random.Random, convs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(PROSODY_CONTINUOUS + (PROSODY_CATEGORICAL,)) + "\n")
        for conv_id, utts in convs:
            for i, _, act, words in utts:
                cells = world.prosody(act, len(words), rng)
                fh.write(f"{conv_id}\t{i}\t" + "\t".join(cells) + "\n")


def _write_nbest(path: Path, world: _World, rng: random.Random, convs,
                 n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for conv_id, utts in convs:
            for i, _, _, words in utts:
                for rank, (score, hyp) in enumerate(world.nbest(words, n, rng), 1):
                    fh.write(f"{conv_id}\t{i}\t{rank}\t{score!r}\t{' '.join(hyp)}\n")


def generate(spec: CorpusSpec, seed: int, out: Path) -> dict[str, Path]:
    """Write train/held-out/test files for ``spec`` into ``out``.

    Returns the written paths by role: ``tagset``, ``train``,
    ``train_prosody``, ``heldout``, ``test``, ``test_prosody`` and, when
    ``spec.nbest`` is set, ``test_nbest``.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    world = _World(spec, rng)
    paths = {role: out / name for role, name in (
        ("tagset", "tagset.txt"), ("train", "train.tsv"),
        ("train_prosody", "train_prosody.tsv"), ("heldout", "heldout.tsv"),
        ("test", "test.tsv"), ("test_prosody", "test_prosody.tsv"))}
    paths["tagset"].write_text("".join(f"{lab}\n" for lab in spec.labels),
                               encoding="utf-8")

    train = list(_conversations(world, rng, "tr", spec.train_convs,
                                spec.train_utts))
    _write_corpus(paths["train"], train)
    _write_prosody(paths["train_prosody"], world, rng, train)
    heldout = list(_conversations(world, rng, "ho", spec.heldout_convs,
                                  spec.train_utts))
    _write_corpus(paths["heldout"], heldout)
    test = list(_conversations(world, rng, "te", spec.test_convs,
                               spec.test_utts))
    _write_corpus(paths["test"], test)
    _write_prosody(paths["test_prosody"], world, rng, test)
    if spec.nbest:
        paths["test_nbest"] = out / "test_nbest.tsv"
        _write_nbest(paths["test_nbest"], world, rng, test, spec.nbest)
    return paths


def utterance_count(path: Path) -> int:
    """Content lines of a generated corpus file (one per utterance)."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())

