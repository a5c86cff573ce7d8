"""Conversation corpus types, file formats, and corpus transforms.

Three tab-separated file formats are understood:

  conversations   conv_id <TAB> index <TAB> speaker <TAB> da_label <TAB> words
                  Words are space-separated; an unlabeled utterance carries "-".
  n-best lists    conv_id <TAB> index <TAB> rank <TAB> acoustic_log_score <TAB> words
                  Rank 1 is the recognizer's first choice.
  prosody         a header row of feature names, then
                  conv_id <TAB> index <TAB> v1 <TAB> v2 ...  ("NA" = missing)

Lines starting with '#' and blank lines are ignored everywhere.  Utterance
indices are 0-based and contiguous within a conversation, and the line order
of a conversation is its modeling order.
"""

from __future__ import annotations

import importlib.resources
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

SPEAKERS = ("A", "B")

_MISSING_LABEL = "-"
_MISSING_VALUE = "NA"


class CorpusError(ValueError):
    """Malformed corpus input (bad field counts, labels, indices...)."""


# ---------------------------------------------------------------------------
# Tag set
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TagSet:
    """Ordered dialogue act label inventory.

    ``collapsed`` optionally maps a class label (which must itself be in
    ``labels``) to the corpus labels it absorbs, for collapsed setups where
    several rare acts share one model class.  Member labels are never
    listed in ``labels`` directly.
    """

    labels: tuple[str, ...]
    collapsed: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.labels:
            raise CorpusError("tag set needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError("duplicate labels in tag set")
        for lab in self.labels:
            if not lab or lab.split() != [lab]:
                raise CorpusError(f"label {lab!r} is empty or contains whitespace")
        members_seen: set[str] = set()
        for cls, members in self.collapsed:
            if cls not in self.labels:
                raise CorpusError(f"collapsed class {cls!r} not in labels")
            for m in members:
                if m in self.labels or m in members_seen:
                    raise CorpusError(f"collapsed member {m!r} is ambiguous")
                members_seen.add(m)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        if label in self.labels:
            return True
        return any(label in members for _, members in self.collapsed)

    def index(self, label: str) -> int:
        return self.labels.index(self.collapse(label))

    def collapse(self, label: str) -> str:
        """Map a corpus label to its model class (identity if not collapsed)."""
        if label in self.labels:
            return label
        for cls, members in self.collapsed:
            if label in members:
                return cls
        raise CorpusError(f"label {label!r} not in tag set")

    def expanded_labels(self) -> tuple[str, ...]:
        """Labels with each collapsed class replaced by its members."""
        out: list[str] = []
        by_class = dict(self.collapsed)
        for lab in self.labels:
            out.extend(by_class.get(lab, (lab,)))
        return tuple(out)


def _parse_tagset(text: str, source: object) -> TagSet:
    labels: list[str] = []
    folds: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "collapse":
            if len(fields) != 3:
                raise CorpusError(f"{source}:{lineno}: expected "
                                  f"'collapse <class> <member>'")
            folds.append((lineno, fields[1], fields[2]))
        elif len(fields) != 1:
            raise CorpusError(f"{source}:{lineno}: a label line holds one label")
        elif fields[0] in labels:
            raise CorpusError(f"{source}:{lineno}: duplicate label {fields[0]!r}")
        else:
            labels.append(fields[0])
    collapsed: dict[str, list[str]] = {}
    for lineno, cls, member in folds:
        if cls not in labels:
            raise CorpusError(f"{source}:{lineno}: collapsed class {cls!r} "
                              f"is not a label")
        if member in labels or any(member in ms for ms in collapsed.values()):
            raise CorpusError(f"{source}:{lineno}: collapsed member {member!r} "
                              f"is ambiguous")
        collapsed.setdefault(cls, []).append(member)
    return TagSet(tuple(labels), tuple((cls, tuple(ms))
                                       for cls, ms in collapsed.items()))


def load_tagset(path: str | Path) -> TagSet:
    """One label per line; ``collapse <class> <member>`` folds a corpus
    label into a modeled class."""
    return _parse_tagset(Path(path).read_text(encoding="utf-8"), path)


def save_tagset(tagset: TagSet, path: str | Path) -> None:
    lines = [f"{lab}\n" for lab in tagset.labels]
    lines += [f"collapse\t{cls}\t{member}\n"
              for cls, members in tagset.collapsed for member in members]
    Path(path).write_text("".join(lines), encoding="utf-8")


def default_tagset() -> TagSet:
    """The bundled 42-label SWBD-DAMSL inventory."""
    ref = importlib.resources.files("dialact.data") / "swbd_damsl_42.txt"
    return _parse_tagset(ref.read_text(encoding="utf-8"), ref)


# ---------------------------------------------------------------------------
# Core records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypothesis:
    """One recognizer hypothesis: word string plus total acoustic log score."""

    words: tuple[str, ...]
    acoustic_score: float


@dataclass(frozen=True)
class NBestList:
    """Recognizer hypotheses for one utterance, best-first."""

    hypotheses: tuple[Hypothesis, ...]

    def __post_init__(self) -> None:
        if not self.hypotheses:
            raise CorpusError("empty n-best list")

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self):
        return iter(self.hypotheses)

    @property
    def first(self) -> Hypothesis:
        return self.hypotheses[0]


@dataclass(frozen=True)
class FeatureSchema:
    """Declared prosodic feature names and their kinds.

    Kind is "continuous" (float-valued) or "categorical" (string-valued,
    e.g. speaker gender).
    """

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.kinds):
            raise CorpusError("schema names/kinds length mismatch")
        if len(set(self.names)) != len(self.names):
            raise CorpusError("duplicate feature names")
        for name in self.names:
            if not name or name.split() != [name]:
                raise CorpusError(f"feature name {name!r} is empty or has whitespace")
        for kind in self.kinds:
            if kind not in ("continuous", "categorical"):
                raise CorpusError(f"unknown feature kind {kind!r}")

    def kind_of(self, name: str) -> str:
        try:
            return self.kinds[self.names.index(name)]
        except ValueError:
            raise CorpusError(f"feature {name!r} not in schema") from None


@dataclass(frozen=True)
class FeatureVector:
    """Per-utterance prosodic features; None marks a missing value."""

    values: Mapping[str, float | str | None]

    def __getitem__(self, name: str) -> float | str | None:
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values


@dataclass(frozen=True)
class Utterance:
    index: int
    speaker: str
    da_label: str | None
    words: tuple[str, ...]
    nbest: NBestList | None = None
    prosody: FeatureVector | None = None

    def __post_init__(self) -> None:
        if self.speaker not in SPEAKERS:
            raise CorpusError(f"speaker must be one of {SPEAKERS}, got {self.speaker!r}")


@dataclass(frozen=True)
class Conversation:
    conv_id: str
    utterances: tuple[Utterance, ...]

    def __post_init__(self) -> None:
        for pos, utt in enumerate(self.utterances):
            if utt.index != pos:
                raise CorpusError(
                    f"conversation {self.conv_id}: utterance index {utt.index} "
                    f"at position {pos}, indices must be 0-based and contiguous")

    def __len__(self) -> int:
        return len(self.utterances)

    def __iter__(self):
        return iter(self.utterances)

    @property
    def speakers(self) -> tuple[str, ...]:
        return tuple(u.speaker for u in self.utterances)

    @property
    def labels(self) -> tuple[str | None, ...]:
        return tuple(u.da_label for u in self.utterances)


# ---------------------------------------------------------------------------
# Conversation file I/O
# ---------------------------------------------------------------------------

def _content_lines(path: str | Path) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        out.append((lineno, line))
    return out


def parse_conversations(path: str | Path, tagset: TagSet | None = None) -> list[Conversation]:
    """Read a conversation file; labels are validated against ``tagset``."""
    convs: list[Conversation] = []
    done: set[str] = set()
    cur_id: str | None = None
    cur_utts: list[Utterance] = []

    def flush() -> None:
        nonlocal cur_id, cur_utts
        if cur_id is not None:
            convs.append(Conversation(cur_id, tuple(cur_utts)))
            done.add(cur_id)
        cur_id, cur_utts = None, []

    for lineno, line in _content_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise CorpusError(f"{path}:{lineno}: expected 5 tab-separated fields, "
                              f"got {len(fields)}")
        conv_id, idx_s, speaker, label, words_s = fields
        if conv_id != cur_id:
            if conv_id in done:
                raise CorpusError(f"{path}:{lineno}: conversation {conv_id!r} "
                                  f"reappears after another conversation")
            flush()
            cur_id = conv_id
        try:
            idx = int(idx_s)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: bad utterance index {idx_s!r}") from None
        if idx != len(cur_utts):
            raise CorpusError(f"{path}:{lineno}: utterance index {idx}, "
                              f"expected {len(cur_utts)}")
        if speaker not in SPEAKERS:
            raise CorpusError(f"{path}:{lineno}: bad speaker {speaker!r}")
        da = None if label == _MISSING_LABEL else label
        if da is not None and tagset is not None and da not in tagset:
            raise CorpusError(f"{path}:{lineno}: label {da!r} not in tag set")
        words = tuple(words_s.split()) if words_s else ()
        cur_utts.append(Utterance(idx, speaker, da, words))
    flush()
    return convs


def serialize_conversations(convs: Sequence[Conversation], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for conv in convs:
            for utt in conv:
                label = utt.da_label if utt.da_label is not None else _MISSING_LABEL
                fh.write(f"{conv.conv_id}\t{utt.index}\t{utt.speaker}\t{label}\t"
                         f"{' '.join(utt.words)}\n")


# ---------------------------------------------------------------------------
# N-best file I/O
# ---------------------------------------------------------------------------

def parse_nbest(path: str | Path,
                max_hyps: int | None = None) -> dict[tuple[str, int], NBestList]:
    """Read an n-best file into a (conv_id, index) -> NBestList map.

    Hypotheses are sorted by rank; ranks must be 1..m without gaps.
    ``max_hyps`` truncates each list after sorting.
    """
    raw: dict[tuple[str, int], list[tuple[int, Hypothesis]]] = {}
    for lineno, line in _content_lines(path):
        fields = line.split("\t")
        if len(fields) != 5:
            raise CorpusError(f"{path}:{lineno}: expected 5 tab-separated fields, "
                              f"got {len(fields)}")
        conv_id, idx_s, rank_s, score_s, words_s = fields
        try:
            idx, rank, score = int(idx_s), int(rank_s), float(score_s)
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: bad index/rank/score") from None
        words = tuple(words_s.split()) if words_s else ()
        raw.setdefault((conv_id, idx), []).append((rank, Hypothesis(words, score)))

    table: dict[tuple[str, int], NBestList] = {}
    for key, entries in raw.items():
        entries.sort(key=lambda e: e[0])
        ranks = [r for r, _ in entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise CorpusError(f"{path}: utterance {key}: ranks {ranks} are not 1..m")
        hyps = tuple(h for _, h in entries)
        if max_hyps is not None:
            hyps = hyps[:max_hyps]
        table[key] = NBestList(hyps)
    return table


def serialize_nbest(table: Mapping[tuple[str, int], NBestList], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (conv_id, idx) in sorted(table):
            for rank, hyp in enumerate(table[(conv_id, idx)], 1):
                fh.write(f"{conv_id}\t{idx}\t{rank}\t{hyp.acoustic_score!r}\t"
                         f"{' '.join(hyp.words)}\n")


def attach_nbest(convs: Sequence[Conversation],
                 table: Mapping[tuple[str, int], NBestList]) -> list[Conversation]:
    """Return copies of ``convs`` with n-best lists attached where available."""
    out = []
    for conv in convs:
        utts = tuple(
            Utterance(u.index, u.speaker, u.da_label, u.words,
                      table[(conv.conv_id, u.index)], u.prosody)
            if (conv.conv_id, u.index) in table else u
            for u in conv)
        out.append(Conversation(conv.conv_id, utts))
    return out


# ---------------------------------------------------------------------------
# Prosody file I/O
# ---------------------------------------------------------------------------

def parse_prosody(path: str | Path) -> tuple[FeatureSchema, dict[tuple[str, int], FeatureVector]]:
    """Read a prosodic feature file.

    The first content line names the features.  Feature kind is inferred per
    column: if every non-missing value parses as a float the feature is
    continuous, otherwise categorical.  Continuous values must be finite,
    and categorical values may not contain "," (the tree file's category
    separator).
    """
    lines = _content_lines(path)
    if not lines:
        raise CorpusError(f"{path}: empty prosody file")
    names = tuple(lines[0][1].split("\t"))
    rows: list[tuple[int, tuple[str, int], list]] = []
    for lineno, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 2 + len(names):
            raise CorpusError(f"{path}:{lineno}: expected {2 + len(names)} fields, "
                              f"got {len(fields)}")
        try:
            idx = int(fields[1])
        except ValueError:
            raise CorpusError(f"{path}:{lineno}: bad utterance index") from None
        rows.append((lineno, (fields[0], idx), fields[2:]))

    # One float() pass per column: the first value that is not a number
    # makes the column categorical; otherwise the floats replace the texts
    # in place (None where missing), except a non-finite value, whose text
    # stays for its error message.
    kinds = []
    for col in range(len(names)):
        try:
            floats = [None if vals[col] == _MISSING_VALUE else float(vals[col])
                      for _, _, vals in rows]
        except ValueError:
            kinds.append("categorical")
            continue
        kinds.append("continuous")
        for (_, _, vals), x in zip(rows, floats):
            if x is None or math.isfinite(x):
                vals[col] = x
    schema = FeatureSchema(names, tuple(kinds))

    table: dict[tuple[str, int], FeatureVector] = {}
    first_line: dict[tuple[str, int], int] = {}
    for lineno, key, vals in rows:
        if key in table:
            raise CorpusError(f"{path}:{lineno}: duplicate prosody row for "
                              f"{key} (first at line {first_line[key]})")
        first_line[key] = lineno
        parsed: dict[str, float | str | None] = {}
        for name, kind, v in zip(names, kinds, vals):
            if kind == "continuous":
                if isinstance(v, str):
                    raise CorpusError(f"{path}:{lineno}: feature {name!r}: "
                                      f"non-finite value {v!r}")
            elif v == _MISSING_VALUE:
                v = None
            elif "," in v:
                raise CorpusError(f"{path}:{lineno}: feature {name!r}: "
                                  f"category {v!r} contains ','")
            parsed[name] = v
        table[key] = FeatureVector(parsed)
    return schema, table


def serialize_prosody(schema: FeatureSchema,
                      table: Mapping[tuple[str, int], FeatureVector],
                      path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(schema.names) + "\n")
        for (conv_id, idx) in sorted(table):
            cells = []
            for name in schema.names:
                v = table[(conv_id, idx)].values.get(name)
                if v is None:
                    cells.append(_MISSING_VALUE)
                elif isinstance(v, float):
                    cells.append(repr(v))
                else:
                    cells.append(str(v))
            fh.write(f"{conv_id}\t{idx}\t" + "\t".join(cells) + "\n")


def attach_prosody(convs: Sequence[Conversation],
                   table: Mapping[tuple[str, int], FeatureVector]) -> list[Conversation]:
    out = []
    for conv in convs:
        utts = tuple(
            Utterance(u.index, u.speaker, u.da_label, u.words, u.nbest,
                      table[(conv.conv_id, u.index)])
            if (conv.conv_id, u.index) in table else u
            for u in conv)
        out.append(Conversation(conv.conv_id, utts))
    return out


# ---------------------------------------------------------------------------
# Corpus transforms
# ---------------------------------------------------------------------------

def symmetrize_speakers(convs: Sequence[Conversation]) -> list[Conversation]:
    """Each conversation plus an A<->B swapped copy (for grammar training)."""
    swap = {"A": "B", "B": "A"}
    out = []
    for conv in convs:
        out.append(conv)
        flipped = tuple(replace(u, speaker=swap[u.speaker]) for u in conv)
        out.append(Conversation(conv.conv_id, flipped))
    return out


def downsample_uniform(utterances: Sequence[Utterance],
                       classes: Sequence[str],
                       seed: int = 0) -> list[Utterance]:
    """Balanced subsample: each requested class appears min-class-count times.

    Selection is uniform without replacement, reproducible from ``seed``.
    Raises if a requested class has no utterances.
    """
    rng = random.Random(seed)
    by_class: dict[str, list[Utterance]] = {c: [] for c in classes}
    for utt in utterances:
        if utt.da_label in by_class:
            by_class[utt.da_label].append(utt)
    for cls in classes:
        if not by_class[cls]:
            raise CorpusError(f"no utterances for class {cls!r}")
    m = min(len(v) for v in by_class.values())
    out: list[Utterance] = []
    for cls in classes:
        out.extend(rng.sample(by_class[cls], m))
    return out


def jackknife_split(items: Sequence, seed: int = 0) -> tuple[list, list]:
    """Seeded shuffle split into two halves of size n//2 and n - n//2.

    Original order is preserved within each half.
    """
    idx = list(range(len(items)))
    random.Random(seed).shuffle(idx)
    first = sorted(idx[:len(items) // 2])
    second = sorted(idx[len(items) // 2:])
    return [items[i] for i in first], [items[i] for i in second]
