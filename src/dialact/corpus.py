"""Conversation corpus types, file formats, and corpus transforms.

Every text input (the three formats below and the model directory's files)
is read through :func:`content_lines`: UTF-8, blank lines and lines whose
first non-blank character is '#' skipped, tab-separated fields, and every
error naming ``file:line``.

  conversations   conv_id <TAB> index <TAB> speaker <TAB> da_label <TAB> words
                  Words are space-separated, and none may be "<start>" or
                  "<end>"; an unlabeled utterance carries "-".
  n-best lists    conv_id <TAB> index <TAB> rank <TAB> acoustic_log_score <TAB> words
                  Rank 1 is the recognizer's first choice.
  prosody         a header row of feature names, then
                  conv_id <TAB> index <TAB> v1 <TAB> v2 ...  ("NA" = missing)

Utterance indices are 0-based and contiguous within a conversation, and the
line order of a conversation is its modeling order.
"""

from __future__ import annotations

import contextlib
import importlib.resources
import itertools
import math
import numbers
import random
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

SPEAKERS = ("A", "B")

_MISSING_LABEL = "-"
_MISSING_VALUE = "NA"
START = "<start>"   # the n-gram models' sentence-start padding, never a word
END = "<end>"       # the n-gram models' sentence-end event, never a word


class CorpusError(ValueError):
    """Malformed corpus input (bad field counts, labels, indices...)."""


# ---------------------------------------------------------------------------
# Line syntax shared by every text input
# ---------------------------------------------------------------------------

def _read_text(path) -> str:
    """The file decoded as UTF-8; ``path`` may also be a package resource."""
    data = (path if hasattr(path, "read_bytes") else Path(path)).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:   # the bytes before the bad one decode
        lineno = len((data[:exc.start] + b".").decode("utf-8").splitlines())
        raise CorpusError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None


# Lines are split from slices of about this many characters of the decoded
# text, so no list of every line of a file is built.
_SLICE = 1 << 16


def content_lines(path: str | Path, nfields: int | None = None,
                  sep: str | None = "\t") -> Iterator[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for each content line of a file.

    Blank lines and lines whose first non-blank character is '#' are
    skipped.  Fields are split on ``sep`` (None: on any whitespace); with
    ``nfields``, a line holding another number of fields is an error.
    The file is decoded whole, then split into lines by ``str.splitlines``
    one slice of about 64 KiB at a time.  Each slice ends just after a
    '\\n', which ends a line under every ``splitlines`` rule, so the lines
    and their numbers are those of the whole text.
    """
    text, start, lineno = _read_text(path), 0, 0
    while start < len(text):
        end = text.find("\n", start + _SLICE) + 1 or len(text)
        for lineno, line in enumerate(text[start:end].splitlines(),
                                      lineno + 1):
            head = line.lstrip()
            if not head or head[0] == "#":
                continue
            fields = line.split(sep)
            if nfields is not None and len(fields) != nfields:
                raise CorpusError(f"{path}:{lineno}: expected {nfields} "
                                  f"tab-separated fields, got {len(fields)}")
            yield lineno, fields
        start = end


@contextlib.contextmanager
def located(message: Callable[[ValueError], str]):
    """Turn a ValueError raised in the block, such as a failed int() or
    float() of a field, into ``CorpusError(message(exc))``; a CorpusError
    passes through.  ``message`` runs at raise time, so it can name the
    line a reading loop has reached."""
    try:
        yield
    except CorpusError:
        raise
    except ValueError as exc:
        raise CorpusError(message(exc)) from None


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
    # each label and collapsed member -> its model class
    _class: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise CorpusError("tag set needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise CorpusError("duplicate labels in tag set")
        for lab in self.labels:
            if not lab or lab.split() != [lab]:
                raise CorpusError(f"label {lab!r} is empty or contains whitespace")
            if lab in (START, END, _MISSING_LABEL):
                raise CorpusError(f"reserved label {lab!r}")
        classes = dict(zip(self.labels, self.labels))
        for cls, members in self.collapsed:
            if cls not in self.labels:
                raise CorpusError(f"collapsed class {cls!r} not in labels")
            for m in members:
                if m in classes:
                    raise CorpusError(f"collapsed member {m!r} is ambiguous")
                classes[m] = cls
        object.__setattr__(self, "_class", classes)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._class

    def collapse(self, label: str) -> str:
        """Map a corpus label to its model class (identity if not collapsed)."""
        if label not in self._class:
            raise CorpusError(f"label {label!r} not in tag set")
        return self._class[label]


def load_tagset(path: str | Path) -> TagSet:
    """One label per line; ``collapse <class> <member>`` folds a corpus
    label into a modeled class.  Fields are separated by any whitespace."""
    labels: list[str] = []
    folds: list[tuple[int, str, str]] = []
    for lineno, fields in content_lines(path, sep=None):
        if fields[0] == "collapse":
            if len(fields) != 3:
                raise CorpusError(f"{path}:{lineno}: expected "
                                  f"'collapse <class> <member>'")
            folds.append((lineno, fields[1], fields[2]))
        elif len(fields) != 1:
            raise CorpusError(f"{path}:{lineno}: a label line holds one label")
        elif fields[0] in labels:
            raise CorpusError(f"{path}:{lineno}: duplicate label {fields[0]!r}")
        elif fields[0] in (START, END, _MISSING_LABEL):
            raise CorpusError(f"{path}:{lineno}: reserved label {fields[0]!r}")
        else:
            labels.append(fields[0])
    if not labels:
        raise CorpusError(f"{path}:1: tag set needs at least one label")
    collapsed: dict[str, list[str]] = {}
    for lineno, cls, member in folds:
        if cls not in labels:
            raise CorpusError(f"{path}:{lineno}: collapsed class {cls!r} "
                              f"is not a label")
        if member in labels or any(member in ms for ms in collapsed.values()):
            raise CorpusError(f"{path}:{lineno}: collapsed member {member!r} "
                              f"is ambiguous")
        collapsed.setdefault(cls, []).append(member)
    return TagSet(tuple(labels), tuple((cls, tuple(ms))
                                       for cls, ms in collapsed.items()))


def save_tagset(tagset: TagSet, path: str | Path) -> None:
    lines = [f"{lab}\n" for lab in tagset.labels]
    lines += [f"collapse\t{cls}\t{member}\n"
              for cls, members in tagset.collapsed for member in members]
    Path(path).write_text("".join(lines), encoding="utf-8")


def default_tagset() -> TagSet:
    """The bundled 42-label SWBD-DAMSL inventory."""
    return load_tagset(importlib.resources.files("dialact.data")
                       / "swbd_damsl_42.txt")


# ---------------------------------------------------------------------------
# Core records
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Hypothesis:
    """One recognizer hypothesis: word string plus total acoustic log score."""

    words: tuple[str, ...]
    acoustic_score: float


@dataclass(frozen=True, slots=True)
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

    @classmethod
    def infer(cls, names: Sequence[str], columns: Sequence[Sequence]) -> "FeatureSchema":
        """Categorical if a feature's value column holds a string, else continuous."""
        return cls(tuple(names), tuple(
            "categorical" if any(isinstance(v, str) for v in values)
            else "continuous" for values in columns))


@dataclass(frozen=True, slots=True, eq=False)
class FeatureColumn:
    """One prosodic feature over the rows of a table.  Continuous: float64
    values, 0.0 where missing.  Categorical: integer codes into
    ``categories`` (distinct values, sorted), -1 where missing."""

    values: np.ndarray
    known: np.ndarray
    categories: tuple | None = None


class FeatureTable(dict):
    """Feature name -> :class:`FeatureColumn`, all over the same rows."""


def _one_row(name: str, value) -> FeatureColumn:
    """A mapping's value as a one-row column of the kind its type gives."""
    if isinstance(value, str):
        return FeatureColumn(np.zeros(1, dtype=np.intp), np.ones(1, bool),
                             (value,))
    if not isinstance(value, (numbers.Real, type(None))):
        raise CorpusError(f"feature {name!r}: {value!r} is neither a number "
                          f"nor a string")
    return FeatureColumn(np.array([0.0 if value is None else float(value)]),
                         np.array([value is not None]))


@dataclass(frozen=True, slots=True, eq=False)
class FeatureVector:
    """Per-utterance prosodic features: a read-only view of one row of a
    column table; None marks a missing value.  A mapping given in place of
    a table becomes a one-row table: a string is categorical, a number
    continuous (read back as a float), and None a missing continuous value,
    which lookup reads as missing at either kind."""

    table: FeatureTable
    row: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.table, FeatureTable):
            object.__setattr__(self, "table", FeatureTable(
                (name, _one_row(name, v)) for name, v in self.table.items()))

    @property
    def values(self) -> Mapping[str, float | str | None]:
        return MappingProxyType({name: self[name] for name in self.table})

    def __getitem__(self, name: str) -> float | str | None:
        col, row = self.table[name], self.row
        if not col.known[row]:
            return None
        if col.categories is None:
            return col.values.item(row)     # a Python float, as repr() writes it
        return col.categories[col.values[row]]

    def __contains__(self, name: str) -> bool:
        return name in self.table

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return self.values == other.values


@dataclass(frozen=True, slots=True)
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

def _words(text: str, intern, path: str | Path,
           lineno: int) -> tuple[str, ...]:
    """A words field's interned words; ``START`` and ``END`` are rejected."""
    words = tuple([intern(w, w) for w in text.split()])
    for token in (START, END):
        if token in words:
            raise CorpusError(f"{path}:{lineno}: reserved word {token!r}")
    return words


def parse_conversations(path: str | Path, tagset: TagSet | None = None,
                        nbest: Mapping | None = None,
                        prosody: Mapping | None = None) -> list[Conversation]:
    """Read a conversation file; labels are validated against ``tagset``.
    Each utterance gets the entries of ``nbest`` and ``prosody`` (tables
    from :func:`parse_nbest` and :func:`parse_prosody`) for its key."""
    nbest, prosody = nbest or {}, prosody or {}
    intern = {}.setdefault          # one str per distinct word and label
    by_id: dict[str, list[Utterance]] = {}
    cur_id = None
    with located(lambda _: f"{path}:{lineno}: bad utterance index {idx_s!r}"):
        for lineno, (conv_id, idx_s, speaker, label, words_s) \
                in content_lines(path, 5):
            if conv_id != cur_id:
                if conv_id in by_id:
                    raise CorpusError(f"{path}:{lineno}: conversation "
                                      f"{conv_id!r} reappears after another "
                                      f"conversation")
                cur_id, utts = conv_id, by_id.setdefault(conv_id, [])
            idx = int(idx_s)
            if idx != len(utts):
                raise CorpusError(f"{path}:{lineno}: utterance index {idx}, "
                                  f"expected {len(utts)}")
            if speaker not in SPEAKERS:
                raise CorpusError(f"{path}:{lineno}: bad speaker {speaker!r}")
            da = None if label == _MISSING_LABEL else intern(label, label)
            if da is not None and tagset is not None and da not in tagset:
                raise CorpusError(f"{path}:{lineno}: label {da!r} not in tag set")
            words = _words(words_s, intern, path, lineno)
            utts.append(Utterance(idx, speaker, da, words,
                                  nbest.get((conv_id, idx)),
                                  prosody.get((conv_id, idx))))
    return [Conversation(conv_id, tuple(utts))
            for conv_id, utts in by_id.items()]


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
    ``max_hyps`` (at least 1) truncates each list after sorting.
    """
    if max_hyps is not None and max_hyps < 1:
        raise ValueError(f"max_hyps must be >= 1, got {max_hyps}")
    # (conv_id, index) -> [(rank, line, hypothesis)]
    raw: dict[tuple[str, int], list[tuple[int, int, Hypothesis]]] = {}
    intern = {}.setdefault          # one str per distinct word and id
    with located(lambda _: f"{path}:{lineno}: bad index/rank/score"):
        for lineno, (conv_id, idx_s, rank_s, score_s, words_s) \
                in content_lines(path, 5):
            score = float(score_s)
            if not math.isfinite(score):
                raise CorpusError(f"{path}:{lineno}: non-finite acoustic "
                                  f"score {score_s!r}")
            words = _words(words_s, intern, path, lineno)
            raw.setdefault((intern(conv_id, conv_id), int(idx_s)), []).append(
                (int(rank_s), lineno, Hypothesis(words, score)))

    table: dict[tuple[str, int], NBestList] = {}
    for key, entries in raw.items():
        entries.sort(key=lambda e: e[0])
        for pos, (rank, lineno, _) in enumerate(entries, 1):
            if rank != pos:
                raise CorpusError(
                    f"{path}:{lineno}: utterance {key}: ranks "
                    f"{[e[0] for e in entries]} are not 1..m")
        table[key] = NBestList(tuple(h for _, _, h in entries[:max_hyps]))
    return table


def serialize_nbest(table: Mapping[tuple[str, int], NBestList], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (conv_id, idx) in sorted(table):
            for rank, hyp in enumerate(table[(conv_id, idx)], 1):
                fh.write(f"{conv_id}\t{idx}\t{rank}\t{hyp.acoustic_score!r}\t"
                         f"{' '.join(hyp.words)}\n")


# ---------------------------------------------------------------------------
# Prosody file I/O
# ---------------------------------------------------------------------------

# Prosody rows whose field texts are held before each column converts them.
_CHUNK = 4096


class _ColumnReader:
    """One prosody column, converted a chunk of texts at a time: to floats
    while every value but "NA" parses as one, else to codes of its distinct
    texts.  Keeps the first faulty value's (row, message)."""

    def __init__(self) -> None:
        self.parts: list[tuple[int, np.ndarray, np.ndarray]] = []
        # text -> code, in first-seen order, once the column is categorical
        self.code: dict[str, int] | None = None
        self.fault: tuple[int, str] | None = None
        self.reread = 0     # rows read as floats before the column failed one

    def add(self, texts: list[str], base: int) -> None:
        """Convert ``texts``, the values of rows ``base`` on."""
        known = [text != _MISSING_VALUE for text in texts]
        if self.code is None:
            try:
                values = np.array([float(t) if k else 0.0
                                   for t, k in zip(texts, known)])
            except ValueError:  # categorical: earlier rows are read again
                self.parts, self.fault = [], None
                self.code, self.reread = {}, base
            else:
                self._first(texts, ~np.isfinite(values), base,
                            "non-finite value {!r}")
                self.parts.append((base, values, np.array(known, dtype=bool)))
                return
        codes = np.array([self.code.setdefault(t, len(self.code)) if k else -1
                          for t, k in zip(texts, known)], dtype=np.intp)
        self._first(texts, np.array([k and "," in t for t, k in
                                     zip(texts, known)], dtype=bool),
                    base, "category {!r} contains ','")
        self.parts.append((base, codes, np.array(known, dtype=bool)))

    def _first(self, texts, bad: np.ndarray, base: int, message: str) -> None:
        if bad.any():
            row = int(bad.argmax())
            if self.fault is None or base + row < self.fault[0]:
                self.fault = (base + row, message.format(texts[row]))

    def column(self) -> FeatureColumn:
        self.parts.sort(key=lambda part: part[0])
        values = np.concatenate([values for _, values, _ in self.parts])
        known = np.concatenate([known for _, _, known in self.parts])
        if self.code is None:
            return FeatureColumn(values, known)
        cats = tuple(sorted(self.code))     # codes become ranks; -1 stays
        rank = {c: i for i, c in enumerate(cats)}
        lut = np.array([rank[text] for text in self.code] + [-1])
        return FeatureColumn(lut[values], known, cats)


class _ProsodyRows(Mapping):
    """(conv_id, index) -> :class:`FeatureVector` of a parsed prosody file:
    one row index per conversation over one :class:`FeatureTable`, and a
    view made per lookup.  Keys iterate in file order."""

    def __init__(self, table: FeatureTable,
                 rows: dict[str, tuple[int, dict[int, int]]],
                 order: Sequence[int]) -> None:
        self._table, self._rows, self._order = table, rows, order

    def __getitem__(self, key) -> FeatureVector:
        try:
            conv_id, index = key
            return FeatureVector(self._table, self._rows[conv_id][1][index])
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        # order holds each row's conversation, and a conversation's keys
        # are in its row order
        convs = [(conv_id, iter(rows)) for conv_id, (_, rows)
                 in self._rows.items()]
        for pos in self._order:
            conv_id, keys = convs[pos]
            yield conv_id, next(keys)

    def __len__(self) -> int:
        return len(self._order)


def parse_prosody(path: str | Path) -> tuple[
        FeatureSchema, Mapping[tuple[str, int], FeatureVector]]:
    """Read a prosodic feature file whose first content line names the
    features into one :class:`FeatureTable` and a view of one row per key.
    Each column is converted once, to floats if every value but "NA"
    (missing) parses as one, else to codes of its distinct texts, and
    :meth:`FeatureSchema.infer` gives the kinds.  Texts are held and
    converted a chunk of rows at a time; a column that fails a float only
    after earlier chunks parsed reads their texts again.  Continuous values
    must be finite, categories may not contain "," (the tree file's
    separator), and keys may not repeat: the first faulty row is reported,
    a repeated key before its values."""
    lines = content_lines(path)
    header_line, names = next(lines, (1, None))
    if names is None:
        raise CorpusError(f"{path}:1: empty prosody file")
    names = tuple(names)
    readers = [_ColumnReader() for _ in names]
    texts = [[] for _ in names]     # per column, the chunk's texts
    # per conversation id its position and index -> row; per row its
    # conversation's position and its line
    rows: dict[str, tuple[int, dict[int, int]]] = {}
    order, linenos = array("i"), array("q")
    repeat = None                   # the first repeated key's (row, message)

    def convert():
        base = len(linenos) - len(texts[0])
        for reader, chunk in zip(readers, texts):
            reader.add(chunk, base)
            chunk.clear()

    with located(lambda _: f"{path}:{lineno}: bad utterance index"):
        for lineno, fields in lines:
            if len(fields) != 2 + len(names):
                raise CorpusError(f"{path}:{lineno}: expected "
                                  f"{2 + len(names)} fields, got {len(fields)}")
            index = int(fields[1])
            if fields[0] not in rows:
                rows[fields[0]] = (len(rows), {})
            pos, conv = rows[fields[0]]
            first = conv.setdefault(index, len(linenos))
            if first != len(linenos) and repeat is None:
                repeat = (len(linenos), f"duplicate prosody row for "
                          f"{(fields[0], index)} (first at line "
                          f"{linenos[first]})")
            order.append(pos)
            linenos.append(lineno)
            for chunk, text in zip(texts, fields[2:]):
                chunk.append(text)
            if len(texts[0]) == _CHUNK:
                convert()
    convert()
    for col, reader in enumerate(readers):
        if reader.reread:           # the chunks it read as floats, again
            again = content_lines(path)
            next(again)
            for base in range(0, reader.reread, _CHUNK):
                reader.add([fields[2 + col] for _, fields in
                            itertools.islice(again, _CHUNK)], base)

    columns = [reader.column() for reader in readers]
    try:
        schema = FeatureSchema.infer(names, [c.categories or () for c in columns])
    except CorpusError as exc:      # only the header's names can be at fault
        raise CorpusError(f"{path}:{header_line}: {exc}") from None
    # (row, column, message); a repeated key is column -1, so it comes
    # before its row's values
    faults = [(row, col, f"feature {name!r}: {message}")
              for col, (name, reader) in enumerate(zip(names, readers))
              if reader.fault for row, message in [reader.fault]]
    if repeat:
        faults.append((repeat[0], -1, repeat[1]))
    if faults:
        row, _, message = min(faults)
        raise CorpusError(f"{path}:{linenos[row]}: {message}")
    return schema, _ProsodyRows(FeatureTable(zip(names, columns)), rows, order)


def serialize_prosody(schema: FeatureSchema,
                      table: Mapping[tuple[str, int], FeatureVector],
                      path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(schema.names) + "\n")
        for (conv_id, idx) in sorted(table):
            values = table[(conv_id, idx)].values       # one view per row
            cells = [_MISSING_VALUE if v is None else repr(v)
                     if isinstance(v, float) else str(v)
                     for v in map(values.get, schema.names)]
            fh.write(f"{conv_id}\t{idx}\t" + "\t".join(cells) + "\n")


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
