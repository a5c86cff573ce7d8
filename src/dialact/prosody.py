"""CART-style decision tree over prosodic features.

Greedy binary splits by Gini impurity decrease.  Continuous features split
at midpoints between adjacent distinct observed values; categorical
features split on category subsets.  Ties between equally good splits go to
the lowest feature index (schema order), then the lowest threshold (or the
earliest subset in enumeration order).  Samples with a missing value follow
the side that received the majority of the non-missing samples; the
direction is recorded on the node and reused at prediction time.

Training gathers each feature's column once from the samples' tables
(float values, category codes) and scores candidates from class counts:
per node, a continuous feature costs one sort, with left counts read off a
cumulative count for every midpoint; the 2^(k-1) subsets of a categorical
feature with k categories are a blocked matrix product of subset
membership and per-category class counts, still exponential in k, so a
training column may hold at most ``_MAX_CATEGORIES`` categories.  Lookup
sends a batch of feature vectors down the tree together, one test per node,
and reads each column only at the kind it was built with.

Leaves store class posteriors (training frequencies).  For use as HMM
evidence, posteriors are converted to scaled likelihoods P(F|U) ~ P(U|F) /
P(U) and a collapsed "rest" class hands its score to every member label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import (Conversation, FeatureColumn, FeatureSchema,
                     FeatureVector, TagSet, _feature_groups, _vector_columns,
                     content_lines)
from .hmm import LikelihoodTable
from .ngram import left_sum


class ProsodyError(ValueError):
    pass


@dataclass(frozen=True)
class TreeConfig:
    min_leaf: int = 1
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")


class Node:
    """Internal split node or leaf.

    A split holds either a threshold (continuous: value <= threshold goes
    left) or a category set (categorical: value in set goes left), plus the
    recorded direction for missing values.
    """

    __slots__ = ("feature", "threshold", "categories", "missing_left",
                 "left", "right", "posterior")

    def __init__(self, *, feature=None, threshold=None, categories=None,
                 missing_left=True, left=None, right=None, posterior=None):
        self.feature = feature
        self.threshold = threshold
        self.categories = categories
        self.missing_left = missing_left
        self.left = left
        self.right = right
        self.posterior = posterior

    @property
    def is_leaf(self) -> bool:
        return self.posterior is not None


@dataclass
class DecisionTree:
    classes: tuple[str, ...]
    schema: FeatureSchema
    root: Node
    training_priors: tuple[float, ...]

    def n_leaves(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack += (node.left, node.right)
        return count


def _gini(counts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of class counts; ``sizes`` are the row sums.

    Rows must be C-contiguous: numpy then sums each row in the order it sums
    a 1-D array, so every value equals the one-row computation bit for bit.
    """
    p = counts / sizes[:, None]
    p *= p
    return 1.0 - p.sum(axis=1)


def _rows_by_table(fvs: Sequence[FeatureVector]) -> list:
    """(table, positions in the batch, rows of the table) per distinct
    table of the batch, in first-seen order."""
    return _feature_groups(*_vector_columns(fvs))


def _gather(groups: list, n: int, name: str, continuous: bool):
    """Feature ``name`` of a batch of ``n`` vectors, read by row index from
    each table of :func:`_rows_by_table`: per vector whether it lacks the
    feature, and the batch's column of the kind a test reads.  A column is
    read only at its own kind: a threshold copies its floats, and a subset
    test recodes its category codes over the categories the batch holds, in
    sorted order.  A column of the other kind with a known value in the
    batch raises; an all-missing one reads as missing."""
    absent, known = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    values = np.zeros(n) if continuous else np.full(n, -1, dtype=np.intp)
    parts = []      # (positions, codes, categories) to recode
    for table, at, rows in groups:
        col = table.get(name)
        absent[at] = col is None
        if col is None:
            continue
        known[at] = col.known[rows]
        if (col.categories is None) != continuous:
            if known[at].any():
                kinds = ("continuous", "categorical")
                read, other = kinds if continuous else kinds[::-1]
                raise ProsodyError(f"feature {name!r} is read as {read} but "
                                   f"holds {other} values")
        elif continuous:
            values[at] = col.values[rows]
        else:
            parts.append((at, col.values[rows], col.categories))
    cats = sorted({own[c] for _, codes, own in parts
                   for c in set(codes[codes >= 0].tolist())})
    code = {cat: i for i, cat in enumerate(cats)}
    for at, codes, own in parts:    # a missing value's -1 reads the last code
        values[at] = np.array([code.get(c, -1) for c in own] + [-1])[codes]
    return absent, FeatureColumn(values, known,
                                 None if continuous else tuple(cats))


# A categorical training column may hold at most this many categories: its
# split search scores 2^(k-1) - 1 subsets per node, about 3.7 times the work
# for each two more (a depth-2 tree over 400 samples took 0.22 s at k = 20).
_MAX_CATEGORIES = 20


def _encode(schema: FeatureSchema, groups: list,
            n: int) -> dict[str, FeatureColumn]:
    """Training columns in schema order of the ``n`` samples of ``groups``
    (as :func:`_rows_by_table` gives them); every sample must hold every
    feature, and a categorical one at most ``_MAX_CATEGORIES`` categories."""
    columns = {}
    for name, kind in zip(schema.names, schema.kinds):
        if any(name not in table for table, _, _ in groups):
            raise ProsodyError(f"feature {name!r} missing from sample schema")
        col = columns[name] = _gather(groups, n, name,
                                      kind == "continuous")[1]
        if kind == "continuous":
            _check_finite(name, col.values)
        elif len(col.categories) > _MAX_CATEGORIES:
            raise ProsodyError(f"feature {name!r} holds {len(col.categories)} "
                               f"categories, more than the {_MAX_CATEGORIES} "
                               f"a split search may take")
    return columns


def _check_finite(name: str, values: np.ndarray) -> None:
    """Continuous values must be finite: a NaN goes right of every test."""
    bad = values[~np.isfinite(values)]
    if len(bad):
        raise ProsodyError(f"feature {name!r}: non-finite value {float(bad[0])!r}")


# Candidate splits are scored this many at a time, so memory stays flat in
# the number of thresholds and in the 2^(k-1) subsets of k categories.
_BLOCK = 256


def _threshold_candidates(values: np.ndarray, labels: np.ndarray,
                          n_classes: int):
    """Midpoints between adjacent distinct values, ascending, in blocks.

    Yields (left class counts, left sizes, candidate -> threshold) per block
    of ``_BLOCK``, counting the known values only.  One sort serves every
    midpoint: a value goes left when it is <= the midpoint, so
    ``searchsorted(side="right")`` counts the left side even where a
    midpoint rounds onto the upper value.
    """
    order = np.argsort(values)
    ordered = values[order]
    upper = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    if not len(upper):
        return
    thresholds = (ordered[upper - 1] + ordered[upper]) / 2.0
    n_left = np.searchsorted(ordered, thresholds, side="right")
    cumulative = np.zeros((len(values) + 1, n_classes), dtype=np.int64)
    cumulative[np.arange(1, len(values) + 1), labels[order]] = 1
    np.cumsum(cumulative, axis=0, out=cumulative)
    for start in range(0, len(thresholds), _BLOCK):
        block = n_left[start:start + _BLOCK]
        yield cumulative[block], block, \
            lambda j, start=start: float(thresholds[start + j])


def _subset_candidates(codes: np.ndarray, labels: np.ndarray, n_classes: int,
                       n_codes: int):
    """Category subsets holding the first category, in enumeration order.

    Only the k categories present among ``codes`` count.  Subset ``mask``
    holds the first of them plus the b-th of the others for each set bit b;
    every proper subset comes once, scored in blocks of ``_BLOCK`` as
    membership x per-category class counts.  Yields (left class counts,
    left sizes, candidate -> category codes).
    """
    per_cat = np.bincount(codes * n_classes + labels, minlength=n_codes * n_classes
                          ).reshape(n_codes, n_classes)
    sizes = per_cat.sum(axis=1)
    present = np.flatnonzero(sizes)
    per_cat, sizes = per_cat[present], sizes[present]
    k = len(present)
    if k < 2:
        return
    n_subsets = (1 << (k - 1)) - 1
    bits = np.arange(k - 1)
    for start in range(0, n_subsets, _BLOCK):
        masks = np.arange(start, min(start + _BLOCK, n_subsets))
        member = np.ones((len(masks), k), dtype=np.int64)
        member[:, 1:] = (masks[:, None] >> bits) & 1
        yield member @ per_cat, member @ sizes, \
            lambda j, member=member: present[member[j].astype(bool)]


def _goes_left(col: FeatureColumn, rows: np.ndarray, node: Node) -> np.ndarray:
    """Per row, whether ``node``'s split on ``col`` sends it left: a finite
    value <= threshold, or a category in the set (a missing value's code -1
    reads the extra last entry, False), else the side missing values take."""
    values = col.values[rows]
    if col.categories is None:
        _check_finite(node.feature, values)
        return np.where(col.known[rows], values <= node.threshold, node.missing_left)
    members = np.array([c in node.categories for c in col.categories] + [False])
    return np.where(col.known[rows], members[values], node.missing_left)


def _best_split(columns: dict[str, FeatureColumn], labels: np.ndarray,
                rows: np.ndarray, n_classes: int, min_leaf: int):
    """Best (split node without children, left mask).

    Every candidate of every feature is scored from class counts; the first
    strictly best gain above 1e-12 wins, so ties go to the lowest feature,
    then the lowest threshold or the earliest subset.  ``None`` if no
    candidate qualifies.
    """
    n = len(rows)
    node_labels = labels[rows]
    parent = np.bincount(node_labels, minlength=n_classes)
    parent_gini = _gini(parent[None], np.array([n]))[0]
    best_gain, best = 1e-12, None

    for name, col in columns.items():
        known = col.known[rows]
        values = col.values[rows][known]
        if not len(values):
            continue
        known_labels = node_labels[known]
        missing = parent - np.bincount(known_labels, minlength=n_classes)
        n_known = len(values)
        if col.categories is None:
            blocks = _threshold_candidates(values, known_labels, n_classes)
        else:
            blocks = _subset_candidates(values, known_labels, n_classes,
                                        len(col.categories))
        for left_known, n_left_known, pick in blocks:
            missing_left = n_left_known >= n_known - n_left_known
            n_left = n_left_known + np.where(missing_left, n - n_known, 0)
            n_right = n - n_left
            ok = np.flatnonzero((n_left >= min_leaf) & (n_right >= min_leaf))
            if not len(ok):
                continue
            left = left_known[ok]
            left[missing_left[ok]] += missing
            nl, nr = n_left[ok], n_right[ok]
            gain = (parent_gini - (nl / n) * _gini(left, nl)
                    - (nr / n) * _gini(parent - left, nr))
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = gain[j]
                best = (name, pick(ok[j]), bool(missing_left[ok[j]]))

    if best is None:
        return None
    name, test, missing_left = best
    col = columns[name]
    continuous = col.categories is None
    split = Node(feature=name, threshold=test if continuous else None,
                 missing_left=missing_left, categories=None if continuous else
                 frozenset(col.categories[c] for c in test))
    return split, _goes_left(col, rows, split)


def train_tree(schema: FeatureSchema,
               samples: Sequence[tuple[FeatureVector, str]],
               config: TreeConfig = TreeConfig(),
               classes: Sequence[str] | None = None) -> DecisionTree:
    """Grow a tree on (features, class label) pairs.

    ``classes`` fixes the class order (default: sorted unique labels).
    Growth stops at purity, when no split keeps ``min_leaf`` samples on both
    sides with positive Gini decrease, or at ``max_depth``.  Every sample
    must carry every schema feature, and continuous values must be finite.
    """
    return _grow(schema, _rows_by_table([fv for fv, _ in samples]),
                 [lab for _, lab in samples], config, classes)


def train_corpus_tree(schema: FeatureSchema, convs: Sequence[Conversation],
                      tagset: TagSet,
                      config: TreeConfig = TreeConfig()) -> DecisionTree:
    """:func:`train_tree` over the tag set's labels on every utterance of
    ``convs`` that has features, labeled with its collapsed class, read
    from the conversations' columns."""
    groups, labels = [], []
    for conv in convs:
        featured = np.flatnonzero(conv.table_of >= 0)
        groups += [(table, len(labels) + featured.searchsorted(at), rows)
                   for table, at, rows in conv.feature_rows()]
        labels += [tagset.collapse(conv.labels[i]) for i in featured.tolist()]
    if not labels:
        raise ProsodyError("no features match the corpus")
    return _grow(schema, groups, labels, config, tagset.labels)


def _grow(schema: FeatureSchema, groups: list, sample_labels: Sequence[str],
          config: TreeConfig, classes: Sequence[str] | None) -> DecisionTree:
    """:func:`train_tree` on the samples of ``groups`` and their labels."""
    if not sample_labels:
        raise ProsodyError("no training samples")
    if classes is None:
        classes = tuple(sorted(set(sample_labels)))
    else:
        classes = tuple(classes)
        stray = set(sample_labels) - set(classes)
        if stray:
            raise ProsodyError(f"sample labels outside class list: {sorted(stray)}")
    index = {lab: i for i, lab in enumerate(classes)}
    labels = np.array([index[lab] for lab in sample_labels], dtype=np.intp)
    n = len(labels)
    columns = _encode(schema, groups, n)
    k = len(classes)
    # nodes grow from a stack of (parent, side, rows, depth), left child
    # first, so a tree of any depth grows without recursion
    top = Node()
    stack = [(top, "left", np.arange(n), 0)]
    while stack:
        parent, side, rows, depth = stack.pop()
        counts = np.bincount(labels[rows], minlength=k)
        pure = (counts > 0).sum() <= 1
        at_depth = config.max_depth is not None and depth >= config.max_depth
        found = None
        if not pure and not at_depth and len(rows) >= 2 * config.min_leaf:
            found = _best_split(columns, labels, rows, k, config.min_leaf)
        if found is None:
            node = Node(posterior=tuple(float(x) for x in counts / counts.sum()))
        else:
            node, left = found
            stack += ((node, "right", rows[~left], depth + 1),
                      (node, "left", rows[left], depth + 1))
        setattr(parent, side, node)
    root = top.left
    priors = np.bincount(labels, minlength=k) / n
    return DecisionTree(classes, schema, root, tuple(float(x) for x in priors))


def _route(tree: DecisionTree,
           fvs: Sequence[FeatureVector]) -> tuple[list[Node], np.ndarray]:
    """The leaves the feature vectors reach, and each vector's leaf."""
    return _descend(tree, _rows_by_table(fvs), len(fvs))


def _descend(tree: DecisionTree, groups: list,
             n: int) -> tuple[list[Node], np.ndarray]:
    """The leaves reached by the positions ``groups`` covers of a batch of
    ``n`` (as :func:`_rows_by_table` gives them), and per position its
    leaf's index (-1 at a position not covered).

    All positions descend together, one boolean test per node.  A feature
    is read into a column once, the first time a node tests it.
    """
    leaf_of = np.full(n, -1, dtype=np.intp)
    reached: list[Node] = []
    columns: dict[tuple[str, bool], tuple[np.ndarray, FeatureColumn]] = {}
    stack = [(tree.root, np.sort(np.concatenate(
        [at for _, at, _ in groups] or [np.empty(0, dtype=np.intp)])))]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            leaf_of[rows] = len(reached)
            reached.append(node)
            continue
        key = (node.feature, node.threshold is not None)
        if key not in columns:
            columns[key] = _gather(groups, n, *key)
        absent, col = columns[key]
        if absent[rows].any():
            raise ProsodyError(f"feature {node.feature!r} queried by the tree "
                               f"is absent from the probe's schema")
        go_left = _goes_left(col, rows, node)
        for child, mask in ((node.right, ~go_left), (node.left, go_left)):
            if mask.any():
                stack.append((child, rows[mask]))
    return reached, leaf_of


def _scaled_leaves(tree: DecisionTree, groups: list, n: int,
                   priors: Sequence[float]):
    """Posterior / prior (1 at prior 0) per leaf reached; each position's
    leaf, as :func:`_descend` gives them."""
    reached, leaf_of = _descend(tree, groups, n)
    return np.array([[p / pr if pr > 0.0 else 1.0
                      for p, pr in zip(leaf.posterior, priors)]
                     for leaf in reached]), leaf_of


def tree_posterior(tree: DecisionTree, fv: FeatureVector) -> np.ndarray:
    """Class posterior at the leaf this feature vector reaches."""
    reached, _ = _route(tree, [fv])
    return np.array(reached[0].posterior)


def tree_scaled_likelihood(tree: DecisionTree, fv: FeatureVector,
                           priors: Mapping[str, float],
                           tagset: TagSet) -> dict[str, float]:
    """Per-label scores proportional to P(features | label).

    Posterior over tree classes is divided by the given priors, collapsed
    classes hand their score to each member label, and the result is
    normalized to sum 1 over the tag set's expanded labels.
    """
    if set(tree.classes) != set(tagset.labels):
        raise ProsodyError("tree classes and tag set labels differ")
    for cls in tree.classes:
        if priors.get(cls, 0.0) <= 0.0:
            raise ProsodyError(f"prior for {cls!r} must be positive")
    ratios, _ = _scaled_leaves(tree, _rows_by_table([fv]), 1,
                               [priors[c] for c in tree.classes])
    raw = dict(zip(tree.classes, ratios[0].tolist()))
    by_class = dict(tagset.collapsed)
    scores = {target: raw[lab] for lab in tagset.labels
              for target in by_class.get(lab, (lab,))}
    total = left_sum(scores.values())
    if total <= 0.0:
        raise ProsodyError("all scaled likelihoods are zero")
    return {lab: v / total for lab, v in scores.items()}


def prosody_likelihood_tables(tree: DecisionTree,
                              convs: Sequence[Conversation]) -> list:
    """Decoder evidence tables from the tree, one per conversation.

    Rows are log scaled likelihoods (posterior over the tree's training
    prior) over the tree's classes, normalized to sum 1 before taking logs.
    A class never seen in tree training (prior 0, hence posterior 0
    everywhere) scores flat: the tree carries no evidence about it.
    Utterances without features get a flat row too.  Each conversation's
    feature rows are read from its columns.
    """
    k = len(tree.classes)
    tables = []
    for conv in convs:
        scores = np.full((len(conv), k), -math.log(k))
        featured = np.flatnonzero(conv.table_of >= 0)
        if len(featured):
            # every utterance reaching a leaf gets that leaf's row
            raw, leaf_of = _scaled_leaves(tree, conv.feature_rows(),
                                          len(conv), tree.training_priors)
            leaf_of = leaf_of[featured]
            totals = raw.sum(axis=1)
            zero = totals[leaf_of] <= 0.0
            if zero.any():
                raise ProsodyError(f"{conv.conv_id}:{featured[int(np.argmax(zero))]}: "
                                   f"all scaled likelihoods are zero")
            with np.errstate(divide="ignore"):
                scores[featured] = np.log(raw / totals[:, None])[leaf_of]
        tables.append(LikelihoodTable(conv.conv_id, tree.classes,
                                      conv.speakers, scores))
    return tables


# ---------------------------------------------------------------------------
# Serialization: indented text, one node per line
# ---------------------------------------------------------------------------

def serialize_tree(tree: DecisionTree, path: str | Path) -> None:
    """Write the documented text format.

    Header lines name the classes, the schema, and the training priors; the
    body has one node per line, children indented two spaces, left child
    first.  Floats use repr, so reloading is exact.  Categories are joined
    with ","; a category holding ",", a tab or a line break cannot be
    written and raises ``ProsodyError`` before anything is written.
    """
    lines = [
        "tree v1",
        "classes\t" + "\t".join(tree.classes),
        "features\t" + "\t".join(f"{n}:{k}" for n, k in
                                 zip(tree.schema.names, tree.schema.kinds)),
        "priors\t" + "\t".join(repr(p) for p in tree.training_priors),
    ]

    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if node.is_leaf:
            lines.append(pad + "leaf\t" + "\t".join(repr(p) for p in node.posterior))
            continue
        miss = "left" if node.missing_left else "right"
        if node.threshold is not None:
            lines.append(f"{pad}node\t{node.feature}\t<=\t{node.threshold!r}"
                         f"\tmissing={miss}")
        else:
            for cat in node.categories:
                if "," in cat or "\t" in cat or "".join(cat.splitlines()) != cat:
                    raise ProsodyError(f"feature {node.feature!r}: category "
                                       f"{cat!r} would not reload as written")
            cats = ",".join(sorted(node.categories))
            lines.append(f"{pad}node\t{node.feature}\tin\t{cats}\tmissing={miss}")
        stack += ((node.right, depth + 1), (node.left, depth + 1))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def load_tree(path: str | Path) -> DecisionTree:
    """Read a tree written by :func:`serialize_tree`."""
    lines = list(content_lines(path))
    pos = 0     # index into ``lines`` of the line being read

    def probabilities(fields: list[str]) -> tuple[float, ...]:
        """The priors or a leaf's posteriors: one per class, each in [0, 1],
        not all 0, so every scaled likelihood row has a positive sum."""
        values = tuple(float(p) for p in fields)
        if (len(values) != len(classes) or not any(values)
                or not all(0.0 <= p <= 1.0 for p in values)):
            raise ProsodyError(f"expected {len(classes)} probabilities in "
                               f"[0, 1], not all 0")
        return values

    def parse(depth: int) -> Node:
        """The node on line ``pos``, without its children."""
        if pos == len(lines):
            raise ProsodyError("truncated tree body")
        line = "\t".join(lines[pos][1])
        if (len(line) - len(line.lstrip(" "))) // 2 != depth:
            raise ProsodyError("bad indentation")
        fields = line.strip().split("\t")
        if fields[0] == "leaf" and len(fields) == 1 + len(classes):
            return Node(posterior=probabilities(fields[1:]))
        if (fields[0] != "node" or len(fields) != 5 or fields[2] not in
                ("<=", "in") or fields[4] not in ("missing=left",
                                                  "missing=right")):
            raise ProsodyError(f"bad tree line {line!r}")
        _, feature, op, arg, miss = fields
        if feature not in kind_of:
            raise ProsodyError(f"feature {feature!r} is not in the features "
                               f"header")
        if (op == "<=") != (kind_of[feature] == "continuous"):
            raise ProsodyError(f"{op!r} test on {kind_of[feature]} feature "
                               f"{feature!r}")
        threshold = float(arg) if op == "<=" else None
        if threshold is not None and math.isnan(threshold):
            raise ProsodyError(f"threshold {arg!r} is not a number")
        return Node(feature=feature, missing_left=miss == "missing=left",
                    threshold=threshold,
                    categories=frozenset(arg.split(",")) if op == "in" else None)

    try:
        for pos, key in enumerate(("tree v1", "classes", "features", "priors")):
            if pos == len(lines) or lines[pos][1][0].strip() != key:
                raise ProsodyError("not a tree file" if pos == 0
                                   else f"missing {key} header")
        classes = tuple(lines[1][1][1:])
        pos = 2
        pairs = [f.rsplit(":", 1) for f in lines[2][1][1:]]
        if any(len(p) != 2 for p in pairs):
            raise ProsodyError("a feature field is not <name>:<kind>")
        schema = FeatureSchema(tuple(p[0] for p in pairs),
                               tuple(p[1] for p in pairs))
        kind_of = dict(zip(schema.names, schema.kinds))
        pos = 3
        priors = probabilities(lines[3][1][1:])
        # one node per line in preorder, each filling the slot of a
        # (parent, side, depth) stack, left child first
        top = Node()
        slots = [(top, "left", 0)]
        pos = 4
        while slots:
            parent, side, depth = slots.pop()
            node = parse(depth)
            pos += 1
            setattr(parent, side, node)
            if not node.is_leaf:
                slots += ((node, "right", depth + 1), (node, "left", depth + 1))
        root = top.left
        if pos != len(lines):
            raise ProsodyError("trailing tree lines")
    except ValueError as exc:   # a ProsodyError, a bad number or schema
        line = lines[min(pos, len(lines) - 1)][0] if lines else 1
        raise ProsodyError(f"{path}:{line}: {exc}") from None
    return DecisionTree(classes, schema, root, priors)
