"""Decision trees over prosodic features and their decoder evidence."""

import dataclasses
import math
import random
import sys
from pathlib import Path
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialact import prosody
from dialact.corpus import (Conversation, FeatureSchema, FeatureVector, TagSet,
                            Utterance, parse_prosody)
from dialact.prosody import (DecisionTree, Node, ProsodyError, TreeConfig,
                             load_tree, prosody_likelihood_tables,
                             serialize_tree, train_tree, tree_posterior,
                             tree_scaled_likelihood)

SCHEMA1 = FeatureSchema(("f",), ("continuous",))


def fv(**values):
    return FeatureVector(values)


def depth(tree: DecisionTree) -> int:
    deepest, stack = 0, [(tree.root, 0)]
    while stack:
        node, at = stack.pop()
        if node.is_leaf:
            deepest = max(deepest, at)
        else:
            stack += ((node.left, at + 1), (node.right, at + 1))
    return deepest


def separable_samples():
    # class is the sign of the one feature
    out = []
    for i in range(10):
        out.append((fv(f=-1.0 - i), "S"))
        out.append((fv(f=1.0 + i), "Q"))
    return out


# ---------------------------------------------------------------------------
# Reference implementation: the scalar split scan and per-utterance walk the
# array code replaced, kept verbatim as the oracle for byte-identical trees
# and bit-identical evidence tables
# ---------------------------------------------------------------------------

def _oracle_gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _oracle_class_counts(labels: Sequence[int], n_classes: int) -> np.ndarray:
    counts = np.zeros(n_classes)
    for lab in labels:
        counts[lab] += 1
    return counts


def _oracle_best_split(samples, schema: FeatureSchema, n_classes: int,
                min_leaf: int):
    """Best (gain, feature, threshold/categories, missing_left, mask) or None.

    ``samples`` is a list of (FeatureVector, class index).  The returned mask
    holds True for samples routed left.
    """
    n = len(samples)
    parent_counts = _oracle_class_counts([c for _, c in samples], n_classes)
    parent_gini = _oracle_gini(parent_counts)
    best = None  # (gain, feature_index, threshold, categories, missing_left, mask)

    for fi, name in enumerate(schema.names):
        values = []
        missing_idx = []
        for si, (fv, _) in enumerate(samples):
            if name not in fv.values:
                raise ProsodyError(f"feature {name!r} missing from sample schema")
            v = fv.values[name]
            if v is None:
                missing_idx.append(si)
            else:
                values.append((si, v))
        if not values:
            continue
        if schema.kinds[fi] == "continuous":
            distinct = sorted({float(v) for _, v in values})
            candidates = [(lo + hi) / 2.0 for lo, hi in zip(distinct, distinct[1:])]
            tests = [("le", thr) for thr in candidates]
        else:
            cats = sorted({str(v) for _, v in values})
            if len(cats) < 2:
                continue
            # Enumerate subsets containing the first category: each
            # partition once, in a deterministic order.
            tests = []
            rest = cats[1:]
            for mask in range(0, 1 << len(rest)):
                subset = frozenset([cats[0]] + [c for b, c in enumerate(rest)
                                                if mask >> b & 1])
                if len(subset) < len(cats):
                    tests.append(("in", subset))

        for kind, test in tests:
            left = np.zeros(n, dtype=bool)
            n_left_known = n_right_known = 0
            for si, v in values:
                if (float(v) <= test) if kind == "le" else (str(v) in test):
                    left[si] = True
                    n_left_known += 1
                else:
                    n_right_known += 1
            missing_left = n_left_known >= n_right_known
            for si in missing_idx:
                left[si] = missing_left
            nl = int(left.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            lc = _oracle_class_counts([c for (fv, c), flag in zip(samples, left) if flag],
                               n_classes)
            rc = parent_counts - lc
            gain = parent_gini - (nl / n) * _oracle_gini(lc) - (nr / n) * _oracle_gini(rc)
            if gain > 1e-12 and (best is None or gain > best[0]):
                best = (gain, fi,
                        test if kind == "le" else None,
                        test if kind == "in" else None,
                        missing_left, left.copy())
    return best


def oracle_train_tree(schema: FeatureSchema,
               samples: Sequence[tuple[FeatureVector, str]],
               config: TreeConfig = TreeConfig(),
               classes: Sequence[str] | None = None) -> DecisionTree:
    """Grow a tree on (features, class label) pairs.

    ``classes`` fixes the class order (default: sorted unique labels).
    Growth stops at purity, when no split keeps ``min_leaf`` samples on both
    sides with positive Gini decrease, or at ``max_depth``.
    """
    if not samples:
        raise ProsodyError("no training samples")
    if classes is None:
        classes = tuple(sorted({lab for _, lab in samples}))
    else:
        classes = tuple(classes)
        stray = {lab for _, lab in samples} - set(classes)
        if stray:
            raise ProsodyError(f"sample labels outside class list: {sorted(stray)}")
    index = {lab: i for i, lab in enumerate(classes)}
    data = [(fv, index[lab]) for fv, lab in samples]

    def grow(node_samples, depth: int) -> Node:
        counts = _oracle_class_counts([c for _, c in node_samples], len(classes))
        pure = (counts > 0).sum() <= 1
        at_depth = config.max_depth is not None and depth >= config.max_depth
        if not pure and not at_depth and len(node_samples) >= 2 * config.min_leaf:
            found = _oracle_best_split(node_samples, schema, len(classes), config.min_leaf)
            if found is not None:
                _, fi, threshold, categories, missing_left, mask = found
                left = [s for s, flag in zip(node_samples, mask) if flag]
                right = [s for s, flag in zip(node_samples, mask) if not flag]
                return Node(feature=schema.names[fi], threshold=threshold,
                            categories=categories, missing_left=missing_left,
                            left=grow(left, depth + 1),
                            right=grow(right, depth + 1))
        return Node(posterior=tuple(float(x) for x in counts / counts.sum()))

    root = grow(data, 0)
    priors = _oracle_class_counts([c for _, c in data], len(classes)) / len(data)
    return DecisionTree(classes, schema, root, tuple(float(x) for x in priors))


def oracle_tree_posterior(tree: DecisionTree, fv: FeatureVector) -> np.ndarray:
    """Class posterior at the leaf this feature vector reaches."""
    node = tree.root
    while not node.is_leaf:
        if node.feature not in fv.values:
            raise ProsodyError(f"feature {node.feature!r} queried by the tree "
                               f"is absent from the probe's schema")
        v = fv.values[node.feature]
        if v is None:
            go_left = node.missing_left
        elif node.threshold is not None:
            go_left = float(v) <= node.threshold
        else:
            go_left = str(v) in node.categories
        node = node.left if go_left else node.right
    return np.array(node.posterior)



def oracle_likelihood_tables(tree: DecisionTree, convs) -> list:
    """Decoder evidence tables from the tree, one per conversation.

    Rows are log scaled likelihoods over the tree's classes, normalized to
    sum 1 before taking logs.  A class never seen in tree training (prior 0,
    hence posterior 0 everywhere) scores flat: the tree carries no evidence
    about it.  Utterances without features get a flat row too.
    """
    from dialact.hmm import LikelihoodTable

    priors = tree.training_priors
    k = len(tree.classes)
    tables = []
    for conv in convs:
        scores = np.empty((len(conv), k))
        for i, utt in enumerate(conv):
            if utt.prosody is None:
                scores[i] = -math.log(k)
                continue
            post = oracle_tree_posterior(tree, utt.prosody)
            raw = np.array([p / pr if pr > 0.0 else 1.0
                            for p, pr in zip(post, priors)])
            total = raw.sum()
            if total <= 0.0:
                raise ProsodyError(f"{conv.conv_id}:{utt.index}: all scaled "
                                   f"likelihoods are zero")
            with np.errstate(divide="ignore"):
                scores[i] = np.log(raw / total)
        tables.append(LikelihoodTable(conv.conv_id, tree.classes,
                                      conv.speakers, scores))
    return tables


# ---------------------------------------------------------------------------
# Growing
# ---------------------------------------------------------------------------

def test_separable_data_grows_a_pure_stump():
    tree = train_tree(SCHEMA1, separable_samples())
    assert tree.classes == ("Q", "S")  # sorted default
    assert depth(tree) == 1 and tree.n_leaves() == 2
    assert tuple(tree_posterior(tree, fv(f=-5.0))) == (0.0, 1.0)
    assert tuple(tree_posterior(tree, fv(f=5.0))) == (1.0, 0.0)
    assert tree.training_priors == (0.5, 0.5)


def test_explicit_class_order_is_respected():
    tree = train_tree(SCHEMA1, separable_samples(), classes=("S", "Q"))
    assert tree.classes == ("S", "Q")
    assert tuple(tree_posterior(tree, fv(f=-5.0))) == (1.0, 0.0)
    with pytest.raises(ProsodyError, match="outside"):
        train_tree(SCHEMA1, separable_samples(), classes=("S",))


def test_continuous_threshold_is_a_midpoint():
    samples = [(fv(f=0.0), "S"), (fv(f=0.0), "S"), (fv(f=2.0), "Q"),
               (fv(f=2.0), "Q")]
    tree = train_tree(SCHEMA1, samples)
    assert tree.root.threshold == 1.0


def test_categorical_split_partitions_by_subset():
    schema = FeatureSchema(("site",), ("categorical",))
    samples = []
    for _ in range(5):
        samples += [(fv(site="m"), "S"), (fv(site="x"), "S"),
                    (fv(site="f"), "Q")]
    tree = train_tree(schema, samples)
    assert tree.root.categories is not None
    assert tuple(tree_posterior(tree, fv(site="m"))) == \
        tuple(tree_posterior(tree, fv(site="x")))
    assert tuple(tree_posterior(tree, fv(site="m"))) != \
        tuple(tree_posterior(tree, fv(site="f")))


def test_missing_values_follow_the_majority_side():
    # 8 known values go right, 2 left: missing must route right
    samples = [(fv(f=-1.0), "S"), (fv(f=-2.0), "S")] + \
        [(fv(f=float(i + 1)), "Q") for i in range(8)] + \
        [(fv(f=None), "Q")]
    tree = train_tree(SCHEMA1, samples, TreeConfig(min_leaf=1))
    assert tree.root.missing_left is False
    assert np.argmax(tree_posterior(tree, fv(f=None))) == \
        tree.classes.index("Q")


def test_min_leaf_and_max_depth_stop_growth():
    samples = separable_samples()
    assert train_tree(SCHEMA1, samples, TreeConfig(min_leaf=len(samples))) \
        .n_leaves() == 1
    assert depth(train_tree(SCHEMA1, samples, TreeConfig(max_depth=0))) == 0
    with pytest.raises(ValueError):
        TreeConfig(min_leaf=0)
    with pytest.raises(ValueError):
        TreeConfig(max_depth=-1)


def test_pure_node_stops_splitting():
    samples = [(fv(f=float(i)), "S") for i in range(10)]
    tree = train_tree(SCHEMA1, samples)
    assert tree.n_leaves() == 1
    assert tree_posterior(tree, fv(f=3.0))[0] == 1.0


def test_equal_gain_prefers_the_first_feature():
    # two identical columns: the scan must keep the first strict improvement
    schema = FeatureSchema(("a", "b"), ("continuous", "continuous"))
    samples = [(fv(a=x, b=x), lab) for x, lab in
               [(-2.0, "S"), (-1.0, "S"), (1.0, "Q"), (2.0, "Q")]]
    tree = train_tree(schema, samples)
    assert tree.root.feature == "a"


def test_training_is_deterministic(tmp_path):
    rng = random.Random(17)
    schema = FeatureSchema(("f", "g"), ("continuous", "categorical"))
    samples = [(fv(f=rng.gauss(0, 1), g=rng.choice("uvw")),
                rng.choice(("S", "Q"))) for _ in range(60)]
    p1, p2 = tmp_path / "t1", tmp_path / "t2"
    serialize_tree(train_tree(schema, samples, TreeConfig(min_leaf=3)), p1)
    serialize_tree(train_tree(schema, samples, TreeConfig(min_leaf=3)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_no_samples_rejected():
    with pytest.raises(ProsodyError):
        train_tree(SCHEMA1, [])


def test_probe_missing_schema_feature_rejected():
    tree = train_tree(SCHEMA1, separable_samples())
    with pytest.raises(ProsodyError, match="'f'"):
        tree_posterior(tree, FeatureVector({"other": 1.0}))


# ---------------------------------------------------------------------------
# Scaled likelihoods
# ---------------------------------------------------------------------------

def bayes_tree():
    # a single leaf: posterior (0.6, 0.4) against priors (0.8, 0.2)
    root = Node(posterior=(0.6, 0.4))
    return DecisionTree(("S", "Q"), SCHEMA1, root, (0.8, 0.2))


def test_posterior_to_likelihood_conversion_fixture():
    scores = tree_scaled_likelihood(bayes_tree(), fv(f=0.0),
                                    {"S": 0.8, "Q": 0.2}, TagSet(("S", "Q")))
    assert math.isclose(scores["S"], 3 / 11, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(scores["Q"], 8 / 11, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(sum(scores.values()), 1.0, abs_tol=1e-12)


def test_scaled_likelihood_expands_collapsed_classes():
    ts = TagSet(("S", "Q"), collapsed=(("Q", ("Wh-Question", "Yes-No-Question")),))
    scores = tree_scaled_likelihood(bayes_tree(), fv(f=0.0),
                                    {"S": 0.8, "Q": 0.2}, ts)
    assert scores["Wh-Question"] == scores["Yes-No-Question"]
    assert math.isclose(sum(scores.values()), 1.0, abs_tol=1e-12)
    # members split the class mass only through renormalization
    assert math.isclose(scores["S"], 0.75 / (0.75 + 2 * 2.0), abs_tol=1e-12)


def test_scaled_likelihood_validates_inputs():
    with pytest.raises(ProsodyError, match="differ"):
        tree_scaled_likelihood(bayes_tree(), fv(f=0.0), {"S": 1.0},
                               TagSet(("S",)))
    with pytest.raises(ProsodyError, match="positive"):
        tree_scaled_likelihood(bayes_tree(), fv(f=0.0), {"S": 1.0, "Q": 0.0},
                               TagSet(("S", "Q")))


def test_scaled_likelihood_equals_the_table_row_renormalized():
    # no collapsed classes: one vector's scores are its exponentiated
    # evidence-table row, renormalized
    rng = random.Random(17)
    schema = FeatureSchema(("f", "site"), ("continuous", "categorical"))
    classes = ("S", "Q", "B")

    def sample():
        return fv(f=None if rng.random() < 0.1 else rng.gauss(0.0, 1.0),
                  site=rng.choice(["x", "y", "z", None]))

    samples = [(sample(), rng.choice(classes)) for _ in range(120)]
    tree = train_tree(schema, samples, TreeConfig(min_leaf=4),
                      classes=classes)
    assert tree.n_leaves() > 2 and min(tree.training_priors) > 0.0
    probes = [sample() for _ in range(40)]
    conv = Conversation("p", tuple(Utterance(i, "AB"[i % 2], None, ("w",),
                                             prosody=probe)
                                   for i, probe in enumerate(probes)))
    table = prosody_likelihood_tables(tree, [conv])[0]
    priors = dict(zip(classes, tree.training_priors))
    for probe, row in zip(probes, table.scores):
        scores = tree_scaled_likelihood(tree, probe, priors, TagSet(classes))
        assert list(scores) == list(classes)
        want = np.exp(row) / np.exp(row).sum()
        assert np.allclose([scores[c] for c in classes], want,
                           rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Decoder evidence tables
# ---------------------------------------------------------------------------

def conv_with_prosody(feats):
    utts = tuple(Utterance(i, "AB"[i % 2], None, ("w",),
                           prosody=None if f is None else fv(f=f))
                 for i, f in enumerate(feats))
    return Conversation("p", utts)


def test_likelihood_tables_match_the_fixture():
    table = prosody_likelihood_tables(bayes_tree(), [conv_with_prosody([0.0])])[0]
    assert table.labels == ("S", "Q")
    assert np.allclose(np.exp(table.scores[0]), [3 / 11, 8 / 11], atol=1e-12)


def test_missing_features_give_a_flat_row():
    table = prosody_likelihood_tables(bayes_tree(),
                                      [conv_with_prosody([None, 0.0])])[0]
    assert np.allclose(table.scores[0], math.log(0.5), atol=1e-12)
    assert not np.allclose(table.scores[1], math.log(0.5), atol=1e-6)


def test_class_unseen_in_training_scores_flat():
    # Z never occurs: prior 0, posterior 0, ratio pinned to 1
    samples = separable_samples()
    tree = train_tree(SCHEMA1, samples, classes=("S", "Q", "Z"))
    assert tree.training_priors[2] == 0.0
    table = prosody_likelihood_tables(tree, [conv_with_prosody([-3.0])])[0]
    row = np.exp(table.scores[0])
    assert math.isclose(row.sum(), 1.0, abs_tol=1e-12)
    # S is certain at this leaf (ratio 1.0/0.5 = 2), Z is pinned to the
    # flat ratio 1, Q gets nothing
    assert math.isclose(row[tree.classes.index("S")], 2 / 3, abs_tol=1e-12)
    assert row[tree.classes.index("Q")] == 0.0
    assert math.isclose(row[tree.classes.index("Z")], 1 / 3, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_round_trip_is_exact(tmp_path):
    rng = random.Random(31)
    schema = FeatureSchema(("f", "g", "site"),
                           ("continuous", "continuous", "categorical"))
    samples = [(fv(f=rng.gauss(0, 1),
                   g=None if rng.random() < 0.2 else rng.gauss(2, 3),
                   site=rng.choice(["aa", "bb", "cc"])),
                rng.choice(("S", "Q", "B"))) for _ in range(80)]
    tree = train_tree(schema, samples, TreeConfig(min_leaf=2))
    assert depth(tree) >= 2  # the fixture must exercise nesting
    path = tmp_path / "tree.txt"
    serialize_tree(tree, path)
    back = load_tree(path)
    assert back.classes == tree.classes
    assert back.schema == tree.schema
    assert back.training_priors == tree.training_priors
    probes = [fv(f=rng.gauss(0, 1), g=rng.gauss(2, 3),
                 site=rng.choice(["aa", "bb", "cc", "dd"])) for _ in range(50)]
    probes.append(fv(f=None, g=None, site=None))
    for probe in probes:
        assert np.array_equal(tree_posterior(back, probe),
                              tree_posterior(tree, probe))
    again = tmp_path / "again.txt"
    serialize_tree(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_tree_deeper_than_the_recursion_limit_trains_saves_and_loads(
        tmp_path):
    # labels i^2 mod 3 along x = i: each split peels off one or two rows
    samples = [(fv(f=float(i)), str(i * i % 3)) for i in range(1800)]
    tree = train_tree(SCHEMA1, samples, TreeConfig(min_leaf=1))
    assert depth(tree) > sys.getrecursionlimit()
    assert tree.n_leaves() == 1200
    path = tmp_path / "deep.tree"
    serialize_tree(tree, path)
    back = load_tree(path)
    assert back.n_leaves() == 1200
    for i in (0, 1, 2, 3, 900, 1798, 1799):
        # every leaf is pure, so a training row reaches its own label
        assert tree_posterior(back, fv(f=float(i)))[i * i % 3] == 1.0, i
    for x in (-1.0, 2.5, 1798.6, 5000.0):
        assert np.array_equal(tree_posterior(back, fv(f=x)),
                              tree_posterior(tree, fv(f=x))), x
    again = tmp_path / "again.tree"
    serialize_tree(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_hand_written_file_1200_levels_deep_loads(tmp_path):
    # node k sends f <= k + 0.5 to a leaf of class k mod 2, the rest deeper
    body = "".join(f"{'  ' * k}node\tf\t<=\t{k + 0.5!r}\tmissing=left\n"
                   f"{'  ' * (k + 1)}leaf\t{float(k % 2 == 0)!r}\t"
                   f"{float(k % 2)!r}\n" for k in range(1200))
    path = tmp_path / "deep.tree"
    path.write_text("tree v1\nclasses\tS\tQ\nfeatures\tf:continuous\n"
                    "priors\t0.5\t0.5\n" + body + "  " * 1200
                    + "leaf\t0.5\t0.5\n")
    tree = load_tree(path)
    assert depth(tree) == 1200 and tree.n_leaves() == 1201
    for x, want in ((0.0, [1.0, 0.0]), (1.0, [0.0, 1.0]), (1198.0, [1.0, 0.0]),
                    (1199.0, [0.0, 1.0]), (1200.0, [0.5, 0.5])):
        assert tree_posterior(tree, fv(f=x)).tolist() == want, x
    again = tmp_path / "again.tree"
    serialize_tree(tree, again)
    assert again.read_bytes() == path.read_bytes()


def test_load_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a tree\n")
    with pytest.raises(ProsodyError, match="not a tree"):
        load_tree(bad)
    truncated = tmp_path / "trunc.txt"
    truncated.write_text("tree v1\nclasses\tS\tQ\n"
                         "features\tf:continuous\npriors\t0.5\t0.5\n"
                         "node\tf\t<=\t0.0\tmissing=left\n  leaf\t1.0\t0.0\n")
    with pytest.raises(ProsodyError, match="truncated"):
        load_tree(truncated)
    # priors and leaves are probabilities, so no lookup row sums to zero
    header = "tree v1\nclasses\tS\tQ\nfeatures\tf:continuous\n"
    for n, (priors, leaf) in enumerate((("0.5\t0.5", "0.0\t0.0"),
                                        ("0.5\t0.5", "1.5\t0.0"),
                                        ("0.5\t0.5", "nan\t1.0"),
                                        ("-0.5\t1.0", "1.0\t0.0"),
                                        ("1.0", "1.0\t0.0"))):
        path = tmp_path / f"p{n}.txt"
        path.write_text(f"{header}priors\t{priors}\nnode\tf\t<=\t0.0\t"
                        f"missing=left\n  leaf\t{leaf}\n  leaf\t1.0\t0.0\n")
        line = 6 if priors == "0.5\t0.5" else 4
        with pytest.raises(ProsodyError, match=rf":{line}: expected 2 "
                           rf"probabilities in \[0, 1\], not all 0$"):
            load_tree(path)


# ---------------------------------------------------------------------------
# Array code against the scalar oracle
# ---------------------------------------------------------------------------

CATEGORY_NAMES = ("m", "f", "10", "9", "a b", "Z", "zz", "_")


def tree_bytes(tree, directory: Path, name: str) -> bytes:
    path = directory / name
    serialize_tree(tree, path)
    return path.read_bytes()


@st.composite
def tree_cases(draw):
    """Samples over 1-4 mixed features with duplicates, ~20% missing values
    and adjacent floats, plus a tree configuration and a class order."""
    kinds = draw(st.lists(st.sampled_from(("continuous", "categorical")),
                          min_size=1, max_size=4))
    names = tuple(f"f{i}" for i in range(len(kinds)))
    pools = []
    for kind in kinds:
        if kind == "continuous":
            # x and its successor: their midpoint rounds onto one of them
            x = draw(st.floats(-1e6, 1e6, allow_nan=False))
            pools.append([x, float(np.nextafter(x, np.inf))]
                         + draw(st.lists(st.one_of(
                             st.floats(-50, 50, allow_nan=False),
                             st.sampled_from((0.0, -0.0, 1.0))),
                             min_size=1, max_size=5)))
        else:
            pools.append(draw(st.lists(st.sampled_from(CATEGORY_NAMES),
                                       min_size=1, max_size=6, unique=True)))
    n = draw(st.integers(1, 40))
    samples = []
    for _ in range(n):
        values = {name: None if draw(st.integers(0, 4)) == 0
                  else draw(st.sampled_from(pool))
                  for name, pool in zip(names, pools)}
        samples.append((FeatureVector(values), draw(st.sampled_from("ABC"))))
    config = TreeConfig(draw(st.integers(1, 5)),
                        draw(st.one_of(st.none(), st.integers(0, 3))))
    # an explicit order holds a class no sample has
    classes = draw(st.one_of(st.none(), st.permutations(("A", "B", "C", "U"))))
    return FeatureSchema(names, tuple(kinds)), samples, config, classes


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=tree_cases(), block=st.sampled_from((1, 3, 256)))
def test_trees_are_byte_identical_to_the_scalar_scan(tmp_path, case, block):
    schema, samples, config, classes = case
    # small blocks put candidates across block boundaries
    with mock.patch.object(prosody, "_BLOCK", block):
        tree = train_tree(schema, samples, config, classes)
    want = oracle_train_tree(schema, samples, config, classes)
    assert tree_bytes(tree, tmp_path, "array") == \
        tree_bytes(want, tmp_path, "oracle")


def test_twelve_categories_span_several_subset_blocks(tmp_path):
    # 2^11 - 1 = 2047 subsets; the best, {c00, c05, c11} (mask 1040), lies
    # in a later block than the lesser ones enumerated before it
    cats = [f"c{i:02d}" for i in range(12)]
    rng = random.Random(5)
    samples = []
    for i in range(96):
        cat = cats[i % 12]
        label = "S" if cat in ("c00", "c05", "c11") else "Q"
        if rng.random() < 0.1:
            label = "B"
        samples.append((fv(site=cat, f=float(i % 7)), label))
    samples.append((fv(site=None, f=None), "S"))
    schema = FeatureSchema(("site", "f"), ("categorical", "continuous"))
    assert prosody._BLOCK < 2047
    config = TreeConfig(min_leaf=2, max_depth=2)
    tree = train_tree(schema, samples, config)
    assert tree.root.categories == frozenset({"c00", "c05", "c11"})
    assert tree_bytes(tree, tmp_path, "array") == \
        tree_bytes(oracle_train_tree(schema, samples, config), tmp_path, "oracle")


def lookup_fixture():
    rng = random.Random(23)
    schema = FeatureSchema(("f", "g", "site"),
                           ("continuous", "continuous", "categorical"))

    def features(missing_rate):
        def value(draw):
            return None if rng.random() < missing_rate else draw()
        return fv(f=value(lambda: rng.gauss(0, 1)),
                  g=value(lambda: rng.gauss(2, 3)),
                  site=value(lambda: rng.choice(["aa", "bb", "cc"])))

    samples = [(features(0.15), rng.choice("SQB")) for _ in range(150)]
    # class Z is never seen in training: prior 0, posterior 0 at every leaf
    tree = train_tree(schema, samples, TreeConfig(min_leaf=3),
                      classes=("S", "Q", "Z", "B"))
    convs = []
    for c in range(4):
        utts = []
        for i in range(25):
            pros = None if rng.random() < 0.2 else features(0.25)
            if pros is not None and rng.random() < 0.1:
                pros = fv(f=pros["f"], g=pros["g"], site="dd")  # unseen category
            utts.append(Utterance(i, "AB"[i % 2], None, ("w",), prosody=pros))
        convs.append(Conversation(f"c{c}", tuple(utts)))
    return tree, convs


@pytest.mark.parametrize("priors", [None, (0.4, 0.3, 0.0, 0.3),
                                    (0.25, 0.25, 0.25, 0.25)])
def test_tables_equal_the_per_utterance_walk(priors):
    tree, convs = lookup_fixture()
    assert tree.training_priors[2] == 0.0 and depth(tree) >= 3
    if priors is not None:      # tables divide by the tree's own priors
        tree = dataclasses.replace(tree, training_priors=priors)
    got = prosody_likelihood_tables(tree, convs)
    want = oracle_likelihood_tables(tree, convs)
    assert [t.conversation_id for t in got] == \
        [t.conversation_id for t in want]
    for g, w in zip(got, want):
        assert g.labels == w.labels and g.speakers == w.speakers
        assert g.scores.shape == w.scores.shape
        assert (g.scores == w.scores).all()
    for conv in convs:
        for utt in conv:
            if utt.prosody is not None:
                assert (tree_posterior(tree, utt.prosody)
                        == oracle_tree_posterior(tree, utt.prosody)).all()


def test_table_backed_vectors_train_and_route_as_dict_built_ones(tmp_path):
    # parsed vectors are row views of one column table; a dict-built vector
    # is a one-row table of its own; both must give the same trees, bytes
    # and leaves, also in a batch mixing tables with different features
    rng = random.Random(41)
    lines = ["f\tg\tsite"]
    labels = []
    for i in range(160):
        label = rng.choice("SQB")
        # "dd" is in the file but only on rows the tree never trains on
        site = "dd" if i >= 120 and i % 3 == 0 else rng.choice(
            ["aa", "bb", "cc", "NA"])
        g = "NA" if rng.random() < 0.2 else repr(rng.gauss(2, 3))
        lines.append(f"c{i // 40}\t{i % 40}\t"
                     f"{rng.gauss('SQB'.index(label), 1)!r}\t{g}\t{site}")
        labels.append(label)
    path = tmp_path / "p.tsv"
    path.write_text("\n".join(lines) + "\n")
    schema, table = parse_prosody(path)
    assert schema.kinds == ("continuous", "continuous", "categorical")
    parsed = [table[(f"c{i // 40}", i % 40)] for i in range(160)]
    built = [FeatureVector(dict(fv.values)) for fv in parsed]
    assert parsed == built and parsed[0].table is parsed[1].table
    # mixed: every other vector hand-built, some with extra features and
    # keys in another order
    mixed = [fv if i % 2 else FeatureVector(
        {"site": fv["site"], "extra": i, **dict(fv.values)} if i % 4
        else dict(fv.values)) for i, fv in enumerate(parsed)]
    config = TreeConfig(min_leaf=4)
    train = slice(0, 120)
    trees = [train_tree(schema, list(zip(batch[train], labels[train])),
                        config, classes=("S", "Q", "B"))
             for batch in (parsed, built, mixed)]
    oracle = oracle_train_tree(schema, list(zip(built[train], labels[train])),
                               config, classes=("S", "Q", "B"))
    want = tree_bytes(oracle, tmp_path, "oracle")
    assert depth(trees[0]) >= 3 and b"in\t" in want
    for n, tree in enumerate(trees):
        assert tree_bytes(tree, tmp_path, f"tree{n}") == want
    tree = trees[0]
    reached, leaf_of = prosody._route(tree, parsed)
    for batch in (built, mixed):
        again, again_of = prosody._route(tree, batch)
        assert [reached[j] for j in leaf_of] == [again[j] for j in again_of]
    for fv in mixed:
        assert (tree_posterior(tree, fv)
                == oracle_tree_posterior(tree, fv)).all()


def test_a_column_of_the_other_kind_raises_at_lookup_and_training(tmp_path):
    # x is continuous and y categorical in the file; each node tests the
    # other kind, and nothing converts between kinds
    path = tmp_path / "p.tsv"
    path.write_text("x\ty\nc\t0\t1.5\t2\nc\t1\tNA\tz\nc\t2\t-0.0\t0.5\n")
    _, table = parse_prosody(path)
    probes = [table[("c", i)] for i in range(3)]
    leaves = (Node(posterior=(1.0, 0.0)), Node(posterior=(0.0, 1.0)))
    by_text = DecisionTree(("S", "Q"), SCHEMA1, Node(
        feature="x", categories=frozenset({"-0.0"}), missing_left=False,
        left=leaves[0], right=leaves[1]), (0.5, 0.5))
    by_number = DecisionTree(("S", "Q"), SCHEMA1, Node(
        feature="y", threshold=1.0, left=leaves[0], right=leaves[1]),
        (0.5, 0.5))
    for tree, message in (
            (by_text, "feature 'x' is read as categorical but holds "
                      "continuous values"),
            (by_number, "feature 'y' is read as continuous but holds "
                        "categorical values")):
        for batch in (probes, probes[::2], [fv(x=-0.0, y="2")]):
            with pytest.raises(ProsodyError, match=f"^{message}$"):
                prosody._route(tree, batch)
    # the row whose x is missing never reads it, whatever the kind
    assert tuple(tree_posterior(by_text, probes[1])) == (0.0, 1.0)
    # training reads each column at its schema kind, before growing
    for kinds, message in ((("categorical", "categorical"), "'x' is read as "
                            "categorical"),
                           (("continuous", "continuous"), "'y' is read as "
                            "continuous")):
        with mock.patch.object(prosody, "_best_split") as search, \
                pytest.raises(ProsodyError, match=message):
            train_tree(FeatureSchema(("x", "y"), kinds),
                       list(zip(probes, "SQS")))
        search.assert_not_called()
    with pytest.raises(ProsodyError, match="'g' is read as continuous"):
        train_tree(FeatureSchema(("g",), ("continuous",)),
                   [(fv(g=1.0), "S"), (fv(g="a"), "Q")])


def test_an_all_missing_column_reads_as_missing_at_either_kind(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_text("z\nc\t0\tNA\nc\t1\tNA\n")
    _, table = parse_prosody(path)
    blank = [table[("c", i)] for i in range(2)]
    assert table[("c", 0)].table["z"].categories is None    # continuous
    leaves = (Node(posterior=(1.0, 0.0)), Node(posterior=(0.0, 1.0)))
    for node in (Node(feature="z", categories=frozenset({"a"}),
                      missing_left=False),
                 Node(feature="z", threshold=0.0, missing_left=False)):
        node.left, node.right = leaves
        tree = DecisionTree(("S", "Q"), SCHEMA1, node, (0.5, 0.5))
        reached, leaf_of = prosody._route(tree, blank + [fv(z=None)])
        assert [reached[j] for j in leaf_of] == [leaves[1]] * 3
    # beside categorical vectors, a categorical split trains as if the
    # parsed rows held None
    schema = FeatureSchema(("z",), ("categorical",))
    coded = [(fv(z=c), lab) for c, lab in zip("aabb", "SSQQ")]
    tree = train_tree(schema, list(zip(blank, "SQ")) + coded,
                      TreeConfig(min_leaf=1))
    want = oracle_train_tree(schema, [(fv(z=None), "S"), (fv(z=None), "Q")]
                             + coded, TreeConfig(min_leaf=1))
    assert tree_bytes(tree, tmp_path, "parsed") == \
        tree_bytes(want, tmp_path, "oracle")
    assert tree.root.categories == frozenset({"a"})


def test_category_count_is_capped_before_growing(monkeypatch):
    def samples(k):
        return [(fv(site=f"s{i:02d}", f=float(i)), "SQ"[i % 2])
                for i in range(k)]

    schema = FeatureSchema(("site", "f"), ("categorical", "continuous"))
    monkeypatch.setattr(prosody, "_MAX_CATEGORIES", 3)
    train_tree(schema, samples(3))
    with pytest.raises(ProsodyError, match=r"^feature 'site' holds 4 "
                       r"categories, more than the 3 a split search may "
                       r"take$"):
        train_tree(schema, samples(4))
    # only the categories the training column holds count
    assert train_tree(schema, samples(4)[:3] + [(fv(site=None, f=9.0), "S")])
    monkeypatch.undo()
    assert prosody._MAX_CATEGORIES == 20
    with mock.patch.object(prosody, "_best_split") as search, \
            pytest.raises(ProsodyError, match="'site' holds 21 categories"):
        train_tree(schema, samples(21))
    search.assert_not_called()


def test_batched_lookup_reports_an_absent_feature_only_where_it_is_tested():
    tree = DecisionTree(("S", "Q"), FeatureSchema(("f", "g"), ("continuous",) * 2),
                        Node(feature="f", threshold=0.0, missing_left=True,
                             left=Node(posterior=(1.0, 0.0)),
                             right=Node(feature="g", threshold=1.0,
                                        left=Node(posterior=(0.5, 0.5)),
                                        right=Node(posterior=(0.0, 1.0)))),
                        (0.5, 0.5))
    # the first utterance has no g but never reaches the node that tests it
    fine = Conversation("p", (Utterance(0, "A", None, ("w",), prosody=fv(f=-1.0)),
                              Utterance(1, "B", None, ("w",), prosody=fv(f=1.0, g=2.0))))
    table = prosody_likelihood_tables(tree, [fine])[0]
    assert (table.scores == oracle_likelihood_tables(tree, [fine])[0].scores).all()
    bad = Conversation("p", (Utterance(0, "A", None, ("w",), prosody=fv(f=1.0)),))
    with pytest.raises(ProsodyError, match="'g'"):
        prosody_likelihood_tables(tree, [bad])


def test_non_finite_training_values_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        samples = separable_samples() + [(fv(f=bad), "S")]
        with pytest.raises(ProsodyError, match="non-finite"):
            train_tree(SCHEMA1, samples)


def test_non_finite_lookup_values_rejected_where_tested():
    tree = train_tree(SCHEMA1, separable_samples())
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ProsodyError,
                           match=rf"feature 'f': non-finite value {bad!r}$"):
            tree_posterior(tree, fv(f=bad))
        conv = Conversation("p", (
            Utterance(0, "A", None, ("w",), prosody=fv(f=1.0)),
            Utterance(1, "B", None, ("w",), prosody=fv(f=bad))))
        with pytest.raises(ProsodyError, match="'f': non-finite"):
            prosody_likelihood_tables(tree, [conv])
    # only rows that reach a node testing the feature are checked
    two = DecisionTree(("S", "Q"), FeatureSchema(("f", "g"), ("continuous",) * 2),
                       Node(feature="f", threshold=0.0, missing_left=True,
                            left=Node(posterior=(1.0, 0.0)),
                            right=Node(feature="g", threshold=1.0,
                                       left=Node(posterior=(0.5, 0.5)),
                                       right=Node(posterior=(0.0, 1.0)))),
                       (0.5, 0.5))
    assert tree_posterior(two, fv(f=-1.0, g=math.nan)).tolist() == [1.0, 0.0]
    with pytest.raises(ProsodyError, match="'g': non-finite value nan"):
        tree_posterior(two, fv(f=1.0, g=math.nan))


def test_samples_missing_a_schema_feature_rejected_before_growing():
    # even a tree that would not split checks every sample's features
    samples = [(fv(f=1.0), "S"), (FeatureVector({"other": 1.0}), "S")]
    with pytest.raises(ProsodyError, match="'f' missing"):
        train_tree(SCHEMA1, samples)


def test_serialize_refuses_categories_that_would_not_reload(tmp_path):
    # "a,b" would reload as {"a", "b"} and flip the posterior of "a,b"
    schema = FeatureSchema(("site",), ("categorical",))
    samples = [(fv(site="a,b"), "S")] * 3 + [(fv(site="c"), "Q")] * 3
    tree = train_tree(schema, samples)
    assert tuple(tree_posterior(tree, fv(site="a,b"))) == (0.0, 1.0)
    path = tmp_path / "tree.txt"
    with pytest.raises(ProsodyError, match="'a,b'"):
        serialize_tree(tree, path)
    assert not path.exists()
    for cat in ("a\tb", "a\nb"):
        tree.root.categories = frozenset({cat})
        with pytest.raises(ProsodyError, match="would not reload"):
            serialize_tree(tree, path)
