import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xferad import evaluate as ev
from xferad import nn
from xferad.errors import ContractError, UndefinedMetricError


def scored(scores, labels):
    return ev.ScoredSet(np.asarray(scores, float), np.asarray(labels))


def logit_model(bias):
    """Input-independent 2-class model: zero weights, logits = bias."""
    dense = nn.Dense(1, 2, rng=np.random.default_rng(0))
    dense.weight.data = np.zeros((1, 2), np.float32)
    dense.bias.data = np.asarray(bias, np.float32)
    return nn.ModelGraph([dense], (1,), 2)


# ---------------------------------------------------------------------------
# anomaly scores


def test_scores_saturate_toward_zero_for_confident_normal():
    m = logit_model([100.0, -100.0])  # normal neuron wins
    s = ev.anomaly_scores(m, np.zeros((3, 1), np.float32))
    assert np.all(s < 1e-30)


def test_scores_equal_logits_give_half():
    m = logit_model([2.0, 2.0])
    s = ev.anomaly_scores(m, np.zeros((2, 1), np.float32))
    assert np.allclose(s, 0.5)


def test_scores_complement_normal_neuron_probability():
    rng = np.random.default_rng(0)
    m = nn.build_small_convnet((3, 16, 16), 2, seed=1)
    x = rng.random((9, 3, 16, 16), dtype=np.float32)
    s = ev.anomaly_scores(m, x)
    from xferad import tensor as T
    probs = T.softmax(m.forward(T.Tensor(x)).data)
    assert np.allclose(s, 1.0 - probs[:, 0], atol=1e-7)


def test_float64_samples_are_scored_unrounded():
    dense = nn.Dense(1, 2, rng=np.random.default_rng(0), dtype=np.float64)
    dense.weight.data = np.array([[1.0, -1.0]])
    m = nn.ModelGraph([dense], (1,), 2)
    x = np.array([[0.1]])  # not a float32 value
    s = ev.anomaly_scores(m, x)
    e = np.exp(-0.2)
    assert np.array_equal(s, [e / (1.0 + e)])


def test_scores_require_two_class_model():
    m = nn.build_small_convnet((3, 16, 16), 5, seed=0)
    with pytest.raises(ContractError, match="2-class"):
        ev.anomaly_scores(m, np.zeros((1, 3, 16, 16), np.float32))


# ---------------------------------------------------------------------------
# AUC


def test_auc_perfect_separation():
    s = scored([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
    assert ev.auc_trapezoid(s) == 1.0
    assert ev.auc_pairwise_oracle(s) == 1.0


def test_auc_all_tied_is_half():
    s = scored([0.5] * 6, [1, 0, 1, 0, 1, 0])
    assert ev.auc_trapezoid(s) == 0.5
    assert ev.auc_pairwise_oracle(s) == 0.5


def test_auc_hand_pairwise_case():
    # normal {0.1, 0.6}, anomalous {0.4}: 1 win and 1 loss of 2 pairs
    s = scored([0.1, 0.6, 0.4], [0, 0, 1])
    assert ev.auc_pairwise_oracle(s) == 0.5
    assert ev.auc_trapezoid(s) == pytest.approx(0.5, abs=1e-15)


def test_auc_single_label_is_undefined():
    with pytest.raises(UndefinedMetricError):
        ev.auc_trapezoid(scored([0.1, 0.2], [1, 1]))
    with pytest.raises(UndefinedMetricError):
        ev.auc_pairwise_oracle(scored([0.1, 0.2], [0, 0]))


def random_scored_set(rng, n=None, tie_prone=False):
    n = n if n is not None else int(rng.integers(2, 201))
    labels = np.zeros(n, np.int64)
    labels[: int(rng.integers(1, n))] = 1
    rng.shuffle(labels)
    if tie_prone:
        values = rng.integers(0, max(2, n // 4), size=n) / max(2, n // 4)
    else:
        values = rng.random(n)
    return ev.ScoredSet(values.astype(float), labels)


def test_trapezoid_equals_pairwise_oracle_on_random_sets():
    rng = np.random.default_rng(42)
    for i in range(150):
        s = random_scored_set(rng, tie_prone=(i % 2 == 0))
        assert abs(ev.auc_trapezoid(s) - ev.auc_pairwise_oracle(s)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=2, max_size=40),
       st.data())
def test_trapezoid_equals_oracle_property(values, data_):
    labels = data_.draw(
        st.lists(st.sampled_from([0, 1]), min_size=len(values), max_size=len(values))
    )
    if 0 not in labels or 1 not in labels:
        return
    s = scored(values, labels)
    assert abs(ev.auc_trapezoid(s) - ev.auc_pairwise_oracle(s)) <= 1e-12


def test_auc_invariant_under_strictly_increasing_transform():
    rng = np.random.default_rng(7)
    s = random_scored_set(rng, n=60, tie_prone=True)
    base = ev.auc_trapezoid(s)
    for f in (lambda x: 2 * x + 1, np.exp, lambda x: x ** 3 + 5 * x):
        t = ev.ScoredSet(f(s.scores), s.labels)
        assert abs(ev.auc_trapezoid(t) - base) <= 1e-12


def test_label_swap_maps_auc_to_complement():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = random_scored_set(rng)
        flipped = ev.ScoredSet(s.scores, 1 - s.labels)
        assert abs(ev.auc_trapezoid(flipped) - (1.0 - ev.auc_trapezoid(s))) <= 1e-12


def test_roc_curve_monotone_with_correct_endpoints():
    rng = np.random.default_rng(9)
    for _ in range(25):
        s = random_scored_set(rng, tie_prone=True)
        roc = ev.roc_curve(s)
        assert roc.fpr[0] == 0.0 and roc.tpr[0] == 0.0
        assert roc.fpr[-1] == 1.0 and roc.tpr[-1] == 1.0
        assert np.all(np.diff(roc.fpr) >= 0)
        assert np.all(np.diff(roc.tpr) >= 0)
        assert roc.thresholds[0] == np.inf
        assert roc.thresholds[-1] == s.scores.min()


# ---------------------------------------------------------------------------
# confusion matrix / metrics. Reference fixtures: a concrete-crack
# detector on a 4000+4000 test set at three operating points, with all
# derived values frozen by hand arithmetic from the counts.


def scored_from_confusion(tp, fn, fp, tn):
    scores = np.concatenate([
        np.full(tp, 0.9), np.full(fn, 0.1),   # actual anomalous
        np.full(fp, 0.9), np.full(tn, 0.1),   # actual normal
    ])
    labels = np.concatenate([np.ones(tp + fn, np.int64), np.zeros(fp + tn, np.int64)])
    return ev.ScoredSet(scores, labels)


def test_confusion_crack_detector_zero_false_alarms():
    s = scored_from_confusion(3993, 7, 0, 4000)
    m = ev.confusion_at(s, 0.5)
    assert (m.tp, m.fn, m.fp, m.tn) == (3993, 7, 0, 4000)
    assert m.tp + m.fn == 4000 and m.fp + m.tn == 4000       # actual-class totals
    assert m.tp + m.fp == 3993 and m.fn + m.tn == 4007       # predicted-class totals
    assert m.total == 8000
    per = ev.metrics(m)
    assert per["anomalous"].precision == 1.0
    assert per["anomalous"].recall == pytest.approx(0.99825, abs=1e-12)


def test_confusion_crack_detector_one_false_alarm():
    m = ev.confusion_at(scored_from_confusion(3975, 25, 1, 3999), 0.5)
    assert (m.tp, m.fn, m.fp, m.tn) == (3975, 25, 1, 3999)
    assert m.tp + m.fp == 3976 and m.fn + m.tn == 4024 and m.total == 8000
    per = ev.metrics(m)
    assert per["anomalous"].precision == pytest.approx(3975 / 3976, abs=1e-15)
    assert per["anomalous"].recall == pytest.approx(3975 / 4000, abs=1e-15)


def test_confusion_crack_detector_balanced_errors():
    m = ev.confusion_at(scored_from_confusion(3952, 48, 51, 3949), 0.5)
    assert (m.tp, m.fn, m.fp, m.tn) == (3952, 48, 51, 3949)
    assert m.tp + m.fp == 4003 and m.fn + m.tn == 3997 and m.total == 8000
    per = ev.metrics(m)
    assert per["anomalous"].precision == pytest.approx(3952 / 4003, abs=1e-15)
    assert per["anomalous"].recall == pytest.approx(3952 / 4000, abs=1e-15)
    f1 = per["anomalous"].f1
    p, r = 3952 / 4003, 3952 / 4000
    assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-15)


def test_confusion_threshold_zero_predicts_everything_anomalous():
    s = scored([0.3, 0.6, 0.1], [1, 0, 0])
    m = ev.confusion_at(s, 0.0)
    assert m.fn == 0 and m.tn == 0
    assert m.tp == 1 and m.fp == 2


def test_confusion_threshold_above_max_predicts_nothing():
    s = scored([0.3, 0.6, 0.1], [1, 0, 0])
    m = ev.confusion_at(s, 0.61)
    assert m.tp == 0 and m.fp == 0
    assert m.fn == 1 and m.tn == 2


def test_confusion_counts_always_partition_samples():
    rng = np.random.default_rng(10)
    for _ in range(20):
        s = random_scored_set(rng, tie_prone=True)
        m = ev.confusion_at(s, float(rng.random()))
        assert m.total == len(s.labels)
        assert m.tp + m.fn == int((s.labels == 1).sum())
        assert m.fp + m.tn == int((s.labels == 0).sum())


def test_metrics_undefined_not_coerced_to_zero():
    m = ev.ConfusionMatrix(tp=0, fn=0, fp=3, tn=5)
    per = ev.metrics(m)
    assert per["anomalous"].recall is None          # tp + fn == 0
    assert per["anomalous"].precision == 0.0        # 0 / 3 is defined
    assert per["anomalous"].f1 is None


# ---------------------------------------------------------------------------
# report serialization


def sample_report():
    rng = np.random.default_rng(11)
    s = random_scored_set(rng, n=40, tie_prone=True)
    return ev.evaluate_scores(s, threshold=0.5), s


def reports_equal(a, b):
    return (
        a.auc == b.auc
        and a.threshold == b.threshold
        and a.score_convention == b.score_convention
        and (a.confusion.tp, a.confusion.fn, a.confusion.fp, a.confusion.tn)
        == (b.confusion.tp, b.confusion.fn, b.confusion.fp, b.confusion.tn)
        and a.metrics == b.metrics
        and np.array_equal(a.roc.fpr, b.roc.fpr)
        and np.array_equal(a.roc.tpr, b.roc.tpr)
        and np.array_equal(a.roc.thresholds, b.roc.thresholds)
    )


def test_report_json_roundtrip(tmp_path):
    report, _ = sample_report()
    path = tmp_path / "report.json"
    ev.emit_report(report, path, "json")
    assert reports_equal(report, ev.load_report(path))


# every key, its order and each number's text, as report.json holds them:
# a three-way tie, undefined anomalous precision and F1 at a threshold above
# every score, and the +inf start of the sweep written as null
REPORT_JSON_TEXT = """{
  "auc": 0.8888888888888888,
  "threshold": 0.95,
  "score_convention": "anomalous_neuron_probability",
  "confusion": {
    "tp": 0,
    "fn": 3,
    "fp": 0,
    "tn": 3
  },
  "metrics": {
    "anomalous": {
      "precision": null,
      "recall": 0.0,
      "f1": null
    },
    "normal": {
      "precision": 0.5,
      "recall": 1.0,
      "f1": 0.6666666666666666
    }
  },
  "roc": {
    "fpr": [
      0.0,
      0.0,
      0.0,
      0.6666666666666666,
      1.0
    ],
    "tpr": [
      0.0,
      0.3333333333333333,
      0.6666666666666666,
      1.0,
      1.0
    ],
    "thresholds": [
      null,
      0.9,
      0.7,
      0.5,
      0.1
    ]
  }
}
"""


def test_report_json_exact_text(tmp_path):
    report = ev.evaluate_scores(scored([0.1, 0.5, 0.5, 0.5, 0.7, 0.9], [0, 0, 1, 0, 1, 1]),
                                threshold=0.95)
    path = tmp_path / "report.json"
    ev.emit_report(report, path, "json")
    assert path.read_bytes() == REPORT_JSON_TEXT.encode()
    assert reports_equal(report, ev.load_report(path))


# the structure emit_report(..., "json") writes
REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "auc", "threshold", "score_convention", "confusion", "metrics", "roc",
    ],
    "properties": {
        "auc": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "threshold": {"type": "number"},
        "score_convention": {"type": "string"},
        "confusion": {
            "type": "object",
            "required": ["tp", "fn", "fp", "tn"],
            "properties": {k: {"type": "integer", "minimum": 0} for k in ("tp", "fn", "fp", "tn")},
        },
        "metrics": {
            "type": "object",
            "required": ["anomalous", "normal"],
            "patternProperties": {
                ".*": {
                    "type": "object",
                    "required": ["precision", "recall", "f1"],
                    "properties": {
                        k: {"type": ["number", "null"]} for k in ("precision", "recall", "f1")
                    },
                },
            },
        },
        "roc": {
            "type": "object",
            "required": ["fpr", "tpr", "thresholds"],
            "properties": {
                "fpr": {"type": "array", "items": {"type": "number"}},
                "tpr": {"type": "array", "items": {"type": "number"}},
                "thresholds": {"type": "array", "items": {"type": ["number", "null"]}},
            },
        },
    },
}


def test_report_json_validates_against_schema(tmp_path):
    import json
    import jsonschema

    report, _ = sample_report()
    path = tmp_path / "report.json"
    ev.emit_report(report, path, "json")
    jsonschema.validate(json.loads(path.read_text()), REPORT_SCHEMA)


def test_roc_csv_rows_match_curve_points(tmp_path):
    report, _ = sample_report()
    path = tmp_path / "roc.csv"
    ev.emit_report(report, path, "csv")
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["threshold", "fpr", "tpr"]
    assert len(rows) - 1 == len(report.roc.fpr)
    first, last = rows[1], rows[-1]
    assert float(first[0]) == np.inf and float(first[1]) == 0.0 and float(first[2]) == 0.0
    assert float(last[0]) == report.roc.thresholds[-1]
    assert float(last[1]) == 1.0 and float(last[2]) == 1.0


def test_scores_csv_layout(tmp_path):
    _, s = sample_report()
    path = tmp_path / "scores.csv"
    ev.write_scores_csv(s, path)
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["sample_id", "label", "score"]
    assert len(rows) - 1 == len(s.labels)
    assert [int(r[1]) for r in rows[1:]] == s.labels.tolist()
    assert np.allclose([float(r[2]) for r in rows[1:]], s.scores)
