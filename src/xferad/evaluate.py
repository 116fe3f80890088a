"""Anomaly scoring, ROC/AUC (two independent routes), confusion matrices,
derived metrics, and report serialization.

Score orientation: higher = more anomalous (the anomalous-neuron softmax
probability, i.e. 1 - the normal-neuron probability). Undefined metrics
(zero denominators) are reported as None / "undefined", never coerced
to 0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError, UndefinedMetricError

SCORE_CONVENTION = "anomalous_neuron_probability"

LABEL_NORMAL = 0
LABEL_ANOMALOUS = 1

# samples per tape-free forward pass, in scoring and in the frozen-prefix
# cache: at 32x32 input, 16 keep conv1's patch buffer (1.8 MB) and pool1's
# input (1.0 MB) each within a 2 MiB L2 cache; 64 made them 7.1 and 4.2 MB.
# The frozen-prefix cache runs one chunk per usable CPU at once, each
# thread's chunk within its own core's L2.
# Activations are per sample; the dense head's rows match between chunks of
# 16 and 64 because anomaly_scores never runs a last chunk of one row.
INFER_BATCH = 16


@dataclass
class ScoredSet:
    """Per-sample anomaly scores with ground-truth labels (0 normal, 1 anomalous)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ShapeError(
                f"scores {self.scores.shape} and labels {self.labels.shape} must be equal-length 1-d"
            )

    def require_both_labels(self):
        if not ((self.labels == LABEL_ANOMALOUS).any() and (self.labels == LABEL_NORMAL).any()):
            raise UndefinedMetricError("AUC needs at least one sample of each label")


@dataclass
class RocCurve:
    """Threshold sweep points, (fpr, tpr) pairs from (0,0) to (1,1)."""

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray

    def area(self):
        """Area under the curve by trapezoidal integration."""
        return float(np.sum(np.diff(self.fpr) * (self.tpr[1:] + self.tpr[:-1]) * 0.5))


@dataclass
class ConfusionMatrix:
    """Counts at a fixed threshold; positive class = anomalous."""

    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self):
        return self.tp + self.fn + self.fp + self.tn


@dataclass
class ClassMetrics:
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass
class EvalReport:
    """One report.json: its keys are these fields, in this order."""

    auc: float
    threshold: float
    score_convention: str
    confusion: ConfusionMatrix
    metrics: dict[str, ClassMetrics]  # "anomalous", then "normal"
    roc: RocCurve


# ---------------------------------------------------------------------------
# scoring


def anomaly_scores(model, samples):
    """Softmax probability of the anomalous-class neuron, per sample.

    Pure inference (no tape); the model must have exactly 2 outputs.
    AUC under this orientation equals AUC under the complementary
    normal-neuron scoring. A 1-row last chunk joins the chunk before it.
    Each chunk enters a Tensor, so float64 samples stay float64 and a
    double-precision model's cached activations score unrounded; any
    other dtype becomes float32.
    """
    if model.num_classes != 2:
        raise ContractError(f"anomaly scoring needs a 2-class model, got {model.num_classes}")
    samples = np.asarray(samples)
    n = len(samples)
    starts = list(range(0, n, INFER_BATCH))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # numpy runs a 1-row product as gemv, which rounds unlike sgemm
    out = np.empty(n, dtype=np.float64)
    for start, stop in zip(starts, starts[1:] + [n]):
        logits = model.forward(T.Tensor(samples[start:stop])).data
        out[start:stop] = T.softmax(logits)[:, LABEL_ANOMALOUS]
    return out


# ---------------------------------------------------------------------------
# ROC / AUC


def roc_curve(scored):
    """Threshold sweep over the distinct scores, descending; tied scores
    share one threshold point."""
    scored.require_both_labels()
    order = np.argsort(-scored.scores, kind="stable")
    s = scored.scores[order]
    y = scored.labels[order]
    pos = int((y == LABEL_ANOMALOUS).sum())
    neg = int(y.size - pos)

    # positions where a score group ends (last index of each distinct value)
    last_of_group = np.flatnonzero(np.diff(s) != 0)
    group_ends = np.concatenate([last_of_group, [s.size - 1]])

    tp_cum = np.cumsum(y == LABEL_ANOMALOUS)
    fp_cum = np.cumsum(y == LABEL_NORMAL)
    tpr = np.concatenate([[0.0], tp_cum[group_ends] / pos])
    fpr = np.concatenate([[0.0], fp_cum[group_ends] / neg])
    thresholds = np.concatenate([[np.inf], s[group_ends]])
    return RocCurve(fpr=fpr, tpr=tpr, thresholds=thresholds)


def auc_trapezoid(scored):
    """Area under the ROC curve by trapezoidal integration."""
    return roc_curve(scored).area()


def auc_pairwise_oracle(scored):
    """AUC by exhaustive pair enumeration (Mann-Whitney), independent of
    the threshold-sweep implementation; ties count half."""
    scored.require_both_labels()
    a = scored.scores[scored.labels == LABEL_ANOMALOUS][:, None]
    n = scored.scores[scored.labels == LABEL_NORMAL][None, :]
    wins = np.count_nonzero(a > n)
    ties = np.count_nonzero(a == n)
    return (wins + 0.5 * ties) / (a.shape[0] * n.shape[1])


# ---------------------------------------------------------------------------
# confusion matrix and derived metrics


def confusion_at(scored, threshold=0.5):
    """Counts with 'predict anomalous iff score >= threshold'."""
    pred = scored.scores >= threshold
    actual = scored.labels == LABEL_ANOMALOUS
    return ConfusionMatrix(
        tp=int(np.count_nonzero(pred & actual)),
        fn=int(np.count_nonzero(~pred & actual)),
        fp=int(np.count_nonzero(pred & ~actual)),
        tn=int(np.count_nonzero(~pred & ~actual)),
    )


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassMetrics(precision=precision, recall=recall, f1=f1)


def metrics(m):
    """Precision/recall/F1 for both classes; None where undefined."""
    return {
        "anomalous": _prf(m.tp, m.fp, m.fn),
        "normal": _prf(m.tn, m.fn, m.fp),
    }


def evaluate_scores(scored, threshold=0.5):
    """Full EvalReport for a ScoredSet at the given decision threshold."""
    roc = roc_curve(scored)
    conf = confusion_at(scored, threshold)
    return EvalReport(roc.area(), float(threshold), SCORE_CONVENTION, conf, metrics(conf), roc)


# ---------------------------------------------------------------------------
# serialization
#
# Non-finite thresholds are stored as null in JSON ("+inf" start of the
# sweep) to stay strict-JSON parseable, and restored to inf on load.


def report_to_dict(report):
    d = asdict(report)
    d["roc"] = {k: [x if math.isfinite(x) else None for x in v.tolist()]
                for k, v in d["roc"].items()}
    return d


def report_from_dict(d):
    roc = {k: np.array([np.inf if x is None else x for x in v], dtype=np.float64)
           for k, v in d["roc"].items()}
    return EvalReport(**{
        **d,
        "confusion": ConfusionMatrix(**d["confusion"]),
        "metrics": {k: ClassMetrics(**m) for k, m in d["metrics"].items()},
        "roc": RocCurve(**roc),
    })


def emit_report(report, path, format="json"):
    """Write a report as JSON (all fields) or CSV (ROC points only)."""
    if format == "json":
        with open(path, "w") as f:
            json.dump(report_to_dict(report), f, indent=2, allow_nan=False)
            f.write("\n")
    elif format == "csv":
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["threshold", "fpr", "tpr"])
            for t, fp_, tp_ in zip(report.roc.thresholds, report.roc.fpr, report.roc.tpr):
                w.writerow([repr(float(t)), repr(float(fp_)), repr(float(tp_))])
    else:
        raise ContractError(f"unknown report format {format!r}")


def load_report(path):
    with open(path) as f:
        return report_from_dict(json.load(f))


def write_scores_csv(scored, path):
    """Score dump: sample_id (position in scored),label,score rows."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample_id", "label", "score"])
        for i, (y, s) in enumerate(zip(scored.labels, scored.scores)):
            w.writerow([i, int(y), repr(float(s))])
