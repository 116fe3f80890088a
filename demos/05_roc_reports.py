"""ROC/AUC evaluation and report files.

Two independent AUC routes (threshold sweep with trapezoids vs.
exhaustive pair counting) guard each other; reports serialize to JSON
for machines and CSV for plotting.
"""

import os
import tempfile

import numpy as np

from xferad import evaluate as ev

rng = np.random.default_rng(0)

# an imperfect anomaly scorer: anomalous samples score higher on average
n_normal, n_anomalous = 300, 120
scores = np.concatenate([
    rng.beta(2, 5, n_normal),        # normals cluster low
    rng.beta(5, 2, n_anomalous),     # anomalies cluster high
])
labels = np.concatenate([np.zeros(n_normal, np.int64), np.ones(n_anomalous, np.int64)])
scored = ev.ScoredSet(scores, labels)

auc = ev.auc_trapezoid(scored)
oracle = ev.auc_pairwise_oracle(scored)
print(f"trapezoid AUC      {auc:.6f}")
print(f"pairwise oracle    {oracle:.6f}")
print(f"absolute difference {abs(auc - oracle):.2e}  (the CLI refuses to emit "
      "a report if this exceeds 1e-9)")

roc = ev.roc_curve(scored)
print(f"\nROC curve: {len(roc.fpr)} points from (0,0) to "
      f"({roc.fpr[-1]:.0f},{roc.tpr[-1]:.0f}), thresholds descending from +inf")

report = ev.evaluate_scores(scored, threshold=0.5)
c = report.confusion
print(f"\nconfusion at 0.5: tp={c.tp} fn={c.fn} fp={c.fp} tn={c.tn}")
for name, m in report.metrics.items():
    print(f"  {name}: precision {m.precision:.4f}  recall {m.recall:.4f}  f1 {m.f1:.4f}")

tmp = tempfile.mkdtemp()
json_path = os.path.join(tmp, "report.json")
csv_path = os.path.join(tmp, "roc.csv")
ev.emit_report(report, json_path, "json")
ev.emit_report(report, csv_path, "csv")
print(f"\nwrote {json_path} and {csv_path}")
print("JSON round-trips losslessly:",
      ev.load_report(json_path).auc == report.auc)

# degenerate scorers behave as the theory says
tied = ev.ScoredSet(np.full(50, 0.5), np.tile([0, 1], 25))
perfect = ev.ScoredSet(labels.astype(float), labels)
print(f"\nall-tied scores  -> AUC {ev.auc_trapezoid(tied)}   (no separation)")
print(f"perfect ranking  -> AUC {ev.auc_trapezoid(perfect)}   (complete separation)")
