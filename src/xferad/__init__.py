"""xferad: desk-scale transfer learning for image anomaly detection.

Pretrain a small convnet on a source task, transplant its feature
extractor under a fresh two-neuron softmax head, fine-tune on a
one-vs-rest anomaly task, and evaluate with ROC-AUC and confusion
matrices. Built on a self-contained numpy reverse-mode autodiff core.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    AnomalyTask, LabeledImageSet, batch_iter, build_anomaly_task, load_idx,
    load_image_dir, write_idx,
)
from .errors import (  # noqa: F401
    CapacityError, ConsistencyError, ContractError, FormatError, ShapeError,
    UndefinedMetricError, XferadError,
)
from .evaluate import (  # noqa: F401
    ConfusionMatrix, EvalReport, RocCurve, ScoredSet, anomaly_scores,
    auc_pairwise_oracle, auc_trapezoid, confusion_at, emit_report, metrics,
)
from .nn import (  # noqa: F401
    ModelGraph, SgdState, build_small_convnet, load_weights, save_weights,
    sgd_step,
)
from .tensor import Tape, Tensor, backward  # noqa: F401
from .transfer import (  # noqa: F401
    FreezePolicy, TrainRecord, TransferConfig, apply_freeze, pretrain_source,
    replace_head, train_target,
)
