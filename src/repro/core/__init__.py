"""The paper's contribution: PHY-layer mobility classification and policy.

* :mod:`repro.core.similarity` — CSI similarity metric (paper Eq. 1);
* :mod:`repro.core.tof_trend` — ToF pipeline config and the trend test;
* :mod:`repro.core.classifier` — the Figure-5 state machine combining both;
* :mod:`repro.core.batched` — the arrays-of-clients backend: the one ToF
  trend detector and the classifier the scalar one is an N=1 view of
  (see ``docs/architecture.md``);
* :mod:`repro.core.policy` — the Table-2 per-mode protocol parameters;
* :mod:`repro.core.hints` — the mobility-hint record shared with protocols;
* :mod:`repro.core.aoa_extension` — the Section-9 future-work AoA augment.
"""

from repro.core.batched import (
    BatchedMedianFilter,
    BatchedMobilityClassifier,
    BatchedToFTrendDetector,
)
from repro.core.classifier import ClassifierConfig, MobilityClassifier
from repro.core.hints import MobilityEstimate
from repro.core.policy import MobilityPolicy, PolicyTable, default_policy_table
from repro.core.similarity import (
    batched_pair_similarity,
    csi_similarity,
    prepare_csi_gains,
)
from repro.core.tof_trend import ToFTrend

__all__ = [
    "BatchedMedianFilter",
    "BatchedMobilityClassifier",
    "BatchedToFTrendDetector",
    "ClassifierConfig",
    "MobilityClassifier",
    "MobilityEstimate",
    "MobilityPolicy",
    "PolicyTable",
    "ToFTrend",
    "batched_pair_similarity",
    "csi_similarity",
    "default_policy_table",
    "prepare_csi_gains",
]
