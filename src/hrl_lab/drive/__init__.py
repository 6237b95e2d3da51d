"""Driving-telemetry subroutine discovery.

Telemetry windows -> exact t-SNE embedding -> k-means centroids as
subroutine IDs (with the shift rule that window tau borrows the previous
window's ID) -> CSV reports of the windows nearest each centroid.
"""

from hrl_lab.drive.cluster import (
    CentroidSet,
    assign_subroutine,
    causal_subroutine_id,
    kmeans_fit,
)
from hrl_lab.drive.report import embedding_csv, nearest_windows_report
from hrl_lab.drive.tsne import (
    TsneConfig,
    TsneEmbedding,
    kl_divergence,
    perplexity_calibration,
    tsne_fit,
)
from hrl_lab.drive.windows import (
    SignLabel,
    TelemetrySeries,
    TelemetryWindow,
    load_telemetry,
    sign_label,
    window_telemetry,
)

__all__ = [
    "CentroidSet",
    "SignLabel",
    "TelemetrySeries",
    "TelemetryWindow",
    "TsneConfig",
    "TsneEmbedding",
    "assign_subroutine",
    "causal_subroutine_id",
    "embedding_csv",
    "kl_divergence",
    "kmeans_fit",
    "load_telemetry",
    "nearest_windows_report",
    "perplexity_calibration",
    "sign_label",
    "tsne_fit",
    "window_telemetry",
]
