"""capforge: curation engine for image-text pools.

Filtering, caption mixing, and caption-quality analysis over precomputed
embeddings, plus a deterministic synthetic pool generator that makes every
procedure verifiable at desk scale.
"""

import os

# One OpenBLAS thread unless the caller chose otherwise.  k-means' GEMMs gain
# no wall time from a second thread, which spins beside each call and while
# idle; this takes effect only if numpy is not yet loaded.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .curation import (
    ClusterParams,
    CuratedSet,
    StrategySpec,
    apply_strategy,
    in1k_cluster_mask,
    kmeans,
    threshold_filter,
    top_fraction,
)
from .errors import (
    CapforgeError,
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    IntegrityError,
)
from .pool import (
    CaptionTable,
    PoolHandle,
    PoolManifest,
    materialize,
    open_pool,
    validate_pool,
    write_pool,
)
from .poolgen import GenConfig, SynSource, embed_concept, generate_pool
from .report import MetricConfig, QualityReport, SweepResult, run_report, run_sweep
from .scoring import ScoreTable, clip_s, recall_at_1, score_pool
from .textmetrics import sample_subset, tokenize, unique_trigrams

__version__ = "0.1.0"
