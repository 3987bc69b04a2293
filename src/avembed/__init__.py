"""Cross-modal audio-to-video retrieval through a shared CCA-family embedding space."""

from .attention import (
    AttentionParams,
    ChunkSelection,
    LstmParams,
    attention_distribution,
    bilstm_states,
    score_states,
    select_top_k,
)
from .cca import (
    KernelModel,
    LinearProjection,
    fit_cca,
    fit_cluster_cca,
    fit_kcca,
    kernel_project,
    project,
)
from .clustering import ClusterModel, PairSet, expand_pairs, seeded_kmeans
from .data import (
    FeatureSequence,
    Manifest,
    ManifestEntry,
    SynthConfig,
    filter_manifest,
    load_sequence,
    pool_chunks,
    video_level_audio,
    video_level_visual,
    write_sequence,
)
from .deep import (
    BranchNetwork,
    DeepModel,
    TrainConfig,
    branch_forward,
    corr_gradient,
    embed,
    total_correlation,
    train_dcca,
    train_sdcca,
)
from .evaluation import (
    EvalReport,
    RelevanceJudgment,
    average_precision,
    cross_validate,
    mean_ap,
    pr_curve_export,
    precision_recall,
    score_held_out,
)
from .retrieval import EmbeddingIndex, RankedList, build_index, rank

__version__ = "0.1.0"
