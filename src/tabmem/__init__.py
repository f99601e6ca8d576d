"""Memorization auditing, mitigation, and fidelity scoring for synthetic tabular data."""

from .association import (
    AssociationMatrix,
    FeatureClusters,
    association_matrix,
    cluster_features,
    cramers_v,
    eta_squared,
    pearson,
)
from .augment import AugmentConfig, AugmentMode, augment, class_prior
from .distance import (
    DistanceNormalizer,
    NeighborResult,
    fit_normalizer,
    mixed_distance,
    pairwise_mixed,
    raw_numeric_distance,
    two_nearest,
)
from .errors import TabmemError
from .fidelity import (
    FidelityReport,
    alpha_precision_beta_recall,
    c2st_score,
    dcr_probability,
    full_report,
    ks_complement,
    shape_score,
    synthesize_ood,
    trend_score,
    tv_complement,
)
from .memorization import MemorizationReport, audit, distance_ratios, mem_auc, memorization_ratio
from .scorelab import (
    LatentSet,
    ReplicationResult,
    SdeConfig,
    SigmaSchedule,
    backward_sample,
    dsm_loss,
    forward_noise,
    latent_posterior,
    optimal_score,
    run_replication,
)
from .table import FeatureKind, Schema, Table, concat, load_csv, load_schema, save_schema, split, write_csv

__version__ = "0.1.0"
