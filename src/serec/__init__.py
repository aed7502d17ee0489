"""Exposure-aware collaborative filtering for implicit feedback.

Clicks are explained by two coupled factors: whether the user was ever
exposed to the item, and whether they liked it.  Exposure is a latent
Bernoulli variable whose prior can be shared per item (popularity), fixed
(classic weighted factorization), or informed by the user's social graph.
"""

from serec.data import (
    DataFormatError,
    DatasetSplit,
    IdMap,
    InteractionMatrix,
    SocialGraph,
    SocialLoadStats,
    StatsReport,
    dataset_stats,
    load_interactions,
    load_social,
    load_split,
    prune_social,
    save_split,
    split_interactions,
    write_interactions,
    write_social,
)
from serec.engine import (
    ConfigError,
    ExposurePosterior,
    FactorModel,
    FitResult,
    TrainConfig,
    TrainingError,
    e_step,
    e_step_pair,
    fit,
    load_model,
    log_likelihood,
    predict_scores,
    save_model,
    update_item_factors,
    update_user_factors,
)
from serec.exposure.popularity import (
    FixedExposure,
    PopularityExposure,
    popularity_update_mu,
)
from serec.exposure.social_boost import BoostExposure
from serec.exposure.social_regular import (
    RegularExposure,
    build_targets,
    fit_exposure,
    sgd_triplet_step,
)
from serec.metrics import (
    EvalReport,
    evaluate,
    group_by_friends,
)
from serec.synthetic import (
    SyntheticSpec,
    brute_force_posterior,
    finite_difference,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "BoostExposure",
    "ConfigError",
    "DataFormatError",
    "DatasetSplit",
    "EvalReport",
    "ExposurePosterior",
    "FactorModel",
    "FitResult",
    "FixedExposure",
    "IdMap",
    "InteractionMatrix",
    "PopularityExposure",
    "RegularExposure",
    "SocialGraph",
    "SocialLoadStats",
    "StatsReport",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingError",
    "brute_force_posterior",
    "build_targets",
    "dataset_stats",
    "e_step",
    "e_step_pair",
    "evaluate",
    "finite_difference",
    "fit",
    "fit_exposure",
    "generate",
    "group_by_friends",
    "load_interactions",
    "load_model",
    "load_social",
    "load_split",
    "log_likelihood",
    "popularity_update_mu",
    "predict_scores",
    "prune_social",
    "save_model",
    "save_split",
    "sgd_triplet_step",
    "split_interactions",
    "update_item_factors",
    "update_user_factors",
    "write_interactions",
    "write_social",
    "__version__",
]
