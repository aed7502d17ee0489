"""Exposure-prior providers pluggable into the EM engine."""

from serec.exposure.popularity import (
    FixedExposure,
    PopularityExposure,
    fixed_exposure_p,
    popularity_update_mu,
)
from serec.exposure.social_boost import BoostExposure
from serec.exposure.social_regular import (
    RegularExposure,
    build_targets,
    fit_exposure,
    regular_mu,
    sgd_triplet_step,
)

# Every model kind, in the order the CLI lists them.  Each class has
# ``from_config(cfg, y, graph)``, ``load(model_dir, y, graph)`` and, where it
# applies, ``requires_social`` or ``refresh_on_load`` (the CLI reads both).
PROVIDERS = {c.kind: c for c in (FixedExposure, PopularityExposure, RegularExposure, BoostExposure)}

__all__ = [
    "PROVIDERS",
    "BoostExposure",
    "FixedExposure",
    "PopularityExposure",
    "RegularExposure",
    "build_targets",
    "fit_exposure",
    "fixed_exposure_p",
    "popularity_update_mu",
    "regular_mu",
    "sgd_triplet_step",
]
