"""Exposure-prior providers pluggable into the EM engine."""

from serec.exposure.popularity import (
    FixedExposure,
    PopularityExposure,
    popularity_update_mu,
)
from serec.exposure.social_boost import BoostExposure
from serec.exposure.social_regular import (
    RegularExposure,
    fit_exposure,
    sgd_triplet_step,
)

# Every model kind, in the order the CLI lists them.  Each class is built as
# ``cls(y[, graph], **params)``, where every keyword parameter is a config key
# of the same name; ``state`` names the array attributes a model directory
# keeps in model.npz, and, where it applies, the class sets
# ``requires_social`` or ``refresh_on_load`` (the CLI reads both).
PROVIDERS = {c.kind: c for c in (FixedExposure, PopularityExposure, RegularExposure, BoostExposure)}

__all__ = [
    "PROVIDERS",
    "BoostExposure",
    "FixedExposure",
    "PopularityExposure",
    "RegularExposure",
    "fit_exposure",
    "popularity_update_mu",
    "sgd_triplet_step",
]
