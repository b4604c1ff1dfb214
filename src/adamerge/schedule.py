# Per-layer, per-input merge-count decision. The redundancy proxy (mean
# best-match score) is standardized by calibrated per-layer statistics and
# squashed through a sigmoid to pick r in [0, r_max].

import math
from dataclasses import InitVar, dataclass

import numpy as np

SIGMA_FLOOR = 1e-6


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) \
        and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """math.isfinite of a real number; an int beyond float64 is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def check_schedule(r_max, alpha) -> None:
    """Raise ValueError, naming the field, unless the adaptive schedule
    r = floor(r_max * sigmoid(alpha * z)) is well defined."""
    if not _is_int(r_max) or r_max < 0:
        raise ValueError(f"r_max must be an integer >= 0, got r_max={r_max!r}")
    for name, v in (("r_max", r_max), ("alpha", alpha)):
        if not _is_real(v):
            raise ValueError(f"{name} must be a real number, got {name}={v!r}")
        if not _is_finite(v):
            raise ValueError(f"{name} must be finite, got {name}={v}")


@dataclass
class LayerStats:
    """Calibrated per-layer (mu, sigma) of the redundancy proxy, and the
    adaptive schedule that reads them. The proxy depends on the scores,
    so the stats hold only for runs with the salience setting they were
    calibrated with."""
    model_id: str
    mu: np.ndarray
    sigma: np.ndarray
    r_max: int
    alpha: float        # gain on the z-score inside the sigmoid
    passes: int
    calibration_size: int
    temperature: InitVar[float] = 1.0  # init-only: 1.0 (z / 1.0 == z) still runs
    salience: bool = True  # the run setting the proxies were collected under

    def __post_init__(self, temperature):
        if temperature != 1.0 or isinstance(temperature, bool):
            raise ValueError("temperature is no longer a schedule setting: alpha is the "
                             f"one gain (use alpha / T), got temperature={temperature!r}")
        check_schedule(self.r_max, self.alpha)
        if not isinstance(self.salience, bool):
            raise ValueError(f"salience must be true or false, got "
                             f"salience={self.salience!r}")
        for name in ("passes", "calibration_size"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {name}={v!r}")
        for name, want in (("mu", "finite"),
                           ("sigma", "finite and strictly positive")):
            for l, v in enumerate(getattr(self, name)):
                if not _is_real(v):
                    raise ValueError(f"{name} must be a real number at every "
                                     f"layer; layer {l} has {name}={v!r}")
                if not _is_finite(v) or (name == "sigma" and v <= 0):
                    raise ValueError(f"{name} must be {want} at every layer; "
                                     f"layer {l} has {name}={v}")
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if len(self.mu) != len(self.sigma):
            raise ValueError(
                f"mu/sigma length mismatch: {len(self.mu)} vs {len(self.sigma)}")

    @property
    def num_layers(self) -> int:
        return len(self.mu)


def logistic(z: float) -> float:
    # split by sign to avoid overflow in exp
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def redundancy_proxy(scores: np.ndarray) -> float:
    """Mean over A rows of the best matching score; 0 when no pair is
    scored (an empty A or B)."""
    if scores.size == 0:
        return 0.0
    return float(scores.astype(np.float64).max(axis=1).mean())


def zscore(sbar: float, stats: LayerStats, layer: int) -> float:
    if layer >= stats.num_layers:
        raise ValueError(
            f"layer {layer} out of range for {stats.num_layers}-layer stats")
    return float((sbar - stats.mu[layer]) / stats.sigma[layer])


def r_from_z(z: float, stats: LayerStats) -> int:
    """floor(r_max * sigmoid(alpha * z)), in [0, r_max]; the merge step
    clamps it to |A| (and flags the clamp) in select_merges."""
    return int(np.floor(stats.r_max * logistic(stats.alpha * z)))
