# Per-layer, per-input merge-count decision. The redundancy proxy (mean
# best-match score) is standardized by calibrated per-layer statistics and
# squashed through a sigmoid to pick r in [0, r_max].

from dataclasses import dataclass

import numpy as np

SIGMA_FLOOR = 1e-6


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float, np.integer, np.floating)) \
        and not isinstance(v, bool)


@dataclass
class ScheduleConfig:
    """The adaptive schedule: r = floor(r_max * sigmoid(alpha * z / T))."""
    r_max: int
    alpha: float = 1.0        # gain on the z-score inside the sigmoid
    temperature: float = 1.0  # z <- z / T; smaller T sharpens the decision

    def __post_init__(self):
        if not _is_int(self.r_max) or self.r_max < 0:
            raise ValueError(f"r_max must be an integer >= 0, got r_max={self.r_max!r}")
        for name in ("alpha", "temperature"):
            v = getattr(self, name)
            if not _is_real(v):
                raise ValueError(f"{name} must be a real number, got {name}={v!r}")
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {name}={v}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")


@dataclass
class LayerStats:
    """Calibrated per-layer (mu, sigma) of the redundancy proxy."""
    model_id: str
    mu: np.ndarray
    sigma: np.ndarray
    r_max: int
    alpha: float
    temperature: float
    passes: int
    calibration_size: int

    def __post_init__(self):
        # the schedule fields obey ScheduleConfig's own rules
        ScheduleConfig(r_max=self.r_max, alpha=self.alpha,
                       temperature=self.temperature)
        for name in ("passes", "calibration_size"):
            v = getattr(self, name)
            if not _is_int(v) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {name}={v!r}")
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if len(self.mu) != len(self.sigma):
            raise ValueError(
                f"mu/sigma length mismatch: {len(self.mu)} vs {len(self.sigma)}")
        for name, ok, want in (
                ("mu", np.isfinite(self.mu), "finite"),
                ("sigma", np.isfinite(self.sigma) & (self.sigma > 0),
                 "finite and strictly positive")):
            if not ok.all():
                l = int(np.flatnonzero(~ok)[0])
                raise ValueError(f"{name} must be {want} at every layer; "
                                 f"layer {l} has {name}={getattr(self, name)[l]}")

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
    """Mean over A rows of the best matching score; 0 for an empty A."""
    if scores.size == 0:
        return 0.0
    return float(scores.astype(np.float64).max(axis=1).mean())


def zscore(sbar: float, stats: LayerStats, layer: int,
           temperature: float) -> float:
    if layer >= stats.num_layers:
        raise ValueError(
            f"layer {layer} out of range for {stats.num_layers}-layer stats")
    z = (sbar - stats.mu[layer]) / stats.sigma[layer]
    return float(z / temperature)


def r_from_z(z: float, cfg: ScheduleConfig) -> int:
    """floor(r_max * sigmoid(alpha * z)), in [0, r_max]; the merge step
    clamps it to |A| (and flags the clamp) in select_merges."""
    return int(np.floor(cfg.r_max * logistic(cfg.alpha * z)))


def decide_r(sbar: float, stats: LayerStats, layer: int,
             cfg: ScheduleConfig, a_size: int) -> int:
    """r = floor(r_max * sigmoid(alpha * z / T)), clamped to [0, |A|]."""
    z = zscore(sbar, stats, layer, cfg.temperature)
    return min(r_from_z(z, cfg), a_size)
