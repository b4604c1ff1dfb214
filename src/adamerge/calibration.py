# Offline calibration of the per-layer redundancy statistics (mu_l,
# sigma_l). Pass 0 bootstraps with a fixed r = floor(r_max / 2) schedule
# (the schedule's own z = 0 operating point); later passes run the
# adaptive schedule against the previous pass's statistics, so the stats
# converge toward the inference-time distribution they induce.

import dataclasses
import json

import numpy as np

from .archive import read_json
from .runtime import ModelWeights, RunConfig, run_images
from .schedule import SIGMA_FLOOR, LayerStats, _is_int, check_schedule

# version 2 added the calibration's salience setting; 3 dropped temperature
STATS_VERSION = 3
# stats.json holds every LayerStats field plus these two file-level ones
_FIELDS = tuple(f.name for f in dataclasses.fields(LayerStats))
_STATS_KEYS = {"version", "num_layers", *_FIELDS}


class TooFewTokensError(ValueError):
    """A calibration image has fewer patch tokens than a merge step needs
    to score a pair."""


def collect_pass(weights: ModelWeights, images, cfg: RunConfig) -> np.ndarray:
    """One calibration pass under `cfg`; returns proxies[L][n_images],
    in image order."""
    images = list(images)
    if not images:
        raise ValueError("calibration dataset is empty")
    rows = [[rec.sbar for rec in trace.layers]
            for _, trace in run_images(weights, images, cfg)]
    return np.asarray(rows, dtype=np.float64).T  # [L, n_images]


def fit_stats(samples: np.ndarray, *, model_id: str, r_max: int,
              alpha: float, passes: int, salience: bool) -> LayerStats:
    """Per-layer mean and population (1/n) standard deviation.

    Sigma is floored at SIGMA_FLOOR so degenerate calibration sets stay
    usable. alpha is the schedule's one gain.
    `salience` is the setting the samples were collected under.
    """
    samples = np.asarray(samples, dtype=np.float64)
    mu = samples.mean(axis=1)
    sigma = np.maximum(samples.std(axis=1), SIGMA_FLOOR)
    return LayerStats(model_id=model_id, mu=mu, sigma=sigma, r_max=r_max,
                      alpha=alpha, passes=passes,
                      calibration_size=samples.shape[1], salience=salience)


def refine(weights: ModelWeights, images, r_max: int, alpha: float = 1.0,
           passes: int = 2, salience: bool = True) -> LayerStats:
    """Iterative refinement: bootstrap pass at fixed r = r_max // 2, then
    `passes - 1` adaptive passes each calibrated against the previous
    statistics. Two passes is the recommended protocol."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    # a bad value fails before any forward pass
    check_schedule(r_max, alpha)
    images = list(images)
    # below 2 tokens every merge step scores no pair, so every layer's
    # redundancy reads 0 and the fitted stats saturate any adaptive run
    for i, img in enumerate(images):
        if len(img) < 2:
            raise TooFewTokensError(
                f"calibration image {i} has n={len(img)} patch tokens; "
                "calibration needs n >= 2 to score a pair")
    cfg = RunConfig(salience=salience, schedule=r_max // 2)
    for p in range(passes):
        stats = fit_stats(collect_pass(weights, images, cfg),
                          model_id=weights.model_id, r_max=r_max, alpha=alpha,
                          passes=p + 1, salience=salience)
        cfg = RunConfig(salience=salience, schedule=stats)
    return stats


def save_stats(stats: LayerStats, path: str) -> None:
    doc = {"version": STATS_VERSION, "num_layers": stats.num_layers}
    for name in _FIELDS:
        value = getattr(stats, name)
        doc[name] = ([float(v) for v in value] if isinstance(value, np.ndarray)
                     else value)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_stats(path: str) -> LayerStats:
    """Read stats.json; the file-level checks are here, the checks of
    the values are LayerStats's own. Every error names `path`."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a stats object")
    version = doc.get("version")
    if not _is_int(version) or version != STATS_VERSION:
        raise ValueError(
            f"{path}: unsupported stats version {version!r} (this build reads "
            f"version {STATS_VERSION}; re-run `adamerge calibrate`)")
    unknown = set(doc) - _STATS_KEYS
    if unknown:
        raise ValueError(
            f"{path}: unknown fields {sorted(unknown)} (stats version {STATS_VERSION})")
    missing = _STATS_KEYS - set(doc)
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")
    try:
        n = doc["num_layers"]
        if not _is_int(n):
            raise ValueError(f"num_layers must be an integer, got num_layers={n!r}")
        if any(not isinstance(doc[k], list) or len(doc[k]) != n
               for k in ("mu", "sigma")):
            raise ValueError(f"mu and sigma must be lists of num_layers = {n}")
        return LayerStats(**{name: doc[name] for name in _FIELDS})
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
