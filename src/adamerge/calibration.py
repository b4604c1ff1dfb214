# Offline calibration of the per-layer redundancy statistics (mu_l,
# sigma_l). Pass 0 bootstraps with a fixed r = floor(r_max / 2) schedule
# (the schedule's own z = 0 operating point); later passes run the
# adaptive schedule against the previous pass's statistics, so the stats
# converge toward the inference-time distribution they induce.

import json

import numpy as np

from .runtime import ModelWeights, RunConfig, method_knobs, run_images
from .schedule import SIGMA_FLOOR, LayerStats, ScheduleConfig

STATS_VERSION = 1
_STATS_KEYS = {"version", "model_id", "num_layers", "r_max", "alpha",
               "temperature", "passes", "calibration_size", "mu", "sigma"}


def _run_config(r_max: int, alpha: float, temperature: float,
                method: str, stats: LayerStats | None) -> RunConfig:
    salience, kind = method_knobs(method)
    if kind is None:
        raise ValueError(
            f"method {method!r} runs no merge step, so it has no redundancy "
            "statistics to calibrate")
    # built for every pass so that a bad r_max fails before the bootstrap
    adaptive = ScheduleConfig(r_max=r_max, alpha=alpha, temperature=temperature)
    if stats is None:
        return RunConfig(salience=salience, schedule=r_max // 2)
    return RunConfig(salience=salience, schedule=adaptive, stats=stats)


def collect_pass(weights: ModelWeights, images, r_max: int,
                 alpha: float = 1.0, temperature: float = 1.0,
                 method: str = "adamerge", stats: LayerStats | None = None,
                 threads: int = 1) -> np.ndarray:
    """One calibration pass; returns proxies[L][n_images].

    stats=None is the bootstrap pass (fixed r = r_max // 2 at every
    layer); otherwise the adaptive schedule runs against `stats`.
    Results are accumulated in image-index order regardless of thread
    completion order.
    """
    images = list(images)
    if not images:
        raise ValueError("calibration dataset is empty")
    cfg = _run_config(r_max, alpha, temperature, method, stats)
    rows = [[rec.sbar for rec in trace.layers]
            for _, trace in run_images(weights, images, cfg, threads)]
    return np.asarray(rows, dtype=np.float64).T  # [L, n_images]


def fit_stats(samples: np.ndarray, *, model_id: str, r_max: int,
              alpha: float, temperature: float, passes: int) -> LayerStats:
    """Per-layer mean and population (1/n) standard deviation.

    Sigma is floored at SIGMA_FLOOR so degenerate calibration sets stay
    usable.
    """
    samples = np.asarray(samples, dtype=np.float64)
    mu = samples.mean(axis=1)
    sigma = np.maximum(samples.std(axis=1), SIGMA_FLOOR)
    return LayerStats(model_id=model_id, mu=mu, sigma=sigma, r_max=r_max,
                      alpha=alpha, temperature=temperature, passes=passes,
                      calibration_size=samples.shape[1])


def refine(weights: ModelWeights, images, r_max: int, alpha: float = 1.0,
           temperature: float = 1.0, passes: int = 2,
           method: str = "adamerge", threads: int = 1) -> LayerStats:
    """Iterative refinement: bootstrap pass, then `passes - 1` adaptive
    passes each calibrated against the previous statistics. Two passes is
    the recommended protocol."""
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    images = list(images)
    stats = None
    for p in range(passes):
        samples = collect_pass(weights, images, r_max, alpha, temperature,
                               method=method, stats=stats, threads=threads)
        stats = fit_stats(samples, model_id=weights.model_id, r_max=r_max,
                          alpha=alpha, temperature=temperature, passes=p + 1)
    return stats


def save_stats(stats: LayerStats, path: str) -> None:
    doc = {
        "version": STATS_VERSION,
        "model_id": stats.model_id,
        "num_layers": stats.num_layers,
        "r_max": stats.r_max,
        "alpha": stats.alpha,
        "temperature": stats.temperature,
        "passes": stats.passes,
        "calibration_size": stats.calibration_size,
        "mu": [float(v) for v in stats.mu],
        "sigma": [float(v) for v in stats.sigma],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_stats(path: str) -> LayerStats:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a stats object")
    if doc.get("version") != STATS_VERSION:
        raise ValueError(
            f"{path}: unsupported stats version {doc.get('version')!r} "
            f"(this build reads version {STATS_VERSION})")
    unknown = set(doc) - _STATS_KEYS
    if unknown:
        raise ValueError(
            f"{path}: unknown fields {sorted(unknown)} (stats version {STATS_VERSION})")
    missing = _STATS_KEYS - set(doc)
    if missing:
        raise ValueError(f"{path}: missing fields {sorted(missing)}")
    mu = np.asarray(doc["mu"], dtype=np.float64)
    sigma = np.asarray(doc["sigma"], dtype=np.float64)
    if len(mu) != doc["num_layers"] or len(sigma) != doc["num_layers"]:
        raise ValueError(
            f"{path}: mu/sigma length != num_layers = {doc['num_layers']}")
    if not np.all(sigma > 0):
        raise ValueError(f"{path}: sigma must be strictly positive")
    return LayerStats(model_id=doc["model_id"], mu=mu, sigma=sigma,
                      r_max=doc["r_max"], alpha=doc["alpha"],
                      temperature=doc["temperature"], passes=doc["passes"],
                      calibration_size=doc["calibration_size"])
