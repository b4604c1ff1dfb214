#!/usr/bin/env python3
"""adamerge benchmark.

    python3 perfbench/run.py --workload smoke-mixed --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. A child process first generates
the workload's inputs from the seed (weights, image pool, calibrated
stats and reference outputs, see workloads.py); this process then loads
them through the package's public API and measures. The last line of
standard output is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
Every forward pass and every calibration is checked against the
reference outputs; a mismatch counts as failed.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")
NPROC = len(os.sched_getaffinity(0))

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The measuring process runs one BLAS thread: on a small shared machine a
# second thread made same-work latencies spread wider between runs. Input
# generation is not measured and uses every core. Must be set before numpy
# is imported.
GENERATE_ENV = dict(os.environ, **{v: str(NPROC) for v in BLAS_VARS})
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)
from adamerge import calibration, cli, data, flops, runtime  # noqa: E402
from tracer import Site, Tracer  # noqa: E402
from workloads import (CONFIG_NAMES, CONFIGS, N_TOKENS, R_MAX,  # noqa: E402
                       CALIBRATION_PASSES, WORKLOADS)

LOGITS_RTOL = 1e-4
LOGITS_ATOL = 1e-5
STATS_RTOL = 1e-6
STATS_ATOL = 1e-9
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it

END_TO_END = {
    "img_per_s": "1/s", "img_per_s.none": "1/s", "img_per_s.tome": "1/s",
    "img_per_s.adamerge": "1/s", "ms_per_img_p50": "ms", "ms_per_img_tail": "ms",
    "setup_s": "s", "calibrate_s": "s", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "archive.load_s": "s", "archive.bytes": "B", "data.load_s": "s",
    "runtime.forward_model_s": "s/img", "runtime.forward_block_s": "s/img",
    "runtime.tokens_per_block": "count", "runtime.block_share_pct": "%",
    "runtime.merge_share_pct": "%",
    "numeric.matmul_s": "s/img", "numeric.matmul.calls": "count/img",
    "numeric.matmul.macs": "count/img", "numeric.matmul.bytes": "B/img",
    "numeric.row_softmax_s": "s/img", "numeric.layer_norm_s": "s/img",
    "numeric.gelu_s": "s/img", "numeric.cosine_matrix_s": "s/img",
    "salience.salience_of_s.tome": "s/img", "salience.salience_of_s.adamerge": "s/img",
    "salience.salience_of.calls.tome": "count/img",
    "salience.salience_of.calls.adamerge": "count/img",
    "matcher.weighted_scores_s": "s/img", "matcher.select_merges_s": "s/img",
    "matcher.execute_merge_s": "s/img", "matcher.merges": "count/img",
    "matcher.mean_fallbacks": "count/img", "matcher.r_clamped": "count/img",
    "schedule.r_mean": "count", "schedule.saturation_rate": "ratio",
    "calibration.pass0_s": "s", "calibration.pass1_s": "s",
    "flops.reduction_pct.tome": "%", "flops.reduction_pct.adamerge": "%",
    "flops.executed_reduction_pct.tome": "%",
    "flops.executed_reduction_pct.adamerge": "%",
    "wall.reduction_pct.tome": "%", "wall.reduction_pct.adamerge": "%",
    "trace.overhead_pct": "%",
}

# spans that make up the merge step inside runtime.forward_model
MERGE_SPANS = {"salience.salience_of", "matcher.partition", "matcher.weighted_scores",
               "matcher.select_merges", "matcher.execute_merge",
               "schedule.redundancy_proxy", "schedule.zscore", "schedule.r_from_z"}


# -- count hooks: computed at the call boundary from arguments and results --

def _count_matmul(tr, args, kwargs, out):
    a, b = args[0], args[1]
    macs = a.shape[0] * a.shape[1] * b.shape[1]
    tr.add("numeric.matmul.calls", 1)
    tr.add("numeric.matmul.macs", macs)
    tr.add("numeric.matmul.bytes", a.nbytes + b.nbytes + out.nbytes)
    if tr.parent_name() == "runtime.forward_block":
        tr.add("block_macs", macs)


def _count_archive(tr, args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    tr.add("archive.bytes", sum(os.path.getsize(os.path.join(path, f))
                                for f in os.listdir(path)))


def _count_block(tr, args, kwargs, out):
    tr.add("runtime.tokens", args[0].shape[0])
    tr.add("runtime.blocks", 1)


def _count_r(tr, args, kwargs, r):
    tr.add("schedule.decisions", 1)
    tr.add("schedule.r", r)
    tr.add("schedule.saturated", r in (0, args[1].r_max))


def _count_select(tr, args, kwargs, decision):
    tr.add("matcher.merges", decision.r)
    tr.add("matcher.r_clamped", decision.r_clamped)


SITES = [
    Site("adamerge.archive", "load_archive", "archive.load_archive", _count_archive),
    Site("adamerge.data", "load_archive", "archive.load_archive", _count_archive),
    Site("adamerge.data", "load_dataset", "data.load_dataset"),
    Site("adamerge.runtime", "load_weights", "runtime.load_weights"),
    Site("adamerge.calibration", "load_stats", "calibration.load_stats"),
    Site("adamerge.calibration", "save_stats", "calibration.save_stats"),
    Site("adamerge.calibration", "refine", "calibration.refine"),
    Site("adamerge.calibration", "collect_pass", "calibration.collect_pass"),
    Site("adamerge.calibration", "fit_stats", "calibration.fit_stats"),
    Site("adamerge.calibration", "forward_model", "runtime.forward_model"),
    Site("adamerge.runtime", "forward_model", "runtime.forward_model"),
    Site("adamerge.runtime", "forward_block", "runtime.forward_block", _count_block),
    Site("adamerge.runtime", "matmul", "numeric.matmul", _count_matmul),
    Site("adamerge.runtime", "layer_norm", "numeric.layer_norm"),
    Site("adamerge.runtime", "row_softmax", "numeric.row_softmax"),
    Site("adamerge.runtime", "gelu", "numeric.gelu"),
    Site("adamerge.salience", "matmul", "numeric.matmul", _count_matmul),
    Site("adamerge.salience", "row_softmax", "numeric.row_softmax"),
    Site("adamerge.matcher", "cosine_matrix", "numeric.cosine_matrix"),
    Site("adamerge.runtime", "salience_of", "salience.salience_of",
         lambda tr, a, k, out: tr.add("salience.salience_of.calls", 1)),
    Site("adamerge.runtime", "partition", "matcher.partition"),
    Site("adamerge.runtime", "weighted_scores", "matcher.weighted_scores"),
    Site("adamerge.runtime", "select_merges", "matcher.select_merges", _count_select),
    Site("adamerge.runtime", "execute_merge", "matcher.execute_merge",
         lambda tr, a, k, out: tr.add("matcher.mean_fallbacks", out[3])),
    Site("adamerge.runtime", "redundancy_proxy", "schedule.redundancy_proxy"),
    Site("adamerge.runtime", "zscore", "schedule.zscore"),
    Site("adamerge.runtime", "r_from_z", "schedule.r_from_z", _count_r),
]


def _ratio(num, den):
    """num / den, or 0 when a moved (absent) site left the denominator 0."""
    return num / den if den else 0.0


def tail_latency(values):
    """(value, percentile, samples above) of the highest nearest-rank
    percentile that keeps TAIL_BEYOND samples above it, but never below
    the median."""
    xs = sorted(values)
    n = len(xs)
    idx = max(n - TAIL_BEYOND - 1, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def machine_facts() -> dict:
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC, "cpu_count": os.cpu_count(),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


class Bench:
    """One workload run against generated inputs in `workdir`."""

    def __init__(self, wl, workdir, seconds, trace):
        self.wl, self.workdir, self.seconds = wl, workdir, seconds
        self.tracer = Tracer(SITES) if trace else None
        self.ref = dict(np.load(os.path.join(workdir, "reference.npz")))
        self.attempted = 0
        self.errors = []

    def _traced(self, sample):
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.sample = sample
        return self.tracer

    def _fail(self, what, why):
        self.errors.append(f"{what}: {why}")

    # -- phases -----------------------------------------------------------

    def setup(self):
        """Load weights, pool and stats; repeat, report each duration."""
        times = []
        while len(times) < 3 or sum(times) < self.wl.setup_min_s:
            loaded = None
            gc.collect()
            with self._traced(("setup", len(times))):
                t0 = time.perf_counter()
                weights = runtime.load_weights(os.path.join(self.workdir, "weights"))
                images, _ = data.load_dataset(os.path.join(self.workdir, "pool"))
                stats = calibration.load_stats(os.path.join(self.workdir, "stats.json"))
                times.append(time.perf_counter() - t0)
            loaded = (weights, images, stats)
            del weights, images, stats
        return loaded, times

    def calibrate(self, weights, images, budget_s):
        """Repeated calibration.refine plus stats round trip, each checked."""
        path = os.path.join(self.workdir, "stats-roundtrip.json")
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < budget_s:
            k = len(times)
            with self._traced(("calib", k)):
                t0 = time.perf_counter()
                stats = calibration.refine(weights, images, R_MAX,
                                           passes=CALIBRATION_PASSES)
                calibration.save_stats(stats, path)
                back = calibration.load_stats(path)
                times.append(time.perf_counter() - t0)
            self.attempted += 1
            self._check_stats(f"calibration {k}", stats, back, len(images))
        return times

    def infer(self, weights, images, stats, budget_s):
        """Closed loop over whole pool cycles; configs interleaved per image.

        In a traced run every (image, config) runs twice back to back, once
        untraced and once traced, in alternating order, so that the
        tracing overhead is measured on identical work.
        """
        cfgs = {}
        for name in CONFIG_NAMES:
            method, opts = cli.parse_config_spec(CONFIGS[name][0])
            cfgs[name] = cli.build_run_config(method, stats=stats, **opts)
        cls = np.zeros(weights.dims.d, dtype=np.float32)
        pool = len(images)
        samples = []   # (sample id, image, config, traced, seconds, trace)
        start = time.perf_counter()
        k = 0
        while k < pool or k % pool or time.perf_counter() - start < budget_s:
            i = k % pool
            for j in range(len(CONFIG_NAMES)):
                c = CONFIG_NAMES[(k + j) % len(CONFIG_NAMES)]
                modes = (False,) if self.tracer is None else \
                    ((False, True) if (k + j) % 2 else (True, False))
                for traced in modes:
                    sid = len(samples)
                    seq = runtime.TokenSequence(cls=cls, patches=images[i])
                    with (self._traced(("infer", sid)) if traced
                          else contextlib.nullcontext()):
                        t0 = time.perf_counter()
                        try:
                            logits, trace = runtime.forward_model(seq, weights, cfgs[c])
                        except Exception as exc:  # counted as a failed image
                            logits, trace = None, exc
                        dt = time.perf_counter() - t0
                    samples.append((sid, i, c, traced, dt, trace))
                    self.attempted += 1
                    self._check_forward(f"image {i} {c}", i, c, logits, trace)
            k += 1
        return samples

    # -- correctness gate -------------------------------------------------

    def _check_forward(self, what, i, c, logits, trace):
        if logits is None:
            return self._fail(what, f"raised {trace!r}")
        ci = CONFIG_NAMES.index(c)
        ref_logits, ref_r = self.ref["logits"][i, ci], self.ref["r"][i, ci]
        if not np.all(np.isfinite(logits)):
            return self._fail(what, "non-finite logits")
        if not np.allclose(logits, ref_logits, rtol=LOGITS_RTOL, atol=LOGITS_ATOL):
            return self._fail(what, "logits differ from reference by "
                              f"{float(np.max(np.abs(logits - ref_logits))):.3g}")
        rs = [rec.r for rec in trace.layers]
        if rs != ref_r.tolist():
            return self._fail(what, f"per-layer r {rs} != reference {ref_r.tolist()}")
        for rec in trace.layers:
            if rec.n_after != rec.n_before - rec.r:
                return self._fail(what, f"layer {rec.layer}: n_after != n_before - r")
            if c != "none" and rec.sizes_total != N_TOKENS:
                return self._fail(what, f"layer {rec.layer}: sizes sum to "
                                  f"{rec.sizes_total}, not {N_TOKENS}")
            if c != "none" and not rec.cls_digest_pre == rec.cls_digest_post != "":
                return self._fail(what, f"layer {rec.layer}: CLS changed by merge step")

    def _check_stats(self, what, stats, back, n_images):
        if not (np.array_equal(back.mu, stats.mu) and np.array_equal(back.sigma, stats.sigma)):
            return self._fail(what, "stats changed across save_stats/load_stats")
        if stats.passes != CALIBRATION_PASSES or stats.calibration_size != n_images:
            return self._fail(what, "stats metadata wrong")
        for key in ("mu", "sigma"):
            if not np.allclose(getattr(stats, key), self.ref[key],
                               rtol=STATS_RTOL, atol=STATS_ATOL):
                return self._fail(what, f"{key} differs from reference")

    # -- run --------------------------------------------------------------

    def run(self):
        (weights, images, stats), setup_times = self.setup()
        calib_times = self.calibrate(weights, images, self.wl.calib_share * self.seconds)
        samples = self.infer(weights, images, stats,
                             (1.0 - self.wl.calib_share) * self.seconds)
        if self.tracer is None:
            metrics, extra = self.end_to_end(setup_times, calib_times, samples)
        else:
            metrics, extra = self.per_layer(weights.dims, len(images), setup_times,
                                            calib_times, samples)
        extra.update(samples=len(samples), setups=len(setup_times),
                     calibrations=len(calib_times))
        return metrics, extra

    def end_to_end(self, setup_times, calib_times, samples):
        lat = [s[4] for s in samples]
        by_cfg = {c: [s[4] for s in samples if s[2] == c] for c in CONFIG_NAMES}
        tail, tail_pct, beyond = tail_latency(lat)
        # Images per busy second of the one-caller loop, over whole pool
        # cycles, so the adaptive schedule's per-image work mix is fixed.
        # (Latency of identical work here is bimodal, one mode per CPU clock
        # state of the shared host; the mean moved less between runs than
        # the median.)
        m = {"img_per_s": len(lat) / sum(lat)}
        for c, xs in by_cfg.items():
            m[f"img_per_s.{c}"] = len(xs) / sum(xs)
        m["ms_per_img_p50"] = 1e3 * statistics.median(lat)
        m["ms_per_img_tail"] = 1e3 * tail
        m["setup_s"] = statistics.median(setup_times)
        m["calibrate_s"] = statistics.mean(calib_times)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = {"tail_percentile": round(tail_pct, 2),
                 "tail_samples_beyond": beyond,
                 "samples_per_config": {c: len(xs) for c, xs in by_cfg.items()}}
        return m, extra

    def per_layer(self, dims, pool, setup_times, calib_times, samples):
        tr = self.tracer
        traced = [s for s in samples if s[3]]
        plain = [s for s in samples if not s[3]]
        every = {("infer", s[0]) for s in traced}
        of_cfg = {c: {("infer", s[0]) for s in traced if s[2] == c} for c in CONFIG_NAMES}
        # counts come from the first traced cycle only, so they repeat exactly
        first = traced[:pool * len(CONFIG_NAMES)]
        first_ids = {("infer", s[0]) for s in first}
        first_cfg = {c: {("infer", s[0]) for s in first if s[2] == c} for c in CONFIG_NAMES}
        merging = of_cfg["tome"] | of_cfg["adamerge"]

        m = {}
        setups = {("setup", k) for k in range(len(setup_times))}
        st = tr.self_time(setups)
        m["archive.load_s"] = st["archive.load_archive"] / len(setups)
        m["archive.bytes"] = tr.count(setups, "archive.bytes") / len(setups)
        m["data.load_s"] = st["data.load_dataset"] / len(setups)

        st = tr.self_time(every)
        n = len(every)
        for key, span in (("runtime.forward_model_s", "runtime.forward_model"),
                          ("runtime.forward_block_s", "runtime.forward_block"),
                          ("numeric.matmul_s", "numeric.matmul"),
                          ("numeric.row_softmax_s", "numeric.row_softmax"),
                          ("numeric.layer_norm_s", "numeric.layer_norm"),
                          ("numeric.gelu_s", "numeric.gelu"),
                          ("numeric.cosine_matrix_s", "numeric.cosine_matrix"),
                          ("matcher.weighted_scores_s", "matcher.weighted_scores"),
                          ("matcher.select_merges_s", "matcher.select_merges"),
                          ("matcher.execute_merge_s", "matcher.execute_merge")):
            m[key] = st[span] / n
        m["runtime.block_share_pct"] = 100.0 * _ratio(
            tr.total_time(every, {"runtime.forward_block"}),
            tr.total_time(every, {"runtime.forward_model"}))
        m["runtime.merge_share_pct"] = 100.0 * _ratio(
            tr.total_time(merging, MERGE_SPANS),
            tr.total_time(merging, {"runtime.forward_model"}))
        for c in ("tome", "adamerge"):
            m[f"salience.salience_of_s.{c}"] = \
                tr.self_time(of_cfg[c])["salience.salience_of"] / len(of_cfg[c])
            m[f"salience.salience_of.calls.{c}"] = \
                tr.count(first_cfg[c], "salience.salience_of.calls") / len(first_cfg[c])

        n1 = len(first_ids)
        m["runtime.tokens_per_block"] = _ratio(tr.count(first_ids, "runtime.tokens"),
                                               tr.count(first_ids, "runtime.blocks"))
        for key in ("numeric.matmul.calls", "numeric.matmul.macs", "numeric.matmul.bytes"):
            m[key] = tr.count(first_ids, key) / n1
        first_merging = first_cfg["tome"] | first_cfg["adamerge"]
        for key in ("matcher.merges", "matcher.mean_fallbacks", "matcher.r_clamped"):
            m[key] = tr.count(first_merging, key) / len(first_merging)
        decisions = tr.count(first_ids, "schedule.decisions")
        m["schedule.r_mean"] = _ratio(tr.count(first_ids, "schedule.r"), decisions)
        m["schedule.saturation_rate"] = _ratio(tr.count(first_ids, "schedule.saturated"),
                                               decisions)

        passes = [[s for s in tr.spans if s.sample == ("calib", k)
                   and s.name == "calibration.collect_pass"]
                  for k in range(len(calib_times))]
        for p in range(CALIBRATION_PASSES):
            m[f"calibration.pass{p}_s"] = statistics.mean(
                ps[p].duration for ps in passes) if all(len(ps) > p for ps in passes) else 0.0

        # cost model versus execution: table convention, counted MACs, wall
        table = {c: statistics.mean(flops.trace_flops(s[5], dims).reduction_pct
                                    for s in first if s[2] == c) for c in CONFIG_NAMES}
        block_macs = {c: tr.count(first_cfg[c], "block_macs") / len(first_cfg[c])
                      for c in CONFIG_NAMES}
        executed = sum(flops.block_flops(rec.n_after + 1, dims.d, dims.d_ff)
                       for s in first for rec in s[5].layers)
        wall = {c: statistics.mean(s[4] for s in plain if s[2] == c) for c in CONFIG_NAMES}
        for c in ("tome", "adamerge"):
            m[f"flops.reduction_pct.{c}"] = table[c]
            m[f"flops.executed_reduction_pct.{c}"] = \
                100.0 * (1.0 - _ratio(block_macs[c], block_macs["none"]))
            m[f"wall.reduction_pct.{c}"] = 100.0 * (1.0 - wall[c] / wall["none"])
        m["trace.overhead_pct"] = 100.0 * (sum(s[4] for s in traced) /
                                           sum(s[4] for s in plain) - 1.0)

        self_sum = sum(st.values())
        extra = {
            "absent_sites": tr.absent,
            "traced_samples": len(traced),
            "self_time_sum_s": self_sum,
            "traced_wall_s": sum(s[4] for s in traced),
            # trace_flops charges block l at n_before + 1 tokens; the block
            # runs on n_after + 1. Both conventions are recorded here.
            "executed_block_macs_counted": tr.count(first_ids, "block_macs"),
            "executed_block_macs_analytic": executed,
        }
        return m, extra


def generate(workload, seed, workdir):
    subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                    workload, str(seed), workdir], check=True, timeout=170,
                   env=GENERATE_ENV)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(OUTPUT_DIR, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        t0 = time.perf_counter()
        generate(args.workload, args.seed, workdir)
        gen_s = time.perf_counter() - t0
        bench = Bench(WORKLOADS[args.workload], workdir, args.seconds, args.trace)
        metrics, extra = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(bench.errors)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "generate_s": gen_s, "machine": machine_facts(),
              "error_rate": failed / bench.attempted, "errors": bench.errors[:20],
              **extra}
    for name, unit in units.items():
        note = ""
        if name == "ms_per_img_tail":
            note = (f"  (p{extra['tail_percentile']:g} of {extra['samples']} samples, "
                    f"{extra['tail_samples_beyond']} above it)")
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}{note}")
    print(f"{'error_rate':<40} {detail['error_rate']:>14.6g} ratio")
    print(json.dumps(detail, default=str))

    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    os.makedirs(os.path.join(OUTPUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
