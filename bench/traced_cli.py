"""Run one ``disco`` CLI command with a span around each public-function call.

Usage:
    python3 bench/traced_cli.py OUT_JSON SPAWN_NS OP_ID [--forest-speedup N] -- ARGV...

The parent passes the wall-clock time (``time.time_ns()``) at which it
spawned this process, so interpreter start plus ``import disco.cli`` can be
timed from outside.  The listed public functions are then replaced, in every
``disco`` module that binds them, by wrappers that record a span
``[id, parent, name, start_ns, end_ns, op_id]`` and a few counters.  The
package itself is not modified.  Spans stay in memory and are written to
OUT_JSON once, after the command returns.

With ``--forest-speedup N`` the last random-forest ``train`` call of the
command is repeated at ``threads=1`` and at ``threads=N`` after the command
has finished, outside its spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import disco.cli

READY_NS = time.time_ns()


def _result_method(result, args, kwargs):
    return f"selection.{result.method}"


# (module, function) -> span name, or a callable (result, args, kwargs) -> name
# evaluated after the call returns.
WRAPPED = {
    ("store", "load_manifest"): "store.load_manifest",
    ("store", "load_tensor"): "store.load_tensor",
    ("store", "correctness"): "store.correctness",
    ("dten", "read_bundle"): "store.read_bundle",
    ("scoring", "score_dataset"): "scoring.score_dataset",
    ("scoring", "write_scores_csv"): "scoring.write_csv",
    ("scoring", "read_scores_csv"): "scoring.read_csv",
    ("selection", "select_random"): _result_method,
    ("selection", "select_topk"): _result_method,
    ("selection", "select_stratified_topk"): _result_method,
    ("selection", "select_kmedoids"): _result_method,
    ("selection", "select_best_for_validation"): _result_method,
    ("selection", "kmedoids_with_trace"): "selection.kmedoids_with_trace",
    ("selection", "build_embeddings"): "selection.build_embeddings",
    ("selection", "load_subset"): "selection.load_subset",
    ("selection", "save_subset"): "selection.save_subset",
    ("signatures", "build_signature"): "signatures.build_signature",
    ("signatures", "pca_fit"): "signatures.pca_fit",
    ("signatures", "pca_transform"): "signatures.pca_transform",
    ("predictors", "train"): lambda r, a, k: f"predictors.{r.kind}.train",
    ("predictors", "predict"): lambda r, a, k: f"predictors.{a[0].kind}.predict",
    ("predictors", "predict_weighted_sum"): "predictors.weighted_sum.predict",
    ("predictors", "save_predictor"): "predictors.save",
    ("predictors", "load_predictor"): "predictors.load",
    ("harness", "split_models"): "harness.split",
    ("harness", "median_date_cutoff"): "harness.split",
    ("harness", "run_pipeline"): "harness.run_pipeline",
    ("harness", "condense_and_train"): "harness.condense_and_train",
    ("harness", "sweep_budgets"): "harness.sweep_budgets",
    ("harness", "mae"): "harness.metrics",
    ("harness", "spearman"): "harness.metrics",
    ("harness", "pearson"): "harness.metrics",
    ("harness", "save_report"): "harness.save_report",
    ("harness", "write_sweep_csv"): "harness.write_sweep_csv",
    **{("cli", f"cmd_{c}"): f"cli.{c}"
       for c in ("score", "select", "fit", "predict", "evaluate", "sweep")},
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"forest_nodes": 0, "kmedoids_passes": 0,
                         "bfv_candidates": 0, "tensor_bytes": 0,
                         "stack_bytes": 0, "score_rss_delta_kb": 0}
        self.last_forest_call: tuple | None = None

    def wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), tracer.stack[-1] if tracer.stack else -1,
                    name if isinstance(name, str) else fn.__name__,
                    time.perf_counter_ns(), 0, tracer.op_id]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                tracer.stack.pop()
            if not isinstance(name, str):
                span[2] = name(result, args, kwargs)
            tracer.count(fn.__name__, result, args, kwargs, rss0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, fname, result, args, kwargs, rss0):
        c = self.counters
        if fname == "train" and result.kind == "random_forest":
            c["forest_nodes"] += sum(int(t.feature.size) for t in result.trees)
            self.last_forest_call = (args, kwargs)
        elif fname == "kmedoids_with_trace":
            c["kmedoids_passes"] += len(result[1])
        elif fname == "select_best_for_validation":
            c["bfv_candidates"] += int(kwargs.get("candidates", 1000))
        elif fname == "load_tensor":
            c["tensor_bytes"] += int(result.values.nbytes)
        elif fname == "score_dataset":
            manifest, tensors = args[0], args[1]
            c["stack_bytes"] = max(c["stack_bytes"], len(tensors) * manifest.num_samples
                                   * manifest.num_classes * 8)
            rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            c["score_rss_delta_kb"] = max(c["score_rss_delta_kb"], rss1 - rss0)


def install(tracer: Tracer) -> dict:
    """Replace every binding of each WRAPPED function in the disco modules."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "disco" or n.startswith("disco.")]
    originals = {}
    for (mod, fname), name in WRAPPED.items():
        fn = getattr(sys.modules[f"disco.{mod}"], fname)
        wrapped = tracer.wrap(fn, name)
        originals[fname] = fn
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)
    return originals


def main(argv: list[str]) -> int:
    out, spawn_ns, op_id = argv[0], int(argv[1]), argv[2]
    rest = argv[3:]
    speedup_threads = 0
    if rest[0] == "--forest-speedup":
        speedup_threads, rest = int(rest[1]), rest[2:]
    cli_argv = rest[1:]  # drop the "--" separator

    tracer = Tracer(op_id)
    originals = install(tracer)
    code = tracer.wrap(disco.cli.main, "cli.main")(cli_argv)

    speedup = {}
    if speedup_threads and code == 0 and tracer.last_forest_call is not None:
        args, kwargs = tracer.last_forest_call
        for threads in (1, speedup_threads):
            t0 = time.perf_counter()
            originals["train"](*args, **dict(kwargs, threads=threads))
            speedup[str(threads)] = time.perf_counter() - t0

    with open(out, "w") as f:
        json.dump({"spawn_ns": spawn_ns, "ready_ns": READY_NS,
                   "exit_code": code, "spans": tracer.spans,
                   "counters": tracer.counters, "forest_train_s": speedup}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
