"""Layered benchmark of the disco CLI.

Usage:
    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                         [--record]

Each workload is a closed loop run from this process: every op is one or
more real ``disco`` CLI commands, each a fresh ``python3 -m disco.cli``
child process, run one at a time.  See bench/README.md for the workloads,
metrics and the layer-to-end-to-end table.

A run:
  1. set-up: generates the workload's populations from --seed in a child
     process (several times; the median counts) and runs one untimed op;
  2. runs whole cycles of ops until --seconds have passed;
  3. with --trace 1, repeats one op with bench/traced_cli.py in place of
     ``disco.cli`` and turns its spans into per-layer metrics;
  4. checks every op's artifacts, against the recorded digests in
     bench/reference_digests.json when the seed has them (--record stores
     them instead) and with the digest-free checks of bench/checks.py.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The program is built from ``src/`` of the checkout
that holds this file; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
DIGESTS = BENCH / "reference_digests.json"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 150.0
MB = 2.0 ** 20
LAYERS = ("store", "scoring", "selection", "signatures", "predictors", "harness", "cli")
# Every selector once and every non-forest predictor.  random:direct and
# kmedoids_conf:weighted_sum are not used: at K=10 they often give every
# (chronologically newer, 92-99 % accurate) target the same estimate, Spearman
# is then undefined and the whole sweep exits 2 (ZeroVariance).
SWEEP_CONFIGS = ("random:linear,topk_pds:knn,topk_jsd:linear,stratified_topk:knn,"
                 "kmedoids_conf:knn,kmedoids_corr:weighted_sum,best_for_validation:direct")


# --- workloads ---------------------------------------------------------------

@dataclass
class Op:
    label: str
    stages: list[list[str]]   # disco CLI argv per stage, run in the op's directory
    artifacts: list[str]
    check: tuple              # (checks.<function name>, extra argument)
    manifest: Path


@dataclass
class Workload:
    name: str
    why: str
    populations: list[dict]
    cycle: list[Op]
    traced: int                    # index in cycle of the op the traced run repeats
    dominant: tuple[str, ...]      # layers whose summed self time must lead the trace
    forest_speedup: bool = False


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "evaluate-forest":
        pops = [dict(dir=str(work / f"pop{i}"), m=200, n=2000, c=4,
                     seed=seed * 1000 + i, tags=0) for i in range(3)]
        cycle = []
        for i, k in enumerate((10, 50, 100)):
            man = work / f"pop{i}" / "manifest.json"
            cycle.append(Op(f"k{k}", [[
                "evaluate", "--manifest", str(man), "--selection", "topk_pds",
                "--predictor", "random_forest", "--cutoff", "median",
                "--threads", str(nproc()), "--k", str(k), "--out", "report.json"]],
                ["report.json"], ("check_report", k), man))
        return Workload(name, WHY[name], pops, cycle, traced=1,
                        dominant=("predictors",), forest_speedup=True)
    if name == "stages-wide":
        man = work / "pop0" / "manifest.json"
        m = str(man)
        stages = [
            ["score", "--manifest", m, "--cutoff", "median", "--out", "scores.csv"],
            ["select", "--manifest", m, "--method", "topk_jsd", "--k", "50",
             "--scores", "scores.csv", "--out", "subset.json"],
            ["fit", "--manifest", m, "--subset", "subset.json", "--predictor", "knn",
             "--cutoff", "median", "--out", "model.dpak"],
            ["predict", "--manifest", m, "--model", "model.dpak", "--subset",
             "subset.json", "--cutoff", "median", "--out", "pred.json"],
        ]
        return Workload(name, WHY[name],
                        [dict(dir=str(work / "pop0"), m=100, n=5000, c=100,
                              seed=seed * 1000, tags=0)],
                        [Op("chain", stages, ["scores.csv", "subset.json", "model.dpak",
                                              "pred.json"], ("check_chain", 50), man)],
                        traced=0, dominant=("store", "scoring"))
    if name == "sweep-selectors":
        man = work / "pop0" / "manifest.json"
        rows = [(cfg.split(":")[0], cfg.split(":")[1], k, s)
                for cfg in SWEEP_CONFIGS.split(",") for k in (10, 50, 100) for s in (0, 1)]
        stage = ["sweep", "--manifest", str(man), "--budgets", "10,50,100",
                 "--seeds", "0,1", "--cutoff", "median", "--configs", SWEEP_CONFIGS,
                 "--out", "sweep.csv"]
        return Workload(name, WHY[name],
                        [dict(dir=str(work / "pop0"), m=100, n=1000, c=100,
                              seed=seed * 1000, tags=5)],
                        [Op("sweep", [stage], ["sweep.csv"], ("check_sweep", rows), man)],
                        traced=0, dominant=("selection",))
    raise SystemExit(f"unknown workload {name!r}")


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
WORKLOADS = tuple(WHY)


# --- child processes ---------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int]:
    """Run one child to completion; return (its own peak RSS in MB, exit code)."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # SIGTERM or Ctrl-C: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class OpRun:
    op: Op
    dir: Path
    wall: float = 0.0
    rss_mb: float = 0.0
    codes: list[int] = field(default_factory=list)


def run_op(op: Op, opdir: Path, traced: bool = False, speedup: int = 0) -> OpRun:
    """Run the op's stages in order; stop at the first failing stage.

    Traced, each stage runs under bench/traced_cli.py and writes its spans to
    ``opdir/spans-<i>.json``; ``speedup`` is passed on as --forest-speedup.
    """
    opdir.mkdir(parents=True)
    rec = OpRun(op, opdir)
    t0 = time.perf_counter()
    for i, argv in enumerate(op.stages):
        argv = [argv[0], "--workdir", str(opdir)] + argv[1:]
        if not traced:
            cmd = [sys.executable, "-m", "disco.cli"] + argv
        else:
            extra = ["--forest-speedup", str(speedup)] if speedup else []
            cmd = [sys.executable, str(BENCH / "traced_cli.py"),
                   str(opdir / f"spans-{i}.json"), str(time.time_ns()), opdir.name,
                   *extra, "--", *argv]
        rss, code = spawn(cmd, opdir, opdir / "log.txt")
        rec.rss_mb = max(rec.rss_mb, rss)
        rec.codes.append(code)
        if code != 0:
            break
    rec.wall = time.perf_counter() - t0
    return rec


def populate(wl: Workload) -> tuple[float, dict]:
    """Generate the populations SETUP_REPEATS times in a child process.

    Returns the median child wall time and the median synth timings.
    """
    walls, stats = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, str(BENCH / "populate.py"),
                              json.dumps(wl.populations)],
                             env=child_env(), cwd=ROOT, capture_output=True,
                             text=True, timeout=OP_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if out.returncode != 0:
            raise RuntimeError(f"population set-up failed:\n{out.stderr}")
        stats.append(json.loads(out.stdout.splitlines()[-1]))
    return statistics.median(walls), {
        key: statistics.median(s[key] for s in stats) for key in stats[0]}


# --- output checks -----------------------------------------------------------

def digests(rec: OpRun) -> dict[str, str]:
    return {name: hashlib.sha256((rec.dir / name).read_bytes()).hexdigest()
            for name in rec.op.artifacts}


def check_runs(wl: Workload, seed: int, runs: list[OpRun], record: bool):
    """Check every op; return (failed flags, quality per op label, messages)."""
    import checks

    reference = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = reference.get(wl.name, {}).get(str(seed), {})
    seen: dict[str, dict] = {}            # label -> digests of its first run
    quality: dict[str, tuple] = {}
    failed, notes = [], []
    for rec in runs:
        label = rec.op.label
        errors = []
        if any(rec.codes) or len(rec.codes) != len(rec.op.stages):
            tail = (rec.dir / "log.txt").read_text(errors="replace").strip().splitlines()
            errors.append(f"exit codes {rec.codes}: {tail[-1] if tail else 'no output'}")
        else:
            got = digests(rec)
            want = seen.get(label) if record else expected.get(label, seen.get(label))
            if want is not None and got != want:
                bad = sorted(n for n in got if got[n] != want.get(n))
                errors.append(f"{label}: artifacts differ from the reference: {bad}")
            if label not in seen:
                seen[label] = got
                fn, arg = rec.op.check
                try:
                    errs, quality[label] = getattr(checks, fn)(rec.dir, rec.op.manifest, arg)
                except Exception as e:  # a crashing check is a failed op
                    errs, quality[label] = [f"{fn} raised {type(e).__name__}: {e}"], None
                errors += errs
        failed.append(bool(errors))
        notes += [f"check failed in {rec.dir.name}: {e}" for e in errors]
    source = ("recorded to " if record else "compared with ") + DIGESTS.name \
        if record or expected else "not recorded for this seed; repeats compared"
    notes.insert(0, f"reference digests {source}")
    if record and not any(failed):
        reference.setdefault(wl.name, {})[str(seed)] = seen
        DIGESTS.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return failed, quality, notes


# --- per-layer metrics from spans --------------------------------------------

def span_metrics(wl: Workload, opdir: Path, traced_wall: float, reference_wall: float,
                 synth: dict) -> tuple[dict, list[str]]:
    from disco.selection import METHODS

    procs = [json.loads(p.read_text()) for p in sorted(opdir.glob("spans-*.json"))]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    first_pca = 0.0
    counters: dict[str, float] = {}
    speedup = 0.0
    for proc in procs:
        spans = proc["spans"]
        child_ns = [0] * len(spans)
        for sid, parent, name, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for sid, parent, name, t0, t1, _ in spans:
            if parent < 0 or spans[parent][2] != name:   # spearman calls pearson
                total[name] = total.get(name, 0.0) + (t1 - t0) / 1e9
                calls[name] = calls.get(name, 0) + 1
            layer_self[name.split(".")[0]] += (t1 - t0 - child_ns[sid]) / 1e9
            if name == "signatures.pca_fit" and not first_pca:
                first_pca = (t1 - t0) / 1e9
        for key, value in proc["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if proc["forest_train_s"]:
            t = proc["forest_train_s"]
            speedup = t["1"] / t[str(nproc())]
            traced_wall -= sum(t.values())     # the re-trains ran after the op
    startup = sum((p["ready_ns"] - p["spawn_ns"]) / 1e9 for p in procs)
    layer_self["cli"] += startup

    def s(name):
        return total.get(name, 0.0)

    m = {
        "predictors.random_forest.train_s": (s("predictors.random_forest.train"), "s"),
        "predictors.forest_nodes": (counters.get("forest_nodes", 0), "count"),
        "predictors.forest_thread_speedup": (speedup, "ratio"),
        **{f"predictors.{k}.predict_s": (s(f"predictors.{k}.predict"), "s")
           for k in ("knn", "linear", "random_forest")},
        "predictors.save_s": (s("predictors.save"), "s"),
        "predictors.load_s": (s("predictors.load"), "s"),
        "store.load_tensor_s": (s("store.load_tensor"), "s"),
        "store.tensors_loaded": (calls.get("store.load_tensor", 0), "count"),
        "store.bytes_read_mb": (counters.get("tensor_bytes", 0) / MB, "MB"),
        "scoring.score_dataset_s": (s("scoring.score_dataset"), "s"),
        "scoring.calls": (calls.get("scoring.score_dataset", 0), "count"),
        "scoring.stack_mb": (counters.get("stack_bytes", 0) / MB, "MB"),
        "scoring.rss_delta_mb": (counters.get("score_rss_delta_kb", 0) / 1024.0, "MB"),
        "scoring.write_csv_s": (s("scoring.write_csv"), "s"),
        "scoring.read_csv_s": (s("scoring.read_csv"), "s"),
        **{f"selection.{k}_s": (s(f"selection.{k}"), "s") for k in METHODS},
        "selection.build_embeddings_s": (s("selection.build_embeddings"), "s"),
        "selection.kmedoids_passes": (counters.get("kmedoids_passes", 0), "count"),
        "selection.bfv_candidates": (counters.get("bfv_candidates", 0), "count"),
        "signatures.build_signature_s": (s("signatures.build_signature"), "s"),
        "signatures.pca_fit_s": (s("signatures.pca_fit"), "s"),
        "signatures.pca_first_call_s": (first_pca, "s"),
        "signatures.pca_transform_s": (s("signatures.pca_transform"), "s"),
        "harness.pipelines": (calls.get("harness.run_pipeline", 0), "count"),
        "harness.metrics_s": (s("harness.metrics"), "s"),
        "harness.split_s": (s("harness.split"), "s"),
        "cli.startup_s": (startup, "s"),
        **{f"cli.{c}_s": (s(f"cli.{c}"), "s")
           for c in ("score", "select", "fit", "predict", "evaluate", "sweep")},
        "synth.generate_s": (synth["generate_s"], "s"),
        "synth.save_s": (synth["save_s"], "s"),
        **{f"layer.{k}.self_s": (v, "s") for k, v in layer_self.items()},
        "trace.overhead_frac": ((traced_wall - reference_wall) / reference_wall, "ratio"),
    }
    lead = sum(layer_self[k] for k in wl.dominant)
    others = [v for k, v in layer_self.items() if k not in wl.dominant]
    separated = lead > max(others)
    m["trace.layers_separated"] = (int(separated), "bool")
    absent = [k for k, (v, _) in m.items() if v == 0 and k != "trace.layers_separated"]
    notes = [
        "layer self time: " + ", ".join(f"{k}={v:.3f}s" for k, v in
                                        sorted(layer_self.items(), key=lambda kv: -kv[1])),
        f"expected lead: {'+'.join(wl.dominant)} -> "
        f"{'confirmed' if separated else 'NOT confirmed'}",
        "absent (this workload's op never calls them): " + (", ".join(absent) or "none"),
    ]
    return m, notes


# --- environment -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def blas_threads() -> str:
    """OpenBLAS thread count as inherited (the benchmark never sets it)."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
    }


# --- one workload ------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    started = time.perf_counter()
    work = BENCH / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = build_workload(name, seed, work)
        populate_wall, synth = populate(wl)
        warm = run_op(wl.cycle[0], work / "warmup")
        setup_s = populate_wall + warm.wall

        runs: list[OpRun] = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:        # whole cycles only
            for op in wl.cycle:
                runs.append(run_op(op, work / f"op{len(runs):03d}"))
        window = time.perf_counter() - t0

        traced = None
        if trace:
            traced = run_op(wl.cycle[wl.traced], work / "traced", traced=True,
                            speedup=nproc() if wl.forest_speedup else 0)

        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(BENCH))
        extra = [traced] if traced else []
        failed, quality, notes = check_runs(wl, seed, [warm] + runs + extra, record)
        timed_failed = failed[1:1 + len(runs)]
        correct = not any(failed)

        env = environment(name, seed)
        good = [q for q in quality.values() if q is not None]
        mae_pp, rho = ((statistics.fmean(q[0] for q in good),
                        statistics.fmean(q[1] for q in good)) if good else (0.0, 0.0))
        lines = [f"env: {json.dumps(env, sort_keys=True)}",
                 f"workload {name}: {wl.why}",
                 f"ops: {len(runs)} timed in {window:.2f} s "
                 f"(+1 warm-up), error_rate={sum(timed_failed) / len(runs):.4f}",
                 "op walls (s): " + ", ".join(
                     f"{op.label}=[{' '.join(f'{r.wall:.2f}' for r in runs if r.op is op)}]"
                     for op in wl.cycle),
                 f"quality (repeats exactly per seed): mae_pp={mae_pp:.6f} pp "
                 f"spearman={rho:.6f}",
                 f"setup: populations {populate_wall:.3f} s (median of {SETUP_REPEATS}), "
                 f"warm-up op {warm.wall:.3f} s"] + notes
        if trace:
            reference = statistics.median(r.wall for r in runs
                                          if r.op is wl.cycle[wl.traced])
            metrics, trace_notes = span_metrics(wl, traced.dir, traced.wall, reference, synth)
            metrics["quality.mae_pp"] = (mae_pp, "pp")
            metrics["quality.spearman"] = (rho, "1")
            lines += trace_notes
            lines.append("MB below are computed from array sizes, not measured "
                         f"bandwidth; L3 = {env['l3_cache']}")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(runs) / window, "ops/s"),
                "op_p50_s": (statistics.median(r.wall for r in runs), "s"),
                "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
            }
        for key, (value, unit) in metrics.items():
            lines.append(f"  {key} = {value:.6g} {unit}")
        lines.append(f"run wall {time.perf_counter() - started:.1f} s")
        return {"lines": lines, "result": {
            "correct": correct, "attempted": len(runs), "failed": sum(timed_failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's artifact digests as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "disco" / "cli.py").is_file():
        sys.stderr.write(f"bench: no program at {SRC / 'disco'}; run from a full checkout\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.record)
        print("\n".join(out["lines"]))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
