"""Command-line frontend.

Subcommands: validate, score, select, fit, predict, evaluate, sweep, synth.
Every output artifact embeds (or sits next to) a provenance stanza with the
SHA-256 of its inputs, the seed (0 for a command that takes none), and the
package version, so any artifact can be re-derived and staleness can be
detected.

Exit codes: 0 ok, 1 schema, 2 invariant/contract, 3 I/O, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as _dt
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    DiscoError,
    EmptySide,
    InvalidConfig,
    SchemaError,
    ShapeMismatch,
    StaleArtifact,
    ZeroVariance,
)
from .files import TensorFiles
from .harness import (
    ChronologicalSplit,
    PredictorConfig,
    SharedSources,
    UniformSplit,
    _date_split,
    _eligible,
    fit_predictor,
    median_date_cutoff,
    predict_targets,
    run_pipeline,
    save_report,
    select_anchors,
    split_models,
    sweep_budgets,
    write_sweep_csv,
)
from .predictors import (
    KINDS,
    TRAINED_KINDS,
    ForestConfig,
    load_predictor,
    save_predictor,
)
from .scoring import read_scores_csv, score_dataset, write_scores_csv
from .selection import (
    METHODS,
    SCORE_METHODS,
    SUMMARY_METHODS,
    load_subset,
    save_subset,
)
from .signatures import MODES
from .store import BenchmarkManifest, load_manifest, read_json_object
from .synth import SynthConfig, generate_population, save_population
from .workers import usable_cpus

EXIT_IO = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """No option is taken for a prefix of it, so a misspelt or removed flag
    cannot set another one; ``add_subparsers`` builds every subcommand's
    parser as one of these."""

    def __init__(self, *args, allow_abbrev: bool = False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # usage errors exit 64 for scripting
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _provenance(seed: int = 0, **inputs: Path) -> dict:
    return {
        "inputs": {name: _sha256(p) for name, p in inputs.items()},
        "seed": seed,
        "version": __version__,
    }


def _check_fresh(recorded: dict | None, name: str, path: Path) -> None:
    if recorded is None:
        return
    inputs = recorded.get("inputs", {}) if isinstance(recorded, dict) else None
    if not isinstance(inputs, dict):
        raise SchemaError(f"malformed provenance stanza: cannot check {name} against {path}")
    have = inputs.get(name)
    if have is not None and have != _sha256(path):
        raise StaleArtifact(f"{name} hash recorded in upstream artifact does not "
                            f"match {path}; regenerate the artifact")


def _threads(args: argparse.Namespace) -> int:
    raw = args.threads
    if raw == "auto":
        return usable_cpus()
    try:
        value = int(raw)
    except ValueError:
        raise InvalidConfig(f"--threads must be a positive integer or 'auto', got {raw!r}")
    if value < 1:
        raise InvalidConfig("--threads must be >= 1")
    return value


def _workpath(args: argparse.Namespace, raw: str) -> Path:
    p = Path(raw)
    return p if p.is_absolute() else Path(args.workdir) / p


def _iso_date(raw: str, flag: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(raw)
    except ValueError:
        raise InvalidConfig(f"{flag} must be an ISO date, got {raw!r}")


def _parse_cutoff(manifest: BenchmarkManifest, raw: str) -> _dt.date:
    return median_date_cutoff(manifest) if raw == "median" else _iso_date(raw, "--cutoff")


def _resolve_models(manifest: BenchmarkManifest, args: argparse.Namespace,
                    side: str) -> list[str]:
    """Model ids from --models, or from --cutoff (source: strictly before;
    target: at/after), or every model with a known accuracy.  InvalidConfig
    if --models is given but names no model, EmptySide if no model is
    left."""
    if args.models is not None:
        ids = [m.strip() for m in args.models.split(",") if m.strip()]
        if not ids:
            raise InvalidConfig(f"--models names no model: {args.models!r}")
        for mid in ids:
            manifest.model(mid)
        if len(set(ids)) != len(ids):
            raise InvalidConfig(f"--models lists a model more than once: {args.models!r}")
    elif args.cutoff:
        source, target = _date_split(manifest, _parse_cutoff(manifest, args.cutoff))
        ids = source if side == "source" else target
    else:
        ids = [m.model_id for m in _eligible(manifest)]
    if not ids:
        raise EmptySide(f"no {side} model to {args.command}")
    return ids


# --- subcommands ---------------------------------------------------------------

def cmd_validate(args) -> int:
    manifest = load_manifest(_workpath(args, args.manifest))
    TensorFiles(manifest, manifest.model_ids()).check()
    print(f"validate: ok ({manifest.num_samples} samples, "
          f"{manifest.num_classes} classes, {len(manifest.models)} models)")
    return 0


def cmd_score(args) -> int:
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    ids = _resolve_models(manifest, args, "source")
    table = score_dataset(manifest, TensorFiles(manifest, ids))
    out = _workpath(args, args.out)
    write_scores_csv(table, out)
    prov = _provenance(manifest=manifest_path)
    prov["models"] = ids
    Path(str(out) + ".prov.json").write_text(json.dumps(prov, indent=2) + "\n")
    print(f"score: wrote {out} ({len(table)} samples, {len(ids)} models)")
    return 0


def cmd_select(args) -> int:
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    method = args.method
    ids = _resolve_models(manifest, args, "source")
    inputs: dict[str, Path] = {"manifest": manifest_path}
    scores = None
    if args.scores:
        scores_path = _workpath(args, args.scores)
        prov_path = Path(str(scores_path) + ".prov.json")
        prov = read_json_object(prov_path, "score provenance") if prov_path.is_file() else {}
        _check_fresh(prov, "manifest", manifest_path)
        scores = read_scores_csv(scores_path)
        if len(scores) != manifest.num_samples:
            raise ShapeMismatch(f"{scores_path} scores {len(scores)} samples, "
                                f"the manifest has {manifest.num_samples}")
        if method in SCORE_METHODS:
            inputs["scores"] = scores_path
            scored = prov.get("models")
            if (args.models or args.cutoff) and not (
                    isinstance(scored, list) and sorted(scored, key=str) == sorted(ids)):
                raise InvalidConfig(f"{scores_path} was not scored on the models "
                                    f"that --models/--cutoff name")
    elif method in SCORE_METHODS:
        raise InvalidConfig(f"--scores is required for method {method!r}")
    # only the summary methods read tensor files
    files = ids if method in SUMMARY_METHODS else []
    subset = select_anchors(
        SharedSources(TensorFiles(manifest, files), files, scores=scores, methods=(method,)),
        method, args.k, args.seed)

    out = _workpath(args, args.out)
    save_subset(subset, out, provenance=_provenance(args.seed, **inputs))
    print(f"select: wrote {out} (method={subset.method}, k={subset.k})")
    return 0


def cmd_fit(args) -> int:
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    subset_path = _workpath(args, args.subset)
    subset = load_subset(subset_path)
    _check_fresh(subset.provenance, "manifest", manifest_path)
    subset.validate(manifest.num_samples)
    ids = _resolve_models(manifest, args, "source")
    threads = _threads(args)

    model = fit_predictor(TensorFiles(manifest, ids), subset,
                          _predictor_config(args, args.predictor), args.seed,
                          threads=threads)

    out = _workpath(args, args.out)
    prov = _provenance(args.seed, manifest=manifest_path, subset=subset_path)
    prov["mode"] = args.mode
    prov["models"] = ids
    save_predictor(model, out, provenance=prov)
    print(f"fit: wrote {out} (kind={model.kind}, models={len(ids)})")
    return 0


def cmd_predict(args) -> int:
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    model_path = _workpath(args, args.model)
    subset_path = _workpath(args, args.subset)
    model = load_predictor(model_path)
    _check_fresh(model.provenance, "manifest", manifest_path)
    _check_fresh(model.provenance, "subset", subset_path)
    mode = model.provenance.get("mode") if isinstance(model.provenance, dict) else None
    if model.kind in TRAINED_KINDS and mode not in MODES:
        raise SchemaError(f"{model_path}: provenance 'mode' must be one of "
                          f"{', '.join(MODES)}, got {mode!r}")
    subset = load_subset(subset_path)
    subset.validate(manifest.num_samples)
    ids = _resolve_models(manifest, args, "target")

    predictions = dict(zip(ids, predict_targets(TensorFiles(manifest, ids), ids, subset,
                                                model, mode)))

    out = _workpath(args, args.out)
    obj = {
        "predictions": predictions,
        "provenance": _provenance(manifest=manifest_path, model=model_path,
                                  subset=subset_path),
    }
    out.write_text(json.dumps(obj, indent=2) + "\n")
    print(f"predict: wrote {out} ({len(predictions)} models)")
    return 0


def _split_from_args(manifest: BenchmarkManifest, args) -> object:
    # Checked with --cutoff too, which leaves them unused, so that a bad
    # value never passes silently.
    if not 0.0 < args.split_ratio < 1.0:
        raise InvalidConfig(f"--split-ratio must be in (0, 1), got {args.split_ratio}")
    if args.split_seed < 0:
        raise InvalidConfig(f"--split-seed must be >= 0, got {args.split_seed}")
    if args.cutoff:
        return split_models(manifest, ChronologicalSplit(_parse_cutoff(manifest, args.cutoff)))
    return split_models(manifest, UniformSplit(args.split_ratio, args.split_seed))


def _predictor_config(args, kind: str) -> PredictorConfig:
    return PredictorConfig(
        kind=kind,
        signature_mode=args.mode,
        pca_dim=args.pca_dim,
        k_neighbors=args.k_neighbors,
        forest=ForestConfig(n_trees=args.trees, min_leaf=args.min_leaf,
                            feature_frac=args.feature_frac),
    )


def cmd_evaluate(args) -> int:
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    split = _split_from_args(manifest, args)
    files = TensorFiles(manifest, split.source_ids + split.target_ids)
    report = run_pipeline(files, split, args.selection,
                          _predictor_config(args, args.predictor),
                          args.k, args.seed, threads=_threads(args))
    if report.spearman is None or report.pearson is None:
        raise ZeroVariance("correlation undefined for a constant input")
    out = _workpath(args, args.out)
    save_report(report, out, provenance=_provenance(args.seed, manifest=manifest_path))
    print(f"evaluate: wrote {out} (mae_pp={report.mae_pp:.4f}, "
          f"spearman={report.spearman:.4f})")
    return 0


def cmd_sweep(args) -> int:
    try:
        budgets = sorted(int(b) for b in args.budgets.split(","))
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise InvalidConfig(f"--budgets and --seeds must be comma-separated integers, "
                            f"got {args.budgets!r} and {args.seeds!r}")
    if min(seeds) < 0:
        raise InvalidConfig(f"--seeds must be >= 0, got {args.seeds!r}")
    configs = []
    for entry in args.configs.split(","):
        sel, _, pred = entry.partition(":")
        if sel not in METHODS or pred not in KINDS:
            raise InvalidConfig(f"config must be selection:predictor with a "
                                f"selection in {METHODS} and a predictor in "
                                f"{KINDS}, got {entry!r}")
        configs.append((sel, _predictor_config(args, pred)))
    manifest_path = _workpath(args, args.manifest)
    manifest = load_manifest(manifest_path)
    split = _split_from_args(manifest, args)
    files = TensorFiles(manifest, split.source_ids + split.target_ids)
    reports = sweep_budgets(files, split, configs, budgets, seeds, threads=_threads(args))
    out = _workpath(args, args.out)
    write_sweep_csv(reports, out)
    prov = _provenance(manifest=manifest_path)
    prov["budgets"] = budgets
    prov["seeds"] = seeds
    Path(str(out) + ".prov.json").write_text(json.dumps(prov, indent=2) + "\n")
    print(f"sweep: wrote {out} ({len(reports)} rows)")
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        m_models=args.models_count,
        n_samples=args.samples,
        c_classes=args.classes,
        ability_dim=args.dim,
        seed=args.seed,
        noise_temperature=args.temperature,
        date_start=_iso_date(args.date_start, "--date-start"),
        date_end=_iso_date(args.date_end, "--date-end"),
    )
    manifest, tensors = generate_population(config)
    out_dir = _workpath(args, args.out)
    manifest_path = save_population(manifest, tensors, out_dir)
    prov = _provenance(args.seed, manifest=manifest_path)
    prov["config"] = {**dataclasses.asdict(config),
                      "date_start": config.date_start.isoformat(),
                      "date_end": config.date_end.isoformat()}
    (out_dir / "provenance.json").write_text(json.dumps(prov, indent=2) + "\n")
    print(f"synth: wrote {manifest_path} ({config.m_models} models, "
          f"{config.n_samples} samples)")
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> _Parser:
    workdir = argparse.ArgumentParser(add_help=False)
    workdir.add_argument("--workdir", default=".", help="base directory for relative paths")
    common = argparse.ArgumentParser(add_help=False, parents=[workdir])
    common.add_argument("--seed", type=int, default=0)

    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", default="auto",
                         help="worker processes for random-forest training and "
                              "a sweep's selections (forked; serial where fork "
                              "is unavailable): integer or 'auto', the CPUs this "
                              "process may run on (the default); at most that "
                              "many start; artifacts are byte-identical for any "
                              "value")

    pred_common = argparse.ArgumentParser(add_help=False)
    pred_common.add_argument("--mode", default="probs", choices=MODES)
    pred_common.add_argument("--pca-dim", type=int, default=None,
                             help="projection width; 0 disables PCA; by default "
                             "min(256, sources - 1, signature width), reduced "
                             "to the signatures' numeric rank")
    pred_common.add_argument("--k-neighbors", type=int, default=5)
    pred_common.add_argument("--trees", type=int, default=200)
    pred_common.add_argument("--min-leaf", type=int, default=2)
    pred_common.add_argument("--feature-frac", type=float, default=1.0)

    models = argparse.ArgumentParser(add_help=False)
    pick = models.add_mutually_exclusive_group()
    pick.add_argument("--models", default=None, help="comma-separated model ids")
    pick.add_argument("--cutoff", default=None,
                      help="ISO date or 'median': the models released before "
                           "it (predict: on or after it)")

    split_common = argparse.ArgumentParser(add_help=False)
    split_common.add_argument("--cutoff", default=None,
                              help="chronological split: ISO date or 'median'")
    split_common.add_argument("--split-ratio", type=float, default=0.9)
    split_common.add_argument("--split-seed", type=int, default=0)

    parser = _Parser(prog="disco", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[workdir])
    p.add_argument("manifest")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("score", parents=[workdir, models])
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", parents=[common, models])
    p.add_argument("--manifest", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--scores", default=None, help="score CSV for top-k methods")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("fit", parents=[common, threads, pred_common, models])
    p.add_argument("--manifest", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--predictor", required=True, choices=KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", parents=[workdir, models])
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--subset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common, threads, pred_common, split_common])
    p.add_argument("--manifest", required=True)
    p.add_argument("--selection", default="topk_pds", choices=METHODS)
    p.add_argument("--predictor", default="random_forest", choices=KINDS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[workdir, threads, pred_common, split_common])
    p.add_argument("--manifest", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated K values")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--configs", required=True,
                   help="comma-separated selection:predictor pairs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", parents=[common])
    p.add_argument("--out", required=True)
    p.add_argument("--models-count", type=int, default=200)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--date-start", default="2023-01-01")
    p.add_argument("--date-end", default="2024-12-31")
    p.set_defaults(func=cmd_synth)

    for p in sub.choices.values():
        p.set_defaults(subparser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported with the chosen subcommand's usage, not the top level's
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if getattr(args, "seed", 0) < 0:
            raise InvalidConfig(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (DiscoError, OSError) as e:     # OSError: e.g. an unwritable output path
        sys.stderr.write(f"disco {args.command}: {type(e).__name__}: {e}\n")
        return e.exit_code if isinstance(e, DiscoError) else EXIT_IO
    except MemoryError as e:  # a size the input asked for that cannot be allocated
        sys.stderr.write(f"disco {args.command}: MemoryError: {e}\n")
        return DiscoError.exit_code


if __name__ == "__main__":
    sys.exit(main())
