from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import disco
from disco.cli import main
from disco.harness import (
    ChronologicalSplit,
    PredictorConfig,
    SelectionConfig,
    median_date_cutoff,
    run_pipeline,
    split_models,
)
from disco.scoring import score_dataset, write_scores_csv
from disco.store import load_all_tensors, load_manifest, load_tensor


def run_cli(*argv: str) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as e:  # argparse usage errors
        return int(e.code)


def run_cli_process(*argv) -> subprocess.CompletedProcess:
    """Run ``python -m disco.cli`` in a child process, as a user would."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(disco.__file__)))
    return subprocess.run([sys.executable, "-m", "disco.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=30)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    code = run_cli("synth", "--out", root / "data", "--models-count", 12,
                   "--samples", 120, "--classes", 3, "--dim", 2, "--seed", 3)
    assert code == 0
    return root


class TestValidate:
    def test_valid_dataset(self, synth_dir):
        assert run_cli("validate", synth_dir / "data" / "manifest.json") == 0

    def test_corrupt_magic_exits_3(self, synth_dir, tmp_path, capsys):
        import shutil
        work = tmp_path / "data"
        shutil.copytree(synth_dir / "data", work)
        victim = work / "tensors" / "synth-0003.dten"
        blob = bytearray(victim.read_bytes())
        blob[:4] = b"XXXX"
        victim.write_bytes(bytes(blob))
        assert run_cli("validate", work / "manifest.json") == 3
        assert "synth-0003.dten" in capsys.readouterr().err

    def test_label_out_of_range_exits_2(self, synth_dir, tmp_path, capsys):
        import shutil
        work = tmp_path / "data"
        shutil.copytree(synth_dir / "data", work)
        obj = json.loads((work / "manifest.json").read_text())
        obj["labels"][7] = 99
        (work / "manifest.json").write_text(json.dumps(obj))
        assert run_cli("validate", work / "manifest.json") == 2
        assert "index 7" in capsys.readouterr().err

    def test_schema_error_exits_1(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text('{"benchmark_name": "x"}')
        assert run_cli("validate", bad) == 1

    def test_missing_file_exits_3(self, tmp_path):
        assert run_cli("validate", tmp_path / "none.json") == 3


class TestScore:
    def test_matches_library(self, synth_dir, tmp_path):
        manifest_path = synth_dir / "data" / "manifest.json"
        out = tmp_path / "scores.csv"
        assert run_cli("score", "--manifest", manifest_path, "--out", out) == 0
        manifest = load_manifest(manifest_path)
        table = score_dataset(manifest, load_all_tensors(manifest))
        expected = tmp_path / "expected.csv"
        write_scores_csv(table, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_rerun_identical_bytes(self, synth_dir, tmp_path):
        manifest_path = synth_dir / "data" / "manifest.json"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("score", "--manifest", manifest_path, "--out", a) == 0
        assert run_cli("score", "--manifest", manifest_path, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_method_is_usage_error(self, synth_dir, tmp_path):
        code = run_cli("score", "--manifest", synth_dir / "data" / "manifest.json",
                       "--method", "entropy", "--out", tmp_path / "x.csv")
        assert code == 64

    def test_too_few_models_exits_2(self, synth_dir, tmp_path):
        code = run_cli("score", "--manifest", synth_dir / "data" / "manifest.json",
                       "--models", "synth-0000", "--out", tmp_path / "x.csv")
        assert code == 2


@pytest.fixture(scope="module")
def artifacts(synth_dir, tmp_path_factory):
    work = tmp_path_factory.mktemp("artifacts")
    manifest = synth_dir / "data" / "manifest.json"
    assert run_cli("score", "--manifest", manifest, "--cutoff", "median",
                   "--out", work / "scores.csv") == 0
    assert run_cli("select", "--manifest", manifest, "--method", "topk_pds",
                   "--k", 10, "--scores", work / "scores.csv",
                   "--out", work / "subset.json") == 0
    assert run_cli("fit", "--manifest", manifest, "--subset", work / "subset.json",
                   "--predictor", "knn", "--cutoff", "median",
                   "--out", work / "model.bin") == 0
    return work, manifest


class TestPipelineCommands:
    def test_predict_runs(self, artifacts, tmp_path):
        work, manifest = artifacts
        out = tmp_path / "pred.json"
        assert run_cli("predict", "--manifest", manifest, "--model", work / "model.bin",
                       "--subset", work / "subset.json", "--cutoff", "median",
                       "--out", out) == 0
        obj = json.loads(out.read_text())
        assert len(obj["predictions"]) == 6
        assert all(0 <= v <= 1 for v in obj["predictions"].values())

    def test_evaluate_equals_library_pipeline(self, artifacts, tmp_path):
        work, manifest_path = artifacts
        out = tmp_path / "report.json"
        assert run_cli("evaluate", "--manifest", manifest_path,
                       "--selection", "topk_pds", "--predictor", "knn",
                       "--k", 10, "--cutoff", "median", "--out", out) == 0
        obj = json.loads(out.read_text())

        manifest = load_manifest(manifest_path)
        tensors = load_all_tensors(manifest)
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(manifest, tensors, split,
                              SelectionConfig(method="topk_pds"),
                              PredictorConfig(kind="knn"), k=10, seed=0)
        assert obj["mae_pp"] == report.mae_pp
        assert obj["spearman"] == report.spearman
        assert obj["pearson"] == report.pearson
        assert [tuple(p) for p in obj["pairs"]] == [
            (m, t, p) for m, t, p in report.pairs]

    def test_staged_predictions_match_library(self, artifacts, tmp_path):
        # the staged select -> fit -> predict chain reproduces in-memory values
        work, manifest_path = artifacts
        out = tmp_path / "pred.json"
        assert run_cli("predict", "--manifest", manifest_path,
                       "--model", work / "model.bin", "--subset", work / "subset.json",
                       "--cutoff", "median", "--out", out) == 0
        staged = json.loads(out.read_text())["predictions"]

        manifest = load_manifest(manifest_path)
        tensors = load_all_tensors(manifest)
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(manifest, tensors, split,
                              SelectionConfig(method="topk_pds"),
                              PredictorConfig(kind="knn"), k=10, seed=0)
        assert staged == {m: p for m, _, p in report.pairs}

    def test_stale_subset_detected(self, artifacts, tmp_path):
        import shutil
        work, manifest_path = artifacts
        # regenerate the dataset with another seed; the old subset's recorded
        # manifest hash no longer matches
        alt = tmp_path / "alt"
        assert run_cli("synth", "--out", alt, "--models-count", 12, "--samples", 120,
                       "--classes", 3, "--dim", 2, "--seed", 4) == 0
        code = run_cli("fit", "--manifest", alt / "manifest.json",
                       "--subset", work / "subset.json", "--predictor", "knn",
                       "--out", tmp_path / "m.bin")
        assert code == 2

    def test_predict_with_wrong_subset_exits_2(self, artifacts, tmp_path):
        work, manifest_path = artifacts
        assert run_cli("select", "--manifest", manifest_path, "--method", "random",
                       "--k", 4, "--out", tmp_path / "other.json") == 0
        code = run_cli("predict", "--manifest", manifest_path,
                       "--model", work / "model.bin", "--subset", tmp_path / "other.json",
                       "--cutoff", "median", "--out", tmp_path / "p.json")
        assert code == 2

    def test_kmedoids_select_and_weighted_sum_fit(self, synth_dir, tmp_path):
        manifest = synth_dir / "data" / "manifest.json"
        assert run_cli("select", "--manifest", manifest, "--method", "kmedoids_conf",
                       "--k", 5, "--cutoff", "median",
                       "--out", tmp_path / "subset.json") == 0
        assert run_cli("fit", "--manifest", manifest, "--subset", tmp_path / "subset.json",
                       "--predictor", "weighted_sum",
                       "--out", tmp_path / "ws.bin") == 0
        assert run_cli("predict", "--manifest", manifest, "--model", tmp_path / "ws.bin",
                       "--subset", tmp_path / "subset.json", "--cutoff", "median",
                       "--out", tmp_path / "p.json") == 0

    def test_select_requires_scores_for_topk(self, synth_dir, tmp_path):
        code = run_cli("select", "--manifest", synth_dir / "data" / "manifest.json",
                       "--method", "topk_pds", "--k", 5,
                       "--out", tmp_path / "s.json")
        assert code == 2

    def test_forest_bundle_with_cycle_exits_1(self, artifacts, tmp_path):
        # the root's children point back at the root: walking it never ends
        from disco.dten import read_bundle, write_bundle
        work, manifest = artifacts
        model = tmp_path / "forest.bin"
        assert run_cli("fit", "--manifest", manifest, "--subset", work / "subset.json",
                       "--predictor", "random_forest", "--trees", 3, "--cutoff", "median",
                       "--out", model) == 0
        header, arrays = read_bundle(model)
        assert arrays["forest_nodes"][0, 1] >= 0
        arrays["forest_nodes"][0, 3:5] = 0
        write_bundle(model, header, arrays)
        proc = run_cli_process("predict", "--manifest", manifest, "--model", model,
                               "--subset", work / "subset.json", "--cutoff", "median",
                               "--out", tmp_path / "p.json")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr


class TestUnreadableJsonInputs:
    """A missing or corrupt JSON input ends with its exit code, not a traceback."""

    @pytest.mark.parametrize("content, code, error", [
        (None, 3, "MissingFile"),
        (b"{bad", 1, "SchemaError"),
        (b"[1, 2]", 1, "SchemaError"),
        (b"\xff\xfe\x00{", 1, "SchemaError"),
    ])
    def test_fit_subset(self, artifacts, tmp_path, content, code, error):
        work, manifest = artifacts
        subset = tmp_path / "subset.json"
        if content is not None:
            subset.write_bytes(content)
        proc = run_cli_process("fit", "--manifest", manifest, "--subset", subset,
                               "--predictor", "knn", "--cutoff", "median",
                               "--out", tmp_path / "m.bin")
        assert proc.returncode == code, proc.stderr
        assert error in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("content", ["{bad", "[]", '{"inputs": 3}'])
    def test_select_score_provenance(self, artifacts, tmp_path, content):
        work, manifest = artifacts
        scores = tmp_path / "scores.csv"
        scores.write_bytes((work / "scores.csv").read_bytes())
        (tmp_path / "scores.csv.prov.json").write_text(content)
        proc = run_cli_process("select", "--manifest", manifest, "--method", "topk_pds",
                               "--k", 5, "--scores", scores, "--out", tmp_path / "s.json")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSweepCommand:
    def test_row_cardinality(self, synth_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--manifest", synth_dir / "data" / "manifest.json",
                       "--budgets", "10,50", "--seeds", "0,1", "--configs",
                       "random:direct", "--cutoff", "median", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 2
        assert (tmp_path / "sweep.csv.prov.json").exists()

    def test_bad_config_string_exits_2(self, synth_dir, tmp_path):
        code = run_cli("sweep", "--manifest", synth_dir / "data" / "manifest.json",
                       "--budgets", "10", "--seeds", "0", "--configs", "nonsense",
                       "--cutoff", "median", "--out", tmp_path / "s.csv")
        assert code == 2


class TestSynthCommand:
    def test_self_contained_directory(self, synth_dir):
        manifest = load_manifest(synth_dir / "data" / "manifest.json")
        manifest.validate()
        for mid in manifest.model_ids():
            load_tensor(manifest, mid)
        prov = json.loads((synth_dir / "data" / "provenance.json").read_text())
        assert prov["config"]["m_models"] == 12

    def test_threads_flag_accepted(self, synth_dir, tmp_path):
        code = run_cli("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                       "--selection", "random", "--predictor", "direct",
                       "--k", 30, "--cutoff", "median", "--threads", "2",
                       "--out", tmp_path / "r.json")
        assert code == 0


class TestThreadsEnvFallback:
    def test_disco_threads_env(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DISCO_THREADS", "3")
        code = run_cli("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                       "--selection", "random", "--predictor", "direct",
                       "--k", 30, "--cutoff", "median", "--out", tmp_path / "r.json")
        assert code == 0

    def test_bad_threads_value_exits_2(self, synth_dir, tmp_path):
        code = run_cli("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                       "--selection", "random", "--predictor", "direct",
                       "--k", 30, "--cutoff", "median", "--threads", "fast",
                       "--out", tmp_path / "r.json")
        assert code == 2


class TestBestForValidationCommand:
    def test_select_bfv(self, synth_dir, tmp_path):
        code = run_cli("select", "--manifest", synth_dir / "data" / "manifest.json",
                       "--method", "best_for_validation", "--k", 6,
                       "--candidates", 15, "--cutoff", "median",
                       "--out", tmp_path / "bfv.json")
        assert code == 0
        obj = json.loads((tmp_path / "bfv.json").read_text())
        assert obj["method"] == "best_for_validation"
        assert len(obj["indices"]) == 6
