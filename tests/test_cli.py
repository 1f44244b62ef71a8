from __future__ import annotations

import gc
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from collections import Counter

import numpy as np
import pytest

import disco
from disco import cli, dten, store
from disco.cli import main
from disco.errors import RowSumOutOfTolerance
from disco.files import TensorFiles
from disco.harness import (
    SWEEP_HEADER,
    ChronologicalSplit,
    PredictorConfig,
    condense_and_train,
    median_date_cutoff,
    run_pipeline,
    split_models,
)
from disco.scoring import score_dataset, write_scores_csv
from disco.selection import METHODS
from disco.store import load_manifest, load_tensor


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

    def test_label_outside_int64_exits_1(self, synth_dir, tmp_path):
        import shutil
        work = tmp_path / "data"
        shutil.copytree(synth_dir / "data", work)
        obj = json.loads((work / "manifest.json").read_text())
        obj["labels"][0] = 2**70
        (work / "manifest.json").write_text(json.dumps(obj))
        proc = run_cli_process("validate", work / "manifest.json")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr and "labels[0]" in proc.stderr
        assert "Traceback" not in proc.stderr

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
        table = score_dataset(manifest, TensorFiles(manifest, manifest.model_ids()))
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

    def test_duplicate_models_exits_2(self, synth_dir, tmp_path, capsys):
        code = run_cli("score", "--manifest", synth_dir / "data" / "manifest.json",
                       "--models", "synth-0001,synth-0002,synth-0001",
                       "--out", tmp_path / "x.csv")
        assert code == 2
        assert "InvalidConfig" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [("score", "--method", "pds"),
                                      ("predict", "--model", "m.bin", "--subset",
                                       "s.json", "--mode", "probs")])
    def test_removed_flags_are_usage_errors(self, synth_dir, tmp_path, argv):
        code = run_cli(*argv, "--manifest", synth_dir / "data" / "manifest.json",
                       "--out", tmp_path / "x")
        assert code == 64


# --- no command loads a tensor whole -----------------------------------------

def _reading_commands(manifest, work, out):
    """argv of each command that reads the tensor files, by name."""
    selected = {f"select-{method}": ("select", "--manifest", manifest, "--method", method,
                                     "--k", 5, "--cutoff", "median", "--out", out)
                for method in ("kmedoids_conf", "kmedoids_corr", "best_for_validation")}
    return {
        "score": ("score", "--manifest", manifest, "--out", out),
        "validate": ("validate", manifest),
        **selected,
        "fit": ("fit", "--manifest", manifest, "--subset", work / "subset.json",
                "--predictor", "knn", "--cutoff", "median", "--out", out),
        "fit-readout": ("fit", "--manifest", manifest, "--subset", work / "subset.json",
                        "--predictor", "direct", "--cutoff", "median", "--out", out),
        "predict": ("predict", "--manifest", manifest, "--model", work / "model.bin",
                    "--subset", work / "subset.json", "--cutoff", "median", "--out", out),
        "evaluate": ("evaluate", "--manifest", manifest, "--selection", "topk_pds",
                     "--predictor", "knn", "--k", 10, "--cutoff", "median", "--out", out),
        "sweep": ("sweep", "--manifest", manifest, "--budgets", "10,30", "--seeds", "0",
                  "--configs", "random:linear,topk_pds:knn,kmedoids_conf:knn,"
                  "kmedoids_corr:weighted_sum,best_for_validation:direct",
                  "--cutoff", "median", "--out", out),
    }


@pytest.mark.parametrize("command", ["score", "validate", "select-kmedoids_conf",
                                     "select-kmedoids_corr", "select-best_for_validation",
                                     "fit", "fit-readout", "predict", "evaluate", "sweep"])
def test_never_loads_a_whole_tensor(artifacts, tmp_path, monkeypatch, command):
    work, manifest = artifacts
    argv = _reading_commands(manifest, work, tmp_path / "out")[command]

    def refuse(*args):
        raise AssertionError("a whole tensor was loaded")
    anchor_rows = TensorFiles.anchor_rows

    def some_rows(self, model_ids, idx):
        if np.unique(idx).size == self.manifest.num_samples:
            raise AssertionError("every row of a tensor was read")
        return anchor_rows(self, model_ids, idx)
    monkeypatch.setattr(store, "load_tensor", refuse)
    monkeypatch.setattr(TensorFiles, "anchor_rows", some_rows)
    assert run_cli(*argv) == 0
    assert not hasattr(disco.cli, "load_tensor")


@pytest.mark.parametrize("argv", [
    ("evaluate", "--selection", "topk_pds", "--predictor", "knn", "--k", 10),
    ("sweep", "--configs", "topk_pds:knn,kmedoids_conf:knn", "--budgets", "5,10",
     "--seeds", "0"),
], ids=["evaluate", "sweep"])
def test_one_pass_reads_each_payload_once(synth_dir, tmp_path, monkeypatch, argv):
    # the check of every file, the sources' scores and their summaries come
    # from one pass, before any anchor row is read
    manifest_path = synth_dir / "data" / "manifest.json"
    manifest = load_manifest(manifest_path)
    read, anchored = Counter(), []
    read_into, anchor_rows = dten.read_into, TensorFiles.anchor_rows

    def counting_read(f, out, offset):
        if not anchored:
            read[os.path.basename(f.name)] += out.nbytes
        read_into(f, out, offset)

    def first_anchor_rows(self, *args):
        anchored.append(True)
        return anchor_rows(self, *args)

    monkeypatch.setattr(dten, "read_into", counting_read)
    monkeypatch.setattr(TensorFiles, "anchor_rows", first_anchor_rows)
    assert run_cli(*argv, "--manifest", manifest_path, "--cutoff", "median",
                   "--out", tmp_path / "out") == 0
    m, n, c = len(manifest.models), manifest.num_samples, manifest.num_classes
    assert sum(read.values()) == m * n * c * 4
    assert read == {os.path.basename(meta.tensor_path): n * c * 4 for meta in manifest.models}


def test_score_reports_what_loading_in_manifest_order_would(reversed_manifest, tmp_path,
                                                            monkeypatch, capsys):
    shutil.copytree(reversed_manifest.parent, tmp_path / "data")
    manifest_path = tmp_path / "data" / "manifest.json"
    manifest = load_manifest(manifest_path)
    first, later = manifest.model_ids()[0], manifest.model_ids()[5]
    assert first == max(manifest.model_ids())  # scored last
    path = tmp_path / "data" / manifest.model(first).tensor_path
    values = load_tensor(manifest, first).values
    values[-1] *= 0.9  # off tolerance, in the last of several chunks
    dten.write_dten(path, values)
    path = tmp_path / "data" / manifest.model(later).tensor_path
    path.write_bytes(path.read_bytes() + b"\0")
    monkeypatch.setattr(store, "_CHUNK_BYTES", 16 * manifest.num_classes * 4)
    with pytest.raises(RowSumOutOfTolerance) as loading:
        for mid in manifest.model_ids():
            load_tensor(manifest, mid)
    assert f"tensor for {first!r} row {manifest.num_samples - 1} sums to" in str(loading.value)
    out = tmp_path / "scores.csv"
    for argv in (("score", "--manifest", manifest_path, "--out", out),
                 ("validate", manifest_path)):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (f"disco {argv[0]}: RowSumOutOfTolerance: "
                                           f"{loading.value}\n")
    assert not out.exists()


@pytest.mark.parametrize("change, code, error", [
    ("truncate", 3, "MagicMismatch: .*synth-0004.dten: payload shorter than dims"),
    ("rows", 2, "RowSumOutOfTolerance: tensor for 'synth-0004' row 0 sums to 2.7"),
    ("dims", 2, r"ShapeMismatch: .*synth-0004.dten: expected dims \(120, 3\), found \(3, 120\)"),
])
def test_file_changed_after_its_check_exits(synth_dir, tmp_path, monkeypatch, capsys,
                                            change, code, error):
    # score's one pass opens each file once per stripe of 40 samples and
    # checks its header each time; the victim changes right after its first
    # header check, so its rows are read changed in that stripe, and its
    # size and dims are caught when the next stripe opens it
    shutil.copytree(synth_dir / "data", tmp_path / "data")
    victim = tmp_path / "data" / "tensors" / "synth-0004.dten"
    check = store._check_layout
    changed = []

    def check_then_change(manifest, path, dtype, dims):
        check(manifest, path, dtype, dims)
        if path == victim and not changed:
            changed.append(path)
            if change == "truncate":
                os.truncate(victim, victim.stat().st_size - 7)
            elif change == "dims":  # the same payload size, read as 3 x 120
                with victim.open("r+b") as f:
                    f.seek(dten.PAYLOAD_START - 16)
                    f.write(struct.pack("<QQ", 3, 120))
            else:
                with victim.open("r+b") as f:  # the file checked, not a new one
                    f.seek(dten.PAYLOAD_START)
                    f.write(np.float32([0.9, 0.9, 0.9]).tobytes())

    monkeypatch.setattr(store, "_check_layout", check_then_change)
    monkeypatch.setattr(store, "_CHUNK_BYTES", 40 * 3 * 4)
    out = tmp_path / "scores.csv"
    assert run_cli("score", "--manifest", tmp_path / "data" / "manifest.json",
                   "--out", out) == code
    assert re.search(error, capsys.readouterr().err)
    assert not out.exists()


def change_after_check(monkeypatch, victim_id, victim, change):
    """Make ``victim``, the tensor file of ``victim_id``, change right after
    the pass that checks every file whole has checked it."""
    stripes = TensorFiles.stripes

    def pass_then_change(self, *args, **kwargs):
        unchecked = victim_id not in self._checked
        yield from stripes(self, *args, **kwargs)
        if not unchecked or victim_id not in self._checked:
            return
        if change == "truncate":
            os.truncate(victim, victim.stat().st_size - 7)
        elif change == "dims":  # the same payload size, read as C x N
            n, c = self.manifest.num_samples, self.manifest.num_classes
            with victim.open("r+b") as f:
                f.seek(dten.PAYLOAD_START - 16)
                f.write(struct.pack("<QQ", c, n))
        else:  # every row sums to 2.7
            with victim.open("r+b") as f:
                f.seek(dten.PAYLOAD_START)
                f.write(np.full(victim.stat().st_size // 4 - 6, 0.9, np.float32).tobytes())

    monkeypatch.setattr(TensorFiles, "stripes", pass_then_change)


@pytest.mark.parametrize("command", ["evaluate", "fit"])
@pytest.mark.parametrize("change, code, error", [
    ("truncate", 3, "MagicMismatch: .*{file}: payload shorter than dims"),
    ("rows", 2, "RowSumOutOfTolerance: tensor for '{id}' row [0-9]+ sums to 2.7"),
    ("dims", 2, r"ShapeMismatch: .*{file}: expected dims \(120, 3\), found \(3, 120\)"),
])
def test_file_changed_before_its_anchor_rows_exits(artifacts, tmp_path, monkeypatch, capsys,
                                                   command, change, code, error):
    # the checked pass reads every file whole; the anchor-row read that
    # follows reopens the file and checks it again
    work, manifest_path = artifacts
    shutil.copytree(manifest_path.parent, tmp_path / "data")
    manifest = load_manifest(tmp_path / "data" / "manifest.json")
    victim_id = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest))
                             ).source_ids[0]
    victim = tmp_path / "data" / manifest.model(victim_id).tensor_path
    change_after_check(monkeypatch, victim_id, victim, change)
    out = tmp_path / "out"
    argv = {"evaluate": ("evaluate", "--selection", "random", "--predictor", "knn",
                         "--k", 10),
            "fit": ("fit", "--subset", work / "subset.json", "--predictor", "knn")}[command]
    assert run_cli(*argv, "--manifest", tmp_path / "data" / "manifest.json",
                   "--cutoff", "median", "--out", out) == code
    assert re.search(error.format(file=re.escape(victim.name), id=victim_id),
                     capsys.readouterr().err)
    assert not out.exists()


def test_one_source_reports_a_cut_target_before_too_few_models(synth_dir, tmp_path, capsys):
    # the one pass that would score the lone source also checks the targets,
    # and a fault in them comes before TooFewModels, as loading would raise it
    shutil.copytree(synth_dir / "data", tmp_path / "data")
    manifest = load_manifest(tmp_path / "data" / "manifest.json")
    models = sorted(manifest.models, key=lambda meta: meta.release_date)
    victim = tmp_path / "data" / models[-1].tensor_path
    os.truncate(victim, victim.stat().st_size - 4)
    assert run_cli("evaluate", "--manifest", tmp_path / "data" / "manifest.json",
                   "--selection", "topk_pds", "--predictor", "direct", "--k", 10,
                   "--cutoff", models[1].release_date.isoformat(),
                   "--out", tmp_path / "out") == 3
    assert re.search(rf"MagicMismatch: .*{re.escape(victim.name)}: payload shorter",
                     capsys.readouterr().err)


@pytest.mark.skipif(sys.platform == "win32", reason="the open-file limit is POSIX")
def test_score_keeps_no_file_open_between_reads(tmp_path):
    # more source models than the child process may have files open at once
    data = tmp_path / "data"
    assert run_cli("synth", "--out", data, "--models-count", 48, "--samples", 40,
                   "--classes", 3, "--dim", 2, "--seed", 5) == 0
    limit = ("import resource, sys\n"
             "from disco.cli import main\n"
             "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
             "resource.setrlimit(resource.RLIMIT_NOFILE, (24, hard))\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(disco.__file__)))
    out = tmp_path / "scores.csv"
    for argv in (("validate", data / "manifest.json"),
                 ("score", "--manifest", data / "manifest.json", "--out", out)):
        proc = subprocess.run([sys.executable, "-c", limit, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    manifest = load_manifest(data / "manifest.json")
    want = tmp_path / "want.csv"
    write_scores_csv(score_dataset(manifest, TensorFiles(manifest, manifest.model_ids())),
                     want)
    assert out.read_bytes() == want.read_bytes()


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
        files = TensorFiles(manifest, manifest.model_ids())
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "topk_pds",
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
        files = TensorFiles(manifest, manifest.model_ids())
        split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
        report = run_pipeline(files, split, "topk_pds",
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


    def test_knn_bundle_with_a_huge_value_exits_2(self, artifacts, tmp_path):
        # a finite stored value whose squared distance overflows
        from disco.dten import read_bundle, write_bundle
        work, manifest = artifacts
        header, arrays = read_bundle(work / "model.bin")
        arrays["knn_vectors"][0, 0] = 1e300
        model = tmp_path / "knn.bin"
        write_bundle(model, header, arrays)
        proc = run_cli_process("predict", "--manifest", manifest, "--model", model,
                               "--subset", work / "subset.json", "--cutoff", "median",
                               "--out", tmp_path / "p.json")
        assert proc.returncode == 2, proc.stderr
        assert "InvariantViolation: knn distance is not finite" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("mode", [None, "bogus", 3, ["probs"]],
                             ids=["missing", "unknown", "int", "list"])
    def test_bundle_without_valid_mode_exits_1(self, artifacts, tmp_path, mode):
        # the signature mode comes from the bundle's provenance, not a flag
        from disco.dten import read_bundle, write_bundle
        work, manifest = artifacts
        header, arrays = read_bundle(work / "model.bin")
        if mode is None:
            del header["provenance"]["mode"]
        else:
            header["provenance"]["mode"] = mode
        model = tmp_path / "knn.bin"
        write_bundle(model, header, arrays)
        proc = run_cli_process("predict", "--manifest", manifest, "--model", model,
                               "--subset", work / "subset.json", "--cutoff", "median",
                               "--out", tmp_path / "p.json")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fit_without_sources_exits_2(self, artifacts, tmp_path):
        work, manifest = artifacts
        proc = run_cli_process("fit", "--manifest", manifest, "--subset",
                               work / "subset.json", "--predictor", "knn",
                               "--cutoff", "1990-01-01", "--out", tmp_path / "m.bin")
        assert proc.returncode == 2, proc.stderr
        assert "EmptySide: no source model to fit" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, value, error", [
        ("--models", ",", "InvalidConfig: --models names no model"),
        ("--models", "", "InvalidConfig: --models names no model"),
        ("--cutoff", "2099-01-01", "EmptySide: no target model to predict"),
    ])
    def test_predict_without_targets_exits_2(self, artifacts, tmp_path, capsys,
                                             monkeypatch, flag, value, error):
        # an empty model set is an error, not an empty pred.json, and no
        # tensor file is read first
        work, manifest = artifacts
        opened = []
        monkeypatch.setattr(dten, "open_dten", opened.append)
        code = run_cli("predict", "--manifest", manifest, "--model", work / "model.bin",
                       "--subset", work / "subset.json", flag, value,
                       "--out", tmp_path / "pred.json")
        assert code == 2
        assert error in capsys.readouterr().err
        assert opened == []
        assert not (tmp_path / "pred.json").exists()

    def test_score_with_empty_models_exits_2(self, artifacts, tmp_path, capsys):
        # --models given but naming no model does not mean every model
        work, manifest = artifacts
        assert run_cli("score", "--manifest", manifest, "--models", " , ",
                       "--out", tmp_path / "scores.csv") == 2
        assert "InvalidConfig: --models names no model" in capsys.readouterr().err
        assert not (tmp_path / "scores.csv").exists()

    def test_bundle_missing_block_exits_1(self, artifacts, tmp_path):
        from disco.dten import read_bundle, write_bundle
        work, manifest = artifacts
        header, arrays = read_bundle(work / "model.bin")
        del arrays["knn_vectors"]
        model = tmp_path / "knn.bin"
        write_bundle(model, header, arrays)
        proc = run_cli_process("predict", "--manifest", manifest, "--model", model,
                               "--subset", work / "subset.json", "--cutoff", "median",
                               "--out", tmp_path / "p.json")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bundle_with_ws_weights_block_predicts_the_same(self, synth_dir, tmp_path):
        # weighted_sum bundles used to carry the subset's weights as a
        # ws_weights block; such a bundle still loads and predicts alike
        from disco.dten import read_bundle, write_bundle
        from disco.predictors import load_predictor
        manifest = synth_dir / "data" / "manifest.json"
        subset = tmp_path / "subset.json"
        assert run_cli("select", "--manifest", manifest, "--method", "kmedoids_conf",
                       "--k", 5, "--cutoff", "median", "--out", subset) == 0
        assert run_cli("fit", "--manifest", manifest, "--subset", subset,
                       "--predictor", "weighted_sum", "--out", tmp_path / "ws.dpak") == 0
        header, arrays = read_bundle(tmp_path / "ws.dpak")
        assert header["config"] == {} and arrays == {}
        weights = json.loads(subset.read_text())["weights"]
        write_bundle(tmp_path / "old.dpak", header,
                     {"ws_weights": np.asarray([weights])})
        assert load_predictor(tmp_path / "old.dpak").kind == "weighted_sum"

        predictions = []
        for model in ("ws.dpak", "old.dpak"):
            out = tmp_path / f"{model}.json"
            assert run_cli("predict", "--manifest", manifest, "--model", tmp_path / model,
                           "--subset", subset, "--cutoff", "median", "--out", out) == 0
            predictions.append(json.loads(out.read_text())["predictions"])
        assert predictions[0] == predictions[1]


def _with_field(rows: list[str], i: int, j: int, value: str) -> list[str]:
    rows = list(rows)
    parts = rows[i].split(",")
    parts[j] = value
    rows[i] = ",".join(parts)
    return rows


# case -> (edit of the data rows of a score table, exit code of select)
SCORE_TABLE_EDITS = {
    "unparsed": (lambda rows: _with_field(rows, 3, 0, "abc"), 1),
    "nan": (lambda rows: _with_field(rows, 3, 1, "nan"), 1),
    "inf": (lambda rows: _with_field(rows, 3, 3, "inf"), 1),
    "duplicate-row": (lambda rows: rows[:6] + rows[5:], 1),
    "index-999999": (lambda rows: _with_field(rows, -1, 0, "999999"), 1),
    "index-4.5": (lambda rows: _with_field(rows, 5, 0, "4.5"), 1),
    "short": (lambda rows: rows[:-1], 2),
}


@pytest.mark.parametrize("case", list(SCORE_TABLE_EDITS))
def test_select_rejects_bad_score_table(artifacts, tmp_path, case):
    # a score table must count samples 0..N-1, one row each, with finite scores
    edit, code = SCORE_TABLE_EDITS[case]
    work, manifest = artifacts
    header, *rows = (work / "scores.csv").read_text().splitlines()
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join([header] + edit(rows)) + "\n")
    proc = run_cli_process("select", "--manifest", manifest, "--method", "topk_pds",
                           "--k", 5, "--scores", scores, "--out", tmp_path / "s.json")
    assert proc.returncode == code, proc.stderr
    assert ("SchemaError" if code == 1 else "ShapeMismatch") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, code, error", [
    (("select", "--method", "random", "--k", 5, "--models", "nonexistent"), 2,
     "disco select: InvariantViolation: model id not registered: 'nonexistent'"),
    (("select", "--method", "random", "--k", 5, "--scores", "{tmp}/missing.csv"), 3,
     "disco select: MissingFile: no such score table: "),
    (("select", "--method", "kmedoids_conf", "--k", 5,
      "--scores", "{tmp}/missing.csv"), 3,
     "disco select: MissingFile: no such score table: "),
    (("select", "--method", "topk_pds", "--k", 5, "--scores", "{work}/scores.csv",
      "--models", "synth-0000"), 2,
     "disco select: InvalidConfig: {work}/scores.csv was not scored on the models"),
    (("score", "--models", "synth-0000,synth-0001", "--cutoff", "1900-01-01"), 64,
     "disco score: error: argument --cutoff: not allowed with argument --models"),
    (("fit", "--subset", "{work}/subset.json", "--predictor", "direct",
      "--cutoff", "1900-01-01"), 2,
     "disco fit: EmptySide: no source model to fit"),
], ids=["select-unknown-model", "random-missing-scores", "kmedoids-missing-scores",
        "scores-of-other-models", "models-and-cutoff", "fit-without-sources"])
def test_commands_check_every_input_they_are_given(artifacts, tmp_path, argv, code, error):
    # each input a command is given is read and checked, whatever the method
    work, manifest = artifacts
    out = tmp_path / "out"
    argv = [str(a).format(work=work, tmp=tmp_path) for a in argv]
    proc = run_cli_process(*argv, "--manifest", manifest, "--out", out)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    if code == 64:
        assert proc.stderr.startswith(f"usage: disco {argv[0]} ")
        lines = [line for line in lines if not line.startswith((" ", "usage:"))]
    assert len(lines) == 1 and lines[0].startswith(error.format(work=work)), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--method", "topk_pds", "--scores", "{work}/scores.csv", "--cutoff", "median"),
    ("--method", "stratified_topk", "--scores", "{work}/scores.csv"),
    ("--method", "random", "--models", "synth-0000", "--scores", "{work}/scores.csv"),
])
def test_select_reads_tensor_files_only_for_summary_methods(artifacts, tmp_path,
                                                            monkeypatch, argv):
    work, manifest = artifacts
    opened = []
    monkeypatch.setattr(dten, "open_dten", opened.append)
    assert run_cli("select", "--manifest", manifest, "--k", 5,
                   *[a.format(work=work) for a in argv], "--out", tmp_path / "s.json") == 0
    assert opened == []


@pytest.mark.parametrize("argv, hashed", [
    (("select", "--method", "topk_pds", "--k", 10, "--scores", "{work}/scores.csv"),
     ("scores.csv",)),
    (("fit", "--subset", "{work}/subset.json", "--predictor", "knn"), ("subset.json",)),
    (("predict", "--model", "{work}/model.bin", "--subset", "{work}/subset.json"),
     ("model.bin", "subset.json")),
], ids=["select", "fit", "predict"])
def test_each_input_is_hashed_once(artifacts, tmp_path, monkeypatch, argv, hashed):
    # the digest checked against an upstream artifact is the one recorded
    work, manifest = artifacts
    reads = Counter()
    sha256 = cli._sha256

    def counting(path):
        reads[path] += 1
        return sha256(path)

    monkeypatch.setattr(cli, "_sha256", counting)
    argv = [str(a).format(work=work) for a in argv]
    assert run_cli(*argv, "--manifest", manifest, "--cutoff", "median",
                   "--out", tmp_path / "out") == 0
    assert reads == Counter({manifest: 1, **{work / name: 1 for name in hashed}})


@pytest.mark.parametrize("size", [0, 1, cli._HASH_CHUNK - 1, cli._HASH_CHUNK,
                                  cli._HASH_CHUNK + 1, 3 * cli._HASH_CHUNK])
def test_sha256_equals_hashlib(tmp_path, size):
    import hashlib
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert cli._sha256(path) == hashlib.sha256(data).hexdigest()


def test_commands_that_draw_no_random_number_load_no_openssl(synth_dir, tmp_path):
    # hashlib's OpenSSL module costs a process about 3.6 MB of RSS; only
    # numpy.random should bring it in
    probe = ("import sys\n"
             "from disco.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('_hashlib' in sys.modules)\n"
             "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(disco.__file__)))
    manifest = synth_dir / "data" / "manifest.json"
    chain = ("--manifest", manifest, "--cutoff", "median")
    for argv in [("validate", manifest),
                 ("score", *chain, "--out", tmp_path / "scores.csv"),
                 ("select", *chain, "--method", "topk_pds", "--k", 10,
                  "--scores", tmp_path / "scores.csv", "--out", tmp_path / "subset.json"),
                 ("fit", *chain, "--subset", tmp_path / "subset.json", "--predictor", "knn",
                  "--out", tmp_path / "model.bin"),
                 ("predict", *chain, "--model", tmp_path / "model.bin",
                  "--subset", tmp_path / "subset.json", "--out", tmp_path / "pred.json")]:
        proc = subprocess.run([sys.executable, "-c", probe, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False", argv[0]


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ("score", "--cutoff", "median"),
        ("select", "--method", "random", "--k", 5),
    ])
    def test_missing_directory_exits_3(self, synth_dir, tmp_path, argv):
        out = tmp_path / "missing" / "out"
        proc = run_cli_process(*argv, "--manifest", synth_dir / "data" / "manifest.json",
                               "--out", out)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.count("\n") == 1 and str(out) in proc.stderr
        assert "Traceback" not in proc.stderr


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


class TestMalformedSubsetFields:
    """A subset field of the wrong type is a schema error (exit 1)."""

    @pytest.mark.parametrize("field, value", [
        ("indices", ["a", 1, 2, 3, 4]),
        ("indices", [0.5, 1, 2, 3, 4]),
        ("indices", [True, 1, 2, 3, 4]),
        ("indices", [2**70, 1, 2, 3, 4]),
        ("indices", "0,1,2,3,4"),
        ("seed", "x"),
        ("seed", 1.5),
        ("k", "5"),
        ("weights", "abc"),
        ("weights", [0.2, 0.2, "x", 0.2, 0.2]),
        ("weights", [0.2, 0.2, float("nan"), 0.2, 0.2]),
        ("weights", [0.2, 0.2, 10**400, 0.2, 0.2]),
        ("method", 3),
        ("criterion", ["pds_env"]),
        ("criterion", "jsd_bits"),
        ("criterion", None),
        ("method", "bogus"),
    ])
    def test_fit_rejects(self, artifacts, tmp_path, field, value):
        work, manifest = artifacts
        obj = json.loads((work / "subset.json").read_text())
        obj.update(indices=[0, 1, 2, 3, 4], k=5, weights=None)
        obj[field] = value
        subset = tmp_path / "subset.json"
        subset.write_text(json.dumps(obj))
        proc = run_cli_process("fit", "--manifest", manifest, "--subset", subset,
                               "--predictor", "knn", "--cutoff", "median",
                               "--out", tmp_path / "m.bin")
        assert proc.returncode == 1, proc.stderr
        assert "SchemaError" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "m.bin").exists()

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

    @pytest.mark.parametrize("configs", ["topk_pds:bogus", "bogus:knn",
                                         "random:direct,topk_pds:knn:linear"])
    def test_unknown_config_fails_before_loading_tensors(self, synth_dir, tmp_path,
                                                         monkeypatch, configs):
        def no_load(*args):
            raise AssertionError("a tensor file was read")

        monkeypatch.setattr(dten, "open_dten", no_load)
        code = run_cli("sweep", "--manifest", synth_dir / "data" / "manifest.json",
                       "--budgets", "10", "--seeds", "0", "--configs", configs,
                       "--cutoff", "median", "--out", tmp_path / "s.csv")
        assert code == 2

    @pytest.mark.parametrize("budgets, seeds", [("10,x", "0"), ("10", "0,y")])
    def test_malformed_budgets_or_seeds_exit_2(self, synth_dir, tmp_path,
                                               budgets, seeds):
        proc = run_cli_process("sweep", "--manifest", synth_dir / "data" / "manifest.json",
                               "--budgets", budgets, "--seeds", seeds,
                               "--configs", "random:direct", "--cutoff", "median",
                               "--out", tmp_path / "s.csv")
        assert proc.returncode == 2, proc.stderr
        assert "InvalidConfig" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--budgets", "10,10"), ("--budgets", "10,50,010"), ("--seeds", "0,1,0"),
        ("--configs", "topk_pds:knn,random:direct,topk_pds:knn")])
    def test_a_repeated_entry_exits_2_before_loading_tensors(self, synth_dir, tmp_path,
                                                              monkeypatch, capsys,
                                                              flag, value):
        def no_load(*args):
            raise AssertionError("a tensor file was read")

        monkeypatch.setattr(dten, "open_dten", no_load)
        argv = {"--budgets": "10", "--seeds": "0", "--configs": "topk_pds:knn", flag: value}
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--manifest", synth_dir / "data" / "manifest.json",
                       *(a for pair in argv.items() for a in pair),
                       "--cutoff", "median", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"disco sweep: InvalidConfig: {flag} lists an entry more than once: "
                       f"{value!r}\n")
        assert not out.exists()


FORKED_SWEEP_CONFIGS = ("kmedoids_conf:knn,kmedoids_corr:weighted_sum,"
                        "best_for_validation:direct,topk_pds:random_forest")


def sweep_argv(synth_dir, out, *extra):
    return ("sweep", "--manifest", synth_dir / "data" / "manifest.json", "--budgets",
            "10,20", "--seeds", "0,1", "--cutoff", "median", "--configs",
            FORKED_SWEEP_CONFIGS, "--trees", 5, "--out", out, *extra)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def many_cpus(monkeypatch):
    """Enough usable CPUs that every --threads value starts its workers."""
    from disco import workers
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)


def test_forked_sweep_writes_the_same_csv_for_any_threads(synth_dir, tmp_path, many_cpus):
    csv = {}
    for threads in (1, 2, 8):
        out = tmp_path / f"sweep-{threads}.csv"
        assert run_cli(*sweep_argv(synth_dir, out, "--threads", threads)) == 0
        assert_no_child_left()
        csv[threads] = out.read_bytes()
    assert csv[2] == csv[1] and csv[8] == csv[1]
    assert len(csv[1].splitlines()) == 1 + 4 * 2 * 2


def test_selection_failing_in_a_worker_exits_as_serial(synth_dir, tmp_path, monkeypatch,
                                                      capsys, many_cpus):
    # cell (K=20, seed=1) is the fourth of its config: worker 1 of 2 selects it
    from disco import harness
    from disco.errors import InvariantViolation
    select_kmedoids = harness.select_kmedoids

    def failing_select(embeddings, k, seed, **kwargs):
        if (k, seed) == (20, 1):
            raise InvariantViolation(f"no medoids at K={k}, seed={seed}")
        return select_kmedoids(embeddings, k, seed, **kwargs)

    monkeypatch.setattr(harness, "select_kmedoids", failing_select)
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"sweep-{threads}.csv"
        code = run_cli(*sweep_argv(synth_dir, out, "--threads", threads))
        assert_no_child_left()
        runs.append((code, capsys.readouterr().err))
        assert not out.exists()
    assert runs[1] == runs[0] == (
        2, "disco sweep: InvariantViolation: no medoids at K=20, seed=1\n")


def test_lost_forest_worker_exits_2(synth_dir, tmp_path, monkeypatch, capsys, many_cpus):
    # a worker that ends without its trees (killed, out of memory) is an
    # error with the taxonomy's exit code, not a traceback
    from disco import predictors
    caller = os.getpid()
    fit_one_tree = predictors._fit_one_tree

    def dying_fit(*args):
        if os.getpid() != caller:
            os._exit(3)
        return fit_one_tree(*args)

    monkeypatch.setattr(predictors, "_fit_one_tree", dying_fit)
    out = tmp_path / "report.json"
    code = run_cli("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                   "--predictor", "random_forest", "--trees", 4, "--k", 10,
                   "--cutoff", "median", "--threads", 2, "--out", out)
    assert_no_child_left()
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(r"disco evaluate: WorkerLost: worker process \d+ ended without "
                        r"sending its results \(exit status 3\)\n", err)
    assert not out.exists()


def test_auto_threads_on_one_cpu_starts_no_worker(synth_dir, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(*sweep_argv(synth_dir, tmp_path / "sweep.csv")) == 0


def forest_commands(artifacts, out):
    """Each named run of forest commands, as argv lists."""
    work, m = artifacts
    forest = ("--predictor", "random_forest", "--trees", 5, "--cutoff", "median")
    evaluate = ("evaluate", "--manifest", m, *forest, "--k", 10, "--out", out / "report.json")
    return {
        "evaluate-1": [(*evaluate, "--threads", 1)],
        "evaluate-2": [(*evaluate, "--threads", 2)],
        "fit-predict": [
            ("fit", "--manifest", m, "--subset", work / "subset.json", *forest,
             "--threads", 1, "--out", out / "model.dpak"),
            ("predict", "--manifest", m, "--model", out / "model.dpak", "--subset",
             work / "subset.json", "--cutoff", "median", "--out", out / "pred.json")],
        "sweep": [("sweep", "--manifest", m, "--budgets", "10,20", "--seeds", "0",
                   "--configs", "topk_pds:random_forest", *forest[2:], "--threads", 2,
                   "--out", out / "sweep.csv")],
    }


@pytest.mark.parametrize("run", ["evaluate-1", "evaluate-2", "fit-predict", "sweep"])
def test_forest_commands_leave_no_reference_cycle(artifacts, tmp_path, many_cpus, run):
    # what a command leaves in a reference cycle lives on until the cyclic
    # collector happens to run: a forest fit must free each tree's arrays
    # and RNG when the tree is built.  argparse, json and inspect leave
    # stdlib cycles behind in every command; only disco's functions and
    # numpy's RNG objects count.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in forest_commands(artifacts, tmp_path)[run]:
            assert run_cli(*argv) == 0, argv
        gc.collect()
        cyclic = [repr(o) for o in gc.garbage
                  if isinstance(o, (np.random.Generator, np.random.SeedSequence))
                  or isinstance(o, types.FunctionType)
                  and (o.__module__ or "").startswith("disco.")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert_no_child_left()
    assert cyclic == []


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

    def test_failed_allocation_exits_2(self, tmp_path, monkeypatch, capsys):
        # numpy raises a subclass of MemoryError for a size it cannot allocate
        class ArrayMemoryError(MemoryError):
            pass

        def too_large(config):
            raise ArrayMemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr(disco.cli, "generate_population", too_large)
        assert run_cli("synth", "--out", tmp_path / "data", "--models-count", 4) == 2
        assert capsys.readouterr().err == (
            "disco synth: MemoryError: Unable to allocate 14.9 GiB for an array\n")
        assert not (tmp_path / "data").exists()

    def test_size_beyond_physical_memory_exits_2(self, tmp_path):
        # refused before anything is allocated: the kernel would overcommit
        # these rows and the process would run until it is killed
        proc = run_cli_process("synth", "--out", tmp_path / "data", "--classes", 100_000_000,
                               "--samples", 10)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("disco synth: InvalidConfig: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("flag, value", [("--date-start", "2024-13-01"),
                                             ("--date-end", "nope")])
    def test_bad_date_exits_2(self, tmp_path, flag, value):
        proc = run_cli_process("synth", "--out", tmp_path / "data", "--models-count", 4,
                               "--samples", 10, flag, value)
        assert proc.returncode == 2, proc.stderr
        assert "InvalidConfig" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "data").exists()


class TestThreadsEnvFallback:
    def test_bad_threads_value_exits_2(self, synth_dir, tmp_path):
        code = run_cli("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                       "--selection", "random", "--predictor", "direct",
                       "--k", 30, "--cutoff", "median", "--threads", "fast",
                       "--out", tmp_path / "r.json")
        assert code == 2


class TestBestForValidationCommand:
    def test_select_bfv(self, synth_dir, tmp_path):
        code = run_cli("select", "--manifest", synth_dir / "data" / "manifest.json",
                       "--method", "best_for_validation", "--k", 6, "--cutoff", "median",
                       "--out", tmp_path / "bfv.json")
        assert code == 0
        obj = json.loads((tmp_path / "bfv.json").read_text())
        assert obj["method"] == "best_for_validation"
        assert len(obj["indices"]) == 6


    @pytest.mark.parametrize("ratio", ["2", "-1", "nan"])
    @pytest.mark.parametrize("argv", [
        ("evaluate", "--selection", "best_for_validation", "--predictor", "direct"),
    ], ids=["evaluate"])
    def test_split_ratio_outside_unit_interval_exits_2(self, synth_dir, tmp_path,
                                                       argv, ratio):
        proc = run_cli_process(*argv, "--manifest", synth_dir / "data" / "manifest.json",
                               "--k", 6, "--cutoff", "median", "--split-ratio", ratio,
                               "--out", tmp_path / "out.json")
        assert proc.returncode == 2, proc.stderr
        assert "InvalidConfig" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag, value", [("--criterion", "jsd_bits"),
                                         ("--candidates", 15), ("--split-ratio", 0.5)])
def test_select_takes_no_selector_tuning_flags(synth_dir, tmp_path, flag, value):
    # a selector is named by its method alone, as in evaluate and sweep
    code = run_cli("select", "--manifest", synth_dir / "data" / "manifest.json",
                   "--method", "best_for_validation", "--k", 6, "--cutoff", "median",
                   flag, value, "--out", tmp_path / "s.json")
    assert code == 64
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("command, flag", [
    ("validate", "--threads"), ("score", "--threads"), ("select", "--threads"),
    ("predict", "--threads"), ("synth", "--threads"), ("validate", "--seed"),
    ("score", "--seed"), ("predict", "--seed"), ("sweep", "--seed")])
def test_flags_a_command_does_not_read_are_usage_errors(artifacts, tmp_path, capsys,
                                                        command, flag):
    # --threads reaches only fit, evaluate and sweep; validate, score, predict
    # and sweep draw no random number, so they take no --seed
    work, manifest = artifacts
    out = tmp_path / "out"
    argv = {**_reading_commands(manifest, work, out),
            "select": ("select", "--manifest", manifest, "--method", "random",
                       "--k", 5, "--out", out),
            "synth": ("synth", "--out", out, "--models-count", 4, "--samples", 10),
            }[command]
    assert run_cli(*argv, flag, 1 if flag == "--seed" else 2) == 64
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, prefix, value", [
    ("score", "--model", "synth-0000,synth-0001"), ("select", "--meth", "random"),
    ("fit", "--subs", "{work}/subset.json"), ("predict", "--subs", "{work}/subset.json"),
    ("evaluate", "--select", "topk_pds"), ("synth", "--samp", "10"),
    ("validate", "--work", ".")])
def test_option_prefixes_are_usage_errors(artifacts, tmp_path, capsys, command, prefix,
                                          value):
    # no command takes a prefix for the option it abbreviates, so a misspelt
    # or removed flag cannot set another one
    work, manifest = artifacts
    out = tmp_path / "out"
    argv = {**_reading_commands(manifest, work, out),
            "select": ("select", "--manifest", manifest, "--method", "random",
                       "--k", 5, "--out", out),
            "synth": ("synth", "--out", out, "--models-count", 4, "--samples", 10),
            }[command]
    assert run_cli(*argv, prefix, value.format(work=work)) == 64
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {prefix}" in err
    assert err.startswith(f"usage: disco {command} ")  # the subcommand's own usage
    assert not out.exists()


def test_huge_num_classes_allocates_nothing_before_the_dims_pass(tmp_path):
    assert run_cli("synth", "--out", tmp_path / "data", "--models-count", 4,
                   "--samples", 3, "--classes", 2) == 0
    path = tmp_path / "data" / "manifest.json"
    obj = json.loads(path.read_text())
    obj["num_classes"] = 2 ** 40
    path.write_text(json.dumps(obj))
    first = obj["models"][0]["tensor_path"]

    proc = run_cli_process("validate", path)
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"ShapeMismatch: .*{re.escape(first)}: expected dims", proc.stderr)
    assert "Traceback" not in proc.stderr
    proc = run_cli_process("score", "--manifest", path, "--out", tmp_path / "scores.csv")
    assert proc.returncode == 2, proc.stderr
    assert re.search(rf"ShapeMismatch: .*{re.escape(first)}: expected dims", proc.stderr)
    assert "Traceback" not in proc.stderr
    proc = run_cli_process("select", "--manifest", path, "--method", "random",
                           "--k", 2, "--out", tmp_path / "s.json")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

    big = load_manifest(path)
    tracemalloc.start()
    try:
        TensorFiles(big, []).check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ("evaluate", "--seed", -1, "--selection", "random", "--predictor", "direct",
     "--k", 10),
    ("evaluate", "--split-seed", -1, "--predictor", "direct", "--k", 10),
    ("evaluate", "--split-seed", -1, "--cutoff", "median", "--predictor", "direct",
     "--k", 10),
    ("select", "--method", "kmedoids_conf", "--seed", -3, "--k", 10),
    ("sweep", "--seeds", -1, "--budgets", 10, "--configs", "topk_pds:direct",
     "--cutoff", "median"),
    ("synth", "--seed", -1, "--models-count", 4, "--samples", 10),
], ids=["evaluate-seed", "evaluate-split-seed", "evaluate-split-seed-cutoff",
        "select-seed", "sweep-seeds", "synth-seed"])
def test_negative_seed_exits_2(synth_dir, tmp_path, argv):
    manifest = () if argv[0] == "synth" else ("--manifest",
                                              synth_dir / "data" / "manifest.json")
    proc = run_cli_process(*argv, *manifest, "--out", tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert "InvalidConfig" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frac", ["nan", "0", "-3"])
def test_forest_feature_frac_outside_unit_interval_exits_2(synth_dir, tmp_path, frac):
    proc = run_cli_process("evaluate", "--manifest", synth_dir / "data" / "manifest.json",
                           "--selection", "topk_pds", "--predictor", "random_forest",
                           "--trees", 2, "--feature-frac", frac, "--k", 10,
                           "--cutoff", "median", "--out", tmp_path / "r.json")
    assert proc.returncode == 2, proc.stderr
    assert "InvalidConfig" in proc.stderr and "feature_frac" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def reversed_manifest(tmp_path_factory):
    """A population whose manifest lists its models in reverse id order."""
    root = tmp_path_factory.mktemp("reversed")
    assert run_cli("synth", "--out", root / "data", "--models-count", 24,
                   "--samples", 200, "--classes", 4, "--dim", 2, "--seed", 7) == 0
    path = root / "data" / "manifest.json"
    obj = json.loads(path.read_text())
    obj["models"].reverse()
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


@pytest.mark.parametrize("method", METHODS)
def test_staged_chain_equals_evaluate_on_unsorted_manifest(reversed_manifest, tmp_path,
                                                            method):
    # score -> select -> fit -> predict gives the anchors and the estimates of
    # evaluate bit for bit, whatever order the manifest lists its models in
    m, k = reversed_manifest, 10
    for argv in (
        ("score", "--manifest", m, "--cutoff", "median", "--out", tmp_path / "scores.csv"),
        ("select", "--manifest", m, "--method", method, "--k", k, "--cutoff", "median",
         "--scores", tmp_path / "scores.csv", "--out", tmp_path / "subset.json"),
        ("fit", "--manifest", m, "--subset", tmp_path / "subset.json", "--predictor",
         "linear", "--cutoff", "median", "--out", tmp_path / "model.dpak"),
        ("predict", "--manifest", m, "--model", tmp_path / "model.dpak", "--subset",
         tmp_path / "subset.json", "--cutoff", "median", "--out", tmp_path / "pred.json"),
        ("evaluate", "--manifest", m, "--selection", method, "--predictor", "linear",
         "--k", k, "--cutoff", "median", "--out", tmp_path / "report.json"),
    ):
        assert run_cli(*argv) == 0, argv

    manifest = load_manifest(m)
    split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
    subset, _ = condense_and_train(TensorFiles(manifest, split.source_ids), method,
                                   PredictorConfig(kind="linear"), k, 0)
    staged = json.loads((tmp_path / "subset.json").read_text())
    assert staged["indices"] == subset.indices.tolist()

    predictions = json.loads((tmp_path / "pred.json").read_text())["predictions"]
    pairs = json.loads((tmp_path / "report.json").read_text())["pairs"]
    assert predictions == {mid: est for mid, _, est in pairs}


@pytest.mark.parametrize("method, predictor", [("topk_pds", "direct"),
                                               ("kmedoids_conf", "direct"),
                                               ("kmedoids_conf", "weighted_sum")])
def test_staged_readout_chain_equals_evaluate(reversed_manifest, tmp_path, method,
                                              predictor):
    # fit and predict take the accuracy readouts as evaluate does.  At K=10
    # kmedoids_conf gives every target the same estimate on this population,
    # so evaluate's rank correlation is undefined; K=30 keeps it defined.
    m, k = reversed_manifest, 30
    for argv in (
        ("score", "--manifest", m, "--cutoff", "median", "--out", tmp_path / "scores.csv"),
        ("select", "--manifest", m, "--method", method, "--k", k, "--cutoff", "median",
         "--scores", tmp_path / "scores.csv", "--out", tmp_path / "subset.json"),
        ("fit", "--manifest", m, "--subset", tmp_path / "subset.json", "--predictor",
         predictor, "--cutoff", "median", "--out", tmp_path / "model.dpak"),
        ("predict", "--manifest", m, "--model", tmp_path / "model.dpak", "--subset",
         tmp_path / "subset.json", "--cutoff", "median", "--out", tmp_path / "pred.json"),
        ("evaluate", "--manifest", m, "--selection", method, "--predictor", predictor,
         "--k", k, "--cutoff", "median", "--out", tmp_path / "report.json"),
    ):
        assert run_cli(*argv) == 0, argv

    predictions = json.loads((tmp_path / "pred.json").read_text())["predictions"]
    pairs = json.loads((tmp_path / "report.json").read_text())["pairs"]
    assert predictions == {mid: est for mid, _, est in pairs}


def test_sweep_survives_an_undefined_pipeline(reversed_manifest, tmp_path):
    # At K=10 kmedoids_conf gives every target of this population the same
    # weighted_sum estimate: a lone evaluate ends with ZeroVariance, while a
    # sweep writes nan for the undefined correlation and goes on.
    m = reversed_manifest
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--manifest", m, "--configs",
                   "random:direct,kmedoids_conf:weighted_sum", "--budgets", 10,
                   "--seeds", "0,1", "--cutoff", "median", "--out", out) == 0
    header, *rows = out.read_text().splitlines()
    assert header == SWEEP_HEADER
    fields = [row.split(",") for row in rows]
    assert [(f[1], f[2], f[4]) for f in fields] == [
        ("random", "direct", "0"), ("random", "direct", "1"),
        ("kmedoids_conf", "weighted_sum", "0"), ("kmedoids_conf", "weighted_sum", "1")]
    assert fields[2][6] == "nan"
    for i, f in enumerate(fields):
        report = tmp_path / f"report-{i}.json"
        code = run_cli("evaluate", "--manifest", m, "--selection", f[1], "--predictor",
                       f[2], "--k", 10, "--seed", f[4], "--cutoff", "median",
                       "--out", report)
        if "nan" in f:
            assert code == 2 and not report.exists()
            continue
        assert code == 0
        obj = json.loads(report.read_text())
        assert f[5:] == [f"{obj[key]:.9g}" for key in ("mae_pp", "spearman", "pearson")]


def test_constant_estimates_read_nan_for_both_correlations(reversed_manifest, tmp_path):
    # every target gets the same estimate here (see above): Pearson is as
    # undefined as Spearman
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--manifest", reversed_manifest, "--configs",
                   "kmedoids_conf:weighted_sum", "--budgets", 10, "--seeds", 0,
                   "--cutoff", "median", "--out", out) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[6:] == ["nan", "nan"]


def test_undefined_correlation_is_none_in_the_report(reversed_manifest):
    manifest = load_manifest(reversed_manifest)
    split = split_models(manifest, ChronologicalSplit(median_date_cutoff(manifest)))
    report = run_pipeline(TensorFiles(manifest, manifest.model_ids()), split,
                          "kmedoids_conf", PredictorConfig(kind="weighted_sum"),
                          k=10, seed=0)
    assert report.spearman is None
    assert len({est for _, _, est in report.pairs}) == 1


def test_default_runs_emit_no_warning(tmp_path):
    # onehot signatures of 15 sources at 12 anchors have rank 7, below the
    # default width 14: the default is an upper bound, not a request
    assert run_cli("synth", "--out", tmp_path, "--models-count", 30, "--samples", 300,
                   "--classes", 5, "--seed", 11) == 0
    manifest = tmp_path / "manifest.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("evaluate", "--manifest", manifest, "--selection", "topk_pds",
                       "--predictor", "knn", "--mode", "onehot", "--k", 12,
                       "--cutoff", "median", "--out", tmp_path / "report.json") == 0
        assert run_cli("score", "--manifest", manifest, "--cutoff", "median",
                       "--out", tmp_path / "scores.csv") == 0
        assert run_cli("select", "--manifest", manifest, "--method", "topk_pds",
                       "--k", 12, "--scores", tmp_path / "scores.csv", "--cutoff",
                       "median", "--out", tmp_path / "subset.json") == 0
        assert run_cli("fit", "--manifest", manifest, "--subset", tmp_path / "subset.json",
                       "--predictor", "random_forest", "--mode", "onehot", "--trees", 5,
                       "--cutoff", "median", "--out", tmp_path / "model.dpak") == 0
    assert [str(w.message) for w in caught] == []


def evaluate_peak(root, n, c, m=10, k=20):
    """tracemalloc peak of ``disco evaluate`` (topk_pds, knn, K=k) on m
    models of n samples and c classes, written one at a time."""
    rng = np.random.default_rng(n)
    models = []
    (root / "tensors").mkdir(parents=True)
    for i in range(m):
        raw = rng.random((n, c)) ** 2
        dten.write_dten(root / "tensors" / f"m{i}.dten",
                        (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32))
        models.append({"model_id": f"m{i}", "release_date": f"2024-01-{i + 1:02d}",
                       "true_accuracy": float(rng.random()),
                       "tensor_path": f"tensors/m{i}.dten"})
    manifest = {"benchmark_name": "wide", "num_samples": n, "num_classes": c,
                "labels": rng.integers(0, c, n).tolist(), "task_tags": [""] * n,
                "models": models, "format_version": 1}
    (root / "manifest.json").write_text(json.dumps(manifest))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_cli("evaluate", "--manifest", root / "manifest.json", "--selection",
                       "topk_pds", "--predictor", "knn", "--k-neighbors", 2, "--k", k,
                       "--cutoff", "median", "--out", root / "report.json") == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_evaluate_peak_does_not_grow_with_the_tensors(tmp_path):
    # 20 times the samples x classes: the stack of 10 tensors grows from
    # 1.6 MB to 32 MB, evaluate's peak by far less
    m = 10
    small = evaluate_peak(tmp_path / "small", 2000, 20, m)
    large = evaluate_peak(tmp_path / "large", 8000, 100, m)
    stack = m * 8000 * 100 * 4
    assert large - small < (stack - m * 2000 * 20 * 4) / 8
    assert large < stack / 4


def test_traced_cli_wraps_only_existing_functions():
    # the traced benchmark replaces these functions by name; a renamed or
    # deleted one would only show up in a traced benchmark run
    import importlib
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [(mod, name) for mod, name in traced.WRAPPED
               if not callable(getattr(importlib.import_module(f"disco.{mod}"), name,
                                       None))]
    assert missing == []


def test_traced_cli_runs_every_traced_command_shape(synth_dir, tmp_path):
    # each command shape the traced benchmark runs, under the wrapper: a
    # changed signature of a wrapped function fails here, not only in a
    # traced benchmark run
    from pathlib import Path
    traced = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(disco.__file__)))
    m = synth_dir / "data" / "manifest.json"
    shapes = [
        ((), ("score", "--manifest", m, "--cutoff", "median", "--out", "scores.csv"),
         ("stack_bytes",)),
        ((), ("select", "--manifest", m, "--method", "kmedoids_conf", "--k", 10,
              "--cutoff", "median", "--out", "subset.json"), ("kmedoids_passes",)),
        ((), ("fit", "--manifest", m, "--subset", "subset.json", "--predictor", "knn",
              "--cutoff", "median", "--out", "model.dpak"), ()),
        ((), ("predict", "--manifest", m, "--model", "model.dpak", "--subset",
              "subset.json", "--cutoff", "median", "--out", "pred.json"), ()),
        (("--forest-speedup", 2),
         ("evaluate", "--manifest", m, "--predictor", "random_forest", "--trees", 5,
          "--k", 10, "--cutoff", "median", "--out", "report.json"),
         ("forest_nodes", "stack_bytes")),
        ((), ("sweep", "--manifest", m, "--budgets", "10,20", "--seeds", "0,1",
              "--cutoff", "median", "--configs",
              "kmedoids_conf:knn,best_for_validation:direct,kmedoids_corr:weighted_sum,"
              "topk_pds:linear", "--out", "sweep.csv"),
         ("kmedoids_passes", "bfv_candidates", "stack_bytes")),
    ]
    for i, (speedup, argv, counted) in enumerate(shapes):
        out = tmp_path / f"spans-{i}.json"
        proc = subprocess.run(
            [sys.executable, *map(str, [traced, out, time.time_ns(), i, *speedup, "--",
                                        *argv, "--workdir", tmp_path])],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.stderr)
        trace = json.loads(out.read_text())
        assert trace["exit_code"] == 0
        assert f"cli.{argv[0]}" in {span[2] for span in trace["spans"]}
        assert [c for c in counted if not trace["counters"][c]] == [], argv[0]
        if speedup:
            assert set(trace["forest_train_s"]) == {"1", "2"}
