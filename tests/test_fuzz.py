"""Hostile inputs: one manifest, tensor, score table, subset or predictor
bundle file is truncated, bit-flipped or spliced, and the CLI command that
reads it must end with a documented exit code (0 ok, 1 schema, 2 invariant,
3 I/O), without a traceback and within a time bound."""

from __future__ import annotations

import contextlib
import io
import shutil
import signal
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from disco.cli import main
from disco.harness import ChronologicalSplit, median_date_cutoff, split_models
from disco.selection import SCORE_METHODS, SUMMARY_METHODS
from disco.store import load_manifest

CASE_SECONDS = 10.0
K = 8


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    """A small population with the artifacts of one staged chain, and the
    ids of its source and target models."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = root / "manifest.json"
    for argv in (
        ("synth", "--out", root, "--models-count", 10, "--samples", 60, "--classes", 3,
         "--dim", 2, "--seed", 2),
        ("score", "--manifest", manifest, "--cutoff", "median", "--out", "scores.csv"),
        ("select", "--manifest", manifest, "--method", "topk_pds", "--k", K,
         "--scores", "scores.csv", "--out", "subset.json"),
        ("fit", "--manifest", manifest, "--subset", "subset.json", "--predictor", "knn",
         "--cutoff", "median", "--out", "knn.dpak"),
        ("fit", "--manifest", manifest, "--subset", "subset.json", "--predictor",
         "random_forest", "--trees", 3, "--cutoff", "median", "--out", "forest.dpak"),
    ):
        assert main([str(a) for a in (*argv, "--workdir", root)]) == 0, argv
    loaded = load_manifest(manifest)
    split = split_models(loaded, ChronologicalSplit(median_date_cutoff(loaded)))
    return root, split.source_ids, split.target_ids


def commands(kind: str, command: str, bundle: str, method: str) -> list[str]:
    """argv of ``command``, reading a file of ``kind`` among its inputs."""
    argv = {
        "evaluate": ["evaluate", "--selection", "topk_pds", "--predictor", "knn",
                     "--k", K, "--cutoff", "median"],
        "score": ["score", "--cutoff", "median"],
        "select": ["select", "--method", method, "--k", K, "--cutoff", "median"]
        + (["--scores", "scores.csv"] if method in SCORE_METHODS else []),
        "fit": ["fit", "--subset", "subset.json", "--predictor", "knn",
                "--cutoff", "median"],
        "predict": ["predict", "--model", bundle, "--subset", "subset.json",
                    "--cutoff", "median"],
        "sweep": ["sweep", "--configs", "topk_pds:knn,kmedoids_conf:knn",
                  "--budgets", "5,10", "--seeds", 0, "--cutoff", "median"],
    }[command]
    return [str(a) for a in argv] + ["--manifest", "manifest.json", "--out", "out"]


# (kind of file mutated, command that reads it)
TARGETS = [("tensor", "evaluate"), ("tensor", "select"), ("tensor", "fit"),
           ("tensor", "predict"), ("subset", "fit"), ("subset", "predict"),
           ("bundle", "predict"), ("manifest", "score"), ("manifest", "select"),
           ("manifest", "evaluate"), ("manifest", "sweep"), ("tensor", "sweep"),
           ("scores", "select")]
FILES = {"manifest": "manifest.json", "scores": "scores.csv", "subset": "subset.json"}


@st.composite
def mutations(draw, size: int):
    """A function from a file's bytes to mutated bytes."""
    how = draw(st.sampled_from(["truncate", "flip", "splice"]))
    at = draw(st.integers(0, size - 1))
    if how == "truncate":
        return lambda blob: blob[:at]
    if how == "flip":
        bit = draw(st.integers(0, 7))
        return lambda blob: blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
    start = draw(st.integers(0, size - 1))
    length = draw(st.integers(1, 64))
    return lambda blob: blob[:at] + blob[start:start + length] + blob[at + length:]


class CaseTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise CaseTimeout in the main thread once ``seconds`` have passed, so
    that a hang ends the case; a no-op where SIGALRM does not exist."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(*_):
        raise CaseTimeout(f"no exit within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and stderr of ``disco`` run in-process, as from a shell: a
    warning is printed, not raised; an exception that escapes ``main``
    leaves its traceback on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            with time_limit(CASE_SECONDS), warnings.catch_warnings():
                warnings.simplefilter("default")
                code = main(argv + ["--workdir", str(workdir)])
        except SystemExit as e:
            code = e.code
        except BaseException:
            traceback.print_exc(file=sys.stderr)
            code = 1
    return code, err.getvalue()


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_input_ends_with_a_documented_exit(population, data):
    root, sources, targets = population
    kind, command = data.draw(st.sampled_from(TARGETS), label="target")
    bundle = data.draw(st.sampled_from(["knn.dpak", "forest.dpak"]), label="bundle")
    # select reads the score table with a score-ranking method, else the tensors
    method = ("topk_pds" if kind == "scores"
              else data.draw(st.sampled_from(SUMMARY_METHODS), label="method"))
    if kind == "tensor":
        readers = {"evaluate": sources + targets, "sweep": sources + targets,
                   "predict": targets}.get(command, sources)
        model_id = data.draw(st.sampled_from(readers), label="model")
        name = str(Path("tensors") / f"{model_id}.dten")
    else:
        name = FILES.get(kind, bundle)
    blob = (root / name).read_bytes()
    mutate = data.draw(mutations(len(blob)), label="mutation")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "data"
        shutil.copytree(root, work)
        (work / name).write_bytes(mutate(blob))
        t0 = time.perf_counter()
        code, err = run(commands(kind, command, bundle, method), work)
        elapsed = time.perf_counter() - t0
    event(f"{kind} read by {command}: exit {code}")
    assert "Traceback" not in err, err
    assert code in (0, 1, 2, 3), err
    assert elapsed < CASE_SECONDS
