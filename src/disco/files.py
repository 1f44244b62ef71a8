"""Where pipelines read the models' outputs from, without a whole tensor.

Every stage reads the models through ``TensorFiles``, over a manifest's
tensor files.  It has three reads: blocks of samples of every model
(``read_rows``, for scoring), each model's per-sample summaries, and its
rows at the anchors (``anchor_rows``).  One checked pass over each file
whole, which can keep the summaries, comes first; then only the rows asked
for are read.  Every row returned is checked and renormalized by
``store``'s ingest kernel, as loading the tensor would.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from . import dten, store
from .errors import IndexOutOfRange, InvalidConfig, ShapeMismatch
from .store import BenchmarkManifest, SampleSummary


def _anchor_index(idx, n: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexOutOfRange(f"anchor index out of range for tensor with {n} rows")
    return idx


# Rows between two anchors are read through, not seeked over, while they
# span at most this many bytes: a read call costs about as much as copying
# that many bytes.
_GAP_BYTES = 1 << 14
# Rows read are checked and renormalized this many bytes at a time.  The
# kernel's float64 copies then stay small and are reused: one call over 5000
# rows of 100 classes took 10.5 ms, 128 KiB chunks 4.7 ms, and fit's peak
# RSS stays where loading left it.  512 KiB chunks, as loading uses, were
# 10-20 % faster on 5000-30000 rows, but raised predict's peak RSS on a
# 100 x 5000 x 100 population from 38.5 to 39.3 MB.
_INGEST_BYTES = 1 << 17


class TensorFiles:
    """The tensors of ``model_ids``, read from their files, never loaded
    whole; no file stays open between calls.  Its reads stack the models in
    sorted id order, whatever order they were given in.

    ``check`` reads every file once, in the order given, as loading them in
    that order would, and keeps the per-sample summaries asked of it.  After
    it, ``anchor_rows`` and ``read_rows`` read only the rows they return,
    and check those and each file's header, size and dims again, so a file
    that changed since raises too.  A model named twice raises
    InvalidConfig.
    """

    def __init__(self, manifest: BenchmarkManifest, model_ids: list[str]):
        self.manifest = manifest
        self._ids = dict.fromkeys(model_ids)
        if len(self._ids) != len(model_ids):
            raise InvalidConfig("the tensor files name a model more than once")
        self._order = sorted(self._ids)
        self._summaries: dict[str, SampleSummary] = {}
        self._checked = False

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._ids)

    def check_shape(self, manifest: BenchmarkManifest) -> None:
        """ShapeMismatch unless ``manifest`` has this one's samples and
        classes."""
        got = (self.manifest.num_samples, self.manifest.num_classes)
        expected = (manifest.num_samples, manifest.num_classes)
        if got != expected:
            raise ShapeMismatch(
                f"the tensor files' manifest has shape {got}, expected {expected}")

    def select(self, model_ids: list[str]) -> "TensorFiles":
        """The files of some of these models, sharing what this one has
        checked and summarized."""
        for mid in model_ids:
            if mid not in self._ids:
                raise KeyError(mid)
        view = TensorFiles(self.manifest, model_ids)
        view._summaries = self._summaries
        view._checked = self._checked
        return view

    def check(self, summarize: Collection[str] = ()) -> None:
        """Check every file whole, in the order given, one chunk at a time,
        raising what loading them would; on later calls, only summarize.
        The models in ``summarize`` are also summarized (``summary``) in the
        same pass, from their rows renormalized as loading does."""
        if self._checked:
            for mid in summarize:
                self.summary(mid)
            return
        wanted = set(summarize)
        for mid in wanted:
            if mid not in self._ids:
                raise KeyError(mid)
        c = self.manifest.num_classes
        buf = np.empty(store._chunk_rows(c) * c, dtype=np.float32)
        for mid in self._ids:
            if mid in wanted and mid not in self._summaries:
                self._summarize(mid, buf)
            else:
                store._check_file(self.manifest, mid, buf)
        self._checked = True

    def _summarize(self, model_id: str, buf: np.ndarray) -> SampleSummary:
        n = self.manifest.num_samples
        summary = SampleSummary(np.empty(n, np.uint8), np.empty(n, np.float64))
        store._check_file(self.manifest, model_id, buf, summary)
        summary.bits.flags.writeable = summary.label_probs.flags.writeable = False
        self._summaries[model_id] = summary
        return summary

    def summary(self, model_id: str) -> SampleSummary:
        """The model's per-sample summaries; read-only.  Unless ``check``
        kept them, its file is read whole once more to compute them."""
        if model_id not in self._ids:
            raise KeyError(model_id)
        summary = self._summaries.get(model_id)
        if summary is None:
            c = self.manifest.num_classes
            buf = np.empty(store._chunk_rows(c) * c, dtype=np.float32)
            summary = self._summarize(model_id, buf)
        return summary

    @functools.cached_property
    def _paths(self) -> dict[str, Path]:
        return {mid: store._tensor_path(self.manifest, mid) for mid in self._ids}

    def _open(self, model_id: str):
        """The model's file, open, its header, size and dims checked again."""
        path = self._paths[model_id]
        f, dtype, dims = dten.open_dten(path)
        try:
            store._check_layout(self.manifest, path, dtype, dims)
        except BaseException:
            f.close()
            raise
        return f

    def anchor_rows(self, model_ids: list[str], idx) -> np.ndarray:
        """Rows ``idx`` of each model's tensor, as an (M, K, C) float32
        array in the given orders, checked and renormalized as
        ``load_tensor`` would.  ``idx`` may come in any order and repeat a
        row; each distinct row is read once, as ``_read`` reads it."""
        idx = _anchor_index(idx, self.manifest.num_samples)
        rows, inverse = np.unique(idx, return_inverse=True)
        out = self._read_rows_at(model_ids, rows)
        return out if np.array_equal(rows, idx) else out[:, inverse]

    def _read_rows_at(self, model_ids: list[str], idx: np.ndarray) -> np.ndarray:
        """``anchor_rows`` for strictly increasing ``idx``."""
        out = np.empty((len(model_ids), idx.size, self.manifest.num_classes),
                       dtype=np.float32)
        self._read(model_ids, idx, out)
        return out

    def read_rows(self, lo: int, out: np.ndarray) -> None:
        """Fill ``out``, a C-contiguous (M, b, C) float32 array, with rows
        ``lo:lo + b`` of every tensor, read as ``_read`` reads them."""
        self._read(self._order, np.arange(lo, lo + out.shape[1]), out)

    def _read(self, model_ids: list[str], idx: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out``, a C-contiguous (M, K, C) float32 array, with rows
        ``idx`` (strictly increasing) of each model's tensor, checked and
        renormalized as ``load_tensor`` would.  Each file is opened, its
        header, size and dims checked again, and only those rows read, in
        file order (and the short gaps between them, see ``_GAP_BYTES``).
        A file that changed since ``check`` raises MagicMismatch or
        ShapeMismatch (header, size or short read), or InvariantViolation
        or RowSumOutOfTolerance (bad rows), naming the first model at fault
        in ``model_ids`` and its first row at fault."""
        if not idx.size:
            return
        c = self.manifest.num_classes
        # Spans of rows to read: consecutive rows, and rows whose gap is
        # short, share one.  With gaps, the spans are read one after
        # another into ``spans`` and each row is taken from there.
        cut = np.flatnonzero((np.diff(idx) - 1) * (c * 4) > _GAP_BYTES) + 1
        first, last = np.r_[0, cut], np.r_[cut, idx.size] - 1
        span_row, span_size = idx[first], idx[last] + 1 - idx[first]
        span_at = np.cumsum(span_size) - span_size
        plan = list(zip(span_row.tolist(), span_at.tolist(), span_size.tolist()))
        spans = None
        if span_at[-1] + span_size[-1] > idx.size:
            spans = np.empty((int(span_size.sum()), c), dtype=np.float32)
            take = idx - np.repeat(span_row - span_at, last + 1 - first)
        for j, mid in enumerate(model_ids):
            dest = out[j] if spans is None else spans
            with self._open(mid) as f:
                for row, at, count in plan:
                    dten.read_into(f, dest[at:at + count], dten.PAYLOAD_START + row * c * 4)
            if spans is not None:
                np.take(spans, take, axis=0, out=out[j])
        rows = out.reshape(-1, c)
        faults = store._RowFaults()
        step = max(1, _INGEST_BYTES // (4 * c))
        for lo in range(0, rows.shape[0], step):
            store._ingest_rows(rows[lo:lo + step], lo, faults)
        if faults:  # check each model's runs of consecutive rows on their own
            cut = np.flatnonzero(np.diff(idx) != 1) + 1
            runs = list(zip(np.r_[0, cut].tolist(), np.r_[cut, idx.size].tolist()))
            for j, mid in enumerate(model_ids):
                faults = store._RowFaults()
                for a, b in runs:
                    store._check_rows(out[j, a:b], int(idx[a]), faults)
                faults.raise_for(mid)
