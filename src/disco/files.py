"""Where pipelines read the models' outputs from, without a whole tensor.

Every stage reads the models through ``TensorFiles``, over a manifest's
tensor files.  It has three reads.  ``stripes`` is one checked pass over
every file that hands scoring each stripe of samples of each model once, so
scoring reads each file once.  ``check`` is a checked pass over each file
whole that can keep each model's per-sample summaries.  After a checked
pass, ``anchor_rows`` reads only the rows at the anchors.  Every row
returned is checked and renormalized by ``store``'s ingest kernel, one
``store._CHUNK_BYTES`` chunk at a time.  ``store.load_tensor`` is itself a
read of every row through ``anchor_rows``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from . import dten, store
from .errors import DiscoError, IndexOutOfRange, InvalidConfig, ShapeMismatch
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


class TensorFiles:
    """The tensors of ``model_ids``, read from their files, never loaded
    whole; no file stays open between calls.  Its reads stack the models in
    sorted id order, whatever order they were given in.

    ``check`` reads every file once, in the order given, as loading them in
    that order would, and keeps the per-sample summaries asked of it;
    ``stripes`` reads every file once too and raises what ``check`` would.
    After either, ``anchor_rows`` reads only the rows it returns, and checks
    those and each file's header, size and dims again, so a file that
    changed since raises too.  A model named twice raises InvalidConfig.
    """

    def __init__(self, manifest: BenchmarkManifest, model_ids: list[str]):
        self.manifest = manifest
        self._ids = dict.fromkeys(model_ids)
        if len(self._ids) != len(model_ids):
            raise InvalidConfig("the tensor files name a model more than once")
        self._order = sorted(self._ids)
        self._paths: dict[str, Path] = {}
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
        buf = None
        for mid in self._ids:
            buf = self._check_file(mid, buf, mid in wanted and mid not in self._summaries)
        self._checked = True

    def _check_file(self, model_id: str, buf: np.ndarray | None,
                    summarize: bool) -> np.ndarray:
        """Check the model's file whole, raising what ``load_tensor`` would,
        one ingest chunk at a time through ``buf``, a float32 scratch array
        of at least one chunk.  ``buf`` None allocates one, only once the
        file's header, size and dims have passed, so its size is bounded by
        the file's.  If ``summarize``, each chunk is also renormalized as
        loading does and the model's summaries kept.  Returns the scratch
        array, for the next file."""
        n, c = self.manifest.num_samples, self.manifest.num_classes
        step = store._chunk_rows(c)
        faults = store._RowFaults()
        with self._open(model_id) as f:
            if buf is None:
                buf = np.empty(step * c, dtype=np.float32)
            if summarize:
                summary = SampleSummary(np.empty(n, np.uint8), np.empty(n, np.float64))
            for lo in range(0, n, step):
                rows = buf[:min(step, n - lo) * c].reshape(-1, c)
                dten.read_into(f, rows, dten.PAYLOAD_START + lo * c * 4)
                if not summarize:
                    store._check_rows(rows, lo, faults)
                elif store._ingest_rows(rows, lo, faults) is not None:
                    hi = lo + rows.shape[0]
                    labels = self.manifest.labels[lo:hi]
                    summary.bits[lo:hi] = store._correct(rows, labels)
                    summary.label_probs[lo:hi] = rows[np.arange(rows.shape[0]), labels]
        faults.raise_for(model_id)
        if summarize:
            summary.bits.flags.writeable = summary.label_probs.flags.writeable = False
            self._summaries[model_id] = summary
        return buf

    def summary(self, model_id: str) -> SampleSummary:
        """The model's per-sample summaries; read-only.  Unless ``check``
        kept them, its file is read whole once more to compute them."""
        if model_id not in self._ids:
            raise KeyError(model_id)
        if model_id not in self._summaries:
            self._check_file(model_id, None, summarize=True)
        return self._summaries[model_id]

    def _open(self, model_id: str):
        """The model's file, open, its header, size and dims checked again."""
        path = self._paths.get(model_id)
        if path is None:
            path = self._paths[model_id] = store._tensor_path(self.manifest, model_id)
        f, dtype, dims = dten.open_dten(path)
        try:
            store._check_layout(self.manifest, path, dtype, dims)
        except BaseException:
            f.close()
            raise
        return f

    def anchor_rows(self, model_ids: list[str], idx) -> np.ndarray:
        """Rows ``idx`` of each model's tensor, as an (M, K, C) float32
        array in the given orders, checked and renormalized by the ingest
        kernel, as ``PredictionTensor.from_values`` would the whole file.
        ``idx`` may come in any order and repeat a row; each distinct row is
        read once, as ``_read`` reads it."""
        idx = _anchor_index(idx, self.manifest.num_samples)
        rows, inverse = np.unique(idx, return_inverse=True)
        out = np.empty((len(model_ids), rows.size, self.manifest.num_classes),
                       dtype=np.float32)
        self._read(model_ids, rows, out)
        return out if np.array_equal(rows, idx) else out[:, inverse]

    def stripes(self, rows: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """One checked pass over every file, ``rows`` samples at a time.

        For each stripe of samples ``lo:lo + b``, in order, each file is
        opened once, in sorted id order, and its rows there are read,
        checked and renormalized by the ingest kernel.  Yields ``(lo, j,
        p)`` for the j-th model in sorted order: ``p`` holds its rows as
        loaded, as float64, each divided by its float64 sum, in a scratch
        array that the next step overwrites.  Once any model is at fault
        nothing more is yielded, but every file is still read through, and
        the pass then raises what ``check`` would: the fault of the first
        model at fault in the order given.  A clean pass marks the files
        checked."""
        n, c = self.manifest.num_samples, self.manifest.num_classes
        rows = max(1, min(rows, n))
        narrow = np.empty((rows, c), dtype=np.float32)
        wide = np.empty((rows, c))
        faults = {mid: store._RowFaults() for mid in self._ids}
        broken: dict[str, Exception] = {}  # header, size, dims or I/O faults
        clean = True
        for lo in range(0, n, rows):
            b = min(rows, n - lo)
            for j, mid in enumerate(self._order):
                if mid in broken:
                    continue
                try:
                    with self._open(mid) as f:
                        dten.read_into(f, narrow[:b], dten.PAYLOAD_START + lo * c * 4)
                except (DiscoError, OSError) as e:
                    broken[mid] = e
                    clean = False
                    continue
                got = store._ingest_rows(narrow[:b], lo, faults[mid], wide[:b])
                clean = clean and got is not None
                if not clean:
                    continue
                p, moved = got
                if moved.size:  # divide the rows renormalization changed as they are now
                    x = narrow[moved].astype(np.float64)
                    p[moved] = x / x.sum(axis=1)[:, None]
                yield lo, j, p
        for mid in self._ids:
            if mid in broken:
                raise broken[mid]
            faults[mid].raise_for(mid)
        self._checked = True

    def _read(self, model_ids: list[str], idx: np.ndarray, out: np.ndarray) -> None:
        """Fill ``out``, a C-contiguous (M, K, C) float32 array, with rows
        ``idx`` (strictly increasing) of each model's tensor, checked and
        renormalized by the ingest kernel.  Each file is opened, its
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
        step = store._chunk_rows(c)
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
