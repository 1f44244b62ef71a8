"""Where pipelines read the models' outputs from, without a whole tensor.

Every stage reads the models through ``TensorFiles``, over a manifest's
tensor files.  It has one whole-file read: a checked pass over every file,
a stripe of samples at a time, that scoring folds (``stripes``), that
``check`` drains, and that can keep each model's per-sample summaries.  So
a command reads each file whole once.  After that pass, ``anchor_rows``
reads only the rows at the anchors.  Every row returned is checked and
renormalized by ``store``'s ingest kernel, one ``store._CHUNK_BYTES`` chunk
at a time.  ``store.load_tensor`` is itself a read of every row through
``anchor_rows``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from . import dten, store
from .errors import DiscoError, IndexOutOfRange, InvalidConfig
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

    ``stripes`` is its one whole-file pass, which ``check`` drains; a file
    that has passed it is not checked again, by this object or by any
    ``select`` view of it.  After that, ``anchor_rows`` reads only the rows
    it returns, and checks those and each file's header, size and dims
    again, so a file that changed since raises too.  A model named twice
    raises InvalidConfig.
    """

    def __init__(self, manifest: BenchmarkManifest, model_ids: list[str]):
        self.manifest = manifest
        self._ids = dict.fromkeys(model_ids)
        if len(self._ids) != len(model_ids):
            raise InvalidConfig("the tensor files name a model more than once")
        self._order = sorted(self._ids)
        self._paths: dict[str, Path] = {}
        self._summaries: dict[str, SampleSummary] = {}
        self._checked: set[str] = set()  # the files that passed a whole-file pass
        # The files ``stripes`` checks, in the order given, and the models
        # whose summaries it keeps; see ``_view``.
        self._pass_ids = list(self._ids)
        self._keep: Collection[str] = ()

    def __iter__(self) -> Iterator[str]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._ids)

    def select(self, model_ids: list[str]) -> "TensorFiles":
        """The files of some of these models, sharing what this one has
        checked and summarized."""
        for mid in model_ids:
            if mid not in self._ids:
                raise KeyError(mid)
        view = TensorFiles(self.manifest, model_ids)
        view._paths, view._summaries, view._checked = self._paths, self._summaries, self._checked
        return view

    def _view(self, model_ids: list[str], summarize: Collection[str]) -> "TensorFiles":
        """``select(model_ids)``, whose ``stripes`` pass also checks every
        file that this one's checks, in the same order, and keeps the
        summaries of the models in ``summarize``: one pass to score some
        models, summarize some and check all."""
        for mid in summarize:
            if mid not in self._ids:
                raise KeyError(mid)
        view = self.select(model_ids)
        view._pass_ids, view._keep = self._pass_ids, summarize
        return view

    def check(self, summarize: Collection[str] = ()) -> None:
        """Check every file whole, in the order given, one ingest chunk at
        a time, raising what loading them would; files already checked are
        not read again.  The models in ``summarize`` are also summarized
        (``summary``) in the same pass, from their rows renormalized as
        loading does."""
        for _ in self._view([], summarize).stripes(store._chunk_rows(self.manifest.num_classes)):
            pass

    def summary(self, model_id: str) -> SampleSummary:
        """The model's per-sample summaries; read-only.  Unless a pass kept
        them, ``check`` reads its file whole once more to keep them."""
        if model_id not in self._ids:
            raise KeyError(model_id)
        if model_id not in self._summaries:
            self.select([model_id]).check([model_id])
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
        kernel, as a whole-file read would.
        ``idx`` may come in any order and repeat a row; each distinct row is
        read once, as ``_read`` reads it."""
        idx = _anchor_index(idx, self.manifest.num_samples)
        rows, inverse = np.unique(idx, return_inverse=True)
        out = np.empty((len(model_ids), rows.size, self.manifest.num_classes),
                       dtype=np.float32)
        self._read(model_ids, rows, out)
        return out if np.array_equal(rows, idx) else out[:, inverse]

    def stripes(self, rows: int) -> Iterator[tuple[int, int, np.ndarray]]:
        """The one whole-file read: a checked pass, ``rows`` samples at a
        time, over every file not yet checked and those of this one's
        models, and of the models whose summaries it is to keep.

        A model that is only checked is read first, in sorted id order,
        each file in one open, and its rows are checked as they are stored.
        Then, for each stripe of samples ``lo:lo + b``, in order, each other
        file is opened once, in sorted id order, and its rows there are read,
        checked and renormalized by the ingest kernel.  Yields ``(lo, j, p)``
        for the j-th of this one's models in sorted order: ``p`` holds its
        rows as loaded, as float64, each divided by its float64 sum, in a
        scratch array that the next step overwrites.  Once any model is at
        fault nothing more is yielded, but every file is still read through,
        and the pass then raises what loading the files in the order given
        would: the fault of the first model at fault in that order.  A clean
        pass marks its files checked and keeps the summaries."""
        n, c = self.manifest.num_samples, self.manifest.num_classes
        keep = {mid: SampleSummary(np.empty(n, np.uint8), np.empty(n))
                for mid in self._keep if mid not in self._summaries}
        scored = {mid: j for j, mid in enumerate(self._order)}
        read = [mid for mid in self._pass_ids
                if mid not in self._checked or mid in scored or mid in keep]
        ingested = sorted(mid for mid in read if mid in scored or mid in keep)
        rows = max(1, min(rows, n))
        scratch: list[np.ndarray] = []  # allocated once a file's dims have passed
        faults = {mid: store._RowFaults() for mid in read}
        broken: dict[str, Exception] = {}  # header, size, dims or I/O faults

        def read_stripes(mid: str, starts) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
            """Open the model's file once and read its rows ``lo:lo + b`` for
            each ``lo`` in ``starts``: yields ``lo``, those rows as float32
            and a float64 scratch of their shape.  A fault of the file is
            kept in ``broken``."""
            try:
                with self._open(mid) as f:
                    if not scratch:
                        scratch[:] = np.empty((rows, c), dtype=np.float32), np.empty((rows, c))
                    narrow, wide = scratch
                    for lo in starts:
                        b = min(rows, n - lo)
                        dten.read_into(f, narrow[:b], dten.PAYLOAD_START + lo * c * 4)
                        yield lo, narrow[:b], wide[:b]
            except (DiscoError, OSError) as e:
                broken[mid] = e

        for mid in sorted(set(read).difference(ingested)):
            for lo, chunk, w in read_stripes(mid, range(0, n, rows)):
                store._check_rows(chunk, lo, faults[mid], w)
        clean = not broken and not any(faults.values())
        for lo in range(0, n, rows):
            for mid in ingested:
                if mid in broken:
                    continue
                got = None  # stays None if the file is broken
                for _, chunk, w in read_stripes(mid, (lo,)):
                    got = store._ingest_rows(chunk, lo, faults[mid], w)
                if got is None:
                    clean = False
                    continue
                if mid in keep:
                    b = chunk.shape[0]
                    labels = self.manifest.labels[lo:lo + b]
                    keep[mid].bits[lo:lo + b] = store._correct(chunk, labels)
                    keep[mid].label_probs[lo:lo + b] = chunk[np.arange(b), labels]
                if not clean or mid not in scored:
                    continue
                p, moved = got
                if moved.size:  # divide the rows renormalization changed as they are now
                    x = chunk[moved].astype(np.float64)
                    p[moved] = x / x.sum(axis=1)[:, None]
                yield lo, scored[mid], p
        for mid in read:  # in the order given
            if mid in broken:
                raise broken[mid]
            faults[mid].raise_for(mid)
        for summary in keep.values():
            summary.bits.flags.writeable = summary.label_probs.flags.writeable = False
        self._summaries.update(keep)
        self._checked.update(read)

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
