"""Annotated candidate pool: loading, seeded sampling, consumption tracking, scaling.

The pool is one table: row i holds candidate i's parameter vector and its
stored objectives. It plays two roles at once: it is the reservoir of
not-yet-annotated design candidates that draws are bootstrapped from, and
(because every row carries its objectives) it backs the simulated annotator.
Draws and acquisitions are arrays of row indices. Candidates that enter the
training set are marked *consumed* and never drawn again.
"""

from __future__ import annotations

import collections
import csv
import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlreadyConsumed,
    DegenerateInput,
    MissingFile,
    NonFiniteValue,
    PoolExhausted,
    SchemaMismatch,
    UnknownId,
)
from .native import csv_formatter, csv_reader, native_kernel, repr_rows

TARGET_STD_FLOOR = 1e-12
SAVE_CHUNK_ROWS = 4096
LOAD_BLOCK_BYTES = 1 << 20


@dataclass
class FeatureNormalizer:
    """Per-dimension min-max map to [0, 1], fixed to the pool's bounds.

    Dimensions with zero width map to 0.5.
    """

    lo: np.ndarray
    hi: np.ndarray

    def transform(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        scaled = (x - self.lo) / safe
        return np.where(span > 0, scaled, 0.5)


@dataclass
class TargetNormalizer:
    """Per-objective z-score with a floored population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    def transform(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.mean) / self.std

    def inverse(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) * self.std + self.mean


@dataclass
class CandidatePool:
    """The candidate table plus consumption bookkeeping; row index is candidate id.

    ``params`` is (n, d) and ``objectives`` (n, num_obj); ``objectives`` is
    only ever read by the annotator, never by the surrogate or the selection
    path. ``feature_bounds`` has shape (d, 2): column 0 holds per-dimension
    minima, column 1 maxima, both over the whole pool. ``consumed`` is a
    boolean mask over the rows. The three arrays are read-only and shared
    between copies; each copy has its own mask.
    """

    params: np.ndarray
    objectives: np.ndarray
    feature_bounds: np.ndarray
    consumed: np.ndarray

    def __len__(self) -> int:
        return self.params.shape[0]

    @property
    def d(self) -> int:
        return self.params.shape[1]

    @property
    def num_obj(self) -> int:
        return self.objectives.shape[1]

    @property
    def available(self) -> int:
        return len(self) - int(np.count_nonzero(self.consumed))

    def copy(self) -> "CandidatePool":
        """Pool sharing the read-only arrays, with its own consumption mask."""
        return CandidatePool(self.params, self.objectives, self.feature_bounds, self.consumed.copy())


def pool_from_arrays(params: np.ndarray, objectives: np.ndarray) -> CandidatePool:
    """Build a pool from (n, d) parameters and (n, num_obj) objectives, ids 0..n-1.

    The pool keeps its own read-only copies of both arrays.
    """
    params = np.array(params, dtype=float)
    objectives = np.array(objectives, dtype=float)
    if params.ndim != 2 or objectives.ndim != 2 or params.shape[0] != objectives.shape[0]:
        raise SchemaMismatch("params and objectives must be 2-D with matching row counts")
    if params.shape[0] == 0:
        raise SchemaMismatch("pool needs at least one candidate")
    if params.shape[1] == 0 or objectives.shape[1] == 0:
        raise SchemaMismatch("pool needs at least one parameter and one objective column")
    if not np.isfinite(params).all() or not np.isfinite(objectives).all():
        raise NonFiniteValue("non-finite value in pool arrays")
    return _own_pool(params, objectives)


def _own_pool(params: np.ndarray, objectives: np.ndarray) -> CandidatePool:
    """The pool of these checked arrays, which it takes over and makes read-only."""
    bounds = np.column_stack([params.min(axis=0), params.max(axis=0)])
    for table in (params, objectives, bounds):
        table.setflags(write=False)
    return CandidatePool(params, objectives, bounds, np.zeros(params.shape[0], dtype=bool))


def _line_blocks(fh, digest):
    """The file's bytes as non-empty blocks of whole lines of at most
    LOAD_BLOCK_BYTES (or one longer line), each byte read once and fed to
    `digest` (unless None); the last block holds what follows the last LF.

    The blocks are views of one buffer, each valid until the next is taken.
    """
    buffer = bytearray(LOAD_BLOCK_BYTES)
    kept = 0  # the partial line carried to the front
    while True:
        if kept == len(buffer):  # a line longer than the buffer
            buffer = buffer + bytes(len(buffer))
        view = memoryview(buffer)
        read = fh.readinto(view[kept:])
        if not read:
            break
        if digest is not None:
            digest.update(view[kept:kept + read])
        end = kept + read
        cut = buffer.rfind(b"\n", 0, end) + 1
        if cut:
            yield view[:cut]
        buffer[:end - cut] = buffer[cut:end]
        kept = end - cut
    if kept:
        yield view[:kept]


def _read_header(p: Path, blocks) -> tuple[list[str], memoryview]:
    """The header row of a pool CSV and the bytes after its line ending.

    An empty or non-UTF-8 header raises. The header ends at the first
    CR, LF or CRLF, as `csv` and universal newlines end it.
    """
    first = next(blocks, memoryview(b""))
    end = re.search(rb"\r\n?|\n", first)
    try:
        line = str(first[:end.start() if end else len(first)], "utf-8")
    except UnicodeDecodeError:
        raise SchemaMismatch(f"{p}: not UTF-8 text") from None
    header = next(csv.reader([line]), None)
    if not header:
        raise SchemaMismatch(f"{p}: empty file, expected a header row")
    return header, first[end.end() if end else len(first):]


def _schema(p: Path, header: list[str]) -> tuple[int, int]:
    """(d, num_obj) from a header following the p*/j* convention."""
    d = sum(1 for name in header if name.startswith("p"))
    num_obj = sum(1 for name in header if name.startswith("j"))
    names_ok = all(name.startswith("p") for name in header[:d]) and all(
        name.startswith("j") for name in header[d:]
    )
    if d < 1 or num_obj < 1 or d + num_obj != len(header) or not names_ok:
        raise SchemaMismatch(f"{p}: header does not follow the p*,...,j* convention")
    return d, num_obj


def load_pool(path, *, digest=None) -> CandidatePool:
    """Read a pool CSV with a header row, d parameter columns, then num_obj objectives.

    d and num_obj come from the header's p*/j* names. Row order defines
    candidate ids 0..n-1. Raises MissingFile, SchemaMismatch on a header off
    that convention, a wrong column count or a non-numeric cell, or
    NonFiniteValue naming the offending data row. The file is opened once
    and read in blocks of whole lines that also go to `digest`, a hashlib
    object, when given. The C reader parses the blocks when the library
    loaded and every byte is in the writer's form; otherwise one
    `np.loadtxt` call reads the whole file again from its start. Either way
    the values and errors are that call's.
    """
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"pool file not found: {p}")
    parse = csv_reader(native_kernel())
    with open(p, "rb") as fh:
        blocks = _line_blocks(fh, digest)
        header, text = _read_header(p, blocks)
        d, num_obj = _schema(p, header)
        # Each block's rows go straight into the pool's arrays, which grow to the
        # rows the bytes read so far foretell, and are cut to the rows at the end.
        params, objectives = np.empty((0, d)), np.empty((0, num_obj))
        size, read, rows = os.fstat(fh.fileno()).st_size, 0, 0
        for text in itertools.chain([text], blocks):
            read += len(text)
            n = None if parse is None else parse(text, params[rows:], objectives[rows:])
            if n is None:
                collections.deque(blocks, maxlen=0)  # the digest still sees every byte
                params, objectives = _loadtxt_pool(p, fh, d, d + num_obj)
                rows = len(params)
                break
            if rows + n > len(params):
                capacity = max(rows + n, round((rows + n) * size / read * 1.05))
                for table in (params, objectives):
                    table.resize((capacity, table.shape[1]), refcheck=False)
                parse(text, params[rows:], objectives[rows:])
            rows += n
    if rows == 0:
        raise SchemaMismatch(f"{p}: no data rows")
    for table in (params, objectives):
        table.resize((rows, table.shape[1]), refcheck=False)
    finite = np.isfinite(params).all(axis=1) & np.isfinite(objectives).all(axis=1)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise NonFiniteValue(f"{p}: non-finite value in row {bad}")
    return _own_pool(params, objectives)


def _loadtxt_pool(p: Path, fh, d: int, expected: int) -> tuple[np.ndarray, np.ndarray]:
    """The (params, objectives) of the pool file open in `fh`, read from its
    start by one `np.loadtxt` call: universal newlines, blank lines skipped,
    errors naming the data row.
    """
    fh.seek(0)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline=None)
    try:
        with warnings.catch_warnings():
            # A header-only file is reported by the caller as having no data rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(text, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except UnicodeDecodeError:
        raise SchemaMismatch(f"{p}: not UTF-8 text") from None
    except ValueError as exc:
        raise SchemaMismatch(f"{p}: {exc}") from None
    finally:
        # Detached, the wrapper leaves `fh` to the caller's `with` instead of
        # closing it when freed.
        text.detach()
    if len(data) and data.shape[1] != expected:
        raise SchemaMismatch(f"{p}: data rows have {data.shape[1]} columns, expected {expected}")
    return data[:, :d].copy(), data[:, d:].copy()


def save_pool(pool: CandidatePool, path) -> None:
    """Write the standard pool CSV: header p0..p{d-1},j0..j{num_obj-1}, one row per id.

    Each float is written as its `repr`, the shortest text that reads back to
    it, so identical pools serialize to identical bytes. The rows go out in
    chunks, through the C formatter when it loaded and `repr` otherwise, with
    the same bytes.
    """
    header = [f"p{i}" for i in range(pool.d)] + [f"j{i}" for i in range(pool.num_obj)]
    table = np.hstack([pool.params, pool.objectives])
    format_rows = csv_formatter(native_kernel(), table.shape[1], SAVE_CHUNK_ROWS) or repr_rows
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for start in range(0, len(table), SAVE_CHUNK_ROWS):
            fh.write(format_rows(table[start:start + SAVE_CHUNK_ROWS]))


def _sample_available(pool: CandidatePool, size: int, rng, what: str) -> np.ndarray:
    avail = np.flatnonzero(~pool.consumed)
    if size > avail.size:
        raise PoolExhausted(f"{what} of {size} exceeds {avail.size} available candidates")
    return rng.choice(avail, size=size, replace=False)


def initial_sample(pool: CandidatePool, initial_size: int, rng) -> np.ndarray:
    """Draw the seed training set's ids uniformly without replacement; marks them consumed."""
    picked = _sample_available(pool, initial_size, rng, "initial sample")
    consume(pool, picked)
    return picked


def bootstrap_draw(pool: CandidatePool, draw_size: int, rng) -> np.ndarray:
    """Draw ids uniformly without replacement from the non-consumed remainder.

    Does not consume: only acquisition removes candidates from the pool, so
    candidates drawn but not selected can reappear in later draws.
    """
    return _sample_available(pool, draw_size, rng, "bootstrap draw")


def consume(pool: CandidatePool, ids) -> None:
    """Mark ids consumed. Validates everything before mutating anything."""
    rows = np.asarray(ids, dtype=np.int64).reshape(-1)
    # Checked explicitly: numpy would wrap a negative index around silently.
    unknown = (rows < 0) | (rows >= len(pool))
    if unknown.any():
        raise UnknownId(f"candidate id {rows[unknown][0]} not in pool")
    repeated = np.ones(rows.size, dtype=bool)
    repeated[np.unique(rows, return_index=True)[1]] = False  # first occurrences
    taken = pool.consumed[rows] | repeated
    if taken.any():
        raise AlreadyConsumed(f"candidate id {rows[taken][0]} already consumed")
    pool.consumed[rows] = True


def fit_normalizers(pool: CandidatePool, train_targets) -> tuple[FeatureNormalizer, TargetNormalizer]:
    """Fit both normalizers for one iteration.

    Features use the pool-wide bounds (so every pooled candidate lands in
    [0, 1]); targets use mean/population-std of the *current* training targets
    with the std floored, so a constant objective column z-scores to 0.
    """
    t = np.asarray(train_targets, dtype=float)
    if t.ndim != 2 or t.shape[0] == 0:
        raise DegenerateInput("normalizers need a non-empty (n, num_obj) target array")
    fnorm = FeatureNormalizer(pool.feature_bounds[:, 0].copy(), pool.feature_bounds[:, 1].copy())
    tnorm = TargetNormalizer(t.mean(axis=0), np.maximum(t.std(axis=0), TARGET_STD_FLOOR))
    return fnorm, tnorm
