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
import os
import re
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
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
class TargetNormalizer:
    """Per-objective z-score with a floored population standard deviation."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, targets) -> "TargetNormalizer":
        """Fit to the current training targets: their mean and population std,
        the std floored so that a constant objective column z-scores to 0."""
        t = np.asarray(targets, dtype=float)
        if t.ndim != 2 or t.shape[0] == 0:
            raise DegenerateInput("the normalizer needs a non-empty (n, num_obj) target array")
        return cls(t.mean(axis=0), np.maximum(t.std(axis=0), TARGET_STD_FLOOR))

    def transform(self, y) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.mean) / self.std

    def inverse(self, y) -> np.ndarray:
        return np.asarray(y, dtype=float) * self.std + self.mean


@dataclass
class CandidatePool:
    """The candidate table plus consumption bookkeeping; row index is candidate id.

    ``table`` is (n, d + num_obj), and ``params`` and ``objectives`` are views
    of its first d and last num_obj columns; ``objectives`` is only ever read
    by the annotator. ``feature_bounds`` has shape (d, 2): per-dimension
    minima, then maxima, over the whole pool. ``consumed`` is a boolean mask
    over the rows. The table and the bounds are read-only and shared between
    copies; each copy has its own mask.
    """

    table: np.ndarray
    feature_bounds: np.ndarray
    consumed: np.ndarray

    def __len__(self) -> int:
        return self.table.shape[0]

    @property
    def d(self) -> int:
        return self.feature_bounds.shape[0]

    @property
    def num_obj(self) -> int:
        return self.table.shape[1] - self.d

    @property
    def params(self) -> np.ndarray:
        return self.table[:, :self.d]

    @property
    def objectives(self) -> np.ndarray:
        return self.table[:, self.d:]

    @property
    def available(self) -> int:
        return len(self) - int(np.count_nonzero(self.consumed))

    def copy(self) -> "CandidatePool":
        """Pool sharing the read-only arrays, with its own consumption mask."""
        return CandidatePool(self.table, self.feature_bounds, self.consumed.copy())

    def features(self, rows) -> np.ndarray:
        """The parameters of `rows`, min-max scaled by the pool's bounds into
        [0, 1], so every pooled candidate lands there; a dimension of zero width
        maps to 0.5."""
        lo, hi = self.feature_bounds.T
        span = hi - lo
        scaled = (self.params[rows] - lo) / np.where(span > 0, span, 1.0)
        return np.where(span > 0, scaled, 0.5)

    def __setstate__(self, state) -> None:
        # An unpickled pool, such as a spawned sweep worker's, gets fresh
        # writable arrays; they are the pool's own, so it freezes them again.
        self.__dict__.update(state)
        for a in (self.table, self.feature_bounds):
            a.setflags(write=False)


def pool_from_arrays(params: np.ndarray, objectives: np.ndarray) -> CandidatePool:
    """Build a pool from (n, d) parameters and (n, num_obj) objectives, ids 0..n-1.

    The pool keeps its own read-only table of both arrays.
    """
    params = np.asarray(params, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    if params.ndim != 2 or objectives.ndim != 2 or params.shape[0] != objectives.shape[0]:
        raise SchemaMismatch("params and objectives must be 2-D with matching row counts")
    if params.shape[1] == 0 or objectives.shape[1] == 0:
        raise SchemaMismatch("pool needs at least one parameter and one objective column")
    return _own_pool(np.hstack([params, objectives]), params.shape[1], "pool arrays")


def _own_pool(table: np.ndarray, d: int, source: str) -> CandidatePool:
    """The pool of this table of d parameter columns from `source`, which it takes
    over and makes read-only: the one gate of every pool. No rows raise
    SchemaMismatch; a non-finite value, or a parameter span or an objective's standard
    deviation that overflows (neither scaling could map it), NonFiniteValue. A
    training subset's squared deviations sum to at most the pool's, so none overflows."""
    if len(table) == 0:
        raise SchemaMismatch(f"{source}: no data rows")
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(f"{source}: non-finite value in row {np.flatnonzero(~finite)[0]}")
    bounds = np.column_stack([table[:, :d].min(axis=0), table[:, :d].max(axis=0)])
    with np.errstate(over="ignore", invalid="ignore"):
        bad = np.flatnonzero(~np.isfinite(
            np.concatenate([bounds[:, 1] - bounds[:, 0], table[:, d:].std(axis=0)])))
    if bad.size:
        name = f"p{bad[0]}" if bad[0] < d else f"j{bad[0] - d}"
        raise NonFiniteValue(f"pool column {name} cannot be normalized: its spread overflows")
    for a in (table, bounds):
        a.setflags(write=False)
    return CandidatePool(table, bounds, np.zeros(len(table), dtype=bool))


def _read_header(p: Path, fh, digest) -> tuple[list[str], bool]:
    """The header row of the pool CSV open in `fh`, read as its first line and
    fed to `digest` (unless None), and whether that line's end is the header's.

    An empty or non-UTF-8 header raises; a UTF-8 byte-order mark before it
    is dropped. The header ends at the first CR, LF or CRLF, as `csv` and
    universal newlines end it, so a lone CR ends it before its line does.
    """
    line = fh.readline()
    if digest is not None:
        digest.update(line)
    end = re.search(rb"\r\n?|\n", line)
    try:
        text = str(line[:end.start() if end else len(line)], "utf-8-sig")
    except UnicodeDecodeError:
        raise SchemaMismatch(f"{p}: not UTF-8 text") from None
    header = next(csv.reader([text]), None)
    if not header:
        raise SchemaMismatch(f"{p}: empty file, expected a header row")
    return header, end is None or end.end() == len(line)


def _line_blocks(fh, digest):
    """The rest of the file as blocks of whole lines, each the next
    LOAD_BLOCK_BYTES and the rest of the line they end in, with its row count:
    its LFs, plus one for any text after the last. Each byte is fed once to
    `digest` (unless None).
    """
    while block := fh.read(LOAD_BLOCK_BYTES) + fh.readline():
        if digest is not None:
            digest.update(block)
        yield block, block.count(b"\n") + (block[-1] != ord("\n"))


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
    and read as its header line, then blocks of whole lines, all of which also
    go to `digest`, a hashlib object, when given. The C reader parses the
    blocks, on one worker thread, when the library loaded, the header ended
    its line and every byte is in the writer's form; otherwise one
    `np.loadtxt` call reads the whole file again from its start. Either way
    the values and errors are that call's.
    """
    p = Path(path)
    if not p.is_file():
        raise MissingFile(f"pool file not found: {p}")
    parse = csv_reader(native_kernel())
    with open(p, "rb") as fh:
        header, whole_line = _read_header(p, fh, digest)
        d, num_obj = _schema(p, header)
        blocks = _line_blocks(fh, digest)
        table = None if parse is None or not whole_line else _parse_blocks(
            parse, blocks, d + num_obj, os.fstat(fh.fileno()).st_size)
        if table is None:
            collections.deque(blocks, maxlen=0)  # the digest still sees every byte
            table = _loadtxt_pool(p, fh, d + num_obj)
    return _own_pool(table, d, str(p))


def _parse_blocks(parse, blocks, cols: int, size: int):
    """The table of `blocks`, pairs of whole lines of a `size`-byte file and
    their row count, read by the C reader `parse`; None when it refuses a block
    or reads other than the block's rows.

    One worker thread parses each block straight into its own slice of the
    table while the calling thread reads and hashes the next. The table grows,
    only once the pending parse has returned, to the rows the bytes read so far
    foretell, and is cut to the rows at the end.
    """
    table = np.empty((0, cols))
    read = rows = 0
    pending = None  # the parse in flight and the rows it must read
    with ThreadPoolExecutor(1) as executor:
        for text, n in blocks:
            read += len(text)
            if pending and pending[0].result() != pending[1]:
                return None
            if rows + n > len(table):
                capacity = max(rows + n, round((rows + n) * size / read * 1.05))
                table.resize((capacity, cols), refcheck=False)
            pending = executor.submit(parse, text, table[rows:rows + n]), n
            rows += n
        if pending and pending[0].result() != pending[1]:
            return None
    table.resize((rows, cols), refcheck=False)
    return table


def _loadtxt_pool(p: Path, fh, expected: int) -> np.ndarray:
    """The table of the pool file open in `fh`, read from its start by one
    `np.loadtxt` call: universal newlines, blank lines skipped, errors naming
    the data row.
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
    return data


def save_pool(pool: CandidatePool, path, *, digest=None) -> None:
    """Write the standard pool CSV: header p0..p{d-1},j0..j{num_obj-1}, one row per id.

    Each float is written as its `repr`, the shortest text that reads back to
    it, so identical pools serialize to identical bytes. The rows go out in
    chunks, through the C formatter when it loaded and `repr` otherwise, with
    the same bytes. One worker thread formats each chunk while the calling
    thread writes the one before, in order, feeding every byte written to
    `digest`, a hashlib object, when given; so at most two chunks' text is
    alive at once.

    The file appears whole or not at all: the rows go to a sibling in the same
    directory, which replaces `path` once written and is removed when the save
    fails. A `path` that exists and is not a regular file, such as a pipe or a
    device, is written in place.
    """
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with open(path, "wb") as fh:
            return _write_pool(pool, fh, digest)
    part = target.with_name(f".dado-{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(part, "wb") as fh:
            _write_pool(pool, fh, digest)
        os.replace(part, target)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_pool(pool: CandidatePool, fh, digest) -> None:
    """`save_pool`'s bytes, written to the binary file `fh` and fed to `digest` (unless None)."""
    header = [f"p{i}" for i in range(pool.d)] + [f"j{i}" for i in range(pool.num_obj)]
    format_rows = csv_formatter(native_kernel(), pool.table.shape[1]) or repr_rows

    def write(text) -> None:
        fh.write(text)
        if digest is not None:
            digest.update(text)

    write(",".join(header).encode() + b"\r\n")
    pending = None  # the chunk in formatting, written once the next is submitted
    with ThreadPoolExecutor(1) as executor:
        for start in range(0, len(pool), SAVE_CHUNK_ROWS):
            chunk = executor.submit(format_rows, pool.table[start:start + SAVE_CHUNK_ROWS])
            if pending:
                write(pending.result())
            pending = chunk
        if pending:
            write(pending.result())


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

