"""The native kernels: a fused C Adam loop, a C forward/backward pass, and a C
float formatter and reader for pool CSVs.

`_native.c` holds all four. The Adam loop does `adam_numpy`'s IEEE
operations in the same order. The forward/backward pass does those of
`dado.surrogate._loss_and_grads`, and runs each matrix product and each
single-column sum through numpy's own float64 inner loop of `np.matmul` or
`np.add`, found through the ufunc objects. Built without FMA contraction and
without fast-math, both give numpy's bits. The formatter writes CSV rows byte
for byte as `repr_rows` does: it finds each double's shortest round-trip
digits with Ryu (Ulf Adams, PLDI 2018), whose multiplier tables are computed
here from exact integers when the library loads, and lays them out as `repr`
does. The reader parses rows of the decimals the formatter writes to the
doubles `float` gives, with Ryu's s2d on the same tables, and refuses any
other text. The C file is compiled on first use into `$XDG_CACHE_HOME/dado`
(default `~/.cache/dado`), or into a private temporary directory when that
one is not writable. A build adds its own library and deletes nothing: the
cache is never pruned, and `rm -r ~/.cache/dado` clears it. The loaded
kernels are used only after a self-check on fixed inputs matches the Python
paths bit for bit and byte for byte. With no compiler, a failed build or
load, no float64 loop to call, or a failed self-check, training runs numpy
and pools are written through `repr` and read through `np.loadtxt`, with the
same results, only slower.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("_native.c")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
FORMAT_SLACK = 16  # bytes past its text the C formatter may write (dado_format_rows)


class Kernels(NamedTuple):
    """The loaded C entry points."""

    adam: Callable
    fwd_bwd: Callable
    format_rows: Callable
    parse_rows: Callable


def adam_numpy(theta, grad, m, v, scratch, beta1, beta2, eps, inv_bc2, step_size) -> None:
    """One allocation-free Adam step in place; the reference for the C loop.

    m and v are exponential moving averages of the gradient and its square,
    with bias correction folded into the scalars inv_bc2 and step_size.
    """
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=scratch)
    m += scratch
    v *= beta2
    np.multiply(grad, grad, out=scratch)
    scratch *= 1.0 - beta2
    v += scratch
    np.multiply(v, inv_bc2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    np.divide(m, scratch, out=scratch)
    scratch *= step_size
    theta -= scratch


def adam_updater(kernel, theta, grad, m, v, *, learning_rate, beta1, beta2, eps):
    """Return `update(step)`, which applies Adam step number `step` (from 1) in place.

    `kernel` is `native_kernel()`'s result; None selects the numpy path. The
    array pointers are read once here, and `update` holds the arrays.
    """
    if kernel is None:
        scratch = np.empty_like(theta)

        def update(step: int) -> None:
            adam_numpy(theta, grad, m, v, scratch, beta1, beta2, eps,
                       1.0 / (1.0 - beta2**step), learning_rate / (1.0 - beta1**step))

        return update

    for a in (theta, grad, m, v):
        _check_vector(a, theta.size)
    if not (theta.flags.writeable and m.flags.writeable and v.flags.writeable):
        raise ValueError("theta, m and v must be writeable")
    # Arguments converted to ctypes once here pass through each call unconverted.
    adam = functools.partial(
        kernel.adam, *(_address(a) for a in (theta, grad, m, v)), ctypes.c_size_t(theta.size),
        *map(ctypes.c_double, (beta1, 1.0 - beta1, beta2, 1.0 - beta2, eps)),
    )

    def update(step: int) -> None:
        adam(1.0 / (1.0 - beta2**step), learning_rate / (1.0 - beta1**step))

    return update


def fwd_bwd_binder(kernel, theta, grad, dims, slope, batch_size):
    """Return `bind(xs, ts, masks)` for the C forward/backward pass; None without a kernel.

    `dims` are the layer widths from input to output, and theta and grad are
    laid out as `dado.surrogate.SurrogateModel` lays them out. `bind` takes an
    epoch's shuffled inputs and targets and its flat dropout masks (or None),
    and returns `run(start, stop)`, which writes the gradients of the batch
    MSE of rows start:stop into grad, as `dado.surrogate._loss_and_grads`
    does; it needs 0 <= start < stop <= len(xs) and at most `batch_size`
    rows, and does not check them. Addresses are read once here and once per
    `bind`, and `run` holds the arrays behind them.
    """
    if kernel is None:
        return None
    _check_vector(theta, theta.size)
    _check_vector(grad, theta.size)
    if not grad.flags.writeable:
        raise ValueError("grad must be writeable")
    width = sum(dims[1:-1])
    layer_dims = (ctypes.c_int64 * len(dims))(*dims)
    work = (ctypes.c_double * (batch_size * (2 * width + dims[-1])))()
    model = functools.partial(kernel.fwd_bwd, layer_dims, ctypes.c_int64(len(dims) - 1),
                              ctypes.c_double(slope), _address(theta), _address(grad), work)

    def bind(xs, ts, masks):
        rows = len(xs)
        for a, shape in ((xs, (rows, dims[0])), (ts, (rows, dims[-1])),
                         (masks, (rows * width,))):
            if a is not None and (a.shape != shape or a.dtype != np.float64
                                  or not a.flags.c_contiguous):
                raise ValueError(f"expected a contiguous float64 array of shape {shape}")
        return functools.partial(model, _address(xs), _address(ts),
                                 None if masks is None else _address(masks))

    return bind


def repr_rows(block) -> bytes:
    """The CSV text of a 2-D float block: each row as its cells' `repr`, comma-separated,
    ended by CRLF. The reference for the C formatter."""
    return "".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()).encode()


def csv_formatter(kernel, cols: int):
    """Return `text(block)`, `repr_rows` through the C formatter; None without a kernel.

    `block` is a C-contiguous float64 array of `cols` cells a row; each call
    formats its text into a bytearray of its own, cut to the text, and
    returns it.
    """
    if kernel is None:
        return None
    if cols < 1:
        raise ValueError("a CSV row needs at least one cell")

    def text(block) -> bytes:
        if (block.ndim != 2 or block.shape[1] != cols
                or block.dtype != np.float64 or not block.flags.c_contiguous):
            raise ValueError(f"expected a contiguous float64 array of {cols} columns")
        buffer = bytearray(len(block) * (cols * 25 + 1) + FORMAT_SLACK)
        n = kernel.format_rows(_address(np.frombuffer(buffer, np.uint8)), cols, _address(block),
                               len(block))
        del buffer[n:]  # no copy: the bytearray only shrinks
        return buffer

    return text


def csv_reader(kernel):
    """Return `read(text, table)`, the C reader of CSV rows; None without a kernel.

    `read` reads all of the bytes-like `text` as rows of the writer's form:
    cells `-?D[.D][e(+|-)E]` with at most 17 significant digits in the Ds and
    at most three digits in E, separated by "," and each row ended by CRLF,
    LF or the end of the text, with as many cells as the C-contiguous float64
    `table` has columns. It stores the values `float` reads for as many rows
    as the table holds, and returns the number of rows in `text`; rows past
    the table's length are only counted, never stored, so a caller that
    expects a count treats any other as a refusal. It returns None when any
    byte of `text` is outside that form.
    """
    if kernel is None:
        return None
    parse = kernel.parse_rows

    def read(text, table):
        if (table.ndim != 2 or table.shape[1] < 1 or table.dtype != np.float64
                or not table.flags.c_contiguous or not table.flags.writeable):
            raise ValueError("expected a writeable contiguous 2-D float64 table with a column")
        data = np.frombuffer(text, np.uint8)
        n = parse(_address(data), len(data), table.shape[1], _address(table), len(table))
        return None if n < 0 else n

    return read


def _address(a) -> ctypes.c_void_p:
    """`a`'s data pointer, holding a reference to `a` so whatever keeps the pointer keeps `a`."""
    return a.ctypes.data_as(ctypes.c_void_p)


def _check_vector(a, size: int) -> None:
    if a.dtype != np.float64 or a.ndim != 1 or not a.flags.c_contiguous or a.size != size:
        raise ValueError("theta and its companions must be contiguous 1-D float64 of one length")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "dado"


def _compile(cc: str, source: bytes, directory: Path, target: Path) -> None:
    """Build into a temporary file in `directory`, then rename it to `target`.

    The rename is atomic, so sweep workers building at the same moment each
    see either no file or a whole one. A failed or timed-out compiler raises
    RuntimeError.
    """
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(prefix=".native-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise RuntimeError(f"{cc} failed to build {_SOURCE.name}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernel():
    """Load the C kernels, building them first if the cache lacks them; None if unusable.

    Never raises for a missing compiler, a failed build or load, no float64
    loop to call, or a self-check mismatch: each of those means the numpy path.
    """
    private = None
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(source + "\0".join(_CFLAGS).encode()).hexdigest()[:20]
        name = f"native-{platform.machine()}-{key}.so"
        directory = _cache_dir()
        target = directory / name
        if not target.is_file():
            import shutil
            import tempfile

            cc = shutil.which("cc")
            if cc is None:
                return None
            try:
                directory.mkdir(parents=True, exist_ok=True)
                _compile(cc, source, directory, target)
            except OSError:
                private = directory = Path(tempfile.mkdtemp(prefix="dado-"))
                target = directory / name
                _compile(cc, source, directory, target)
        lib = ctypes.CDLL(str(target))
        adam, fwd_bwd, set_loops = lib.dado_adam_step, lib.dado_fwd_bwd, lib.dado_set_loops
        format_rows, set_pow5 = lib.dado_format_rows, lib.dado_set_pow5
        parse_rows = lib.dado_parse_rows
        loops = [_float64_loop(ufunc) for ufunc in (np.matmul, np.add)]
    except (OSError, AttributeError, LookupError, RuntimeError):
        return None
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)  # a loaded library stays mapped
    adam.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 7
    adam.restype = None
    fwd_bwd.argtypes = ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_double]
                        + [ctypes.c_void_p] * 6 + [ctypes.c_int64] * 2)
    fwd_bwd.restype = None
    set_loops.argtypes, set_loops.restype = [ctypes.c_void_p] * 2, None
    set_loops(*loops)
    format_rows.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    format_rows.restype = ctypes.c_int64
    parse_rows.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                           ctypes.c_int64]
    parse_rows.restype = ctypes.c_int64
    set_pow5.argtypes, set_pow5.restype = [ctypes.c_void_p] * 2, None
    inverse, power = _pow5_tables()
    set_pow5(_address(inverse), _address(power))  # copied into the library
    kernel = Kernels(adam, fwd_bwd, format_rows, parse_rows)
    checks = (_adam_check, _fwd_bwd_check, _format_check, _parse_check)
    return kernel if all(check(kernel) for check in checks) else None


def _pow5_tables() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's multipliers from exact integers, each as its (low, high) 64-bit words.

    For q < 342, floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1; for i < 326, the
    top 125 bits of 5^i.
    """
    powers = [5**q for q in range(342)]
    inverse = [(1 << p.bit_length() + 124) // p + 1 for p in powers]
    power = [(p << 125) >> p.bit_length() for p in powers[:326]]
    return tuple(np.array([(x & (2**64 - 1), x >> 64) for x in xs], dtype=np.uint64)
                 for xs in (inverse, power))


class _UFuncObject(ctypes.Structure):
    """The head of numpy's public `PyUFuncObject` (numpy/ufuncobject.h)."""

    _fields_ = [("ob_base", ctypes.c_byte * object.__basicsize__),
                ("nin", ctypes.c_int), ("nout", ctypes.c_int), ("nargs", ctypes.c_int),
                ("identity", ctypes.c_int), ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.c_void_p), ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p), ("types", ctypes.POINTER(ctypes.c_ubyte))]


def _float64_loop(ufunc) -> int:
    """The address of `ufunc`'s `dd->d` inner loop, read from the object; LookupError if none."""
    if platform.python_implementation() != "CPython":
        raise LookupError("reading a ufunc object needs CPython, where id() is its address")
    u = _UFuncObject.from_address(id(ufunc))
    if (u.nargs, u.ntypes) != (ufunc.nargs, ufunc.ntypes):
        raise LookupError(f"unexpected layout of {ufunc.__name__}")
    double = np.dtype(np.float64).num
    for i in range(u.ntypes):
        if u.types[i * u.nargs:(i + 1) * u.nargs] == [double] * 3 and u.functions[i]:
            return u.functions[i]
    raise LookupError(f"{ufunc.__name__} has no float64 loop")


def _adam_check(kernel) -> bool:
    """Run both Adam paths on one fixed vector; True when theta, m and v agree bitwise.

    The gradients mix zeros of both signs, subnormals and magnitudes from 1e-8
    to 1e2, and the length leaves a remainder after any vector width.
    """
    rng = np.random.default_rng(20231)
    n = 67
    grads = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8.0, 2.0, (4, n))
    grads[:, :6] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]
    theta0 = rng.standard_normal(n)
    theta0[:3] = [0.0, 1e-320, -1e-310]
    results = []
    for k in (None, kernel):
        theta, grad, m, v = theta0.copy(), np.empty(n), np.zeros(n), np.zeros(n)
        update = adam_updater(k, theta, grad, m, v,
                              learning_rate=1e-2, beta1=0.9, beta2=0.999, eps=1e-8)
        for step, g in enumerate(grads, start=1):
            grad[:] = g
            update(step)
        results.append((theta, m, v))
    return all(np.array_equal(a, b) for a, b in zip(*results))


def _fwd_bwd_check(kernel) -> bool:
    """Run both forward/backward paths on a fixed net; True when the gradients agree bitwise.

    The 3 -> 8 -> 64 -> 1 net with dropout, on a 16-row and a 1-row batch,
    gives products of every shape class numpy's matmul loop tells apart:
    general, one-row left operand, one-column right operand, 1 x 1 result,
    and inner dimension 1. The 16-row output column is summed pairwise, and
    the 1-row batch's dropped units give gradient columns of signed zeros. The
    seeds are ones for which wrong strides, a row-by-row single-column sum or
    a sum started from -0.0 change the bits.
    """
    from .surrogate import MlpConfig, _dropout_masks, _loss_and_grads, init_model

    config = MlpConfig(hidden=(8, 64), dropout_rate=0.25)
    model = init_model(config, 3, 1, seed=6)
    rng = np.random.default_rng(7)
    xs, ts = rng.random((17, 3)), rng.normal(size=(17, 1))
    masks = _dropout_masks(rng, 17, config)
    grad = np.empty_like(model.theta)
    expected = model.like(np.empty_like(model.theta))
    run = fwd_bwd_binder(kernel, model.theta, grad, model.widths, config.leaky_slope, 16)(
        xs, ts, masks)
    for start, stop in ((0, 16), (16, 17)):
        run(start, stop)
        _loss_and_grads(model, xs, ts, masks, start, stop, expected.weights, expected.biases)
        if grad.tobytes() != expected.theta.tobytes():
            return False
    return True


def _check_values() -> np.ndarray:
    """The self-checks' fixed doubles: every layout branch of `repr`.

    Zeros of both signs, subnormals, the largest double, inf and nan,
    integral values, each side of the 1e-4 and 1e16 switches to exponent
    notation, three-digit exponents, powers of two and ten, and random
    values, scales and bit patterns.
    """
    rng = np.random.default_rng(2018)
    return np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, -2.0,
         100.0, 0.5, 0.1, 0.3, 1 / 3, 1e-4, 1e-5, 9.999999999999999e-5, 0.00012345, -0.001,
         9999999999999998.0, 1e16, 1.2345678901234568e17, 123456789012345.67, 1e22, 1e23,
         1.5e100, 1e-100, 9007199254740993.0, 4.35e-7, 123.456,
         # Ryu's exact-quotient cases: a decimal, a 17-digit integer, an 18-digit tie.
         7.502e21, 2.8068057562258348e16, 2.9802322387695312e-08],
        2.0 ** np.arange(-1074, 1024, 41), 10.0 ** np.arange(-24, 25, 3),
        rng.random(64), rng.random(32) * 10.0 ** rng.integers(-30, 31, 32),
        rng.integers(0, 10**17, 16).astype(np.float64),
        rng.integers(0, 2**64, 64, dtype=np.uint64).view(np.float64),
    ])


@functools.cache
def _check_table() -> tuple[np.ndarray, bytes]:
    """The finite `_check_values` in rows of eight cells, and their `repr_rows` text.

    Both text checks use it, so the `repr` of the values is built once.
    """
    values = _check_values()
    values = values[np.isfinite(values)]
    table = values[:len(values) // 8 * 8].reshape(-1, 8)
    return table, repr_rows(table)


def _format_check(kernel) -> bool:
    """Format `_check_values` through the C writer; True when its bytes equal `repr_rows`'.

    The finite values go in rows of eight cells; the others, and the last
    eight, as rows of one cell.
    """
    values = _check_values()
    column = np.concatenate([values[~np.isfinite(values)], values[-8:]])[:, None]
    return all(csv_formatter(kernel, t.shape[1])(t) == text
               for t, text in (_check_table(), (column, repr_rows(column))))


# Decimals whose reading goes wrong in a reader that loses the carry out of the
# largest subnormal, breaks a tie the wrong way, or misplaces the rounding at
# either end of the range: each with the digits on either side.
_PARSE_EDGES = (
    "2.2250738585072012e-308", "2.2250738585072011e-308", "2.2250738585072013e-308",
    "9007199254740993", "9007199254740992.9", "9007199254740993.1", "9007199254740995",
    "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
    "7.4109846876186981e-324", "1.7976931348623158e+308", "1.7976931348623159e+308",
    "-1.7976931348623157e+308", "1.2345678901234567e-300", "98765432109876543",
    "0.000012345678901234567", "-0", "0.0e+000", "1e-999", "0.00000000000000000000001",
)


def _parse_check(kernel) -> bool:
    """Read `_check_values` and `_PARSE_EDGES` back through the C reader.

    True when every double read equals `float`'s reading bit for bit. The
    finite values are read from their `repr_rows` text, rows of eight cells
    ended by CRLF; the edges, and the values left over, as rows of one cell
    ended by LF with no newline after the last.
    """
    values = _check_values()
    values = values[np.isfinite(values)]
    table, text = _check_table()
    cells = [*_PARSE_EDGES, *map(repr, values[table.size:].tolist())]
    read = csv_reader(kernel)
    for text, expected in ((text, table),
                           ("\n".join(cells).encode(), np.array([[float(c) for c in cells]]).T)):
        got = np.empty_like(expected)
        if read(text, got) != len(expected) or got.tobytes() != expected.tobytes():
            return False
    return True


@functools.cache
def native_kernel():
    """The process's C kernels, loaded once; None means the numpy path."""
    return load_kernel()
