"""Adam update of a flat parameter vector: a fused C loop with a numpy reference.

`_adam.c` does the numpy block's IEEE operations in the same order, and it is
compiled without FMA contraction and without fast-math, so both paths give the
same bits in theta, m and v. The C file is compiled on first use into
`$XDG_CACHE_HOME/dado` (default `~/.cache/dado`), or into a private temporary
directory when that one is not writable. The loaded kernel is used only after
a self-check on a fixed vector matches the numpy path bit for bit. With no
compiler, a failed build or load, or a failed self-check, training runs the
numpy path, which gives the same results more slowly.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_adam.c")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


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
    array pointers are read once here, and the returned closure keeps the
    arrays alive while the kernel may write to them.
    """
    if kernel is None:
        scratch = np.empty_like(theta)

        def update(step: int) -> None:
            adam_numpy(theta, grad, m, v, scratch, beta1, beta2, eps,
                       1.0 / (1.0 - beta2**step), learning_rate / (1.0 - beta1**step))

        return update

    for a in (theta, grad, m, v):
        if a.dtype != np.float64 or a.ndim != 1 or not a.flags.c_contiguous or a.size != theta.size:
            raise ValueError("Adam arrays must be contiguous 1-D float64 of one length")
    if not (theta.flags.writeable and m.flags.writeable and v.flags.writeable):
        raise ValueError("theta, m and v must be writeable")
    pointers = (theta.ctypes.data, grad.ctypes.data, m.ctypes.data, v.ctypes.data, theta.size)
    one_minus_beta1, one_minus_beta2 = 1.0 - beta1, 1.0 - beta2

    def update(step: int) -> None:
        kernel(*pointers, beta1, one_minus_beta1, beta2, one_minus_beta2, eps,
               1.0 / (1.0 - beta2**step), learning_rate / (1.0 - beta1**step))

    return update


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "dado"


def _compile(cc: str, source: bytes, directory: Path, target: Path) -> None:
    """Build into a temporary file in `directory`, then rename it to `target`.

    The rename is atomic, so sweep workers building at the same moment each
    see either no file or a whole one.
    """
    fd, tmp = tempfile.mkstemp(prefix=".adam-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
            input=source, capture_output=True, check=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernel():
    """Load the C loop, building it first if the cache lacks it; None if unusable.

    Never raises for a missing compiler, a failed build or load, or a
    self-check mismatch: each of those means the numpy path.
    """
    private = None
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(source + "\0".join(_CFLAGS).encode()).hexdigest()[:20]
        name = f"adam-{key}.so"
        directory = _cache_dir()
        target = directory / name
        if not target.is_file():
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
        kernel = ctypes.CDLL(str(target)).dado_adam_step
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)  # a loaded library stays mapped
    kernel.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 7
    kernel.restype = None
    return kernel if _self_check(kernel) else None


def _self_check(kernel) -> bool:
    """Run both paths on one fixed vector; True when theta, m and v agree bitwise.

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


@functools.cache
def native_kernel():
    """The process's C Adam loop, loaded once; None means the numpy path."""
    return load_kernel()
