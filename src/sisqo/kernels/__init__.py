"""CSR matvec, MINRES-step and CG kernels with a compiled core and a
numpy fallback, and the KKT apply composed from them.

The kernels are ``csr_matvec``, ``csr_rmatvec``, ``minres_step`` (one
whole MINRES step on the saddle operator ``(H u + J.T delta, J u)``, over
arrays its caller owns, since they carry the solve from step to step) and
``cg`` (one whole conjugate-gradient solve on ``J.T J`` or ``J J.T``,
which keeps nothing between calls and sizes its own scratch from J's
row count and the ``ncols`` it is given).  A backend is a module that
defines these four functions; :func:`use_backend` binds this module's
names to the chosen backend's own functions, so callers look them up
here at call time.
``kkt_apply`` applies the saddle operator with three calls of the two
CSR kernels; the compiled step's fused product has the same bits.

The compiled core is the C extension ``_csrkern``.  It is compiled from
``_csrkern.c`` on first import, with the interpreter's ``sysconfig``
compiler settings and numpy's headers, and cached in this package's
``__pycache__`` directory under a name keyed by the source, the compile
flags, the numpy version and the interpreter's extension suffix; later
imports load the cached file without starting a process.  A checkout and
an installed package build it the same way.
Once a build is loaded, older builds for the same extension suffix are
deleted; builds for other interpreters are kept.  If the core cannot be
built (no compiler, or a read-only package directory), one warning is
logged and the numpy reference implementation is used.

Set the environment variable ``SISQO_KERNELS=python`` (before import) or
call :func:`use_backend` to force the numpy reference implementation.
"""

import hashlib
import importlib.machinery
import importlib.util
import logging
import os
import re
import sys

import numpy

from . import reference

_log = logging.getLogger(__name__)

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_csrkern.c")
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
# appended after the interpreter's CFLAGS; without contraction into
# fused multiply-adds, minres_step and cg keep the bits of the numpy
# loops on every platform
_EXTRA_COMPILE_ARGS = ["-O3", "-ffp-contract=off"]


def _cached_path():
    """Cache file of the build for this source, these flags and this
    numpy: a numpy upgrade rebuilds rather than fail ``import_array``."""
    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update(" ".join(_EXTRA_COMPILE_ARGS + [numpy.__version__]).encode())
    digest = key.hexdigest()[:16]
    # the first extension suffix is the interpreter's EXT_SUFFIX
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(_CACHE_DIR, f"_csrkern-{digest}{suffix}")


def _prune_stale(target):
    """Delete builds of other source versions for this interpreter's
    extension suffix; other suffixes belong to other interpreters."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = re.compile(r"_csrkern-[0-9a-f]{16}" + re.escape(suffix))
    keep = os.path.basename(target)
    for name in os.listdir(_CACHE_DIR):
        if name != keep and stale.fullmatch(name):
            try:
                os.remove(os.path.join(_CACHE_DIR, name))
            except OSError:
                pass  # removed concurrently, or not ours to remove


def _compile(target):
    """Build ``_csrkern.c`` into ``target``; a partial file never appears."""
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    ldshared = sysconfig.get_config_var("LDSHARED")
    if not ldshared:
        raise RuntimeError("the interpreter records no C compiler (LDSHARED)")
    os.makedirs(_CACHE_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="_csrkern-build-", dir=_CACHE_DIR)
    try:
        built = os.path.join(workdir, os.path.basename(target))
        cmd = (shlex.split(ldshared)
               + shlex.split(sysconfig.get_config_var("CFLAGS") or "")
               + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
               + _EXTRA_COMPILE_ARGS
               + ["-I", sysconfig.get_path("include"),
                  "-I", numpy.get_include(), _SOURCE, "-o", built])
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
        if proc.returncode:
            lines = proc.stderr.splitlines() or ["(no output)"]
            detail = next((ln for ln in lines if "error" in ln), lines[-1])
            raise RuntimeError(f"{cmd[0]} exited with status "
                               f"{proc.returncode}: {detail.strip()}")
        # atomic on one file system: concurrent interpreters see either
        # no file or a complete one
        os.replace(built, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _load_compiled():
    """The compiled core, cached or built now; None if the build fails."""
    try:
        target = _cached_path()
        if not os.path.exists(target):
            _compile(target)
        name = __name__ + "._csrkern"
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _prune_stale(target)
    except Exception as exc:  # noqa: BLE001 - any failure means the fallback
        _log.warning("compiled CSR kernels unavailable (%s); "
                     "using the numpy fallback", exc)
        return None
    sys.modules[name] = module
    return module


def available_backends():
    """Names of the importable kernel backends."""
    return sorted(_BACKENDS)


def active_backend():
    """Name of the backend currently bound."""
    return _active_name


def use_backend(name):
    """Bind ``csr_matvec``, ``csr_rmatvec``, ``minres_step`` and ``cg`` to
    the functions of backend ``name`` (used by tests and benchmarks)."""
    global _active_name, csr_matvec, csr_rmatvec, minres_step, cg
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"available: {available_backends()}")
    backend = _BACKENDS[name]
    _active_name = name
    csr_matvec = backend.csr_matvec
    csr_rmatvec = backend.csr_rmatvec
    minres_step = backend.minres_step
    cg = backend.cg


def kkt_apply(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data, z,
              out):
    """out = (H u + J.T delta, J u) for z = (u, delta), with H n-by-n and
    J m-by-n in CSR form; n and m are read from the indptr lengths.  out
    must not overlap z."""
    if not (isinstance(z, numpy.ndarray) and isinstance(out, numpy.ndarray)):
        raise TypeError("z and out must be numpy arrays")
    n, m = h_indptr.shape[0] - 1, j_indptr.shape[0] - 1
    if z.shape != (n + m,) or out.shape != (n + m,):
        raise ValueError("z and out must both have length n + m")
    if numpy.may_share_memory(z, out):
        raise ValueError("out overlaps z")
    top, bot = out[:n], out[n:]
    csr_matvec(h_indptr, h_indices, h_data, z[:n], top)
    if bot.size:
        jtd = numpy.empty(n)
        csr_rmatvec(j_indptr, j_indices, j_data, z[n:], jtd)
        top += jtd
        csr_matvec(j_indptr, j_indices, j_data, z[:n], bot)


_BACKENDS = {"python": reference}
_csrkern = _load_compiled()
if _csrkern is not None:
    _BACKENDS["compiled"] = _csrkern
use_backend("python" if os.environ.get("SISQO_KERNELS", "") == "python"
            or _csrkern is None else "compiled")
