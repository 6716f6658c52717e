"""CSR matvec, MINRES and CG kernels with a compiled core and a numpy
fallback.

The four kernels are ``csr_matvec``, ``csr_rmatvec``,
``tangential_solve`` (the MINRES steps of one Hessian rung on the saddle
operator ``(H u + J.T delta, J u)``, with the breakdown and stall rules,
until the termination tests accept an iterate or the solve ends, over
arrays its caller owns; ``sisqo.krylov.MinresState.step`` runs it for
one step) and ``cg`` (one whole conjugate-gradient solve on ``J.T J`` or
``J J.T``, which keeps nothing between calls).  A backend is a module
that defines these four functions; :func:`use_backend` binds this
module's names to the chosen backend's own functions, so callers look
them up here at call time.  The constants of the rules and of the
tests live here: the numpy backend reads them at each call, and the
compiled core has them as macros from its build flags.

The compiled core is the C extension ``_csrkern``.  It is compiled from
``_csrkern.c`` on first import, with the interpreter's ``sysconfig``
compiler settings and numpy's headers, and cached in this package's
``__pycache__`` directory under a name keyed by the source, the compile
flags (the constants with them), the numpy version and the
interpreter's extension suffix; later imports load the cached file
without starting a process.  A checkout and an installed package build
it the same way.  Once a build is loaded, older builds for the same
extension suffix are deleted; builds for other interpreters are kept.
If the core cannot be built (no compiler, or a read-only package
directory), one warning is logged and the numpy reference
implementation is used.

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

# the MINRES solve's rules and the termination tests' constants
BREAKDOWN_TOL = 1e-14  # a Lanczos beta below it: the iterate is exact
STALL_WINDOW = 50  # the solve stalls when, over this many steps, its
STALL_IMPROVEMENT = 1e-4  # least residual falls by less than this share
KAPPA_RHO = 100.0  # condition b: ||rho|| <= KAPPA_RHO beta
KAPPA_R = 100.0  # and ||r|| <= KAPPA_R beta
KAPPA_U = 0.1  # condition c: ||u|| <= KAPPA_U ||v||, or a curved u
KAPPA_V = 0.1  # whose model value is at most KAPPA_V ||v||
EPS_U = 5e-9  # curvature threshold: max(u'Hu, EPS_U ||u||^2)
SIGMA_U = 1.0 - 1e-12  # model reduction's share of the curvature term
SIGMA_C = 0.1  # and of the normal decrease; SIGMA_C < EPS_R
EPS_R = 1.0 - 1e-4  # share of the normal decrease that test 2 retains
# a gated solve forms no residual at a step whose carried residual has
# an infinity norm above RESID_SKIP_MARGIN cap: while the carried one
# stays within (RESID_SKIP_MARGIN - 1) cap of the true one,
# ||r||_inf > cap there
RESID_SKIP_MARGIN = 1.1

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_csrkern.c")
_CACHE_DIR = os.path.join(_HERE, "__pycache__")
# appended after the interpreter's CFLAGS; without contraction into
# fused multiply-adds, tangential_solve and cg keep the bits of the
# numpy loops on every platform.  The constants above become macros of
# the C core, a float as the exact hexadecimal literal of its value
_EXTRA_COMPILE_ARGS = ["-O3", "-ffp-contract=off"] + [
    f"-D{name}={value.hex() if isinstance(value, float) else value}"
    for name, value in ((name, globals()[name]) for name in (
        "BREAKDOWN_TOL", "STALL_WINDOW", "STALL_IMPROVEMENT", "KAPPA_RHO",
        "KAPPA_R", "KAPPA_U", "KAPPA_V", "EPS_U", "SIGMA_U", "SIGMA_C",
        "EPS_R", "RESID_SKIP_MARGIN"))]


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
    """Bind ``csr_matvec``, ``csr_rmatvec``, ``tangential_solve`` and
    ``cg`` to the functions of backend ``name`` (used by tests and
    benchmarks)."""
    global _active_name, csr_matvec, csr_rmatvec, tangential_solve, cg
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; "
                         f"available: {available_backends()}")
    backend = _BACKENDS[name]
    _active_name = name
    csr_matvec = backend.csr_matvec
    csr_rmatvec = backend.csr_rmatvec
    tangential_solve = backend.tangential_solve
    cg = backend.cg


_BACKENDS = {"python": reference}
_csrkern = _load_compiled()
if _csrkern is not None:
    _BACKENDS["compiled"] = _csrkern
use_backend("python" if os.environ.get("SISQO_KERNELS", "") == "python"
            or _csrkern is None else "compiled")
