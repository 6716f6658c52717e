"""Copies of the package with their own build of ``_csrkern.c``, and
pytest runs on such a copy in a child interpreter.

A build takes the interpreter's compiler and flags, then ``first``, then
the package's own flags (``sisqo.kernels._EXTRA_COMPILE_ARGS``), then
``last``, and lands under the cache name that the copy's loader looks
for: the name covers the source, the package's flags and numpy, none of
which a copy changes.  So the copy loads it on import and compiles
nothing.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig

import numpy as np

import sisqo
from sisqo import kernels

# Run in the child: check that the copy's kernels loaded the build named
# first on the command line, then run pytest on the rest of it, and go
# on only if every test passed
_CHILD = """
import sys
import pytest
from sisqo import kernels
assert kernels.active_backend() == "compiled", kernels.available_backends()
assert kernels._csrkern.__file__ == sys.argv[1], kernels._csrkern.__file__
code = pytest.main(sys.argv[2:])
if code:
    sys.exit(int(code))
"""


def compiler():
    """The interpreter's LDSHARED command as a list, or None when it
    names no compiler that can be found."""
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    return ldshared if ldshared and shutil.which(ldshared[0]) else None


def copy_package(root):
    """A copy of the sisqo package under ``root``, without its builds;
    returns the copy's kernels directory."""
    shutil.copytree(os.path.dirname(sisqo.__file__), root / "sisqo",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return root / "sisqo" / "kernels"


def build_in_copy(root, first=(), last=()):
    """Copy the package under ``root`` and build its ``_csrkern.c`` with
    ``first`` and ``last`` around the package's flags; returns the path
    of the build.  A failed compile fails the calling test."""
    built = copy_package(root) / "__pycache__" / os.path.basename(
        kernels._cached_path())
    built.parent.mkdir()
    proc = subprocess.run(
        [*compiler(), *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
         *shlex.split(sysconfig.get_config_var("CCSHARED") or ""), *first,
         *kernels._EXTRA_COMPILE_ARGS, *last,
         "-I", sysconfig.get_path("include"), "-I", np.get_include(),
         str(built.parents[1] / "_csrkern.c"), "-o", str(built)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return built


def pytest_in_copy(root, built, args, then="", env=None):
    """Run pytest on ``args`` in a child interpreter that imports the
    copy under ``root`` and has loaded its build ``built``, then, if
    every test passed, the code ``then``.  ``env`` adds to the
    environment, which loses SISQO_KERNELS.  Returns the finished
    process."""
    environ = {k: v for k, v in os.environ.items() if k != "SISQO_KERNELS"}
    environ.update(env or {}, PYTHONPATH=str(root))
    # pytest puts the checkout's src first on sys.path unless told the
    # copy's root instead
    return subprocess.run(
        [sys.executable, "-c", _CHILD + then, str(built), *args, "-q",
         "-p", "no:cacheprovider", "-o", f"pythonpath={root}"],
        capture_output=True, text=True, env=environ, cwd=root,
        timeout=600)
