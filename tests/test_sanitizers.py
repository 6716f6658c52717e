"""The compiled kernels under AddressSanitizer and UndefinedBehaviorSanitizer.

A copy of the package gets a build of ``_csrkern.c`` with both
sanitizers, under the name its loader looks for, and a child interpreter
with the sanitizer runtimes preloaded runs the kernel and krylov tests,
a mesh-4 Poisson solve and a mesh-4 Neumann budget-matched pair on it;
the pair's two runs call the kernels from two threads at once.  Any
report fails the test.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from sisqo import kernels

TESTS = Path(__file__).resolve().parent

# tests that build or copy the core themselves: they start compilers,
# which must not run with the sanitizer runtimes preloaded
_BUILD_TESTS = ("test_failed_build_falls_back_to_numpy",
                "test_stale_builds_are_pruned",
                "test_build_is_cached_and_reused",
                "test_in_tree_extension_is_not_loaded",
                "test_built_package_imports_with_compiled_backend",
                "test_kernel_source_compiles_without_warnings")

# Run in the child: check that the copy's kernels loaded the sanitized
# build, run the tests, then solve the mesh-4 Poisson control problem,
# whose rungs must skip some residual products, so the steps that leave
# the residual row stale run under the sanitizers too.
_CHILD = """
import sys
import pytest
from sisqo import kernels
assert kernels.active_backend() == "compiled", kernels.available_backends()
assert kernels._csrkern.__file__ == sys.argv[1], kernels._csrkern.__file__
code = pytest.main(sys.argv[2:])
if code:
    sys.exit(int(code))
import sisqo.harness
from sisqo.config import (apply_overrides, build_problem,
                          build_solver_config, harness_settings, load_config,
                          oracle_settings)
rungs, iterate = [], sisqo.harness.sqp_iterate
def recorded_iterate(*args, **kwargs):
    state, step = iterate(*args, **kwargs)
    rungs.extend(step.info["rungs"])
    return state, step
sisqo.harness.sqp_iterate = recorded_iterate
config = apply_overrides(load_config("control_finite_sum"),
                         ["problem.mesh_size=4"])
kind, eps_n = oracle_settings(config)
record = sisqo.harness.run_single(
    build_problem(config), build_solver_config(config, seed=0), 0,
    oracle_kind=kind, eps_n=eps_n)
assert any(r["residuals"] < r["minres_iters"] for r in rungs), rungs
print("poisson4", record.status, record.total_minres_iters,
      sum(r["residuals"] for r in rungs))
config = apply_overrides(load_config("control_finite_sum"),
                         ["problem.kind=neumann_control",
                          "problem.mesh_size=4"])
kind, eps_n = oracle_settings(config)
kappa_exact = harness_settings(config)["kappa_exact"]
pair = sisqo.harness.run_budget_matched_pair(
    build_problem(config), build_solver_config(config, seed=0),
    build_solver_config(config, seed=0, kappa=kappa_exact), 0,
    oracle_kind=kind, eps_n=eps_n)
print("neumann4 pair", *(r.status for r in pair.runs()), pair.budget)
"""


def _runtime(compiler, name):
    """The compiler's path of the runtime library ``name``, or None."""
    try:
        proc = subprocess.run([compiler, f"-print-file-name={name}"],
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    path = proc.stdout.strip()
    # an unresolved name comes back as it went in
    return path if proc.returncode == 0 and os.path.isabs(path) else None


@pytest.mark.skipif(not os.path.exists(kernels._SOURCE),
                    reason="no _csrkern.c beside the package")
def test_kernels_run_clean_under_sanitizers(tmp_path):
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    asan = _runtime(ldshared[0], "libasan.so") if ldshared else None
    if asan is None:
        pytest.skip("the compiler has no AddressSanitizer runtime")
    ubsan = _runtime(ldshared[0], "libubsan.so")
    assert ubsan is not None, "libasan.so resolves but libubsan.so does not"

    import sisqo

    root = tmp_path / "pkg"
    shutil.copytree(os.path.dirname(sisqo.__file__), root / "sisqo",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    # the loader's cache name covers the source, the package's flags and
    # numpy, none of which the copy changes
    built = root / "sisqo" / "kernels" / "__pycache__" / os.path.basename(
        kernels._cached_path())
    built.parent.mkdir()
    proc = subprocess.run(
        [*ldshared, *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
         *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
         "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
         *kernels._EXTRA_COMPILE_ARGS, "-O1", "-g",
         "-I", sysconfig.get_path("include"), "-I", np.get_include(),
         kernels._SOURCE, "-o", str(built)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    env = {k: v for k, v in os.environ.items() if k != "SISQO_KERNELS"}
    env.update(PYTHONPATH=str(root), LD_PRELOAD=f"{asan}:{ubsan}",
               ASAN_OPTIONS="detect_leaks=0")
    # pytest puts the checkout's src first on sys.path unless told the
    # copy's root instead; --capture=sys lets a report reach stderr
    args = [str(TESTS / "test_kernels.py"), str(TESTS / "test_krylov.py"),
            "-q", "-p", "no:cacheprovider", "--capture=sys",
            "-o", f"pythonpath={root}",
            "-k", " and ".join(f"not {name}" for name in _BUILD_TESTS)]
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(built), *args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=600)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output[-4000:]
    for report in ("AddressSanitizer", "runtime error:",
                   "UndefinedBehaviorSanitizer"):
        assert report not in output, output[-4000:]
    assert "poisson4 converged" in proc.stdout, proc.stdout[-2000:]
    assert "neumann4 pair converged budget_exhausted" in proc.stdout, \
        proc.stdout[-2000:]
