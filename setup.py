"""Build script for the compiled CSR kernels.

The extension is optional: if no C toolchain is available the package
installs anyway and `sisqo.kernels` falls back to the numpy reference
implementation at import time.
"""

import numpy
from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow compiler failures so the pure-Python install still works."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            print(f"warning: compiled kernels skipped ({exc}); "
                  "using numpy fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: building {ext.name} failed ({exc}); "
                  "using numpy fallback")


# the same flags sisqo.kernels uses when it builds a source checkout
extensions = [
    Extension(
        "sisqo.kernels._csrkern",
        ["src/sisqo/kernels/_csrkern.c"],
        include_dirs=[numpy.get_include()],
        extra_compile_args=["-O3", "-ffp-contract=off"],
    ),
]

setup(ext_modules=extensions, cmdclass={"build_ext": optional_build_ext})
