from setuptools import Extension, setup

# The compiled kernels are optional: without a C compiler the package
# installs anyway and falls back to the pure-Python implementations.
setup(
    ext_modules=[
        Extension("locdim._speedups", ["src/locdim/_speedups.c"], optional=True)
    ]
)
