import os
import platform
import sys

import numpy as np
from numpy.lib.introspect import opt_func_info

from xferad.tensor import _usable_cpus

# make the shared test helpers (fdcheck, taskstats) importable regardless
# of how pytest is invoked
sys.path.insert(0, os.path.dirname(__file__))


def pytest_report_header(config):
    """The numpy and BLAS the byte tests ran on: a GEMM's bits depend on the
    BLAS build, so a byte-test failure on another machine should name it.
    Also the usable CPUs, which size the kept helper pool and set how many
    helpers tensor.run_all shares conv2d's dw and dx and evaluate.infer's
    chunks with, the C library, whose allocator the fresh-process RSS tests measure, and
    any MALLOC_* variables set, which change that allocator's mode. Last,
    numpy's SIMD extensions and the loop its float32 np.maximum dispatches
    to: np.maximum breaks -0.0/+0.0 ties one way in its SIMD loop and the
    other way in its scalar loop; maxpool2d's outputs depend on neither."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    libc, libc_version = platform.libc_ver()
    malloc = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_"))
    maximum = opt_func_info(func_name="^maximum$", signature="^float32$")["maximum"]["fff"]
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"usable CPUs {_usable_cpus()}, libc {libc or 'unknown'} {libc_version}, "
            f"malloc env {malloc or 'none'}, SIMD baseline {' '.join(simd['baseline'])} "
            f"enabled {' '.join(simd['found']) or 'none'}, "
            f"float32 maximum loop {maximum['current']}")
