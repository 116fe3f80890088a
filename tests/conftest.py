import os
import platform
import sys

import numpy as np

from xferad.transfer import _usable_cpus

# make the shared test helpers (fdcheck, taskstats) importable regardless
# of how pytest is invoked
sys.path.insert(0, os.path.dirname(__file__))


def pytest_report_header(config):
    """The numpy and BLAS the byte tests ran on: a GEMM's bits depend on the
    BLAS build, so a byte-test failure on another machine should name it.
    Also the usable CPUs, which set prefix_features' helper thread count,
    the C library, whose allocator the fresh-process RSS tests measure, and
    any MALLOC_* variables set, which change that allocator's mode."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc, libc_version = platform.libc_ver()
    malloc = " ".join(f"{k}={v}" for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_"))
    return (f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, "
            f"usable CPUs {_usable_cpus()}, libc {libc or 'unknown'} {libc_version}, "
            f"malloc env {malloc or 'none'}")
