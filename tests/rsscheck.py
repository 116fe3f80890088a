"""Peak-memory oracle: how far a piece of code raises the peak resident
set size of a fresh Python process.

The code runs in its own interpreter, so nothing the test process has
already allocated (or freed back to its own heap) hides or inflates the
peak. The peak is the process's VmHWM (Linux /proc/self/status), the
high-water mark of the address space that exec created. ru_maxrss would
not do: Linux folds the parent's high-water mark into it at exec, so the
child of a large test process starts at the parent's peak.
"""

import subprocess
import sys
from pathlib import Path

import xferad

_SRC = str(Path(xferad.__file__).parents[1])

_TEMPLATE = """
import sys
sys.path.insert(0, {src!r})

def _vm_hwm_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

{setup}
_before = _vm_hwm_kib()
{code}
print(_vm_hwm_kib() - _before)
"""


def peak_rss_growth(setup, code, timeout=120):
    """Bytes by which running `code` raised the peak RSS of a fresh
    interpreter that first ran `setup` (imports, inputs). Both are
    Python source; the xferad sources under test are importable."""
    script = _TEMPLATE.format(src=_SRC, setup=setup, code=code)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) * 1024
