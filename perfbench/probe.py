"""Set-up probe: a fresh interpreter imports netdea and parses the inputs.

Usage: python3 probe.py SRC_DIR CSV_FILE...

Prints the monotonic clock (ns) once every file is parsed; the caller
subtracts the time it started this process. Kept free of other imports so
that only interpreter start, netdea's import and parsing are timed.
"""

import os
import sys
import time

src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
import netdea  # noqa: E402

if not os.path.realpath(netdea.__file__).startswith(src + os.sep):
    sys.exit(f"netdea was imported from {netdea.__file__}, not from {src}")
for path in sys.argv[2:]:
    netdea.load_dataset(path)
print(time.monotonic_ns())
