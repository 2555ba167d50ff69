"""Set-up probe: import arrowlab from the given source tree, validate one
configuration the way the CLI does, then print the monotonic clock.

run.py reads the clock just before it starts this process, so the
difference is the set-up a user waits for before any experiment runs.

    python3 perfbench/setup_probe.py SRC_DIR EXPERIMENT [--key value ...]
"""

import sys
import time

src, experiment, *flags = sys.argv[1:]
sys.path.insert(0, src)

from arrowlab import cli  # noqa: E402

cli.validate_config(experiment, "", {flag[2:]: value for flag, value in zip(flags[::2], flags[1::2])})
print(time.monotonic())
