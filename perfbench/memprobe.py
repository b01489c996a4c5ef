"""Peak memory of emorank work, measured in a fresh child process.

Usage (from the checkout root):

    python3 perfbench/memprobe.py cli COMMANDS.json
    python3 perfbench/memprobe.py dtw_align A.npy B.npy

`cli` runs each argv list of COMMANDS.json through `emorank.cli.main` in
order; `dtw_align` aligns two saved sequences.  Either prints one JSON line
`{"peak_mb": ...}`: the process's peak resident set size while the work ran,
less its resident size just before (MB = 2**20 bytes).  A fresh process is
used because the peak of a process cannot be reset from inside it, and
tracemalloc slows the DTW loop about sixteenfold.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(argv) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    from emorank import cli
    from emorank.conv_metrics import dtw_align

    kind, *paths = argv
    if kind == "cli":
        commands = json.loads(Path(paths[0]).read_text(encoding="utf-8"))

        def work():
            with contextlib.redirect_stdout(io.StringIO()):
                return max(cli.main(command) for command in commands)
    elif kind == "dtw_align":
        a, b = (np.load(p) for p in paths)

        def work():
            dtw_align(a, b)
            return 0
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    gc.collect()
    before = resident_bytes()
    code = work()
    print(json.dumps({"peak_mb": (peak_bytes() - before) / 2 ** 20}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
