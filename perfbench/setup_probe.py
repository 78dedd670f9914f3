"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first operation: importing k3stab,
building the CLI parser and generating the workload's inputs (for the sweep
this includes forms.enumerate_reduced and writing the scenario files).

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from k3stab import cli  # noqa: E402

import workloads  # noqa: E402

cli.build_parser()
workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - start)
