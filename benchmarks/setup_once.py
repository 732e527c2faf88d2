"""Time one set-up of a workload in a fresh process.

    python3 benchmarks/setup_once.py sim-narrow

Run from the root of a checkout. Prints two thread CPU times, in
nanoseconds: one run of the interpreter reference loop, then the time
from ``import rnskit`` until the workload's first request is ready.
run.py uses the first to rescale the second to its reference speed.
Set-up is mostly import, which is interpreter work, so that loop scales
it on every workload, rns-wide too; it runs first, in the same cold
process as the import. Nothing but the interpreter's own start-up and
the import-free reference module runs before the import, so it pays
every cost a first import pays: modules rnskit pulls in, bytecode
loading and compiled regular expressions. The benchmark's other modules
are imported after rnskit, outside the timed interval.
"""

import os
import sys
from time import thread_time_ns

from reference import interpreter_reference

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
start = thread_time_ns()
interpreter_reference()
reference_ns = thread_time_ns() - start

start = thread_time_ns()
import rnskit  # noqa: E402
import rnskit.cli  # noqa: E402

imported = thread_time_ns()
from workloads import WORKLOADS  # noqa: E402

resumed = thread_time_ns()
WORKLOADS[sys.argv[1]].setup(rnskit)
print(reference_ns, imported - start + thread_time_ns() - resumed)
