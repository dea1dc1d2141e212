"""Finite simplicial sets with subdivision, desingularization, and the
comparison machinery relating them to nerves of posets.

Importing the package sets the process's collection policy, once: the
cyclic collector stays enabled, and a generation-0 collection waits for
``GC_GEN0_THRESHOLD`` net container allocations instead of CPython's
700; generations 1 and 2 keep their thresholds.

The policy rests on one condition, which
``tests/test_cli.py::test_calls_leave_no_cyclic_garbage`` checks: the
package makes no reference cycles.  Its cell tables are tuples, dicts
and lists of cell ids and shared operators, and nothing in them refers
back to what holds it, so reference counting frees every object the
package builds as soon as its last reference goes, and the cyclic
collector finds no garbage in them.  What the collector does instead
is walk those tables while they are being built and are all still
live: every 700 allocations it traverses the young ones, and every few
of those rounds it traverses the older ones too.  A higher
generation-0 threshold changes only how often that walk happens.
Nothing the package builds is freed at another moment, and a cycle
made elsewhere in the process is still collected, a little later.
"""

import gc

GC_GEN0_THRESHOLD = 10_000

gc.set_threshold(GC_GEN0_THRESHOLD, *gc.get_threshold()[1:])
