"""The two names that the benchmark in ``perfbench/`` reads from this module;
the benchmark change that retargets them (ROADMAP item 1) deletes it.

``hurwitz_trace`` is ``numeric._hurwitz_trace``, the same object, so a
tracer that wraps every binding of it times numeric's own call.
"""

from .numeric import _hurwitz_trace as hurwitz_trace

USING_NUMBA = False  # no compiled build exists; the benchmark records the flag
