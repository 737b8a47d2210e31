"""Running code with the cyclic collector held off.

A test that asks "does this leave anything only a full collection can
free?" switches automatic collections off, runs the code, then collects
once by hand: with ``save_all`` every object that collection finds —
everything that reference counting did not free — stays in
``gc.garbage`` to be looked at.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_off(save_all=False):
    """No automatic collections; optionally keep what a manual one finds."""
    gc.collect()
    gc.disable()
    if save_all:
        gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def left_to_the_collector(*kinds):
    """Collect once; the type names of what it found of ``kinds``.

    Call inside ``collector_off(save_all=True)``.
    """
    gc.collect()
    return [type(obj).__name__ for obj in gc.garbage if isinstance(obj, kinds)]
