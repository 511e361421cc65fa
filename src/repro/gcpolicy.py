"""The one cyclic-garbage-collector policy of the program.

Trace records are acyclic tuples: reference counting frees them the
moment they die, so the cyclic collector finds nothing among them. It
still walks every tracked object it holds, again and again, while a
build allocates hundreds of thousands of them. Four situations call
for a different setting, and each has one context manager here:

* :func:`bounded_build`: generating a trace, or one supervised worker
  attempt. The work ends, so the collector is off for all of it; what
  it built is handed on, so nothing is frozen.
* :func:`frozen_build`: loading a trace that the analysis then keeps
  resident. It is a bounded build that, on success, also freezes the
  heap it built (:func:`gc.freeze`), so the collections during the
  analysis skip the records. It first unfreezes what an earlier load froze, so a
  long-lived process keeps at most one load out of the collector's
  reach.
* :func:`streaming_fold`: folding a record stream. A followed stream
  never ends, so the collector stays on; only its generation-0
  threshold is raised, which makes young collections rarer.
* :func:`fork_shared`: fanning work out to forked children. Freezing
  the parent heap keeps its pages shared copy-on-write, because the
  children's collections no longer touch the objects they inherited.

Every context manager restores the collector's previous state on exit,
also when the body raises. repro-lint's GC001 rule keeps every other
module from switching the collector itself.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: Generation-0 threshold while a stream is folded (CPython's default
#: is 700). A fold allocates a few short-lived objects per record; at
#: this threshold young collections run about 30 times less often and
#: each still scans only a small, bounded generation.
FOLD_GEN0_THRESHOLD = 20_000


@contextmanager
def bounded_build() -> Iterator[None]:
    """Run a bounded build with the collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextmanager
def frozen_build() -> Iterator[None]:
    """A :func:`bounded_build` whose heap is frozen when it succeeds."""
    with bounded_build():
        gc.unfreeze()
        yield
        gc.freeze()


@contextmanager
def streaming_fold() -> Iterator[None]:
    """Fold a stream with a raised generation-0 threshold."""
    saved = gc.get_threshold()
    gc.set_threshold(max(saved[0], FOLD_GEN0_THRESHOLD), *saved[1:])
    try:
        yield
    finally:
        gc.set_threshold(*saved)


@contextmanager
def fork_shared() -> Iterator[None]:
    """Keep the parent heap out of the collector while children fork."""
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
