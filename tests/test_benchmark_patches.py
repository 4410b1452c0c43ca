"""The benchmark's wrappers install on the package and come off cleanly.

``lfsobench/layers.py`` patches package attributes by name (builders,
solvers, checks, oracle constructors and radius policies).  Deleting or
renaming one of them makes installing fail with the benchmark's own
``AttributeError`` here, not only in the benchmark run.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "lfsobench"))

import layers  # noqa: E402


def attribute(owner, name):
    """What ``layers.Patcher`` saves: a class's own entry, a module's
    attribute."""
    if isinstance(owner, type):
        return vars(owner)[name]
    return getattr(owner, name)


def test_phases_and_tracer_install_and_restore():
    patcher = layers.Patcher()
    try:
        layers.Phases().install(patcher)
        layers.Tracer().install(patcher)
        # Phases and Tracer both wrap some names: the first save of each
        # holds the package's own object
        originals = {}
        for owner, name, original in patcher._saved:
            originals.setdefault((owner, name), original)
        assert all(attribute(owner, name) is not original
                   for (owner, name), original in originals.items())
    finally:
        patcher.restore()
    assert originals
    for (owner, name), original in originals.items():
        assert attribute(owner, name) is original, name
