"""Stubs of deleted searches, kept by name because `perfbench/tracing.py`
traces both (ROADMAP item 1)."""
from __future__ import annotations


def golden_section_max(*args, **kwargs):
    """Deleted search; `reduced.sup_norm_grid` takes one parabolic step."""
    raise NotImplementedError("golden_section_max was removed; see ROADMAP item 1")


def nelder_mead_max(*args, **kwargs):
    """Deleted search; the name stays only because `perfbench/tracing.py`
    traces it and `perfbench/test_perfbench.py` pins its `feasibility`
    binding (ROADMAP item 1)."""
    raise NotImplementedError("nelder_mead_max was removed; see ROADMAP item 1")
