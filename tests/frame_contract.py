"""The frame contract of ``layers.py``, measured stage by stage.

A stage's declared ``words_budget`` must cover every local its ``check``
keeps while it runs.  The frames its own view charges for the liveness
walks the check asks for are excluded, and so is everything those walks
run: they carry their own budgets.  A view that a check builds and
queries itself, such as a hitting stage's inner independent-set view, is
one of its locals, so that view's frames count against the check.

:func:`check_frames` runs an audited solve under a :class:`FrameLedger`
and reports, per stage class, how many checks ran and the most words one
check held at once.  It wraps every ``StagePredicate`` subclass's
``check`` and ``_LayeredView._live`` for the length of the solve, and
restores them afterwards.
"""

import romapprox  # imports every module that defines a stage class
from romapprox.layers import StagePredicate, _LayeredView
from romapprox.meter import WorkspaceMeter


class _Open:
    """A stage check (``stage`` set) or a liveness walk (``stage`` None)
    of ``view`` that has not returned yet."""

    __slots__ = ("view", "stage", "held", "peak")

    def __init__(self, view, stage):
        self.view = view
        self.stage = stage
        self.held = 0
        self.peak = 0


class FrameLedger(WorkspaceMeter):
    """A meter that also gives each charge to the open checks it counts
    against: every open check with no walk of its own view opened since."""

    def __init__(self):
        super().__init__()
        self.open = []
        self.peaks = {}

    def alloc(self, words):
        super().alloc(words)
        self._give(words)

    def release(self, words):
        super().release(words)
        self._give(-words)

    def _give(self, words):
        walking = set()
        for entry in reversed(self.open):
            if entry.stage is None:
                walking.add(entry.view)
            elif entry.view not in walking:
                entry.held += words
                entry.peak = max(entry.peak, entry.held)

    def run(self, view, stage, call):
        """``call()`` with a check or walk of ``view`` open; a closed
        check's peak goes to its stage class's entry of ``peaks``."""
        entry = _Open(view, stage)
        self.open.append(entry)
        try:
            return call()
        finally:
            self.open.pop()
            if stage is not None:
                name = type(stage).__name__
                calls, peak = self.peaks.get(name, (0, 0))
                self.peaks[name] = (calls + 1, max(peak, entry.peak))


def _stage_classes(cls=StagePredicate):
    yield cls
    for sub in cls.__subclasses__():
        yield from _stage_classes(sub)


def check_frames(solve):
    """Run ``solve(meter)`` under a fresh :class:`FrameLedger`.

    Returns ``(result, peaks)``: ``peaks`` maps each stage class name
    whose ``check`` ran to ``(checks, most words one check held)``.
    """
    ledger = FrameLedger()
    saved = []

    def watch_check(check):
        return lambda stage, level, item: ledger.run(
            level.view, stage, lambda: check(stage, level, item)
        )

    def watch_walk(live):
        return lambda view, *args: ledger.run(view, None, lambda: live(view, *args))

    for cls in _stage_classes():
        if "check" in vars(cls):
            saved.append((cls, "check", cls.check))
            cls.check = watch_check(cls.check)
    saved.append((_LayeredView, "_live", _LayeredView._live))
    _LayeredView._live = watch_walk(_LayeredView._live)
    try:
        result = solve(ledger)
    finally:
        for cls, name, fn in reversed(saved):
            setattr(cls, name, fn)
    assert ledger.charged_current == 0 and not ledger.open
    return result, ledger.peaks
