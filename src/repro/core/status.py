"""The shared status vocabulary for every decision procedure.

:class:`Status` is the ``status`` of every
:class:`~repro.core.result.SolveOutcome`.  It subclasses :class:`str`
so plain-string comparisons (``outcome.status == "VALID"``), dict keys,
``"%s" % status`` and JSON serialization all work unchanged.
"""

from __future__ import annotations

import enum

__all__ = ["Status", "DECIDED_STATUSES"]


class Status(str, enum.Enum):
    """Outcome of one validity check, shared by all engines.

    ``VALID`` / ``INVALID`` are *decided* verdicts; everything else means
    the procedure gave up (resource limit, translation blow-up, or a
    crashed portfolio member).
    """

    VALID = "VALID"
    INVALID = "INVALID"
    UNKNOWN = "UNKNOWN"
    TRANSLATION_LIMIT = "TRANSLATION_LIMIT"
    ERROR = "ERROR"

    # Keep plain-string formatting: "%s" % Status.VALID == "VALID" (the
    # enum mixin would otherwise print "Status.VALID" on some versions).
    __str__ = str.__str__
    __format__ = str.__format__

    @property
    def decided(self) -> bool:
        """True for the two definitive verdicts."""
        return self in DECIDED_STATUSES

    @property
    def as_valid(self) -> "bool | None":
        """``True``/``False`` when decided, ``None`` otherwise."""
        if self is Status.VALID:
            return True
        if self is Status.INVALID:
            return False
        return None


DECIDED_STATUSES = frozenset((Status.VALID, Status.INVALID))
