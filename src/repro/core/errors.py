"""Exception hierarchy for HydroLogic programs and their runtimes."""

from __future__ import annotations


class HydroLogicError(Exception):
    """Base class for all HydroLogic specification and runtime errors."""


class SpecificationError(HydroLogicError):
    """A program specification is malformed (unknown table, duplicate name, ...)."""


class UnknownHandlerError(HydroLogicError):
    """A request was addressed to a handler the program does not define."""


class EffectViolation(HydroLogicError):
    """A handler body performed an effect it did not declare.

    Declared effects are HydroLogic's stand-in for the static checks the
    paper wants from a typed IR: the runtime enforces that a handler
    declared monotone never sneaks in a non-monotone assignment.
    """


class InvariantViolation(HydroLogicError):
    """An application-centric consistency invariant evaluated to False."""


class NotDeployableError(HydroLogicError):
    """The target facet's constraints cannot be met by any deployment."""
