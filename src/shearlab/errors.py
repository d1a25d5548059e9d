"""Exception types shared across the package."""


class ShearlabError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(ShearlabError, ValueError):
    """Invalid parameter or argument value."""


class EmptyOverlapError(ShearlabError):
    """A rescaled domain has no overlap with the original grid."""


class RegionExitError(ShearlabError):
    """A trajectory left its certified invariant region."""


class MaxStepsError(ShearlabError):
    """An integration hit its step budget before reaching its target."""


class UnresolvedTailError(ShearlabError):
    """The node-departure coefficient of an orbit lies past the float range."""


class StiffnessError(ShearlabError):
    """A time integrator gave up before its target time."""


class PositivityError(ShearlabError):
    """The strain rate lost positivity at a grid node.

    Carries the offending state in ``state`` so the localization onset can be
    reported.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class RangeError(ShearlabError):
    """Evaluation requested outside the supported range."""
