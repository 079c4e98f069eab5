"""Exception types shared across the package."""


class CheapTalkError(Exception):
    """Base class for all package-specific errors."""


class DivergentIntegral(CheapTalkError):
    """A separation integral does not converge for the given density pair."""


class SeparationOverflow(CheapTalkError):
    """A separation integral converges, but to a value past the double range."""


class DegenerateHorizon(CheapTalkError):
    """Nothing to separate: one period, or both log separation integrals <= 0 in floats."""


class OutOfRegime(CheapTalkError):
    """A threshold was requested outside the half-interval on which it is defined."""


class UndecidedEquilibrium(CheapTalkError):
    """Two profiles' bias influences agree beyond the exact comparison's precision cap."""
