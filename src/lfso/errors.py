"""Exception and warning types shared across the package."""


class LfsoError(Exception):
    """Base class for errors raised by this package."""


class ZeroOracleError(LfsoError):
    """Smoothness oracle returned 0 at a point with nonzero gradient."""


class NonFiniteValueError(LfsoError):
    """An objective, gradient, oracle value, or iterate became non-finite."""


class ShapeMismatchError(LfsoError):
    """Array dimensions do not agree."""


class NegativeCurvatureError(LfsoError):
    """Supplied second derivative of the outer function evaluated negative."""


class MissingDiagnosticsError(LfsoError):
    """Trace lacks the per-iteration data a check needs."""


class InsufficientDataError(LfsoError):
    """Too few usable points to fit a rate."""


class AssumptionUnmetError(LfsoError):
    """Problem fails the conditioning requirement a check relies on."""


class NoConvergenceWarning(UserWarning):
    """An iterative estimate hit its iteration cap; best estimate returned.

    Nothing in the package raises it: the structure constants come from a
    dense eigendecomposition, which has no cap.  It stays only because
    ``lfsobench/layers.py`` imports it.
    """
