"""Error taxonomy shared by all modules.

Every computational failure mode has a dedicated exception class so that
callers (and the CLI) can report the failure by name.  Invalid input is
refused with ``ValidationError``, a ValueError and not a DrivenSpinError.
"""


class ValidationError(ValueError):
    """An argument outside its domain; the CLI's only exit-2 failure."""


class DrivenSpinError(Exception):
    """Base class for all toolkit errors."""


class NotHermitian(DrivenSpinError):
    """Matrix handed to a Hermitian-only routine is not Hermitian."""


class DegenerateGap(DrivenSpinError):
    """Spectrum too close to degenerate for band labels to be meaningful."""


class UnsupportedPhase(DrivenSpinError):
    """phi_l - phi_r is neither 0 nor pi; closed forms exist only there."""


class NonConverged(DrivenSpinError):
    """Iterative or discretized computation failed its convergence check."""


class AmbiguousMatch(DrivenSpinError):
    """Band-label assignment could not be made uniquely."""


class ZeroFrequency(DrivenSpinError):
    """Time evolution over one drive period requires omega > 0."""


class OnTransition(DrivenSpinError):
    """Parameters sit on a topological transition line; invariants undefined."""
