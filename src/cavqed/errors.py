"""Exception and warning types shared across the library.

The CLI maps these onto process exit codes: configuration problems exit 2,
degenerate-physics conditions exit 3, and internal numerical failures exit 4.
"""
from __future__ import annotations


class DegenerateResponseError(ValueError):
    """Two-port response with both couplings zero: transfer functions undefined at resonance."""


class UndefinedCorrelationError(ValueError):
    """Second-order correlation undefined because a detector sees zero flux (B*C = 0)."""


class OutOfValidityError(ValueError):
    """Closed-form formula evaluated outside its validity range (e.g. past a pole)."""


class ConvergenceError(RuntimeError):
    """A numerically computed quantity failed its built-in convergence check;
    ``point`` is the index of the failing point of a stacked call, if any."""

    def __init__(self, message: str, point: int | None = None) -> None:
        super().__init__(message)
        self.point = point


class ConfigError(ValueError):
    """Configuration file failed schema or semantic validation."""


class ExternalModesError(ValueError):
    """External mode-record file failed parsing or validation."""


class GridCoverageWarning(UserWarning):
    """A frequency grid does not fully cover a wavepacket's spectral support."""


class FieldVariationWarning(UserWarning):
    """A mode field varies appreciably over a dipole, degrading the point-sample voltage."""


class TransmonRegimeWarning(UserWarning):
    """E_J/E_C is too small for the charge-insensitive transmon regime."""
