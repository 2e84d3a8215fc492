"""Analytic cavity electrodynamics: rectangular-cavity eigenmodes, coaxial
two-port scattering with two-photon interference, and dispersive parameters
of dipole-antenna transmons coupled to the cavity."""

from .cavity import (CavityGeometry, CavityMode, CoaxProbe, ModeIndex, eval_fields,
                     make_mode, mode_list, resonant_frequency, wavenumbers)
from .errors import (ConfigError, ConvergenceError, DegenerateResponseError,
                     ExternalModesError, FieldVariationWarning, OutOfValidityError,
                     TransmonRegimeWarning, UndefinedCorrelationError)
from .external import ExternalModeRecord, read_external_modes, write_external_modes
from .hom import (HomCurve, PhotonWavepacket, balanced_center_frequency, hom_curve,
                  scan_balanced_center)
from .perturbation import PerturbationResult, perturbed_frequency_tip, tip_point
from .ports import (PortCoupling, ScatteringResponse, half_power_bandwidth,
                    port_coupling, transfer_functions, two_port_response)
from .system import (CouplingMatrix, DispersiveColumns, DressedSpectrum,
                     QubitInstance, SectorSpectra, SystemBasis, coupling_matrix,
                     dipole_center_fields, dispersive_columns, first_misplaced_dipole,
                     receiving_voltage_line_integral, sector_spectra,
                     transition_couplings)
from .transmon import (DipoleSpec, TransmonParams, TransmonSpectrum,
                       default_charge_cutoff, dipole_capacitance,
                       transmon_spectra, transmon_spectrum)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
