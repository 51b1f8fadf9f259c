"""Tree-level multi-photon Compton scattering and photon-triplet
polarization entanglement."""

__version__ = "0.1.0"

from .algebra import minkowski_dot
from .kinematics import CollisionSetup
from .amplitude import point_amplitude
from .cross_section import sigma5, spin_summed_sigma5, unpolarized_sigma5
from .integration import (BeamParameters, IntegrationResult,
                          detector_average, event_rate, total_cross_section)
from .entanglement import (TauResult, Witness, density_from_amplitudes,
                           gme_tau, partial_transpose, tau_grid)
