"""Tree-level multi-photon Compton scattering and photon-triplet
polarization entanglement."""

__version__ = "0.1.0"

from .algebra import (Bispinor, LorentzVector, PolarizationPair,
                      dirac_spinor, minkowski_dot, polarization_basis,
                      propagator, slash)
from .kinematics import (ClosedFinalState, CollisionSetup, FinalStateConfig,
                         close_final_state, omega3)
from .amplitude import (AmplitudeInputs, double_compton_amplitude,
                        single_compton_amplitude, total_amplitude)
from .cross_section import (Sigma5Point, sigma5, spin_summed_sigma5,
                            unpolarized_sigma5)
from .integration import (BeamParameters, IntegrationResult,
                          detector_average, event_rate, total_cross_section)
from .entanglement import (TauResult, Witness, density_from_amplitudes,
                           gme_tau, partial_transpose, tau_grid)
