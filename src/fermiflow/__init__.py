"""fermiflow: a numerical laboratory for mean-field fermion dynamics.

Hartree-Fock and Hartree flows for one-particle density matrices on
periodic lattices in the coupled semiclassical scaling hbar = N^(-1/ds),
with commutator diagnostics, an exact Fock-space oracle on tiny lattices,
fluctuation dynamics around the Slater sea, and a Wigner/Vlasov
classical-limit comparison.
"""

__version__ = "0.1.0"

from .model import (Lattice, Potential, build_potential, default_hbar,
                    fourier_matrix, kinetic_operator, make_lattice,
                    momentum_operator, phase_operator)
from .initial_data import (DegenerateFermiLevel, DensityMatrix, fermi_ball_indices,
                           kernel_ansatz, plane_wave_projection, trapped_slater,
                           weyl_quantize)
from .diagnostics import (CommutatorSeries, DistanceSeries, GrowthFit,
                          SemiclassicalReport, commutator_momentum,
                          commutator_phase, default_probe_momenta,
                          distance_series, fit_double_exponential,
                          fit_exponential, hs_norm, semiclassical_constant,
                          semiclassical_series, spectral_form, trace_norm)
from .meanfield import (EvolutionConfig, MeanFieldKind, Trajectory,
                        compare_hf_hartree, density_profile, direct_term,
                        evolve, exchange_term, generator, hf_energy, step)
from .semiclassics import (PhaseSpaceDensity, compare_wigner_vlasov,
                           momentum_grid, vlasov_step, wigner)
from .snapshots import read_fmf1, write_csv, write_fmf1

__all__ = [name for name in dir() if not name.startswith("_")]
