"""fermiflow: a numerical laboratory for mean-field fermion dynamics.

Hartree-Fock and Hartree flows for one-particle density matrices on
periodic lattices in the coupled semiclassical scaling hbar = N^(-1/ds),
with commutator diagnostics, an exact Fock-space oracle on tiny lattices,
fluctuation dynamics around the Slater sea, and a Wigner/Vlasov
classical-limit comparison.
"""

__version__ = "0.1.0"

from .model import (Lattice, Potential, build_potential, default_hbar, kinetic_operator,
                    make_lattice)
from .initial_data import (DegenerateFermiLevel, DensityMatrix, fermi_ball_indices,
                           plane_wave_projection, trapped_slater)
from .diagnostics import (SemiclassicalReport, commutator_momentum, commutator_phase,
                          default_probe_momenta, fit_exponential, semiclassical_constant,
                          trace_distance, trace_norm)
from .meanfield import (EvolutionConfig, MeanFieldKind, Snapshot, apply_exponential,
                        density_profile, direct_term, energy, evolve, exchange_term, generator,
                        split_step, step)
from .semiclassics import momentum_grid, vlasov_step, wigner
from .snapshots import read_fmf1, write_csv, write_fmf1

__all__ = [name for name in dir() if not name.startswith("_")]
