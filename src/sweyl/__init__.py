"""Group-Fourier purity spectra and Stratonovich-Weyl phase-space filters."""

from .clebsch import HalfInt, clebsch_gordan
from .gfd import (DualityRow, PuritySpectrum, closed_form_spin_purity,
                  coherent_fidelity, duality_check, gfd_project,
                  haar_mean_purity, kernel_purity, markov_bound, norm_bounds,
                  phase_purity, purity_spectrum, s_flow_generator)
from .models import (FermionicModel, FermionicPoint, IrrepBlock,
                     MultipartiteModel, QrtModel, SpinModel)
from .paulis import PauliString
from .phase_space import (KernelSpec, Quadrature, SymbolField, convert_field,
                          default_grid, harmonic_matrix, kernel_stack,
                          mc_group_quadrature, phase_purity_quadrature,
                          product_quadrature, reconstruct, sphere_quadrature,
                          star_product, sw_kernel, symbol, symbol_field)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
