"""certground: certified lower bounds (and simple variational upper bounds)
on the ground-state energy density of translationally invariant
nearest-neighbour lattice Hamiltonians."""

from .anderson import anderson_bound, anderson_formula, guarantee_formula
from .eigensolver import EigResult, min_eig, min_eig_lanczos
from .marginal import MarginalProblemSpec, build_marginal_sdp, improved_anderson_bound
from .models import ModelSpec, PatchSpec, build_patch, builtin_model, parse_model
from .moment import ti_moment_bound
from .reports import BoundReport
from .sdp import SdpProblem, SdpSolution, solve
from .upper import product_state_upper, ring_reference

__version__ = "0.1.0"
