"""certground: certified lower bounds (and simple variational upper bounds)
on the ground-state energy density of translationally invariant
nearest-neighbour lattice Hamiltonians."""

from .anderson import (AndersonResult, anderson_bound, anderson_formula,
                       anderson_sweep, guarantee_formula)
from .eigensolver import EigResult, min_eig, min_eig_lanczos
from .marginal import (MarginalBoundResult, MarginalProblemSpec, build_marginal_sdp,
                       improved_anderson_bound, partial_trace)
from .models import (ModelSpec, PatchSpec, build_patch, build_ring, builtin_model,
                     embed_on_sites, operator_norm, parse_model)
from .moment import (MomentBoundResult, build_structure, oracle_moment_matrix,
                     ti_moment_bound)
from .sdp import SdpProblem, SdpSolution, real_embed, solve
from .upper import SandwichReport, product_state_upper, ring_reference

__version__ = "0.1.0"
