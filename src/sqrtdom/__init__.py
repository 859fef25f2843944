"""Desk-scale spectral diagnostics for one-dimensional operators with
complex coefficients: finite-element discretization, factored resolvent
identities, fractional powers, boundary-condition kernels and square-root
domain equivalence studies."""

from .assembly import (BoundaryCondition, CoefficientSet, FormMatrices,
                       IntervalSpec, Mesh, assemble_forms, build_mesh,
                       orthonormalize, w12_norm_matrix)
from .domains import (matrix_power, refinement_study, sqrt_domain_kappa,
                      thmA1_decay)
from .formbounds import (FormBoundConstants, check_form_bound,
                         check_trudinger, locunif_norms)
from .kato import (FactoredPerturbation, TwoStepResolvent,
                   build_factorization, decay_profile, kato_K,
                   perturbed_resolvent, verify_identity)
from .krein import (bessel_bound_check, bessel_k0_quad, d_theta,
                    green_kernel_dirichlet, krein_resolvent, sqrt_kernel,
                    u2_closed_form)
from .matfun import (QuadratureSpec, frac_power_quad, resolvent,
                     spectral_norm, sqrt_db, trace_det_check)
from .problems import (FAMILY_NAMES, Problem, build_coefficients,
                       lions_operator, make_problem)
from .sectorial import (SectorReport, check_m_accretive,
                        numerical_range_hull, safe_shift)

__version__ = "0.1.0"
