"""Graded tree groups, free quasi-Lie algebras over Z, and universal
quadratic refinements, with exact integer linear algebra throughout."""

from .abelian import (AbelianHom, FpAbelianGroup, GroupElement, IntMatrix,
                      Lattice, exact_at, pullback, tensor_Z2)
from .trees import (CanonSign, RootedTree, UnrootedTree, canonical_rooted,
                    canonical_unrooted, inner_product, leaf, node, root_at)
from .lie import (LIE, QUASI, bracket_hom, d_group, d_infinity, lie_group,
                  proj_p, sl, sq, witt_rank)
from .treegroups import delta, t_group, t_infinity, t_tilde
from .eta import (ALL_CLAIMS, VerificationReport, d_tilde, eta, eta_infinity,
                  eta_prime, eta_tilde, verify, verify_all)
from .quadratic import (HermitianForm, QuadraticForm, bridge_T_infinity,
                        check_axioms, form_from_json, induced_morphism,
                        psi_factorization, universal_commutative,
                        universal_refinement, universal_symmetric)

__version__ = "0.1.0"
