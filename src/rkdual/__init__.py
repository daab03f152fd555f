"""Exact chain-level duality over a simplicial control map.

The package builds the chain, cochain and subdivision complexes of a
simplicial map X -> K as complexes of labeled free modules, applies the
blocked duality functor, constructs the dual-cell ball structure on X with
its cellular chain complex, and machine-checks the structural theorems
relating all of these on concrete inputs, over Z, Q or a prime field.
"""

from .rings import Ring
from .linalg import (ChainComplex, ChainMap, Matrix, homology, is_acyclic,
                     is_cone_acyclic, mapping_cone, smith_normal_form)
from .simplicial import (DerivedComplex, InputError, KSpace, KSpaceMap,
                         SimplicialComplex, SimplicialMap,
                         barycentric_subdivision, chain_complex, control_map,
                         derived_kspace, kspace_identity, validate_kspace)
from .rkcore import (RKComplex, RKMap, check_lemma_clem, delta_complexes,
                     delta_star_k, dual_star, dual_star_map, hom_rk, is_full,
                     maximal_label_ses, validate_exact)
from .duality import (Dualizer, hom_dual_iso, projection_map, tensor_k,
                      tensor_map_left, tensor_r, verify_diagonal_equivalence)
from .ballcomplex import (BallComplex, DualCell, OrientationPair,
                          cellular_chain_complex, cellular_iso, dual_cell,
                          dual_cones, induced_chain_map)
from .capproduct import (cap_product, flag_sign, fundamental_cycle_map,
                      verify_cap_chain_map, verify_cap_factorization,
                      verify_equivalences, verify_fundamental_cycles)

__version__ = "0.1.0"
