"""Exact finite-stage construction of homogeneous limit structures.

Four classes of finite structures (simple graphs, posets, rational metric
spaces, meet-semilattices), their pushouts and free amalgamated sums, staged
approximations of the corresponding homogeneous limits, and the lifting of
endomorphisms along the stage embeddings.  All arithmetic is exact rational;
every construction is deterministic in carrier order.
"""

from .structures import (CLASS_TAGS, DEFAULT_HOM_BOUND_BITS, EMBEDDING, GRAPH,
                         HOM, ISOMORPHISM, METRIC, NOT_HOM, POSET, SEMILATTICE,
                         SURJECTION, BoundExceeded, ExtensionCode,
                         FiniteStructure, InternalConsistencyError, Morphism,
                         StructureError, ValidationReport, apply_code,
                         classify, enumerate_codes, enumerate_homs,
                         extension_code, generate, identity_morphism,
                         induced_substructure, is_embedding, is_homomorphism,
                         is_surjection, katetov_admissible, morphism_from_dict,
                         validate)
from .presets import (antichain, chain, edgeless_graph, free_semilattice,
                      free_semilattice_generators, graph_from_edges,
                      metric_from_distances, poset_from_pairs,
                      semilattice_from_meets, simplex)
from .pushout import (Congruence, OracleReport, PushoutSquare, Span,
                      all_structures, amalgamated_sum, congruence_generated,
                      free_amalgam, pushout_1phep, quotient,
                      verify_universal_property)
from .amalgam import AmalgamPair, FreeSum, RootedMultiAmalgam, free_sum
from .limits import (Catalog, CatalogParams, StageChain, StageCeilingExceeded,
                     build_stages, build_star, check_graph_extension_property,
                     check_weak_homogeneity, enumerate_extensions,
                     star_amalgam)
from .lifting import (CayleyEmbedding, LiftedEndomorphism, cayley_demo,
                      endomorphisms, lift, lift_along_stages,
                      verify_functoriality)

__version__ = "0.1.0"
