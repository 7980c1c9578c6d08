"""Functors from the cube poset to finite sets and spans: validation,
totalization to integer chain complexes, stable-equivalence certificates,
and the two main instances — link diagrams with the ladybug pairing, and
triangulated complexes."""

__version__ = "0.1.0"

from .burnside import (BijectionOver, CorrElem, Correspondence, FiniteSet,
                       compose, identity_correspondence, is_two_morphism,
                       linearize)
from .certificates import (EquivalenceCertificate, FaceStep, NatTransStep,
                           verify_certificate)
from .cube import Face2, Face3, FaceInclusion
from .functor import (CubeFunctorData, NaturalTransformation, StableFunctor,
                      build_nat_trans, composite_along_chain, coproduct,
                      enumerate_matchings, extend_along_face_inclusion,
                      find_natural_isomorphism, glue_along_top, product,
                      quotient_functor, reconstruct_two_morphism,
                      restrict_along_face_inclusion, sub_functor,
                      validate_c0, validate_coherence)
from .khovanov import (PDCode, braid_closure_pd, build_khovanov_functor,
                       connect_sum_pd, crossing_signs, disjoint_union_pd,
                       kh_table, kh_table_direct, parse_pd, reduced_functor,
                       resolve, split_by_quantum)
from .linalg import Matrix
from .simplicial import DeltaComplex, delta_functor, simplicial_homology
from .totalization import (ChainComplex, ChainMap, HomologyGroup, SignTwist,
                           cone, dualize, face_shift_iso, homology,
                           is_quasi_iso, tot, tot_nat_trans)

__all__ = [name for name in dir() if not name.startswith("_")]
