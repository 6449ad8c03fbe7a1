"""Matroid and polymatroid allocation toolkit.

Max-min fair allocation and unrelated-machine makespan minimization with
(poly)matroid assignment constraints: oracle families, matroid and
polymatroid intersection, constructive reductions between the two
problems, a local-search cover solver with machine-checkable
infeasibility certificates, exact-rational assignment-LP rounding, and
brute-force ground-truth oracles for desk-scale verification.
"""

from .instances import (CoreCoverInstance, Item, MakespanInstance, SantaInstance,
                        gen_gap_instance, gen_random, merge_equal_value, parse_instance,
                        serialize_instance, split_merged_solution)
from .limits import Caps, ContractViolation, SchemaError, SizeCapError
from .localsearch import solve_cover, verify_certificate
from .matroids import (ContractedMatroid, ExplicitMatroid, GraphicMatroid, InducedMatroid,
                       MatroidOracle, PartitionMatroid, TransversalMatroid, UniformMatroid,
                       UnionMatroid, ZeroedMatroid, matroid_add_greedy)
from .polymatroids import (CappedPoly, CoveragePoly, DualPoly, ExplicitPoly, MarginalPoly,
                           ModularPoly, PolymatroidOracle, ScaledRankPoly, SumPoly,
                           capped_marginal, greedy_basis_above, is_basis, marginal_reaches,
                           member, sfm_min)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
