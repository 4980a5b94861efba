"""Hamiltonian circles in Cayley graphs of free groups and free products.

The toolkit builds finite truncation quotients of the infinite Cayley
graphs, decides and certifies the hamiltonian-circle property for
generating sets A u {s}, canonicalizes words under Whitehead moves,
verifies the cycle-tree family over Z_m * Z_n at finite depth, checks
outerplanarity of truncations, and re-verifies the classical finite facts
on bundled fixtures.
"""

from .words import ReducedWord, RankError, WordSyntaxError
from .automorphisms import (
    FGAutomorphism,
    apply_chain,
    chain_moves,
    compose_chain,
    elementary_automorphisms,
)
from .minimize import (
    OrbitCapExceeded,
    orbit_minimal_set,
    whitehead_minimize,
)
from .multigraph import (
    EdgeCut,
    Multigraph,
    cubic_cycles_through_edge,
    enumerate_hamiltonian_cycles,
    find_cut_separating_pair,
    is_outerplanar,
    parse_adjacency,
)
from .quotients import (
    QuotientGraph,
    build_quotient_enum,
    build_quotient_local,
)
from .certifier import (
    CanonicalForm,
    Certificate,
    certify,
    classify,
    level_one_quotient,
    split_check,
)
from .freeproduct import (
    FPWord,
    build_truncation,
    disconnecting_pair_disconnects,
    verify_circle_truncations,
)
from .finite import (
    FiniteCayleySpec,
    build_finite_cayley,
    corpus_graphs,
    parse_spec,
    second_cycle_cyclic,
    verify_unique_finite,
)
from .outerplanar import verify_outerplanar_quotient

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "Certificate",
    "EdgeCut",
    "FGAutomorphism",
    "FPWord",
    "FiniteCayleySpec",
    "Multigraph",
    "OrbitCapExceeded",
    "QuotientGraph",
    "RankError",
    "ReducedWord",
    "WordSyntaxError",
    "apply_chain",
    "build_finite_cayley",
    "build_quotient_enum",
    "build_quotient_local",
    "build_truncation",
    "certify",
    "chain_moves",
    "classify",
    "compose_chain",
    "corpus_graphs",
    "cubic_cycles_through_edge",
    "disconnecting_pair_disconnects",
    "elementary_automorphisms",
    "enumerate_hamiltonian_cycles",
    "find_cut_separating_pair",
    "is_outerplanar",
    "level_one_quotient",
    "orbit_minimal_set",
    "parse_adjacency",
    "parse_spec",
    "second_cycle_cyclic",
    "split_check",
    "verify_circle_truncations",
    "verify_outerplanar_quotient",
    "verify_unique_finite",
    "whitehead_minimize",
]
