"""Hamiltonian circles in Cayley graphs of free groups and free products.

The toolkit builds finite truncation quotients of the infinite Cayley
graphs, decides and certifies the hamiltonian-circle property for
generating sets A u {s}, canonicalizes words under Whitehead moves,
verifies the cycle-tree family over Z_m * Z_n at finite depth, checks
outerplanarity of truncations, and counts the hamiltonian cycles of finite
Cayley graphs of cyclic and dihedral groups.
"""

__version__ = "0.1.0"
