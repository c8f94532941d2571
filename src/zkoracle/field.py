"""Prime field shared by hashes, curve coordinates, keys and balances.

Field elements are plain Python ints in [0, P).  P is the scalar field of
alt_bn128, so everything committed here stays native to a pairing-based
verifier for that curve.
"""

P = 21888242871839275222246405745257275088548364400416034343698204186575808495617
