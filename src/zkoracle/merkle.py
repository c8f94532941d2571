"""Sparse Merkle tree of committee accounts.

Leaves commit to (index, pubkey.x, pubkey.y, balance); unoccupied slots all
carry the same empty leaf hash(0,0,0,0) so an all-empty tree of depth D is the
D-fold self-hash of that constant.  Direction bits in a proof are the binary
decomposition of the leaf index, LSB first (0 = node is the left child).

Writes are lazy: set_account stores the account and marks its leaf dirty, and
the next read of root, prove or copy rehashes every dirty node once, so a batch
of k writes costs at most k leaf hashes plus one hash per distinct ancestor.
"""

from dataclasses import dataclass

from .curve import Point
from .errors import IndexMismatch, IndexOutOfRange, InvalidProof
from .mimc import mimc_hash

ZERO_POINT = Point(0, 0)


@dataclass(frozen=True)
class Account:
    index: int
    pubkey: Point
    balance: int

    def is_empty(self) -> bool:
        return self.pubkey == ZERO_POINT and self.balance == 0


def empty_account(index: int) -> Account:
    return Account(index, ZERO_POINT, 0)


def leaf_hash(account: Account) -> int:
    return mimc_hash([account.index, account.pubkey.x, account.pubkey.y, account.balance])


EMPTY_LEAF = leaf_hash(empty_account(0))


@dataclass(frozen=True)
class MerkleProof:
    leaf: int
    path: tuple        # sibling hashes, leaf level first
    directions: tuple  # one bit per level, LSB of the index first


def proof_index(proof: MerkleProof) -> int:
    """Leaf position implied by the direction bits."""
    return sum(bit << level for level, bit in enumerate(proof.directions))


def root_from_path(proof: MerkleProof) -> int:
    if len(proof.path) != len(proof.directions) or not proof.path:
        raise InvalidProof("sibling count and direction count must match and be non-empty")
    h = proof.leaf
    for sibling, bit in zip(proof.path, proof.directions):
        h = mimc_hash([sibling, h]) if bit else mimc_hash([h, sibling])
    return h


def verify_proof(root: int, proof: MerkleProof) -> bool:
    return root_from_path(proof) == root


class StateTree:
    """Fixed-capacity (2^depth) account tree that caches every node hash.

    Writes only mark leaves dirty; root, prove and copy rehash first.  Single
    writer at a time; use copy() to snapshot for witness building.
    """

    def __init__(self, depth: int = 8):
        if depth < 1:
            raise IndexOutOfRange("depth must be at least 1")
        self.depth = depth
        self.capacity = 1 << depth
        self.accounts = [empty_account(i) for i in range(self.capacity)]
        # levels[0] = leaf hashes, levels[depth] = [root]
        self.levels = [[EMPTY_LEAF] * self.capacity]
        for d in range(depth):
            below = self.levels[d]
            node = mimc_hash([below[0], below[0]])
            self.levels.append([node] * (len(below) // 2))
        self._dirty = set()  # leaf indices written since the last rehash

    @property
    def root(self) -> int:
        self._rehash()
        return self.levels[self.depth][0]

    def account(self, index: int) -> Account:
        self._check_index(index)
        return self.accounts[index]

    def occupied_indices(self):
        return [i for i, a in enumerate(self.accounts) if not a.is_empty()]

    def set_account(self, index: int, account: Account) -> None:
        """Replace a leaf and mark it dirty; hashing waits for the next read."""
        self._check_index(index)
        if account.index != index:
            raise IndexMismatch(f"account.index {account.index} != leaf position {index}")
        self.accounts[index] = account
        self._dirty.add(index)

    def prove(self, index: int) -> MerkleProof:
        self._check_index(index)
        self._rehash()
        path = []
        directions = []
        pos = index
        for d in range(self.depth):
            path.append(self.levels[d][pos ^ 1])
            directions.append(pos & 1)
            pos >>= 1
        return MerkleProof(self.levels[0][index], tuple(path), tuple(directions))

    def copy(self) -> "StateTree":
        """An independent tree with the same accounts and no pending writes."""
        self._rehash()
        dup = StateTree.__new__(StateTree)
        dup.depth = self.depth
        dup.capacity = self.capacity
        dup.accounts = list(self.accounts)
        dup.levels = [list(level) for level in self.levels]
        dup._dirty = set()
        return dup

    def _rehash(self) -> None:
        """Hash each dirty leaf, then each internal node above one, bottom up."""
        if not self._dirty:
            return
        leaves = self.levels[0]
        for i in self._dirty:
            account = self.accounts[i]
            leaves[i] = EMPTY_LEAF if account.is_empty() else leaf_hash(account)
        positions = self._dirty
        for d in range(self.depth):
            below, above = self.levels[d], self.levels[d + 1]
            positions = {i >> 1 for i in positions}
            for pos in positions:
                above[pos] = mimc_hash([below[2 * pos], below[2 * pos + 1]])
        self._dirty = set()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise IndexOutOfRange(f"index {index} outside capacity {self.capacity}")


def dump_snapshot(tree: StateTree) -> str:
    """Occupied leaves as 'index pubkey.x pubkey.y balance' lines, decimal."""
    lines = []
    for i in tree.occupied_indices():
        a = tree.accounts[i]
        lines.append(f"{a.index} {a.pubkey.x} {a.pubkey.y} {a.balance}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_snapshot(text: str, depth: int = 8) -> StateTree:
    tree = StateTree(depth)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 4:
            raise InvalidProof(f"snapshot line {lineno}: expected 4 fields")
        index, x, y, balance = (int(f) for f in fields)
        tree.set_account(index, Account(index, Point(x, y), balance))
    return tree
