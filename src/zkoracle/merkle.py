"""Sparse Merkle tree of committee accounts.

Leaves commit to (index, pubkey.x, pubkey.y, balance); unoccupied slots all
carry the same empty leaf hash(0,0,0,0) so an all-empty subtree of height h is
the h-fold self-hash of that constant, one precomputed hash per level.  A tree
holds an account only for each occupied slot and None for the others, so
building or copying one allocates no account per slot.  A proof holds no
direction bits: the leaf's index gives them, bit d set where the node at
level d is a right child.

Hashing waits for a read: set_account stores the account and marks its leaf
and every ancestor stale, and root, prove and copy hash only the stale nodes
below what they read, each once.  So a batch of k writes costs at most k leaf
hashes plus one hash per distinct ancestor, and a proof read between writes
hashes only the stale subtrees that hang off its path, never the running root
above them.
"""

from dataclasses import dataclass
from itertools import accumulate

from .curve import Point
from .errors import IndexMismatch, IndexOutOfRange, InvalidProof
from .mimc import mimc_hash

ZERO_POINT = Point(0, 0)

# the deepest tree: one this deep still rebuilds from a log in memory
MAX_LOG_DEPTH = 16


@dataclass(frozen=True, slots=True)
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
# EMPTY_NODES[h] is the root of an all-empty subtree of height h
EMPTY_NODES = tuple(accumulate(range(MAX_LOG_DEPTH), lambda h, _: mimc_hash([h, h]),
                               initial=EMPTY_LEAF))


@dataclass(frozen=True, slots=True)
class MerkleProof:
    leaf: int
    path: tuple  # sibling hashes, leaf level first


def root_from_path(index: int, proof: MerkleProof) -> int:
    """The root that proof's leaf folds up to at position index; InvalidProof
    for an index outside the path's 2^len(path) leaves."""
    if not proof.path:
        raise InvalidProof("a Merkle path has at least one sibling")
    if index < 0 or index >> len(proof.path):
        # no value in the message: a too-long int cannot be printed
        raise InvalidProof(f"index outside a depth-{len(proof.path)} tree")
    h = proof.leaf
    for sibling in proof.path:
        h = mimc_hash([sibling, h]) if index & 1 else mimc_hash([h, sibling])
        index >>= 1
    return h


def verify_proof(root: int, index: int, proof: MerkleProof) -> bool:
    return root_from_path(index, proof) == root


class StateTree:
    """Fixed-capacity (2^depth) account tree that stores only its occupied
    accounts and caches every node hash it has computed.

    A write sets its leaf and each ancestor to None in levels, stopping at
    the first one that is None already, so a stale node's ancestors are all
    stale.  root and prove hash the stale nodes below the ones they read;
    copy hashes them all first, so that neither tree hashes them again.
    Single writer at a time; use copy() to snapshot for witness building.
    """

    def __init__(self, depth: int = 8):
        if not 1 <= depth <= MAX_LOG_DEPTH:
            raise IndexOutOfRange(f"depth must be in [1, {MAX_LOG_DEPTH}]")
        self.depth = depth
        self.capacity = 1 << depth
        self.accounts = [None] * self.capacity  # None marks an empty slot
        # levels[0] = leaf hashes, levels[depth] = [root]; None marks a stale node
        self.levels = [[EMPTY_NODES[d]] * (self.capacity >> d) for d in range(depth + 1)]

    @property
    def root(self) -> int:
        return self._node(self.depth, 0)

    def account(self, index: int) -> Account:
        self._check_index(index)
        account = self.accounts[index]
        return empty_account(index) if account is None else account

    def set_account(self, index: int, account: Account) -> None:
        """Replace a leaf and mark it and its ancestors stale; hashing waits
        for a read."""
        self._check_index(index)
        if account.index != index:
            raise IndexMismatch(f"account.index {account.index} != leaf position {index}")
        self.accounts[index] = None if account.is_empty() else account
        pos = index
        for level in self.levels:
            if level[pos] is None:
                break  # and so is every node above it
            level[pos] = None
            pos >>= 1

    def credit(self, index: int, amount: int) -> Account:
        """Add amount to index's balance; returns the account as it was."""
        account = self.account(index)
        self.set_account(index, Account(index, account.pubkey, account.balance + amount))
        return account

    def prove(self, index: int) -> MerkleProof:
        """The leaf and its siblings; hashes only the stale nodes below them."""
        self._check_index(index)
        return MerkleProof(self._node(0, index),
                           tuple(self._node(d, index >> d ^ 1) for d in range(self.depth)))

    def copy(self) -> "StateTree":
        """An independent tree with the same accounts and no stale node."""
        self._node(self.depth, 0)
        dup = StateTree.__new__(StateTree)
        dup.depth = self.depth
        dup.capacity = self.capacity
        dup.accounts = list(self.accounts)
        dup.levels = [list(level) for level in self.levels]
        return dup

    def _node(self, d: int, pos: int) -> int:
        """The hash at level d, position pos, hashing the stale nodes under it."""
        level = self.levels[d]
        node = level[pos]
        if node is None:
            if d:
                node = mimc_hash([self._node(d - 1, 2 * pos), self._node(d - 1, 2 * pos + 1)])
            else:
                account = self.accounts[pos]
                node = EMPTY_LEAF if account is None else leaf_hash(account)
            level[pos] = node
        return node

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.capacity:
            raise IndexOutOfRange(f"index {index} outside capacity {self.capacity}")


def dump_snapshot(tree: StateTree) -> str:
    """Occupied leaves as 'index pubkey.x pubkey.y balance' lines, decimal."""
    lines = [f"{a.index} {a.pubkey.x} {a.pubkey.y} {a.balance}"
             for a in tree.accounts if a is not None]
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
