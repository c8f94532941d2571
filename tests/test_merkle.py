"""Account tree tests.

The frozen roots come from hand-folding the independent MiMC oracle in
test_field_mimc (empty leaf = hash(0,0,0,0), then pairwise self-hashing).
"""

import random
from dataclasses import replace

import pytest

from helpers import RefTree, build_committee
from zkoracle import eddsa, merkle
from zkoracle.errors import IndexMismatch, IndexOutOfRange, InvalidProof
from zkoracle.merkle import (EMPTY_LEAF, Account, MerkleProof, StateTree,
                             dump_snapshot, empty_account, leaf_hash,
                             load_snapshot, proof_index, root_from_path,
                             verify_proof)
from zkoracle.mimc import mimc_hash

EMPTY_LEAF_FROZEN = 17683159034002903499172969622391991084470788025616159899169873672834613880211
EMPTY_ROOT_D1 = 14514221614244334219696507853257631246042705714868257404828335542866192894279
EMPTY_ROOT_D2 = 6047852222572441528649712200513989775709084315467385523966453509796816405473


def test_empty_leaf_is_zero_account_hash():
    assert leaf_hash(empty_account(0)) == mimc_hash([0, 0, 0, 0])
    assert EMPTY_LEAF == EMPTY_LEAF_FROZEN


def test_leaf_hash_distinguishes_balance():
    kp = eddsa.keygen(b"\x01" * 32)
    a = Account(3, kp.pk, 100)
    b = Account(3, kp.pk, 101)
    assert leaf_hash(a) != leaf_hash(b)
    assert leaf_hash(a) == leaf_hash(a)


def test_empty_roots_frozen():
    assert StateTree(1).root == EMPTY_ROOT_D1
    assert StateTree(2).root == EMPTY_ROOT_D2
    assert StateTree(2).root == mimc_hash([EMPTY_ROOT_D1, EMPTY_ROOT_D1])


def test_set_then_restore_returns_to_empty_root():
    tree = StateTree(3)
    before = tree.root
    kp = eddsa.keygen(b"\x02" * 32)
    tree.set_account(0, Account(0, kp.pk, 50))
    assert tree.root != before
    tree.set_account(0, empty_account(0))
    assert tree.root == before


def test_set_account_read_back():
    tree, keys = build_committee(2)
    account = Account(1, keys[1].pk, 123)
    tree.set_account(1, account)
    assert tree.account(1) == account
    assert tree.prove(1).leaf == leaf_hash(account)


def test_set_empty_on_empty_is_idempotent():
    tree = StateTree(2)
    before = tree.root
    tree.set_account(3, empty_account(3))
    assert tree.root == before


def test_index_mismatch_rejected():
    tree = StateTree(2)
    kp = eddsa.keygen(b"\x03" * 32)
    with pytest.raises(IndexMismatch):
        tree.set_account(1, Account(2, kp.pk, 10))
    with pytest.raises(IndexOutOfRange):
        tree.set_account(4, Account(4, kp.pk, 10))


def test_prove_verify_completeness():
    tree, _ = build_committee(3, count=5)
    for index in range(tree.capacity):
        proof = tree.prove(index)
        assert verify_proof(tree.root, proof)
        assert proof_index(proof) == index


def test_directions_are_index_bits():
    tree = StateTree(2)
    assert tree.prove(3).directions == (1, 1)
    assert tree.prove(2).directions == (0, 1)


def test_stale_proof_fails_after_other_leaf_changes():
    tree, keys = build_committee(2)
    proof = tree.prove(1)
    tree.set_account(3, Account(3, keys[3].pk, 999))
    assert not verify_proof(tree.root, proof)


def test_root_from_path_single_fold():
    leaf, sibling = 11, 22
    proof = MerkleProof(leaf, (sibling,), (0,))
    assert root_from_path(proof) == mimc_hash([leaf, sibling])
    proof_right = MerkleProof(leaf, (sibling,), (1,))
    assert root_from_path(proof_right) == mimc_hash([sibling, leaf])


def test_root_from_path_inverts_prove():
    tree, _ = build_committee(3)
    for index in (0, 3, 7):
        assert root_from_path(tree.prove(index)) == tree.root


def test_malformed_proof_rejected():
    with pytest.raises(InvalidProof):
        root_from_path(MerkleProof(1, (2, 3), (0,)))
    with pytest.raises(InvalidProof):
        root_from_path(MerkleProof(1, (), ()))


def test_path_update_equivalence():
    # root_from_path with a substituted leaf equals the root after the
    # single-leaf update: the in-place trick both circuits rely on
    rng = random.Random(20)
    pool = [eddsa.keygen(rng.getrandbits(256).to_bytes(32, "big")) for _ in range(64)]
    for case in range(500):
        depth = rng.randint(2, 8)
        tree = StateTree(depth)
        occupied = rng.sample(range(tree.capacity), rng.randint(1, min(8, tree.capacity)))
        for i in occupied:
            kp = pool[i % len(pool)]
            tree.set_account(i, Account(i, kp.pk, rng.randint(0, 10_000)))

        index = rng.choice(occupied)
        proof = tree.prove(index)
        new_account = replace(tree.account(index), balance=rng.randint(0, 10_000))
        substituted = MerkleProof(leaf_hash(new_account), proof.path, proof.directions)

        updated = tree.copy()
        updated.set_account(index, new_account)
        assert root_from_path(substituted) == updated.root, f"case {case}"


def test_proof_soundness_brute_force_small_depths():
    # every single-field perturbation of a valid proof must fail to verify
    for depth in (2, 3):
        tree, _ = build_committee(depth)
        root = tree.root
        for index in range(tree.capacity):
            proof = tree.prove(index)
            assert verify_proof(root, proof)
            assert not verify_proof(root + 1, proof)
            perturbed = [MerkleProof(proof.leaf + 1, proof.path, proof.directions)]
            for level in range(depth):
                path = list(proof.path)
                path[level] += 1
                perturbed.append(MerkleProof(proof.leaf, tuple(path), proof.directions))
                dirs = list(proof.directions)
                dirs[level] ^= 1
                perturbed.append(MerkleProof(proof.leaf, proof.path, tuple(dirs)))
            for bad in perturbed:
                assert not verify_proof(root, bad)


def test_rebuild_determinism():
    rng = random.Random(21)
    entries = [(i, rng.randint(1, 1000)) for i in rng.sample(range(16), 6)]
    roots = []
    for _ in range(2):
        tree = StateTree(4)
        for i, balance in entries:
            kp = eddsa.keygen(i.to_bytes(2, "big") * 16)
            tree.set_account(i, Account(i, kp.pk, balance))
        roots.append(tree.root)
    assert roots[0] == roots[1]


def test_copy_isolated():
    tree, keys = build_committee(2)
    dup = tree.copy()
    dup.set_account(0, replace(tree.account(0), balance=777))
    assert tree.account(0).balance == 100
    assert tree.root != dup.root


def test_snapshot_roundtrip():
    tree, _ = build_committee(3, count=5)
    text = dump_snapshot(tree)
    assert len(text.splitlines()) == 5
    loaded = load_snapshot(text, depth=3)
    assert loaded.root == tree.root
    assert load_snapshot("", depth=3).root == StateTree(3).root


# -- lazy rehash against the eager reference -------------------------------------------


def _random_account(rng, index, keys):
    if rng.random() < 0.2:
        return empty_account(index)
    return Account(index, rng.choice(keys).pk, rng.randint(0, 1000))


@pytest.mark.parametrize("depth", range(1, 9))
def test_lazy_tree_matches_eager_reference(depth):
    # random writes (repeats, empty accounts, both end leaves) interleaved with
    # root / prove / copy reads on a growing set of copies; every read must see
    # the reference's root and every one of its proofs
    rng = random.Random(4000 + depth)
    keys = [eddsa.keygen(bytes([k + 1]) * 32) for k in range(4)]
    last = (1 << depth) - 1
    pairs = [(StateTree(depth), RefTree(depth))]
    previous = 0
    for step in range(120):
        tree, ref = rng.choice(pairs)
        action = rng.choice(("write", "write", "write", "root", "prove", "copy"))
        if action == "write":
            index = rng.choice((0, last, previous, rng.randint(0, last)))
            account = _random_account(rng, index, keys)
            tree.set_account(index, account)
            ref.set_account(index, account)
            previous = index
            continue
        if action == "root":
            assert tree.root == ref.root, f"step {step}"
        elif action == "prove":
            index = rng.randint(0, last)
            assert tree.prove(index) == ref.prove(index), f"step {step}"
        elif len(pairs) < 4:
            pairs.append((tree.copy(), ref.copy()))
        else:
            pairs[rng.randrange(len(pairs))] = (tree.copy(), ref.copy())
        assert tree.root == ref.root, f"step {step}"
        for index in range(last + 1):
            assert tree.prove(index) == ref.prove(index), f"step {step} leaf {index}"
            assert tree.account(index) == ref.accounts[index]
    for tree, ref in pairs:
        assert tree.root == ref.root


def test_copy_with_pending_writes_is_isolated_both_ways():
    tree, keys = build_committee(3, count=2)
    ref = RefTree(3)
    for i in range(2):
        ref.set_account(i, tree.account(i))
    tree.set_account(5, Account(5, keys[0].pk, 55))
    ref.set_account(5, Account(5, keys[0].pk, 55))
    dup, ref_dup = tree.copy(), ref.copy()
    dup.set_account(6, Account(6, keys[1].pk, 66))
    ref_dup.set_account(6, Account(6, keys[1].pk, 66))
    tree.set_account(1, empty_account(1))
    ref.set_account(1, empty_account(1))
    assert tree.root == ref.root
    assert dup.root == ref_dup.root
    assert tree.account(6).is_empty()
    assert dup.account(1) == Account(1, keys[1].pk, 100)
    assert dup.account(5) == tree.account(5)


def _counting_hashes(monkeypatch):
    calls = []
    real = merkle.mimc_hash
    monkeypatch.setattr(merkle, "mimc_hash", lambda xs: calls.append(1) or real(xs))
    return calls


def test_rehash_hashes_each_dirty_node_once(monkeypatch):
    tree = StateTree(8)
    kp = eddsa.keygen(b"\x04" * 32)
    calls = _counting_hashes(monkeypatch)
    for i in range(256):
        tree.set_account(i, Account(i, kp.pk, i))
    assert calls == []
    root = tree.root
    assert len(calls) == 256 + 255  # every leaf, then every internal node
    assert tree.root == root
    tree.prove(7)
    assert len(calls) == 511  # reads of a clean tree hash nothing
    calls.clear()
    tree.set_account(3, Account(3, kp.pk, 1))
    tree.set_account(3, Account(3, kp.pk, 2))
    tree.copy()
    assert len(calls) == 1 + 8  # the leaf once, then its eight ancestors


def test_rejected_write_leaves_no_dirty_mark(monkeypatch):
    tree, keys = build_committee(2)
    root = tree.root
    calls = _counting_hashes(monkeypatch)
    with pytest.raises(IndexMismatch):
        tree.set_account(1, Account(2, keys[0].pk, 10))
    with pytest.raises(IndexOutOfRange):
        tree.set_account(4, Account(4, keys[0].pk, 10))
    with pytest.raises(IndexOutOfRange):
        tree.set_account(-1, Account(-1, keys[0].pk, 10))
    assert tree.root == root
    assert calls == []
    assert tree.account(1) == Account(1, keys[1].pk, 100)
