"""Hooks that observe the program's layers from outside.

Nothing under src/ knows about them.  Each hook replaces a public function or
method at every place it is bound: on its class, or in every zkoracle module
that holds it, under any name, so ``circuits.permute`` and each module's
``mimc_hash`` are caught as well as the defining module's.

``Probe`` is always installed; it feeds the end-to-end metrics and gates and
touches only calls that are rare next to the work they start.  ``Tracer``
is installed for traced runs only and times every layer, which costs time
of its own (reported as ``trace.overhead_ratio``).
"""

import functools
import importlib
import pkgutil
import sys
import time
from typing import NamedTuple

import zkoracle
from zkoracle import circuits, contract, curve, eddsa, merkle, mimc, nodes, simnet


def _load_all_modules() -> None:
    for info in pkgutil.iter_modules(zkoracle.__path__):
        importlib.import_module(f"zkoracle.{info.name}")


def rebind(owner, name: str, make_wrapper):
    """Replace ``owner.name`` by ``make_wrapper(original)`` wherever it is
    bound; returns the original."""
    original = getattr(owner, name)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return original
    _load_all_modules()
    for module_name, module in list(sys.modules.items()):
        if module_name != "zkoracle" and not module_name.startswith("zkoracle."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
    return original


class Verification(NamedTuple):
    start: float          # perf_counter() when verify was called
    circuit_id: str
    seconds: float
    accepted: bool


class Probe:
    """Per-request timestamps, contract-side proof verifications and the
    prover-side call counts the audit must show to be zero."""

    def __init__(self):
        self.request_starts = []   # perf_counter() at each request_block call
        self.verifies = []         # Verification records
        self.prove_calls = 0
        self.sign_calls = 0

    def reset(self) -> None:
        self.request_starts = []
        self.verifies = []

    def install(self) -> None:
        rebind(contract.Contract, "request_block", self._wrap_request)
        rebind(circuits.TransparentBackend, "verify", self._wrap_verify)
        rebind(circuits.TransparentBackend, "prove", self._wrap_counter("prove_calls"))
        rebind(eddsa, "sign", self._wrap_counter("sign_calls"))

    def _wrap_request(self, fn):
        @functools.wraps(fn)
        def request_block(*args, **kwargs):
            self.request_starts.append(time.perf_counter())
            return fn(*args, **kwargs)
        return request_block

    def _wrap_verify(self, fn):
        @functools.wraps(fn)
        def verify(backend, circuit_id, public, proof):
            start = time.perf_counter()
            accepted = fn(backend, circuit_id, public, proof)
            self.verifies.append(Verification(start, circuit_id,
                                              time.perf_counter() - start, accepted))
            return accepted
        return verify

    def _wrap_counter(self, field: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                setattr(self, field, getattr(self, field) + 1)
                return fn(*args, **kwargs)
            return counted
        return make


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = 0


ON_VOTE_REASONS = ("index-out-of-range", "unregistered-validator",
                   "duplicate-vote", "invalid-signature")

# (metric prefix, owner, attribute); the order does not matter
_TARGETS = (
    ("mimc.permute", mimc, "permute"),
    ("mimc.mimc_hash", mimc, "mimc_hash"),
    ("curve.scalar_mul", curve, "scalar_mul"),
    ("curve.scalar_mul_base", curve, "scalar_mul_base"),
    ("curve.add", curve, "add"),
    ("eddsa.sign", eddsa, "sign"),
    ("eddsa.verify_sig", eddsa, "verify_sig"),
    ("merkle.set_account", merkle.StateTree, "set_account"),
    ("merkle.prove", merkle.StateTree, "prove"),
    ("merkle.copy", merkle.StateTree, "copy"),
    ("circuits.build_aggregation_witness", circuits, "build_aggregation_witness"),
    ("circuits.build_slash_witness", circuits, "build_slash_witness"),
    ("circuits.check_aggregation", circuits, "check_aggregation"),
    ("circuits.check_slash", circuits, "check_slash"),
    ("circuits.prove", circuits.TransparentBackend, "prove"),
    ("circuits.verify", circuits.TransparentBackend, "verify"),
    ("contract.register", contract.Contract, "register"),
    ("contract.submit_block", contract.Contract, "submit_block"),
    ("contract.slash", contract.Contract, "slash"),
    ("contract.timeout_aggregator", contract.Contract, "timeout_aggregator"),
    ("contract.replay", contract, "replay"),
    ("nodes.sync", nodes.OracleNode, "sync"),
    ("nodes.on_vote", nodes.OracleNode, "on_vote"),
    ("nodes.try_submit", nodes.OracleNode, "try_submit"),
    ("simnet.deliver", simnet.MessageBus, "deliver"),
)

# layers whose memo cache (if they still have one) gives a hit ratio
_CACHED = ("mimc.permute", "curve.scalar_mul", "curve.scalar_mul_base")


class Tracer:
    """Calls, inclusive and self time per layer, plus the outcome counts that
    explain wasted work (vote rejections, useless submit attempts, drops)."""

    def __init__(self):
        self.stats = {}
        self._stack = [0]  # time covered by children of each open span, ns
        # bound before any wrapping, so their caches stay reachable
        self._cached = {name: getattr(owner, attr)
                        for name, owner, attr in _TARGETS if name in _CACHED}
        self._cache_base = {}
        self.outcomes = {}

    def install(self) -> None:
        observers = {"nodes.on_vote": self._on_vote,
                     "nodes.try_submit": self._on_try_submit,
                     "simnet.deliver": self._on_deliver,
                     "circuits.prove": self._on_prove}
        for name, owner, attr in _TARGETS:
            self.stats[name] = _Stat()
            rebind(owner, attr, self._wrap(self.stats[name], observers.get(name)))
        self.reset()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = stat.total_ns = stat.self_ns = 0
        self.outcomes = dict.fromkeys(
            [f"rejected.{r}" for r in ON_VOTE_REASONS]
            + ["rejected.other", "accepted", "submitted", "dropped", "proof_bytes"], 0)
        self._mark_caches()

    def clear_caches(self) -> None:
        """Empty every memo cache the traced layers still have."""
        for fn in self._cached.values():
            clear = getattr(fn, "cache_clear", None)
            if clear is not None:
                clear()
        self._mark_caches()

    def _wrap(self, stat, observe):
        stack = self._stack
        clock = time.perf_counter_ns

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    stat.calls += 1
                    stat.total_ns += elapsed
                    stat.self_ns += elapsed - inner
                if observe is not None:
                    observe(result)
                return result
            return traced
        return make

    def _on_vote(self, result) -> None:
        accepted, reason = result
        if accepted:
            key = "accepted"
        else:
            key = f"rejected.{reason}" if reason in ON_VOTE_REASONS else "rejected.other"
        self.outcomes[key] += 1

    def _on_try_submit(self, result) -> None:
        if result is not None:
            self.outcomes["submitted"] += 1

    def _on_deliver(self, result) -> None:
        if result is None:
            self.outcomes["dropped"] += 1

    def _on_prove(self, proof) -> None:
        self.outcomes["proof_bytes"] += len(proof.payload)

    def _mark_caches(self) -> None:
        """Hit ratios count from here on."""
        self._cache_base = {name: self._cache_counts(name) for name in _CACHED}

    def _cache_counts(self, name: str):
        info = getattr(self._cached[name], "cache_info", None)
        if info is None:
            return (0, 0)
        current = info()
        return (current.hits, current.misses)

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def metrics(self) -> dict:
        """Per-layer metric values, without trace.overhead_ratio."""
        s = self.stats
        out = self.outcomes

        def ms(ns):
            return ns / 1e6

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for name in ("mimc.permute", "mimc.mimc_hash", "curve.scalar_mul",
                     "curve.scalar_mul_base", "curve.add", "merkle.set_account",
                     "merkle.prove", "merkle.copy"):
            values[f"{name}.calls"] = s[name].calls
            values[f"{name}.self_ms"] = ms(s[name].self_ns)
        for name in _CACHED:
            hits, misses = (now - base for now, base in
                            zip(self._cache_counts(name), self._cache_base[name]))
            values[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        for name in ("eddsa.sign", "eddsa.verify_sig"):
            values[f"{name}.calls"] = s[name].calls
            values[f"{name}.ms"] = ms(s[name].total_ns)
        for name in ("nodes.sync", "circuits.build_aggregation_witness",
                     "circuits.build_slash_witness", "circuits.check_aggregation",
                     "circuits.check_slash", "circuits.prove", "circuits.verify",
                     "contract.register", "contract.submit_block", "contract.slash",
                     "contract.replay"):
            values[f"{name}.ms"] = ms(s[name].total_ns)
        for name in ("circuits.prove", "circuits.verify", "contract.submit_block",
                     "contract.slash", "contract.timeout_aggregator"):
            values[f"{name}.calls"] = s[name].calls
        values["circuits.prove.bytes"] = out["proof_bytes"]
        for reason in ON_VOTE_REASONS + ("other",):
            values[f"nodes.on_vote.rejected.{reason}"] = out[f"rejected.{reason}"]
        values["nodes.on_vote.accept_ratio"] = ratio(out["accepted"],
                                                     s["nodes.on_vote"].calls)
        values["nodes.try_submit.useful_ratio"] = ratio(out["submitted"],
                                                        s["nodes.try_submit"].calls)
        values["simnet.deliver.calls"] = s["simnet.deliver"].calls
        values["simnet.deliver.drop_ratio"] = ratio(out["dropped"],
                                                    s["simnet.deliver"].calls)
        return values
