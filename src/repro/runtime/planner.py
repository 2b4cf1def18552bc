"""Program planner: level/scale inference plus graph-rewriting passes.

The planner turns a recorded :class:`~repro.runtime.ir.Program` into an
executable :class:`Plan` in one forward walk plus two cheap analyses:

1. **Dead-node elimination** — only nodes reachable from the declared
   outputs are planned (reverse reachability over the DAG).
2. **Level & scale inference with lazy rescale** — multiplications never
   rescale eagerly.  A value is rescaled only when a *consumer* needs it
   below the waterline (``2^(1.5 * scale_bits)``), so a BSGS-style
   PMult-accumulate tree pays one rescale for the whole accumulation
   instead of one per term.  Inserted rescales are cached per source
   node, so two consumers share one HRescale.  Scale tracking uses the
   ring's actual prime values — the same floats the evaluator folds into
   every rescale — so planned scales match executed scales exactly.
3. **Automatic bootstrap insertion** — when a multiply operand sits at
   level 0 (no rescale budget left for its product), a BOOTSTRAP node is
   spliced in front of it, refreshing the value to
   ``bootstrap_level``.  Insertion is also cached per source node:
   weights and momentum in a training loop are each refreshed once per
   exhaustion, mirroring the hand-scheduled workload traces.
4. **Rotation-batch detection** — planned HRot *and* Conj nodes that
   share a source ciphertext are grouped into :class:`RotationBatch`
   records; the executor runs each group through
   :meth:`~repro.ckks.evaluator.Evaluator.galois_hoisted`, which keeps
   one NTT-domain raised decomposition alive across the whole batch
   (Section 3.3's dominant structure): every member is an
   evaluation-point gather + evk product + ModDown, with no transform
   of its own.
5. **Rotate-reduce fusion** (opt-in, ``fuse_rotate_reduce=True``) —
   :mod:`repro.runtime.optimizer` collapses weighted rotate-reduce
   trees over one source into a single hoisted gather-accumulate that
   pays one ModDown pair per tree; see that module for the admission
   rules.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.evaluator import SCALE_RTOL
from repro.runtime.ir import Node, OpCode, Program


class PlanningError(ValueError):
    """The program cannot be scheduled under the given configuration."""


@dataclass(frozen=True)
class PlannerConfig:
    """Ring facts the planner needs (no key material, no polynomials)."""

    max_level: int
    scale_bits: int
    q_values: tuple[float, ...]       #: prime value per level index
    input_level: int | None = None    #: default: max_level
    input_scale: float | None = None  #: default: 2^scale_bits
    bootstrap_level: int | None = None  #: level after a bootstrap (None:
    #: no bootstrapping available; running out of levels is an error)
    fuse_rotate_reduce: bool = False  #: run the optimizer fusion pass

    def __post_init__(self) -> None:
        if len(self.q_values) != self.max_level + 1:
            raise ValueError("need one q prime per level 0..max_level")
        if self.bootstrap_level is not None and not (
                0 < self.bootstrap_level <= self.max_level):
            raise ValueError("bootstrap_level out of range")

    @property
    def nominal_scale(self) -> float:
        return 2.0 ** self.scale_bits

    @property
    def waterline(self) -> float:
        """Rescale trigger: anything >= nominal^1.5 must rescale first."""
        return 2.0 ** (self.scale_bits * 1.5)

    @classmethod
    def from_ring(cls, ring, bootstrap_level: int | None = None,
                  input_level: int | None = None) -> "PlannerConfig":
        """Exact configuration for a functional RingContext."""
        return cls(max_level=ring.max_level,
                   scale_bits=ring.params.scale_bits,
                   q_values=tuple(float(p.value) for p in ring.q_primes),
                   input_level=input_level,
                   bootstrap_level=bootstrap_level)

    @classmethod
    def from_params(cls, params, boot_levels: int | None = None,
                    input_level: int | None = None) -> "PlannerConfig":
        """Nominal configuration for analytic planning (no ring built).

        ``boot_levels`` is the bootstrap pipeline depth (e.g.
        ``BootstrapPhases.total_levels``); a bootstrap then lands at
        ``params.l - boot_levels``.
        """
        q_values = (2.0 ** params.q0_bits,) \
            + (2.0 ** params.scale_bits,) * params.l
        boot_level = None if boot_levels is None else params.l - boot_levels
        return cls(max_level=params.l, scale_bits=params.scale_bits,
                   q_values=q_values, input_level=input_level,
                   bootstrap_level=boot_level)


@dataclass(frozen=True)
class NodeMeta:
    """Planner-assigned execution metadata for one node."""

    level: int
    scale: float
    enc_scale: float | None = None  #: PMULT/CMULT plaintext encoding scale


@dataclass(frozen=True)
class RotationBatch:
    """Galois nodes sharing one source ciphertext (one hoisted raise).

    ``members`` holds the batch's HROT and CONJ nodes in plan order;
    all of them share a single NTT-domain raised decomposition of the
    source's ``a`` half (``Evaluator.galois_hoisted``), so each member
    costs one evaluation-point gather + evk product + ModDown instead
    of a full decompose/ModUp of its own.
    """

    source: int
    members: tuple[int, ...]

    def amounts(self, nodes: dict[int, Node]) -> list[int]:
        """The batch's HRot amounts (its CONJ members have none)."""
        return sorted({nodes[m].rotation for m in self.members
                       if nodes[m].op is OpCode.HROT})


@dataclass
class Plan:
    """An executable schedule: rewritten nodes, order, metadata, batches."""

    program: Program
    config: PlannerConfig
    nodes: dict[int, Node]
    order: list[int]
    meta: dict[int, NodeMeta]
    batches: list[RotationBatch] = field(default_factory=list)
    batch_of: dict[int, int] = field(default_factory=dict)
    #: optimizer results (:mod:`repro.runtime.optimizer`): fused
    #: rotate-reduce trees, and node id -> index into ``fusions`` for
    #: every node a fusion touches (the root executes the whole tree,
    #: covered interior/leaf nodes are skipped).
    fusions: list = field(default_factory=list)
    fusion_of: dict[int, int] = field(default_factory=dict)
    eliminated: int = 0
    inserted_rescales: int = 0
    inserted_bootstraps: int = 0

    @property
    def outputs(self) -> dict[str, int]:
        return self.program.outputs

    @property
    def inputs(self) -> dict[str, int]:
        return self.program.inputs

    def required_rotations(self) -> set[int]:
        """Union of HRot amounts the planned program performs."""
        return {self.nodes[i].rotation for i in self.order
                if self.nodes[i].op is OpCode.HROT}

    def summary(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid in self.order:
            kind = self.nodes[nid].op.value
            out[kind] = out.get(kind, 0) + 1
        return out

    def min_level(self) -> int:
        return min(self.meta[i].level for i in self.order)


def _scales_close(s0: float, s1: float) -> bool:
    return abs(s0 - s1) <= SCALE_RTOL * max(s0, s1)


class _Planner:
    """Single-use forward-pass state for :func:`plan_program`."""

    def __init__(self, program: Program, config: PlannerConfig) -> None:
        self.program = program
        self.config = config
        self.nodes: dict[int, Node] = {}
        self.order: list[int] = []
        self.meta: dict[int, NodeMeta] = {}
        self._next_id = len(program.nodes)
        self._rescaled: dict[int, int] = {}
        self._refreshed: dict[int, int] = {}
        self.inserted_rescales = 0
        self.inserted_bootstraps = 0

    # ----- node insertion -----------------------------------------------------

    def _append(self, node: Node, meta: NodeMeta) -> int:
        self.nodes[node.id] = node
        self.meta[node.id] = meta
        self.order.append(node.id)
        return node.id

    def _insert_rescale(self, src: int) -> int:
        original = src
        cached = self._rescaled.get(src)
        if cached is not None:
            return cached
        m = self.meta[src]
        if m.level == 0:
            src = self._insert_bootstrap(src)
            m = self.meta[src]
        node = Node(self._next_id, OpCode.RESCALE, (src,))
        self._next_id += 1
        meta = NodeMeta(m.level - 1, m.scale / self.config.q_values[m.level])
        self.inserted_rescales += 1
        # cache under the original id (and the refreshed one when a
        # bootstrap was spliced in) so every consumer shares one rescale
        self._rescaled[original] = node.id
        self._rescaled[src] = node.id
        return self._append(node, meta)

    def _insert_bootstrap(self, src: int) -> int:
        cached = self._refreshed.get(src)
        if cached is not None:
            return cached
        if self.config.bootstrap_level is None:
            raise PlanningError(
                f"level budget exhausted at node {src} and no "
                "bootstrap_level configured")
        m = self.meta[src]
        if m.scale >= self.config.waterline:
            # A refreshed message must satisfy |m * scale| < q0; an
            # un-rescaled product at level 0 is beyond saving.
            raise PlanningError(
                f"node {src} reached level 0 with scale {m.scale:.3g}, "
                "too large to bootstrap")
        node = Node(self._next_id, OpCode.BOOTSTRAP, (src,))
        self._next_id += 1
        meta = NodeMeta(self.config.bootstrap_level, m.scale)
        self.inserted_bootstraps += 1
        self._refreshed[src] = node.id
        return self._append(node, meta)

    # ----- operand preparation ------------------------------------------------

    def _prepare_mult_arg(self, nid: int) -> int:
        """Rescale below the waterline; refresh level-0 operands."""
        while self.meta[nid].scale >= self.config.waterline:
            nid = self._insert_rescale(nid)
        if self.meta[nid].level == 0:
            # The product could never rescale: refresh first.
            nid = self._insert_bootstrap(nid)
        return nid

    def _align_add_args(self, a: int, b: int) -> tuple[int, int]:
        for _ in range(self.config.max_level + 1):
            sa, sb = self.meta[a].scale, self.meta[b].scale
            if _scales_close(sa, sb):
                return a, b
            big, small = (a, b) if sa > sb else (b, a)
            if self.meta[big].scale / self.meta[small].scale < 2.0:
                break  # closer than any prime could bring them
            rescaled = self._insert_rescale(big)
            a, b = (rescaled, small) if big == a else (small, rescaled)
        raise PlanningError(
            f"additive operands {a}, {b} have unreconcilable scales "
            f"{self.meta[a].scale:.6g} vs {self.meta[b].scale:.6g}")

    # ----- main pass ----------------------------------------------------------

    def run(self) -> Plan:
        program, config = self.program, self.config
        live = self._live_set()
        input_level = config.input_level
        if input_level is None:
            input_level = config.max_level
        input_scale = config.input_scale or config.nominal_scale

        for node in program.nodes:
            if node.id not in live:
                continue
            op = node.op
            if op is OpCode.INPUT:
                self._append(node, NodeMeta(input_level, input_scale))
                continue
            args = node.args
            if op is OpCode.HMULT:
                args = tuple(self._prepare_mult_arg(a) for a in args)
                level = min(self.meta[a].level for a in args)
                scale = self.meta[args[0]].scale * self.meta[args[1]].scale
                meta = NodeMeta(level, scale)
            elif op in (OpCode.PMULT, OpCode.CMULT):
                arg = self._prepare_mult_arg(args[0])
                args = (arg,)
                m = self.meta[arg]
                enc_scale = node.payload_scale
                if enc_scale is None:
                    enc_scale = config.q_values[m.level]
                meta = NodeMeta(m.level, m.scale * enc_scale, enc_scale)
            elif op in (OpCode.HADD, OpCode.HSUB):
                args = self._align_add_args(*args)
                level = min(self.meta[a].level for a in args)
                meta = NodeMeta(level, self.meta[args[0]].scale)
            elif op in (OpCode.NEG, OpCode.HROT, OpCode.CONJ):
                meta = self.meta[args[0]]
            elif op is OpCode.RESCALE:
                arg = args[0]
                m = self.meta[arg]
                if m.level == 0:
                    arg = self._insert_bootstrap(arg)
                    m = self.meta[arg]
                args = (arg,)
                meta = NodeMeta(m.level - 1,
                                m.scale / config.q_values[m.level])
            elif op is OpCode.BOOTSTRAP:
                if config.bootstrap_level is None:
                    raise PlanningError(
                        "program contains a bootstrap node but no "
                        "bootstrap_level is configured")
                meta = NodeMeta(config.bootstrap_level,
                                self.meta[args[0]].scale)
            else:  # pragma: no cover - enum is closed
                raise PlanningError(f"unhandled op {op}")
            self._append(node if args == node.args else
                         node.with_args(args), meta)

        plan = Plan(program=program, config=config, nodes=self.nodes,
                    order=self.order, meta=self.meta,
                    eliminated=len(program.nodes) - len(live),
                    inserted_rescales=self.inserted_rescales,
                    inserted_bootstraps=self.inserted_bootstraps)
        detect_rotation_batches(plan)
        if config.fuse_rotate_reduce:
            # Lazy import: the optimizer consumes Plan, so a top-level
            # import would be circular.
            from repro.runtime.optimizer import optimize_plan
            optimize_plan(plan)
        return plan

    def _live_set(self) -> set[int]:
        program = self.program
        if not program.outputs:
            raise PlanningError("program declares no outputs")
        live: set[int] = set()
        stack = list(program.outputs.values())
        while stack:
            nid = stack.pop()
            if nid in live:
                continue
            live.add(nid)
            stack.extend(program.nodes[nid].args)
        return live

def detect_rotation_batches(plan: Plan,
                            exclude: frozenset[int] = frozenset()) -> None:
    """(Re)build ``plan.batches``/``batch_of``: galois nodes per source.

    ``exclude`` skips nodes some other mechanism already owns — the
    optimizer re-runs detection with its fusion-covered galois nodes
    excluded, so a fused member never also appears in a hoisted batch.
    """
    plan.batches = []
    plan.batch_of = {}
    groups: dict[int, list[int]] = {}
    for nid in plan.order:
        if nid in exclude:
            continue
        node = plan.nodes[nid]
        # Any two galois ops on one source share the raised
        # decomposition, so CONJ nodes join their source's batch.
        if node.op in (OpCode.HROT, OpCode.CONJ):
            groups.setdefault(node.args[0], []).append(nid)
    for source, members in groups.items():
        if len(members) < 2:
            continue
        for member in members:
            plan.batch_of[member] = len(plan.batches)
        plan.batches.append(RotationBatch(source, tuple(members)))


def plan_program(program: Program, config: PlannerConfig) -> Plan:
    """Run every planner pass; raises :class:`PlanningError` on failure."""
    return _Planner(program, config).run()


# ----- plan caching (the serving layer's compile cache) ----------------------

def structural_hash(program: Program) -> str:
    """Content hash of a program's *structure* (SHA-256 hex).

    Two programs hash equal iff they would plan identically: same slot
    count, same node list (op, operands, rotation amount, plaintext
    payload bits, payload scale) and same named endpoints.  Input
    *names* are included (they key the executor's input binding) but
    ciphertext contents are not — the whole point is that one compiled
    plan serves every request that runs the same computation on
    different data.  Payloads hash by exact float bit pattern, so two
    programs multiplying by almost-equal constants do not collide.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<QQ", program.n_slots, len(program.nodes)))
    for node in program.nodes:
        h.update(node.op.value.encode())
        h.update(struct.pack(f"<q{len(node.args)}q", node.rotation,
                             *node.args))
        if node.payload is None:
            h.update(b"\x00")
        elif isinstance(node.payload, complex):
            h.update(struct.pack("<dd", node.payload.real,
                                 node.payload.imag))
        else:
            h.update(np.ascontiguousarray(
                np.asarray(node.payload, dtype=np.complex128)).tobytes())
        h.update(struct.pack("<d", -1.0 if node.payload_scale is None
                             else node.payload_scale))
        h.update(node.name.encode() + b"\x00")
    for label, endpoints in (("in", program.inputs),
                             ("out", program.outputs)):
        for name in sorted(endpoints):
            h.update(f"{label}:{name}:{endpoints[name]}".encode())
    return h.hexdigest()


def plan_cache_key(program: Program, config: PlannerConfig,
                   params_digest: str = "") -> str:
    """Cache key: structural hash x planner configuration x ring identity.

    ``params_digest`` is :attr:`repro.ckks.params.CkksParams.digest`;
    folding it in means a cache shared by several parameter sets (or a
    server restarted onto new params) can never hand out a plan whose
    level/scale metadata was inferred for a different moduli chain.
    """
    h = hashlib.sha256()
    h.update(structural_hash(program).encode())
    h.update(params_digest.encode())
    h.update(struct.pack(
        "<qqdq", config.max_level, config.scale_bits,
        -1.0 if config.input_scale is None else config.input_scale,
        -1 if config.bootstrap_level is None else config.bootstrap_level))
    h.update(struct.pack(
        "<q", -1 if config.input_level is None else config.input_level))
    h.update(struct.pack(f"<{len(config.q_values)}d", *config.q_values))
    # The fusion pass changes the plan (fusions, batches) and the
    # output bits (one shared ModDown per tree), so it keys the cache.
    h.update(struct.pack("<q", 1 if config.fuse_rotate_reduce else 0))
    return h.hexdigest()


@dataclass
class PlanEntry:
    """One plan-cache slot: a plan plus the values derived from it
    (:meth:`derive`), evicted together so neither outgrows the cache."""

    plan: Plan
    derived: dict[str, object] = field(default_factory=dict)

    def derive(self, name: str, compute):
        """Memoized ``compute(plan)`` (pure, so a cold race between
        threads is a benign double compute)."""
        value = self.derived.get(name)
        if value is None:
            value = self.derived[name] = compute(self.plan)
        return value


class PlanCache:
    """LRU cache of compiled plans keyed by :func:`plan_cache_key`.

    Planning is pure (a plan only depends on the program structure and
    the config), so cached plans are shared freely across tenants and
    requests; the serving scheduler compiles each distinct program once
    and replays the plan for every subsequent job.  Each key holds one
    :class:`PlanEntry`: the plan and the values derived from it.
    Lookups hold a lock: the scheduler plans on several workers at once.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[str, PlanEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, program: Program, config: PlannerConfig,
            params_digest: str = "") -> tuple[PlanEntry, bool, str]:
        """Return ``(entry, was_cached, cache_key)``, planning on a miss.

        The entry itself is handed back: another thread's lookup may
        evict it the moment the lock is released, and a caller holding
        the entry keeps its plan either way.
        """
        key = plan_cache_key(program, config, params_digest)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry, True, key
            entry = self._entries[key] = PlanEntry(
                plan_program(program, config))
            self.misses += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return entry, False, key

    def derived_view(self, name: str) -> "DerivedView":
        """``key -> entry.derived[name]`` over the resident entries."""
        return DerivedView(self._entries, name)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "capacity": self.capacity}


class DerivedView:
    """One named derived value of every resident plan, dict-style.

    State a caller keeps here lives on the :class:`PlanEntry` and is
    evicted with its plan.  Storing under a key whose plan is not
    resident (evicted between lookup and store) keeps nothing.
    """

    def __init__(self, entries: OrderedDict, name: str) -> None:
        self._entries = entries
        self._name = name

    def get(self, key: str, default=None):
        entry = self._entries.get(key)
        return default if entry is None \
            else entry.derived.get(self._name, default)

    def __setitem__(self, key: str, value) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            entry.derived[self._name] = value

    def items(self) -> list:
        """A snapshot: the cache may evict while a caller iterates."""
        return [(key, entry.derived[self._name])
                for key, entry in list(self._entries.items())
                if self._name in entry.derived]

    def __len__(self) -> int:
        return len(self.items())
