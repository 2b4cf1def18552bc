"""Plan executor: runs a planned op graph against the functional library.

The executor is deliberately thin — all scheduling decisions (rescale
placement, bootstrap insertion, rotation batching, rotate-reduce
fusion) were made by the planner; here every node becomes exactly one
:class:`~repro.ckks.evaluator.Evaluator` call, except:

- galois batches (HRot and Conj nodes sharing a source), which collapse
  into a single
  :meth:`~repro.ckks.evaluator.Evaluator.galois_hoisted` call per
  source ciphertext: the raised NTT-domain decomposition stays alive
  across the whole batch, and every member is an evaluation-point
  gather + evk product + ModDown;
- fused rotate-reduce trees (:mod:`repro.runtime.optimizer`), where the
  tree's *root* runs one
  :meth:`~repro.ckks.evaluator.Evaluator.rotate_reduce` call and every
  covered interior/leaf node is skipped entirely.

Two runtime guarantees:

- **Reference counting** — intermediate ciphertexts are dropped at their
  last use (the software analogue of the deterministic-dataflow
  scratchpad management of Section 5.3), so peak memory follows the
  program's live set, not its length.
- **Metadata validation** — after every node the produced ciphertext's
  level must equal the planned level and its scale must match the
  planned scale (the planner tracks scales with the ring's actual prime
  values, so disagreement means a planner/evaluator semantics drift —
  fail loudly rather than decrypt garbage).
"""

from __future__ import annotations

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.evaluator import SCALE_RTOL, Evaluator
from repro.obs import kernel as _obs_kernel
from repro.obs.noise import NoiseTracker, PlanNoiseProfile
from repro.runtime.ir import OpCode
from repro.runtime.planner import Plan


class ExecutionError(RuntimeError):
    """Executed state diverged from the plan (or a key/input is missing)."""


class ExecutionCancelled(ExecutionError):
    """Execution aborted at a node boundary by a cancellation request."""


def _effective_args(plan: Plan, nid: int) -> tuple[int, ...]:
    """Dataflow deps as executed: a fused root depends only on its source."""
    idx = plan.fusion_of.get(nid)
    if idx is not None:
        fusion = plan.fusions[idx]
        if fusion.root == nid:
            return (fusion.source,)
    return plan.nodes[nid].args


def execute(plan: Plan, evaluator: Evaluator,
            inputs: dict[str, Ciphertext],
            seeded_nodes: dict[int, Ciphertext] | None = None,
            should_cancel=None, span=None,
            noise: PlanNoiseProfile | None = None
            ) -> dict[str, Ciphertext]:
    """Run ``plan`` and return the named output ciphertexts.

    ``inputs`` maps the program's input names to ciphertexts encrypted
    at the planner's assumed input level/scale.  A BOOTSTRAP node
    lowers to the simulator only (:mod:`repro.runtime.lowering`);
    executing one raises :class:`ExecutionError`.

    ``seeded_nodes`` maps *node ids* to already-computed ciphertexts —
    the scheduler's cross-job sharing hook: the values several queued
    jobs compute (and the rotations several of them make of one
    ciphertext) run once in a merged window plan
    (:mod:`repro.runtime.window`, :func:`execute_subgraph`), and each
    job is seeded at its frontier.  A seeded node is not executed, and
    any upstream node only it needed is skipped too — a rotation batch
    whose members were all seeded never raises at all.  Seeded values
    still pass the level/scale validation every node gets.

    ``should_cancel`` is an optional zero-argument callable polled
    before every node; when it returns true, execution aborts with
    :class:`ExecutionCancelled`.  This is the cooperative cancellation
    point the serving supervisor uses to reclaim a worker whose job
    outlived its deadline — between nodes only, so a cancelled run
    never leaves a half-computed ciphertext behind.

    ``span`` is an optional :class:`repro.obs.trace.Span`: every
    executed node opens a child span tagged with the op kind, planned
    level/scale, and (for galois ops) the rotation amount; when the
    kernel tallies are enabled (:func:`repro.obs.enable`) each node
    span additionally carries the NTT-pass / BConv-plane / ModDown
    deltas the node caused on this thread.  With ``span=None`` the
    execution path is byte-identical to an untraced run.

    ``noise`` is an optional :class:`repro.obs.noise.PlanNoiseProfile`
    of ``plan`` (the serving scheduler passes the one it memoized with
    the plan); traced runs without one profile the plan from the
    evaluator's ring, so every op span also carries ``noise_bits`` /
    ``headroom_bits``.  The profile is pure float algebra over plan
    metadata — it never reads ciphertext coefficients, so outputs are
    byte-identical with or without it.
    """
    values = _run(plan, evaluator, inputs,
                  targets=set(plan.outputs.values()),
                  seeded_nodes=seeded_nodes,
                  should_cancel=should_cancel, span=span, noise=noise)
    return {name: values[nid] for name, nid in plan.outputs.items()}


def execute_subgraph(plan: Plan, evaluator: Evaluator,
                     inputs: dict[str, Ciphertext],
                     node_ids) -> dict[int, Ciphertext]:
    """Execute just enough of ``plan`` to produce ``node_ids``.

    The cross-job sharing primitive: the scheduler runs a batch
    window's merged plan (:func:`repro.runtime.window.merge_window`)
    once and feeds the results to every member via ``execute``'s
    ``seeded_nodes``.  Only the inputs the requested nodes transitively
    depend on need to be bound; execution is the same code path as
    :func:`execute` (same batching, fusion, validation), so subgraph
    results are byte-identical to the values a full run would compute.
    """
    return _run(plan, evaluator, inputs, targets=set(node_ids),
                seeded_nodes=None, should_cancel=None, span=None,
                noise=None)


def _run(plan: Plan, evaluator: Evaluator, inputs: dict[str, Ciphertext],
         targets: set[int], seeded_nodes, should_cancel, span,
         noise) -> dict[int, Ciphertext]:
    program = plan.program
    seeded_nodes = seeded_nodes or {}
    fusion_root = {f.root: f for f in plan.fusions}

    if span is not None and noise is None:
        noise = NoiseTracker.from_ring(evaluator.ring).profile(plan)

    # Reverse liveness sweep: a node executes iff some target needs it
    # and neither a seed nor a fusion provides/absorbs it.  ``order``
    # is topological, so walking it backwards finalizes each node's
    # consumer set before the node itself is classified.
    needed: set[int] = set(targets)
    executed: set[int] = set()
    for nid in reversed(plan.order):
        if nid not in needed:
            continue
        if nid in seeded_nodes:
            continue  # value provided; its inputs are not our problem
        idx = plan.fusion_of.get(nid)
        if idx is not None and plan.fusions[idx].root != nid:
            raise ExecutionError(
                f"node {nid} is absorbed by fusion {idx} but something "
                "outside the tree still needs it (optimizer invariant)")
        executed.add(nid)
        needed.update(_effective_args(plan, nid))
    unknown = targets - set(plan.order)
    if unknown:
        raise ExecutionError(f"unknown target nodes: {sorted(unknown)}")

    required_inputs = {plan.nodes[nid].name for nid in executed
                       if plan.nodes[nid].op is OpCode.INPUT}
    missing = required_inputs - set(inputs)
    if missing:
        raise ExecutionError(f"missing program inputs: {sorted(missing)}")

    refcount: dict[int, int] = {}
    for nid in executed:
        for arg in _effective_args(plan, nid):
            refcount[arg] = refcount.get(arg, 0) + 1
    for out_id in targets:
        refcount[out_id] = refcount.get(out_id, 0) + 1

    values: dict[int, Ciphertext] = {}
    for nid, ct in seeded_nodes.items():
        if refcount.get(nid, 0) == 0:
            continue
        meta = plan.meta[nid]
        if ct.level != meta.level:
            raise ExecutionError(
                f"seeded node {nid} at level {ct.level}, planned "
                f"{meta.level}")
        if abs(ct.scale - meta.scale) > SCALE_RTOL * meta.scale:
            raise ExecutionError(
                f"seeded node {nid} at scale {ct.scale:.6g}, planned "
                f"{meta.scale:.6g}")
        values[nid] = ct

    # Hoisted batches over the members that actually execute this run
    # (seeded members consume no batch slot, and a batch whose members
    # were all seeded never raises at all).  A member's galois amount is
    # its rotation, or ``None`` for conjugation.
    def galois_amount(nid: int) -> int | None:
        node = plan.nodes[nid]
        return node.rotation if node.op is OpCode.HROT else None

    batch_amounts = [[galois_amount(m) for m in batch.members
                      if m in executed] for batch in plan.batches]
    batch_pending = [len(amounts) for amounts in batch_amounts]
    batch_results: dict[int, dict] = {}

    def consume(nid: int) -> Ciphertext:
        ct = values[nid]
        refcount[nid] -= 1
        if refcount[nid] == 0:
            del values[nid]
        return ct

    for nid in plan.order:
        if nid not in executed:
            continue
        if should_cancel is not None and should_cancel():
            raise ExecutionCancelled(
                f"execution cancelled before node {nid}")
        node = plan.nodes[nid]
        op = node.op
        meta = plan.meta[nid]
        fusion = fusion_root.get(nid)
        node_span = None
        tally_before = None
        if span is not None:
            tags = {"node": nid, "level": meta.level}
            if fusion is not None:
                tags["fused_terms"] = len(fusion.terms)
            elif op is OpCode.HROT:
                tags["rotation"] = node.rotation
            if noise is not None:
                health = noise.nodes[nid]
                tags["noise_bits"] = round(health.noise_bits, 2)
                tags["headroom_bits"] = round(health.headroom_bits, 2)
            node_span = span.child(
                "rotate_reduce" if fusion is not None else op.value,
                cat="op", **tags)
            if _obs_kernel._ENABLED:
                tally_before = _obs_kernel.snapshot()
        if fusion is not None:
            result = evaluator.rotate_reduce(consume(fusion.source),
                                             fusion.terms)
        elif op is OpCode.INPUT:
            ct = inputs[node.name]
            if ct.n_slots != program.n_slots:
                raise ExecutionError(
                    f"input {node.name!r} has {ct.n_slots} slots, program "
                    f"declares {program.n_slots}")
            if ct.level < meta.level:
                raise ExecutionError(
                    f"input {node.name!r} at level {ct.level}, planner "
                    f"assumed {meta.level}")
            if ct.level > meta.level:
                ct = evaluator.drop_to_level(ct, meta.level)
            if abs(ct.scale - meta.scale) > SCALE_RTOL * meta.scale:
                raise ExecutionError(
                    f"input {node.name!r} at scale {ct.scale:.6g}, planner "
                    f"assumed {meta.scale:.6g}")
            result = ct
        elif op is OpCode.HMULT:
            result = evaluator.multiply(consume(node.args[0]),
                                        consume(node.args[1]),
                                        rescale=False)
        elif op is OpCode.PMULT:
            ct = consume(node.args[0])
            pt = evaluator.encoder.encode(
                np.asarray(node.payload, dtype=np.complex128),
                meta.enc_scale, level=ct.level)
            result = evaluator.multiply_plain(ct, pt)
        elif op is OpCode.CMULT:
            result = evaluator.multiply_scalar(
                consume(node.args[0]), node.payload, scale=meta.enc_scale)
        elif op is OpCode.HADD:
            result = evaluator.add(consume(node.args[0]),
                                   consume(node.args[1]))
        elif op is OpCode.HSUB:
            result = evaluator.sub(consume(node.args[0]),
                                   consume(node.args[1]))
        elif op is OpCode.NEG:
            result = evaluator.negate(consume(node.args[0]))
        elif op in (OpCode.HROT, OpCode.CONJ):
            batch_index = plan.batch_of.get(nid)
            if batch_index is None:
                if op is OpCode.HROT:
                    result = evaluator.rotate(consume(node.args[0]),
                                              node.rotation)
                else:
                    result = evaluator.conjugate(consume(node.args[0]))
            else:
                cached = batch_results.get(batch_index)
                if cached is None:
                    batch = plan.batches[batch_index]
                    source = values[batch.source]  # consumed per member
                    # One NTT-domain raise of source.a serves every
                    # rotation and conjugation of the batch.
                    cached = evaluator.galois_hoisted(
                        source, batch_amounts[batch_index])
                    batch_results[batch_index] = cached
                consume(node.args[0])
                result = cached[galois_amount(nid)]
                batch_pending[batch_index] -= 1
                if batch_pending[batch_index] == 0:
                    del batch_results[batch_index]  # free unconsumed rots
        elif op is OpCode.RESCALE:
            result = evaluator.rescale(consume(node.args[0]))
        else:  # BOOTSTRAP, the one op left
            raise ExecutionError(
                f"node {nid} ({op.value}) lowers to the simulator only; "
                "the executor has no bootstrap path")

        if result.level != meta.level:
            raise ExecutionError(
                f"node {nid} ({op.value}) produced level "
                f"{result.level}, planned {meta.level}")
        if abs(result.scale - meta.scale) > SCALE_RTOL * meta.scale:
            raise ExecutionError(
                f"node {nid} ({op.value}) produced scale "
                f"{result.scale:.6g}, planned {meta.scale:.6g}")
        if node_span is not None:
            if tally_before is not None:
                node_span.annotate(
                    **{field: count for field, count
                       in _obs_kernel.delta(tally_before).items()
                       if count})
            node_span.end()
        if refcount.get(nid, 0) > 0:
            values[nid] = result

    out: dict[int, Ciphertext] = {}
    for nid in targets:
        if nid not in values:  # pragma: no cover - refcounts pin targets
            raise ExecutionError(f"target {nid} was freed before return")
        out[nid] = values[nid]
    return out
