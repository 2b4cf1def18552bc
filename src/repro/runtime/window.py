"""Cross-job sharing: merge a batch window's plans into one window plan.

BTS builds key-switching around one fact: ModUp does not depend on the
rotation amount, so one raise serves every rotation of a ciphertext
(Section 3.3).  The serving scheduler applies it across requests with
one step.  The plans of a tenant's jobs in one batch window are merged
into a single *window plan*, hash-consed on value keys:

- an INPUT is keyed by the digest of the blob bound to it and its
  planned level and scale;
- every other node by its op, canonical rotation, payload bits, encode
  scale, planned level and scale, slot count, fusion terms, and the
  keys of its (effective) arguments.

Two nodes with one key compute the same ciphertext bit for bit: every
executor path is a deterministic function of exactly these facts, and
hoisted galois is bit-identical to sequential galois whatever the batch
holds.  The window plan keeps every value at least two jobs compute,
plus every galois node on such a value that at least two jobs rotate.
The planner's :func:`~repro.runtime.planner.detect_rotation_batches`
then turns all rotations of one source into a single hoisted raise, so
cross-job rotation coalescing falls out of ordinary rotation batching.
BOOTSTRAP nodes, and everything downstream of one, never join
(bootstrapper state is per attempt).

The caller runs the window plan once with
:func:`~repro.runtime.executor.execute_subgraph` and seeds each job
through ``execute(..., seeded_nodes=...)`` at its frontier: the window
nodes that one of the job's own nodes or outputs reads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.runtime.executor import _effective_args
from repro.runtime.ir import Node, OpCode, Program
from repro.runtime.planner import Plan, detect_rotation_batches

_GALOIS = (OpCode.HROT, OpCode.CONJ)

#: ``(node id, structural key, effective args)`` per executed node
PlanKeys = tuple[tuple[int, tuple | None, tuple[int, ...]], ...]


@dataclass
class Window:
    """A merged window plan and how it seeds each member job."""

    plan: Plan                       #: INPUT nodes are named by digest
    targets: list[int]               #: window nodes some member reads
    seeds: list[dict[int, int]]      #: per member: its node id -> window id
    cse_seeded: list[bool]           #: per member: reads a value another
    #: member also computes
    coalesced: list[bool]            #: per member: its rotations ride a
    #: raise another member's rotations share
    raises_saved: int                #: raises the members no longer pay


def _bits(value) -> bytes | None:
    if value is None:
        return None
    return np.ascontiguousarray(
        np.asarray(value, dtype=np.complex128)).tobytes()


def plan_keys(plan: Plan) -> PlanKeys:
    """Structural key of every executed node of ``plan``, in order.

    Nodes a fusion absorbs are left out (they run inside their root).
    An INPUT key carries the input *name*, which :func:`merge_window`
    swaps for the digest of the bound blob.  A ``None`` key marks a
    node that is never shared: a BOOTSTRAP and everything downstream
    of one.  Keys are a pure function of the plan, so callers cache
    them next to it.
    """
    n_slots = plan.program.n_slots
    keys: dict[int, tuple | None] = {}
    entries = []
    for nid in plan.order:
        idx = plan.fusion_of.get(nid)
        fusion = None if idx is None else plan.fusions[idx]
        if fusion is not None and fusion.root != nid:
            continue
        node, meta = plan.nodes[nid], plan.meta[nid]
        args = _effective_args(plan, nid)
        if node.op is OpCode.INPUT:
            key = (OpCode.INPUT, node.name, meta.level, meta.scale)
        elif node.op is OpCode.BOOTSTRAP \
                or any(keys[a] is None for a in args):
            key = None
        else:
            terms = None if fusion is None else tuple(
                (t.amount, t.sign, _bits(t.weight), t.weight_scale)
                for t in fusion.terms)
            key = (node.op, node.rotation % n_slots, _bits(node.payload),
                   meta.enc_scale, meta.level, meta.scale, n_slots, terms)
        keys[nid] = key
        entries.append((nid, key, args))
    return tuple(entries)


def merge_window(members: list[tuple[Plan, PlanKeys, dict[str, str]]]
                 ) -> Window | None:
    """Hash-cons ``(plan, keys, input name -> blob digest)`` members.

    Members must share one slot count.  Returns ``None`` when the
    members share no computed value (bound inputs alone are not worth
    a window run).
    """
    index: dict[tuple, int] = {}     # value key -> value id
    origin: list[tuple[int, int]] = []  # value id -> (member, node id)
    value_args: list[tuple[int, ...]] = []
    users: list[set[int]] = []       # value id -> members computing it
    galois: dict[int, int] = {}      # galois value id -> its source's id
    rotators: dict[int, set[int]] = {}  # source value id -> members
    values: list[dict[int, int]] = []   # per member: node id -> value id
    for m, (_, keys, digests) in enumerate(members):
        ids: dict[int, int] = {}
        for nid, key, args in keys:
            if key is None:
                continue
            arg_ids = tuple(ids[a] for a in args)
            if key[0] is OpCode.INPUT:
                value_key = (OpCode.INPUT, digests[key[1]]) + key[2:]
            else:
                value_key = (key,) + arg_ids
            vid = index.get(value_key)
            if vid is None:
                vid = index[value_key] = len(origin)
                origin.append((m, nid))
                value_args.append(arg_ids)
                users.append(set())
                if key[0] in _GALOIS:
                    galois[vid] = arg_ids[0]
            users[vid].add(m)
            ids[nid] = vid
            if key[0] in _GALOIS:
                rotators.setdefault(arg_ids[0], set()).add(m)
        values.append(ids)

    shared = {vid for vid, who in enumerate(users) if len(who) >= 2}
    window = shared | {vid for vid, src in galois.items()
                       if src in shared and len(rotators[src]) >= 2}
    inputs = {vid for vid in window if not value_args[vid]}  # INPUTs
    if window <= inputs:
        return None

    order = sorted(window)  # value ids are interned after their args
    nodes: dict[int, Node] = {}
    meta = {}
    fusions: list = []
    fusion_of: dict[int, int] = {}
    for vid in order:
        m, nid = origin[vid]
        plan, _, digests = members[m]
        node = plan.nodes[nid]
        nodes[vid] = Node(vid, node.op, value_args[vid],
                          node.rotation % plan.program.n_slots,
                          node.payload, node.payload_scale,
                          digests[node.name] if vid in inputs else "")
        meta[vid] = plan.meta[nid]
        idx = plan.fusion_of.get(nid)
        if idx is not None:
            fusion_of[vid] = len(fusions)
            fusions.append(dataclasses.replace(
                plan.fusions[idx], root=vid, source=value_args[vid][0],
                covered=()))
    first = members[0][0]
    merged = Plan(program=Program(n_slots=first.program.n_slots,
                                  name="window"),
                  config=first.config, nodes=nodes, order=order,
                  meta=meta, fusions=fusions, fusion_of=fusion_of)
    detect_rotation_batches(merged)

    seeds, cse_seeded, coalesced = [], [], []
    for (plan, keys, _), ids in zip(members, values):
        reads = [a for nid, _, args in keys
                 if ids.get(nid) not in window for a in args]
        seeds.append({nid: ids[nid]
                      for nid in reads + list(plan.outputs.values())
                      if ids.get(nid) in window
                      and ids[nid] not in inputs})
        mine = window.intersection(ids.values())
        cse_seeded.append(any(len(users[vid]) >= 2 for vid in mine
                              if vid not in inputs))
        coalesced.append(any(vid in galois for vid in mine))
    sources = {galois[vid] for vid in window if vid in galois}
    return Window(plan=merged,
                  targets=sorted({vid for seed in seeds
                                  for vid in seed.values()}),
                  seeds=seeds, cse_seeded=cse_seeded, coalesced=coalesced,
                  raises_saved=sum(len(rotators[src]) - 1
                                   for src in sources))
