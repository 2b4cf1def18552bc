"""Planner optimizer pass: fuse rotate-reduce trees into one gather.

BTS's dominant workload structure (Section 3.3) is the *rotate-reduce
tree*: a sum of (optionally weighted, optionally negated) rotations and
conjugations of one source ciphertext — BSGS inner loops, convolution
stencils, slot-sum reductions.  Executed op by op, every galois member
pays its own evk inner product *and* its own ModDown, and every add is
a separate dispatch.  This pass detects such trees in a planned graph
and collapses each into a single :class:`FusedReduce` record that the
executor runs as one
:meth:`~repro.ckks.evaluator.Evaluator.rotate_reduce` call: one
NTT-domain raise of the source's ``a`` half, one evaluation-point
gather + evk product per member, and accumulation in the P-scaled
extended base so the *whole tree* pays one ModDown pair — the lazy
key-switch accumulator that
:class:`~repro.ckks.linear_transform.LinearTransform` runs per giant
step.  The shared ModDown rounds once instead of once per member, so a
fused tree matches the unfused one to within noise, not bit for bit.

Admission rules (all conservative — a rejected tree simply executes
unfused):

* The tree root is a planned HADD/HSUB node; interior nodes
  (HADD/HSUB/NEG) and absorbed leaves must be single-consumer
  non-output nodes not claimed by another fusion.
* Leaves classify as ``sign * [weight *] galois(source)`` — a HROT or
  CONJ of the source, a PMULT/CMULT wrapping one, a weighted identity
  (PMULT/CMULT of the source itself), or the bare source.  Any other
  leaf shape is treated as an identity term of *itself*, which forces
  the common-source check to fail unless it literally is the source.
* Every leaf must share one source ciphertext, sit at the source's
  level, and produce the root's scale; at least two members must be
  galois ops (otherwise there is no shared raise to win).

Fused members are removed from the plan's hoisted rotation batches
(:func:`~repro.runtime.planner.detect_rotation_batches` re-runs with
them excluded).  Lowering and admission pricing intentionally still see
the unfused node list — the cycle model prices fused plans
conservatively rather than learning a new op kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ckks.evaluator import ReduceTerm
from repro.runtime.ir import OpCode
from repro.runtime.planner import Plan, _scales_close, detect_rotation_batches

#: Tree shapes the expansion may walk through (with sign tracking).
_INTERIOR_OPS = (OpCode.HADD, OpCode.HSUB, OpCode.NEG)


@dataclass(frozen=True)
class FusedReduce:
    """A rotate-reduce tree collapsed into one gather-accumulate.

    ``root`` is the tree's top HADD/HSUB node — the executor assigns
    the fused result to it.  ``covered`` lists every absorbed node
    (interior adds, galois leaves, weight wrappers — *not* the root,
    *not* the source), which the executor never runs individually.
    """

    root: int
    source: int
    terms: tuple[ReduceTerm, ...]
    covered: tuple[int, ...]


def optimize_plan(plan: Plan, min_galois_terms: int = 2) -> Plan:
    """Detect and record rotate-reduce fusions on a planned graph.

    Mutates ``plan`` in place (fills ``plan.fusions``/``fusion_of`` and
    rebuilds the rotation batches without fused members) and returns it.
    Roots are tried outermost-first, so a nested additive tree fuses as
    one maximal gather rather than several small ones.
    """
    consumers: dict[int, list[int]] = {}
    for nid in plan.order:
        for arg in plan.nodes[nid].args:
            consumers.setdefault(arg, []).append(nid)
    output_ids = set(plan.outputs.values())
    claimed: set[int] = set()

    def absorbable(nid: int) -> bool:
        return (nid not in claimed and nid not in output_ids
                and len(consumers.get(nid, ())) == 1)

    for root in reversed(plan.order):
        if root in claimed:
            continue
        if plan.nodes[root].op not in (OpCode.HADD, OpCode.HSUB):
            continue
        fusion = _try_fuse(plan, root, absorbable, min_galois_terms)
        if fusion is None:
            continue
        index = len(plan.fusions)
        plan.fusions.append(fusion)
        plan.fusion_of[fusion.root] = index
        claimed.add(fusion.root)
        for nid in fusion.covered:
            plan.fusion_of[nid] = index
            claimed.add(nid)
    if plan.fusions:
        covered = frozenset(
            nid for nid, idx in plan.fusion_of.items()
            if plan.fusions[idx].root != nid)
        detect_rotation_batches(plan, exclude=covered)
    return plan


def _try_fuse(plan: Plan, root: int, absorbable, min_galois_terms: int):
    """Build a :class:`FusedReduce` for ``root``, or None if ineligible."""
    leaves: list[tuple[int, int]] = []
    interior: list[int] = []

    def expand(nid: int, sign: int, is_root: bool) -> None:
        node = plan.nodes[nid]
        if node.op in _INTERIOR_OPS and (is_root or absorbable(nid)):
            if not is_root:
                interior.append(nid)
            if node.op is OpCode.NEG:
                expand(node.args[0], -sign, False)
            else:
                expand(node.args[0], sign, False)
                expand(node.args[1],
                       sign if node.op is OpCode.HADD else -sign, False)
        else:
            leaves.append((nid, sign))

    expand(root, 1, True)

    terms: list[ReduceTerm] = []
    covered: list[int] = list(interior)
    sources: set[int] = set()
    galois_terms = 0
    for nid, sign in leaves:
        node = plan.nodes[nid]
        amount: int | None = 0
        weight = None
        weight_scale = None
        source = nid
        if node.op in (OpCode.HROT, OpCode.CONJ) and absorbable(nid):
            source = node.args[0]
            amount = node.rotation if node.op is OpCode.HROT else None
            covered.append(nid)
        elif node.op in (OpCode.PMULT, OpCode.CMULT) and absorbable(nid):
            weight = node.payload
            weight_scale = plan.meta[nid].enc_scale
            covered.append(nid)
            inner_id = node.args[0]
            inner = plan.nodes[inner_id]
            if (inner.op in (OpCode.HROT, OpCode.CONJ)
                    and absorbable(inner_id)):
                source = inner.args[0]
                amount = (inner.rotation if inner.op is OpCode.HROT
                          else None)
                covered.append(inner_id)
            else:
                source = inner_id  # weighted identity term
        # else: generic leaf == identity term of itself; the
        # common-source check below rejects the tree unless it *is*
        # the source every other member rotates.
        if amount != 0:
            galois_terms += 1
        sources.add(source)
        terms.append(ReduceTerm(amount=amount, sign=sign, weight=weight,
                                weight_scale=weight_scale))
    if len(sources) != 1 or galois_terms < min_galois_terms:
        return None
    source = sources.pop()
    src_fusion = plan.fusion_of.get(source)
    if src_fusion is not None and plan.fusions[src_fusion].root != source:
        return None  # source absorbed by another fusion: never executes
    # Uniformity: rotate_reduce accumulates at one level/scale — no
    # per-term alignment.  The planner's HADD handling already aligned
    # scales, but an inserted RESCALE shows up as a foreign leaf and
    # fails the source check; this guards the remaining metadata drift.
    root_meta = plan.meta[root]
    src_level = plan.meta[source].level
    for nid, _ in leaves:
        m = plan.meta[nid]
        if m.level != src_level or m.level != root_meta.level:
            return None
        if not _scales_close(m.scale, root_meta.scale):
            return None
    return FusedReduce(root=root, source=source, terms=tuple(terms),
                       covered=tuple(covered))
