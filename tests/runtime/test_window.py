"""Window plans: cross-job sharing by hash-consing a batch of plans.

The contract: running the merged window plan once and seeding every
job at its frontier reproduces each job's independent ``execute()``
byte for byte — for unfused plans and for plans with rotate-reduce
fusion alike — while all rotations of one shared source ride one raise.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    OpCode,
    PlannerConfig,
    PlanningError,
    Program,
    execute,
    execute_subgraph,
    plan_program,
)
from repro.runtime.window import merge_window, plan_keys
from tests.conftest import encrypt_message

SCALE = 2.0 ** 40
#: amounts the session-scoped small_evaluator has keys for
AMOUNTS = (1, 2, 3, 4)
#: op menu; fusable stencil trees are weighted up so fused roots show
#: up in window plans, not only in the jobs' own tails
_OPS = st.sampled_from(["add", "sub", "neg", "mul", "cmult", "pmult",
                        "rot", "conj"] + ["stencil"] * 3)


def _rows(size, picks):
    return st.lists(st.tuples(_OPS, st.integers(0, picks),
                              st.integers(0, len(AMOUNTS) - 1)),
                    min_size=1, max_size=size)


@st.composite
def windows(draw):
    """A common op prefix, then per job: its own ops and whether its
    ``y`` input binds the blob the other jobs share.  Own ops pick
    their operands among the first pool values, so jobs often apply
    one op to one value with different payloads, amounts or terms —
    the near-misses a key must tell apart."""
    common = draw(_rows(3, 10 ** 6))
    jobs = draw(st.lists(st.tuples(_rows(3, 3), st.booleans()),
                         min_size=2, max_size=4))
    return common, jobs


def build(rows, n_slots, name):
    prog = Program(n_slots=n_slots, name=name)
    pool = [prog.input("x"), prog.input("y")]
    for op, pick, attr in rows:
        a = pool[pick % len(pool)]
        b = pool[(pick // 7) % len(pool)]
        amount = AMOUNTS[attr]
        if op == "add":
            pool.append(a + b)
        elif op == "sub":
            pool.append(a - b)
        elif op == "neg":
            pool.append(-a)
        elif op == "mul":
            pool.append(a * b)
        elif op == "cmult":
            pool.append(a * (0.5 + 0.25 * attr))
        elif op == "pmult":
            pool.append(a * (np.linspace(0.1, 1.0, n_slots) * (attr + 1)))
        elif op == "rot":
            pool.append(a.rotate(amount))
        elif op == "conj":
            pool.append(a.conjugate())
        else:  # a rotate-reduce tree the optimizer can fuse
            pool.append(a * 0.5 + a.rotate(amount) * 0.25
                        + a.rotate(AMOUNTS[attr - 1]) * 0.25)
    for i, value in enumerate(pool[2:]):  # keep every op live
        prog.output(f"v{i}", value)
    return prog


def assert_same(got, want):
    assert got.level == want.level
    assert got.scale == want.scale
    assert np.array_equal(got.b.residues, want.b.residues)
    assert np.array_equal(got.a.residues, want.a.residues)


def run_window(plans, bindings, cts, evaluator):
    """(window, per-job outputs) of a window run plus seeded tails."""
    window = merge_window([(plan, plan_keys(plan), digests)
                           for plan, digests in zip(plans, bindings)])
    if window is None:
        return None, None
    results = execute_subgraph(window.plan, evaluator, cts, window.targets)
    outputs = []
    for plan, digests, seed in zip(plans, bindings, window.seeds):
        inputs = {name: cts[digest] for name, digest in digests.items()}
        outputs.append(execute(plan, evaluator, inputs, seeded_nodes={
            nid: results[vid] for nid, vid in seed.items()}))
    return window, outputs


@pytest.fixture(scope="module")
def blobs(small_keys, small_encoder, small_params):
    rng = np.random.default_rng(7)
    n = small_params.slots_max
    return {f"d{i}": encrypt_message(
        small_keys, small_encoder,
        rng.normal(size=n) * 0.2 + 1j * rng.normal(size=n) * 0.2, SCALE)
        for i in range(6)}


class TestWindowDifferential:
    @pytest.mark.parametrize("fuse", [False, True],
                             ids=["unfused", "fused"])
    @given(spec=windows())
    @settings(max_examples=15, deadline=None)
    def test_window_plus_seeded_tails_match_independent(
            self, fuse, spec, small_ring, small_evaluator, blobs):
        common, jobs = spec
        config = dataclasses.replace(PlannerConfig.from_ring(small_ring),
                                     fuse_rotate_reduce=fuse)
        n_slots = small_ring.params.slots_max
        try:
            plans = [plan_program(build(common + own, n_slots, f"j{i}"),
                                  config)
                     for i, (own, _) in enumerate(jobs)]
        except PlanningError:
            return  # too deep for the test ring: the planner said so
        bindings = [{"x": "d0", "y": "d1" if shared else f"d{2 + i}"}
                    for i, (_, shared) in enumerate(jobs)]
        window, outputs = run_window(plans, bindings, blobs,
                                     small_evaluator)
        if window is None:
            return
        for plan, digests, got in zip(plans, bindings, outputs):
            inputs = {name: blobs[d] for name, d in digests.items()}
            want = execute(plan, small_evaluator, inputs)
            for name in want:
                assert_same(got[name], want[name])


def stencil(amounts, name="stencil", n_slots=8):
    prog = Program(n_slots=n_slots, name=name)
    x = prog.input("x")
    acc = x * 0.5
    for amount in amounts:
        acc = acc + x.rotate(amount) * 0.25
    prog.output("out", acc)
    return prog


class TestWindowShape:
    def _plans(self, small_ring, programs, **config):
        base = PlannerConfig.from_ring(small_ring)
        base = dataclasses.replace(base, **config)
        return [plan_program(prog, base) for prog in programs]

    def test_rotations_of_one_source_ride_one_batch(self, small_ring):
        plans = self._plans(small_ring, [stencil([1, 2]), stencil([3, 4])])
        window = merge_window([(p, plan_keys(p), {"x": "blob"})
                               for p in plans])
        [batch] = window.plan.batches
        assert window.plan.nodes[batch.source].op is OpCode.INPUT
        assert window.plan.nodes[batch.source].name == "blob"
        assert batch.amounts(window.plan.nodes) == [1, 2, 3, 4]
        assert window.coalesced == [True, True]
        assert window.cse_seeded == [True, True]  # both compute x * 0.5
        assert window.raises_saved == 1
        # each job keeps only its own taps and adds, reading the window
        for plan, seed in zip(plans, window.seeds):
            assert {plan.nodes[nid].op for nid in seed} \
                >= {OpCode.HROT, OpCode.CMULT}

    def test_distinct_blobs_share_nothing(self, small_ring):
        plans = self._plans(small_ring, [stencil([1, 2])] * 2)
        assert merge_window([(p, plan_keys(p), {"x": f"blob{i}"})
                             for i, p in enumerate(plans)]) is None

    def test_one_rotator_does_not_pull_its_rotations(self, small_ring):
        prog = Program(n_slots=8, name="scaled")
        x = prog.input("x")
        prog.output("out", x * 0.5)
        plans = self._plans(small_ring, [stencil([1]), prog])
        window = merge_window([(p, plan_keys(p), {"x": "blob"})
                               for p in plans])
        assert {node.op for node in window.plan.nodes.values()} \
            == {OpCode.INPUT, OpCode.CMULT}
        assert window.coalesced == [False, False]
        assert window.raises_saved == 0

    def test_bootstrap_and_downstream_never_join(self, small_ring):
        prog = Program(n_slots=8, name="refresh")
        x = prog.input("x")
        refreshed = (x * 0.5).bootstrap()
        prog.output("out", refreshed.rotate(1) + refreshed)
        plans = self._plans(small_ring, [prog, prog], bootstrap_level=3)
        keys = plan_keys(plans[0])
        shared = [nid for nid, key, _ in keys if key is not None]
        assert {plans[0].nodes[nid].op for nid in shared} \
            == {OpCode.INPUT, OpCode.CMULT}
        window = merge_window([(p, plan_keys(p), {"x": "blob"})
                               for p in plans])
        assert all(node.op in (OpCode.INPUT, OpCode.CMULT)
                   for node in window.plan.nodes.values())

    def test_identical_fused_trees_share_whole(self, small_ring):
        plans = self._plans(small_ring, [stencil([1, 2])] * 2,
                            fuse_rotate_reduce=True)
        assert plans[0].fusions
        window = merge_window([(p, plan_keys(p), {"x": "blob"})
                               for p in plans])
        assert window.plan.fusions
        for plan, seed in zip(plans, window.seeds):
            assert list(seed) == [plan.outputs["out"]]
        assert window.cse_seeded == [True, True]
