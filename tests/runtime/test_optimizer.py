"""Differential tests for the rotate-reduce fusion optimizer.

A fused tree accumulates its key-switch halves in the P-scaled extended
base and pays one ModDown pair for the whole tree.  The deferred base
conversion rounds once instead of per member, so — like the
double-hoisted BSGS path — its output is compared after decrypt against
a tight tolerance, and its kernel tallies must be *strictly lower* than
the unfused plan's on every field.  Fused execution itself is
deterministic: seeding a fused root reproduces direct execution byte
for byte.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs import kernel as K
from repro.runtime import (
    OpCode,
    PlannerConfig,
    Program,
    execute,
    execute_subgraph,
    plan_cache_key,
    plan_program,
    structural_hash,
)
from tests.conftest import encrypt_message

SCALE = 2.0 ** 40
#: amounts the session-scoped small_evaluator has keys for
KEYED_AMOUNTS = (1, 2, 3, 4, 8, 16)


def fused_config(ring):
    return dataclasses.replace(PlannerConfig.from_ring(ring),
                               fuse_rotate_reduce=True)


def assert_ct_equal(got, want):
    assert got.level == want.level
    assert got.scale == want.scale
    assert np.array_equal(got.b.residues, want.b.residues)
    assert np.array_equal(got.a.residues, want.a.residues)


def assert_decrypts_close(evaluator, keys, got, want, tol=1e-6):
    """Same level and scale; messages agree within one shared rounding."""
    assert got.level == want.level
    assert got.scale == want.scale
    diff = (evaluator.decrypt_to_message(got, keys.secret)
            - evaluator.decrypt_to_message(want, keys.secret))
    assert np.max(np.abs(diff)) < tol


def plain_tree(n_slots):
    """x + rot(x,1) + rot(x,2): unweighted, includes an identity term."""
    prog = Program(n_slots=n_slots, name="plain-tree")
    x = prog.input("x")
    prog.output("out", x + x.rotate(1) + x.rotate(2))
    return prog


def weighted_tree(n_slots):
    """Weights, signs and a conjugation — every leaf shape at once."""
    prog = Program(n_slots=n_slots, name="weighted-tree")
    x = prog.input("x")
    vec = np.linspace(0.1, 0.9, n_slots)
    expr = (x * 0.5 + x.rotate(1) * vec - x.rotate(2) * 0.25
            + x.conjugate() * 0.75)
    prog.output("out", expr)
    return prog


def encrypted_input(keys, encoder, rng, n, scale=SCALE):
    z = rng.normal(size=n) * 0.3 + 1j * rng.normal(size=n) * 0.3
    return encrypt_message(keys, encoder, z, scale)


class TestFusionDetection:
    def test_plain_tree_fuses(self, small_ring):
        prog = plain_tree(small_ring.params.slots_max)
        plan = plan_program(prog, fused_config(small_ring))
        assert len(plan.fusions) == 1
        fusion = plan.fusions[0]
        assert plan.nodes[fusion.source].op is OpCode.INPUT
        assert sorted(t.amount for t in fusion.terms) == [0, 1, 2]
        assert all(t.sign == 1 and t.weight is None for t in fusion.terms)
        # root maps to the fusion, covered nodes too, source does not
        assert plan.fusion_of[fusion.root] == 0
        assert all(plan.fusion_of[nid] == 0 for nid in fusion.covered)
        assert fusion.source not in fusion.covered
        # both rotations were absorbed: no hoisted batch remains
        assert plan.batches == []

    def test_weighted_signed_conj_tree_fuses(self, small_ring):
        prog = weighted_tree(small_ring.params.slots_max)
        plan = plan_program(prog, fused_config(small_ring))
        assert len(plan.fusions) == 1
        fusion = plan.fusions[0]
        amounts = sorted((t.amount for t in fusion.terms),
                         key=lambda a: (a is None, a))
        assert amounts == [0, 1, 2, None]
        signs = {t.amount: t.sign for t in fusion.terms}
        assert signs[2] == -1 and signs[1] == 1
        assert all(t.weight is not None for t in fusion.terms)

    def test_nested_tree_fuses_maximally(self, small_ring):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="nested")
        x = prog.input("x")
        left = x.rotate(1) + x.rotate(2)
        right = x.rotate(3) + x.rotate(4)
        prog.output("out", left + right)
        plan = plan_program(prog, fused_config(small_ring))
        assert len(plan.fusions) == 1
        assert len(plan.fusions[0].terms) == 4

    def test_disabled_by_default(self, small_ring):
        prog = plain_tree(small_ring.params.slots_max)
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        assert plan.fusions == [] and plan.fusion_of == {}
        assert len(plan.batches) == 1

    def test_mixed_sources_rejected(self, small_ring):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="mixed-src")
        x, y = prog.input("x"), prog.input("y")
        prog.output("out", x.rotate(1) + y.rotate(2))
        plan = plan_program(prog, fused_config(small_ring))
        assert plan.fusions == []
        # the ordinary hoisting pass still batches nothing across sources
        assert all(len(b.members) <= 1 for b in plan.batches)

    def test_single_galois_term_rejected(self, small_ring):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="one-rot")
        x = prog.input("x")
        prog.output("out", x + x.rotate(1))
        plan = plan_program(prog, fused_config(small_ring))
        assert plan.fusions == []

    def test_multi_consumer_leaf_rejected(self, small_ring):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="shared-rot")
        x = prog.input("x")
        r1 = x.rotate(1)
        prog.output("out", r1 + x.rotate(2))
        prog.output("aux", r1 * 2.0)
        plan = plan_program(prog, fused_config(small_ring))
        # r1 feeds two consumers, so it cannot be absorbed; as its own
        # identity leaf it breaks the common-source rule.
        assert plan.fusions == []

    def test_output_leaf_rejected(self, small_ring):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="output-rot")
        x = prog.input("x")
        r1 = x.rotate(1)
        prog.output("r1", r1)
        prog.output("out", r1 + x.rotate(2))
        plan = plan_program(prog, fused_config(small_ring))
        assert plan.fusions == []

    def test_chained_fusions(self, small_ring, small_evaluator, small_keys,
                             small_encoder, rng):
        """A fused tree whose source is itself a fused root."""
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="chained")
        x = prog.input("x")
        t = x.rotate(1) + x.rotate(2)
        prog.output("out", t.rotate(3) + t.rotate(4))
        plan = plan_program(prog, fused_config(small_ring))
        assert len(plan.fusions) == 2
        roots = {f.root for f in plan.fusions}
        sources = {f.source for f in plan.fusions}
        assert roots & sources, "inner fused root should feed outer fusion"

        inputs = {"x": encrypted_input(small_keys, small_encoder, rng, n)}
        got = execute(plan, small_evaluator, inputs)
        ref_plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        want = execute(ref_plan, small_evaluator, inputs)
        assert_decrypts_close(small_evaluator, small_keys, got["out"],
                              want["out"])


class TestRotationCanonicalization:
    """Satellite: HROT amounts are canonicalized mod n_slots at emit."""

    def test_negative_amount_canonicalized_in_ir(self, small_ring):
        n = small_ring.params.slots_max
        neg = Program(n_slots=n, name="p")
        x = neg.input("x")
        neg.output("out", x.rotate(-1) + x.rotate(1))
        amounts = {node.rotation for node in neg.nodes
                   if node.op is OpCode.HROT}
        assert amounts == {1, n - 1}

    def test_negative_and_wrapped_amount_hash_identically(self, small_ring):
        n = small_ring.params.slots_max

        def build(amount):
            prog = Program(n_slots=n, name="p")
            x = prog.input("x")
            prog.output("out", x.rotate(amount) + x.rotate(1))
            return prog

        neg, wrapped = build(-1), build(n - 1)
        assert structural_hash(neg) == structural_hash(wrapped)
        config = PlannerConfig.from_ring(small_ring)
        assert (plan_cache_key(neg, config)
                == plan_cache_key(wrapped, config))

    def test_cache_key_varies_with_fusion_config(self, small_ring):
        prog = plain_tree(small_ring.params.slots_max)
        base = PlannerConfig.from_ring(small_ring)
        assert (plan_cache_key(prog, base)
                != plan_cache_key(prog, fused_config(small_ring)))


class TestFusedExecution:
    def test_single_mode_close_and_strictly_cheaper(
            self, small_ring, small_evaluator, small_keys, small_encoder,
            rng):
        n = small_ring.params.slots_max
        prog = weighted_tree(n)
        inputs = {"x": encrypted_input(small_keys, small_encoder, rng, n)}
        plain_plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        fused_plan = plan_program(prog, fused_config(small_ring))
        obs.enable()
        try:
            K.reset()
            want = execute(plain_plan, small_evaluator, inputs)
            plain_tally = K.snapshot()
            K.reset()
            got = execute(fused_plan, small_evaluator, inputs)
            fused_tally = K.snapshot()
        finally:
            obs.disable()
        # functional agreement: one deferred rounding, ~1e-9 territory
        assert_decrypts_close(small_evaluator, small_keys, got["out"],
                              want["out"])
        # the fused tree does strictly less kernel work across the board
        for field in K.FIELDS:
            assert fused_tally[field] < plain_tally[field], field

    def test_seeded_fused_subgraph_byte_identical(
            self, small_ring, small_evaluator, small_keys, small_encoder,
            rng):
        """execute_subgraph + seeded_nodes reproduce direct execution."""
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="seeded")
        x = prog.input("x")
        tree = x + x.rotate(1) + x.rotate(2)
        prog.output("out", tree * tree)
        plan = plan_program(prog, fused_config(small_ring))
        assert len(plan.fusions) == 1
        root = plan.fusions[0].root

        inputs = {"x": encrypted_input(small_keys, small_encoder, rng, n)}
        direct = execute(plan, small_evaluator, inputs)
        shared = execute_subgraph(plan, small_evaluator, inputs, [root])
        assert set(shared) == {root}
        seeded = execute(plan, small_evaluator, inputs,
                         seeded_nodes=shared)
        assert_ct_equal(seeded["out"], direct["out"])
        unfused = execute(plan_program(prog, PlannerConfig.from_ring(
            small_ring)), small_evaluator, inputs)
        assert_decrypts_close(small_evaluator, small_keys, direct["out"],
                              unfused["out"], tol=1e-5)


@st.composite
def tree_descriptors(draw):
    amounts = draw(st.lists(st.sampled_from(KEYED_AMOUNTS),
                            min_size=2, max_size=len(KEYED_AMOUNTS),
                            unique=True))
    with_identity = draw(st.booleans())
    with_conj = draw(st.booleans())
    weighted = draw(st.booleans())  # all-or-none keeps scales uniform
    n_terms = (len(amounts) + int(with_identity) + int(with_conj))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n_terms,
                          max_size=n_terms))
    kinds = draw(st.lists(st.sampled_from(["scalar", "vector"]),
                          min_size=n_terms, max_size=n_terms))
    return amounts, with_identity, with_conj, weighted, signs, kinds


@pytest.mark.slow
class TestRandomTreeDifferential:
    """Random rotate-reduce trees: fused vs unfused after decrypt."""

    @staticmethod
    def build(amounts, with_identity, with_conj, weighted, signs, kinds,
              n_slots):
        prog = Program(n_slots=n_slots, name="random-tree")
        x = prog.input("x")
        members = [x.rotate(a) for a in amounts]
        if with_identity:
            members.append(x)
        if with_conj:
            members.append(x.conjugate())
        acc = None
        for i, member in enumerate(members):
            if weighted:
                if kinds[i] == "scalar":
                    member = member * (0.25 + 0.125 * i)
                else:
                    member = member * (np.linspace(0.05, 0.8, n_slots)
                                       * (i + 1))
            if acc is None:
                acc = member if signs[i] > 0 else -member
            elif signs[i] > 0:
                acc = acc + member
            else:
                acc = acc - member
        prog.output("out", acc)
        return prog

    @given(rows=tree_descriptors())
    @settings(max_examples=20, deadline=None)
    def test_fused_matches_unfused(self, rows, small_ring, small_evaluator,
                                   small_keys, small_encoder):
        n = small_ring.params.slots_max
        prog = self.build(*rows, n)
        plain_plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        fused_plan = plan_program(prog, fused_config(small_ring))
        assert fused_plan.fusions

        local = np.random.default_rng(99)
        inputs = {"x": encrypted_input(small_keys, small_encoder, local,
                                       n)}
        want = execute(plain_plan, small_evaluator, inputs)["out"]
        got = execute(fused_plan, small_evaluator, inputs)["out"]
        assert_decrypts_close(small_evaluator, small_keys, got, want)
