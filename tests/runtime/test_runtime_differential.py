"""Differential tests: planned execution vs naive eager evaluation.

The executor adds batching (hoisted rotations), reference-counted
freeing and metadata validation on top of plain Evaluator calls.  The
reference interpreter below strips all of that away: it walks the same
plan one node at a time with individual eager calls and keeps every
value alive.  The two must agree *bit for bit* — `galois_hoisted` is
bit-identical to `rotate` by construction, and everything else is the
same arithmetic — so any divergence is an executor bug, not noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.cipher import Ciphertext
from repro.runtime import (
    OpCode,
    PlannerConfig,
    PlanningError,
    Program,
    execute,
    plan_program,
)
from tests.conftest import encrypt_message

pytestmark = pytest.mark.slow

SCALE = 2.0 ** 40
#: amounts the session-scoped small_evaluator has keys for
KEYED_AMOUNTS = (1, 2, 3, 4, 8, 16)


def reference_execute(plan, evaluator, inputs):
    """Naive interpreter: one eager Evaluator call per node, no sharing."""
    values = {}
    for nid in plan.order:
        node = plan.nodes[nid]
        meta = plan.meta[nid]
        op = node.op
        args = [values[a] for a in node.args]
        if op is OpCode.INPUT:
            ct = inputs[node.name]
            if ct.level > meta.level:
                ct = evaluator.drop_to_level(ct, meta.level)
            values[nid] = ct
        elif op is OpCode.HMULT:
            values[nid] = evaluator.multiply(args[0], args[1],
                                             rescale=False)
        elif op is OpCode.PMULT:
            pt = evaluator.encoder.encode(
                np.asarray(node.payload, dtype=np.complex128),
                meta.enc_scale, level=args[0].level)
            values[nid] = evaluator.multiply_plain(args[0], pt)
        elif op is OpCode.CMULT:
            values[nid] = evaluator.multiply_scalar(args[0], node.payload,
                                                    scale=meta.enc_scale)
        elif op is OpCode.HADD:
            values[nid] = evaluator.add(args[0], args[1])
        elif op is OpCode.HSUB:
            values[nid] = evaluator.sub(args[0], args[1])
        elif op is OpCode.NEG:
            values[nid] = evaluator.negate(args[0])
        elif op is OpCode.HROT:
            values[nid] = evaluator.rotate(args[0], node.rotation)
        elif op is OpCode.CONJ:
            values[nid] = evaluator.conjugate(args[0])
        elif op is OpCode.RESCALE:
            values[nid] = evaluator.rescale(args[0])
        else:
            raise AssertionError(f"unexpected op {op}")
    return {name: values[nid] for name, nid in plan.outputs.items()}


def assert_ct_equal(got: Ciphertext, want: Ciphertext) -> None:
    assert got.level == want.level
    assert got.scale == want.scale
    assert np.array_equal(got.b.residues, want.b.residues)
    assert np.array_equal(got.a.residues, want.a.residues)


#: op menu for random DAGs: (tag, needs_second_operand)
_DAG_OPS = st.sampled_from(["add", "sub", "neg", "mul", "cmult", "pmult",
                            "rot", "conj"])


@st.composite
def dag_descriptors(draw):
    """A random op DAG over two inputs, as (op, operand-pick, attr) rows."""
    n_ops = draw(st.integers(min_value=1, max_value=10))
    rows = []
    for _ in range(n_ops):
        op = draw(_DAG_OPS)
        pick = draw(st.integers(min_value=0, max_value=10 ** 6))
        attr = draw(st.integers(min_value=0, max_value=len(KEYED_AMOUNTS)
                                - 1))
        rows.append((op, pick, attr))
    return rows


def build_dag(rows, n_slots):
    prog = Program(n_slots=n_slots, name="dag")
    pool = [prog.input("x"), prog.input("y")]
    for op, pick, attr in rows:
        a = pool[pick % len(pool)]
        b = pool[(pick // 7) % len(pool)]
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
            vec = np.linspace(0.1, 1.0, n_slots) * (attr + 1)
            pool.append(a * vec)
        elif op == "rot":
            pool.append(a.rotate(KEYED_AMOUNTS[attr]))
        elif op == "conj":
            pool.append(a.conjugate())
    prog.output("out", pool[-1])
    return prog


class TestRandomDagDifferential:
    @given(rows=dag_descriptors())
    @settings(max_examples=25, deadline=None)
    def test_planned_execution_matches_naive(self, rows, small_ring,
                                             small_evaluator, small_keys,
                                             small_encoder):
        prog = build_dag(rows, small_ring.params.slots_max)
        try:
            plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        except PlanningError:
            return  # DAG too deep for the test ring: planner said so
        rng = np.random.default_rng(42)
        n = small_ring.params.slots_max
        inputs = {
            name: encrypt_message(
                small_keys, small_encoder,
                rng.normal(size=n) * 0.3 + 1j * rng.normal(size=n) * 0.3,
                SCALE)
            for name in prog.inputs
        }
        got = execute(plan, small_evaluator, inputs)
        want = reference_execute(plan, small_evaluator, inputs)
        assert set(got) == set(want)
        for name in got:
            assert_ct_equal(got[name], want[name])


@st.composite
def rotation_heavy_descriptors(draw):
    """DAGs guaranteed to form big rotation batches.

    Each descriptor yields one shared source expression, >= 4 distinct
    rotation amounts applied to it (the planner must detect one batch
    covering them all, exercised through the NTT-domain hoisted path),
    optionally a conjugation of the same source riding the batch, and a
    combining tail.
    """
    amounts = draw(st.lists(st.sampled_from(KEYED_AMOUNTS), min_size=4,
                            max_size=len(KEYED_AMOUNTS), unique=True))
    with_conj = draw(st.booleans())
    tail = draw(st.sampled_from(["sum", "pairwise", "weighted"]))
    prep = draw(st.sampled_from(["input", "scaled", "sum"]))
    return amounts, with_conj, tail, prep


def build_rotation_heavy(amounts, with_conj, tail, prep, n_slots):
    prog = Program(n_slots=n_slots, name="rotation-heavy")
    x = prog.input("x")
    y = prog.input("y")
    if prep == "scaled":
        src = x * 0.5
    elif prep == "sum":
        src = x + y
    else:
        src = x
    rotated = [src.rotate(a) for a in amounts]
    if with_conj:
        rotated.append(src.conjugate())
    if tail == "sum":
        acc = rotated[0]
        for term in rotated[1:]:
            acc = acc + term
    elif tail == "pairwise":
        acc = rotated[0] - rotated[-1]
        for term in rotated[1:-1]:
            acc = acc + term
    else:
        acc = rotated[0]
        for i, term in enumerate(rotated[1:]):
            acc = acc + term * (0.25 * (i + 1))
    prog.output("out", acc)
    return prog


class TestRotationHeavyDagDifferential:
    """Big rotation batches through the NTT-domain path vs eager calls."""

    @given(rows=rotation_heavy_descriptors())
    @settings(max_examples=15, deadline=None)
    def test_batched_execution_matches_naive(self, rows, small_ring,
                                             small_evaluator, small_keys,
                                             small_encoder):
        amounts, with_conj, tail, prep = rows
        prog = build_rotation_heavy(amounts, with_conj, tail, prep,
                                    small_ring.params.slots_max)
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        # The planner must fold every rotation (and the conjugation,
        # when present) of the shared source into one batch.
        batches = [b for b in plan.batches if len(b.members) >= 4]
        assert batches, "expected a rotation batch of >= 4 members"
        batch = batches[0]
        assert len(batch.amounts(plan.nodes)) >= 4
        if with_conj:
            assert any(plan.nodes[m].op is OpCode.CONJ
                       for m in batch.members)

        rng = np.random.default_rng(7)
        n = small_ring.params.slots_max
        inputs = {
            name: encrypt_message(
                small_keys, small_encoder,
                rng.normal(size=n) * 0.3 + 1j * rng.normal(size=n) * 0.3,
                SCALE)
            for name in prog.inputs
        }
        got = execute(plan, small_evaluator, inputs)
        want = reference_execute(plan, small_evaluator, inputs)
        for name in got:
            assert_ct_equal(got[name], want[name])

    def test_conj_only_pair_batches(self, small_ring, small_evaluator,
                                    small_keys, small_encoder, rng):
        """Two CONJ nodes on one source share a single raise."""
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="conj-pair")
        x = prog.input("x")
        prog.output("out", x.conjugate() + (x.conjugate() * 0.5))
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        assert any(sum(plan.nodes[m].op is OpCode.CONJ for m in b.members)
                   >= 2 for b in plan.batches)
        z = rng.normal(size=n) * 0.3 + 1j * rng.normal(size=n) * 0.3
        inputs = {"x": encrypt_message(small_keys, small_encoder, z,
                                       SCALE)}
        got = execute(plan, small_evaluator, inputs)
        want = reference_execute(plan, small_evaluator, inputs)
        assert_ct_equal(got["out"], want["out"])


class TestBsgsStyleProgram:
    """A BSGS-shaped program: the rotation batch must hoist AND agree."""

    def test_hoisted_batch_matches_naive_and_plaintext(
            self, small_ring, small_evaluator, small_keys, small_encoder,
            rng):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="bsgs")
        x = prog.input("x")
        acc = None
        for amount in (1, 2, 3, 4):
            vec = np.cos(np.arange(n) * (amount + 1))
            term = x.rotate(amount) * vec
            acc = term if acc is None else acc + term
        prog.output("y", (acc * acc))
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        assert len(plan.batches) == 1  # all four rotations share x

        z = rng.normal(size=n) * 0.3 + 0j
        inputs = {"x": encrypt_message(small_keys, small_encoder, z, SCALE)}
        got = execute(plan, small_evaluator, inputs)
        want = reference_execute(plan, small_evaluator, inputs)
        assert_ct_equal(got["y"], want["y"])

        acc_ref = np.zeros(n, dtype=np.complex128)
        for amount in (1, 2, 3, 4):
            acc_ref += np.roll(z, -amount) * np.cos(np.arange(n)
                                                    * (amount + 1))
        expect = acc_ref ** 2
        decoded = small_evaluator.decrypt_to_message(got["y"],
                                                     small_keys.secret)
        assert np.max(np.abs(decoded - expect)) < 1e-3


class TestHelrFunctionalPath:
    """The reduced-size HELR program executes and matches its mirror."""

    def test_one_iteration_matches_numpy_reference(
            self, small_ring, small_evaluator, small_keys, small_encoder,
            rng):
        from repro.workloads.helr import (
            HelrConfig,
            build_helr_program,
            helr_program_reference,
        )

        n = small_ring.params.slots_max
        config = HelrConfig(iterations=1, batch=16, features=6,
                            padded_features=8, sigmoid_depth=1,
                            sigmoid_mults=1)
        prog = build_helr_program(config, n)
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))
        small_keys.ensure_rotation_keys(small_evaluator,
                                        plan.required_rotations())

        vectors = {name: rng.normal(size=n) * 0.2 + 0j
                   for name in prog.inputs}
        inputs = {name: encrypt_message(small_keys, small_encoder, vec,
                                        SCALE)
                  for name, vec in vectors.items()}
        outputs = execute(plan, small_evaluator, inputs)
        reference = helr_program_reference(vectors, config, n)
        for name in ("weights", "momentum"):
            got = small_evaluator.decrypt_to_message(outputs[name],
                                                     small_keys.secret)
            assert np.max(np.abs(got - reference[name])) < 1e-3, name


class TestSemanticsAgainstNumpy:
    def test_mixed_program_decrypts_to_reference(
            self, small_ring, small_evaluator, small_keys, small_encoder,
            rng):
        n = small_ring.params.slots_max
        prog = Program(n_slots=n, name="mixed")
        x = prog.input("x")
        y = prog.input("y")
        expr = (x * y + x.rotate(2)) * 0.5
        expr = expr * expr - y.conjugate()
        prog.output("out", expr)
        plan = plan_program(prog, PlannerConfig.from_ring(small_ring))

        zx = rng.normal(size=n) * 0.4 + 1j * rng.normal(size=n) * 0.4
        zy = rng.normal(size=n) * 0.4 + 1j * rng.normal(size=n) * 0.4
        inputs = {
            "x": encrypt_message(small_keys, small_encoder, zx, SCALE),
            "y": encrypt_message(small_keys, small_encoder, zy, SCALE),
        }
        got = small_evaluator.decrypt_to_message(
            execute(plan, small_evaluator, inputs)["out"],
            small_keys.secret)
        ref = (zx * zy + np.roll(zx, -2)) * 0.5
        ref = ref * ref - np.conj(zy)
        assert np.max(np.abs(got - ref)) < 1e-3
