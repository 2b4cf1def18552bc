"""Unit tests for the runtime IR and planner passes."""

import numpy as np
import pytest

from repro.runtime import (
    ExecutionError,
    OpCode,
    PlannerConfig,
    PlanningError,
    Program,
    execute,
    plan_program,
)
from tests.conftest import encrypt_message

NOMINAL = 2.0 ** 40


def make_config(max_level=6, bootstrap_level=None, input_level=None):
    return PlannerConfig(
        max_level=max_level, scale_bits=40,
        q_values=(2.0 ** 50,) + (NOMINAL,) * max_level,
        bootstrap_level=bootstrap_level, input_level=input_level)


class TestProgramBuilder:
    def test_creation_order_is_topological(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = (x + x.rotate(1)) * x
        prog.output("y", y)
        for node in prog.nodes:
            assert all(a < node.id for a in node.args)

    def test_rotate_zero_folds_to_identity(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        assert x.rotate(0) is x
        assert x.rotate(8) is x
        assert len(prog) == 1

    def test_rotation_amount_reduced_mod_slots(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        r = x.rotate(11)
        assert prog.node(r.node_id).rotation == 3

    def test_scalar_and_vector_multiply(self):
        prog = Program(n_slots=4)
        x = prog.input("x")
        s = x * 2.5
        v = x * np.ones(4)
        assert prog.node(s.node_id).op is OpCode.CMULT
        assert prog.node(v.node_id).op is OpCode.PMULT

    def test_reversed_ndarray_multiply_emits_one_pmult(self):
        """numpy must defer to Expr.__rmul__, not broadcast per slot."""
        prog = Program(n_slots=4)
        x = prog.input("x")
        v = np.ones(4) * x
        assert isinstance(v, type(x))
        assert prog.node(v.node_id).op is OpCode.PMULT
        assert len(prog) == 2  # input + one PMULT, no per-slot CMULTs

    def test_wrong_vector_length_rejected(self):
        prog = Program(n_slots=4)
        x = prog.input("x")
        with pytest.raises(ValueError):
            x * np.ones(8)

    def test_cross_program_mix_rejected(self):
        p1, p2 = Program(n_slots=4), Program(n_slots=4)
        with pytest.raises(ValueError):
            p1.input("x") + p2.input("y")

    def test_duplicate_names_rejected(self):
        prog = Program(n_slots=4)
        x = prog.input("x")
        with pytest.raises(ValueError):
            prog.input("x")
        prog.output("y", x)
        with pytest.raises(ValueError):
            prog.output("y", x)


class TestPlannerPasses:
    def test_dead_nodes_eliminated(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        live = x + x
        _dead = x * x  # never reaches an output
        _dead2 = _dead.rotate(1)
        prog.output("y", live)
        plan = plan_program(prog, make_config())
        assert plan.eliminated == 2
        assert all(plan.nodes[n].op is not OpCode.HMULT
                   for n in plan.order)

    def test_no_outputs_rejected(self):
        prog = Program(n_slots=8)
        prog.input("x")
        with pytest.raises(PlanningError):
            plan_program(prog, make_config())

    def test_lazy_rescale_shares_one_rescale_across_accumulation(self):
        """A PMult-accumulate tree pays one rescale, not one per term."""
        prog = Program(n_slots=8)
        x = prog.input("x")
        acc = x * np.ones(8)
        for _ in range(3):
            acc = acc + x * np.ones(8)
        out = acc * acc  # forces the accumulated value below the waterline
        prog.output("y", out)
        plan = plan_program(prog, make_config())
        # one rescale for the shared accumulator (both HMULT args are it)
        assert plan.inserted_rescales == 1
        assert plan.summary()["rescale"] == 1

    def test_rescale_reused_across_consumers(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        prod = x * x
        a = prod * x
        b = prod * x.rotate(1)
        prog.output("a", a)
        prog.output("b", b)
        plan = plan_program(prog, make_config())
        # prod is rescaled once, both consumers read the rescaled node
        assert plan.inserted_rescales == 1

    def test_mult_levels_decrease_with_rescales(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = ((x * x) * x) * x
        prog.output("y", y)
        plan = plan_program(prog, make_config())
        levels = [plan.meta[n].level for n in plan.order
                  if plan.nodes[n].op is OpCode.HMULT]
        assert levels == sorted(levels, reverse=True)
        assert plan.inserted_rescales == 2

    def test_rotation_batch_detected_for_shared_source(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        acc = x.rotate(1) + x.rotate(2) + x.rotate(3)
        prog.output("y", acc)
        plan = plan_program(prog, make_config())
        assert len(plan.batches) == 1
        batch = plan.batches[0]
        assert batch.amounts(plan.nodes) == [1, 2, 3]
        assert set(batch.members) == {
            n for n in plan.order if plan.nodes[n].op is OpCode.HROT}

    def test_chained_rotations_do_not_batch(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        acc = x
        for step in (1, 2, 4):
            acc = acc + acc.rotate(step)
        prog.output("y", acc)
        plan = plan_program(prog, make_config())
        assert plan.batches == []

    def test_exhausted_levels_without_bootstrap_rejected(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = x
        for _ in range(8):  # deeper than max_level=6
            y = y * y
        prog.output("y", y)
        with pytest.raises(PlanningError):
            plan_program(prog, make_config())

    def test_bootstrap_inserted_when_levels_run_out(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = x
        for _ in range(8):
            y = y * y
        prog.output("y", y)
        plan = plan_program(prog, make_config(bootstrap_level=4))
        assert plan.inserted_bootstraps >= 1
        assert plan.min_level() >= 0
        boot_meta = [plan.meta[n] for n in plan.order
                     if plan.nodes[n].op is OpCode.BOOTSTRAP]
        assert all(m.level == 4 for m in boot_meta)

    def test_manual_bootstrap_requires_configured_level(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        prog.output("y", x.bootstrap())
        with pytest.raises(PlanningError):
            plan_program(prog, make_config())
        plan = plan_program(prog, make_config(bootstrap_level=3))
        assert plan.summary()["bootstrap"] == 1

    def test_bootstrap_node_is_not_executable(self, small_ring,
                                              small_evaluator, small_keys,
                                              small_encoder):
        # A planned BOOTSTRAP lowers to the simulator only; the executor
        # refuses it instead of returning an unrefreshed ciphertext.
        prog = Program(n_slots=8)
        x = prog.input("x")
        prog.output("y", x.bootstrap() * 0.5)
        plan = plan_program(prog, PlannerConfig.from_ring(
            small_ring, bootstrap_level=3))
        ct = encrypt_message(small_keys, small_encoder,
                             np.zeros(8, dtype=np.complex128))
        with pytest.raises(ExecutionError, match="simulator only"):
            execute(plan, small_evaluator, {"x": ct})

    def test_required_rotations_union(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = x.rotate(1) + x.rotate(3) + (x * x).rotate(3)
        prog.output("y", y)
        plan = plan_program(prog, make_config())
        assert plan.required_rotations() == {1, 3}

    def test_input_level_override(self):
        prog = Program(n_slots=8)
        x = prog.input("x")
        prog.output("y", x * x)
        plan = plan_program(prog, make_config(input_level=3))
        in_id = prog.inputs["x"]
        assert plan.meta[in_id].level == 3

    def test_planned_scales_use_actual_prime_values(self):
        q_values = (2.0 ** 50, NOMINAL * 1.01, NOMINAL * 0.99)
        cfg = PlannerConfig(max_level=2, scale_bits=40, q_values=q_values)
        prog = Program(n_slots=8)
        x = prog.input("x")
        y = (x * x) * x
        prog.output("y", y)
        plan = plan_program(prog, cfg)
        rescale = next(n for n in plan.order
                       if plan.nodes[n].op is OpCode.RESCALE)
        # rescale at level 2 divides by exactly q_values[2]
        assert plan.meta[rescale].scale == \
            pytest.approx(NOMINAL ** 2 / q_values[2], rel=1e-12)


class TestPlannerConfig:
    def test_q_values_length_checked(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_level=3, scale_bits=40,
                          q_values=(NOMINAL,) * 3)

    def test_bootstrap_level_range_checked(self):
        with pytest.raises(ValueError):
            PlannerConfig(max_level=3, scale_bits=40,
                          q_values=(NOMINAL,) * 4, bootstrap_level=5)

    def test_from_ring_matches_prime_chain(self, small_ring):
        cfg = PlannerConfig.from_ring(small_ring)
        assert cfg.max_level == small_ring.max_level
        assert cfg.q_values == tuple(float(p.value)
                                     for p in small_ring.q_primes)
