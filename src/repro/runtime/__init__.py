"""Homomorphic program runtime: op-graph IR, planner, executor, lowering.

Record a CKKS computation once as a lazy op graph, then get both a
functional result (executed against the :mod:`repro.ckks` evaluator with
hoisted rotation batches and lazy rescale) and a cycle-level BTS timing
estimate (lowered to the :mod:`repro.core` simulator's HEOp trace, with
automatic bootstrap placement) from the same definition.
"""

from repro.runtime.executor import ExecutionCancelled, ExecutionError, \
    execute, execute_subgraph
from repro.runtime.ir import Expr, Node, OpCode, Program
from repro.runtime.lowering import LoweredProgram, lower_to_trace
from repro.runtime.optimizer import FusedReduce, optimize_plan
from repro.runtime.planner import (
    NodeMeta,
    Plan,
    PlanCache,
    PlannerConfig,
    PlanningError,
    RotationBatch,
    plan_cache_key,
    plan_program,
    structural_hash,
)

__all__ = [
    "ExecutionCancelled",
    "ExecutionError",
    "Expr",
    "FusedReduce",
    "LoweredProgram",
    "Node",
    "NodeMeta",
    "OpCode",
    "Plan",
    "PlanCache",
    "PlannerConfig",
    "PlanningError",
    "Program",
    "RotationBatch",
    "execute",
    "execute_subgraph",
    "lower_to_trace",
    "optimize_plan",
    "plan_cache_key",
    "plan_program",
    "structural_hash",
]
