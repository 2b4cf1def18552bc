"""Noise-budget telemetry: per-ciphertext numeric health, plan-wide.

BTS sizes its datapath around the CKKS noise/level budget — when to
rescale, when a ciphertext must bootstrap, how much precision survives
EvalMod — but an executing runtime can lose that budget silently: a job
whose noise eats the message still returns bytes with ``outcome="ok"``.
This module makes the numeric axis observable the same way PR 8 made
the wall-clock axis observable:

* :class:`NoiseTracker` — propagates the analytic per-ciphertext
  :class:`~repro.ckks.noise.NoiseEstimate` through a planned op graph
  and scores every node with ``noise_bits`` (log2 of the estimated
  embedding error) and ``headroom_bits``::

      headroom = log2(q_chain(level) / scale) - noise_bits

  i.e. how many doublings of the error the remaining modulus chain
  could still absorb before the ciphertext stops being decryptable at
  its scale.  Headroom is the serving-layer quantity: precision
  (``log2(scale/noise)``) says how good the answer is, headroom says
  how close the *parameters* are to the cliff.

* :class:`PlanNoiseProfile` — the per-node result, comparable against
  the planner's chosen rescale/bootstrap points
  (:meth:`PlanNoiseProfile.pressure_points`): each inserted RESCALE or
  BOOTSTRAP records the headroom of the state it relieved.

* :class:`PrecisionProbe` — the decrypt-probe calibrator, the precision
  twin of :class:`~repro.obs.calibration.CalibrationRecorder`: where
  the secret key is available (examples, tests, benchmarks) it measures
  the *true* slot error against the analytic estimate, per workload.
  Soundness contract: estimated precision must lower-bound measured
  precision (the estimate may only over-count noise).

The tracker is pure float algebra over plan metadata — it never reads
ciphertext coefficients, so tracked and untracked runs are
byte-identical and the propagation cost is nanoseconds per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.noise import NoiseEstimate, NoiseEstimator
from repro.ckks.params import CkksParams

#: noise_bits of a (theoretical) noiseless state; keeps headroom finite.
_MIN_NOISE = 2.0 ** -64

#: planner-inserted relief ops (OpCode is a str enum — comparing the
#: plain values here avoids importing repro.runtime, which imports the
#: executor, which imports this module)
_RELIEF_OPS = ("rescale", "bootstrap")


@dataclass(frozen=True)
class NodeNoise:
    """Numeric-health scorecard of one plan node's output ciphertext."""

    node: int
    op: str
    level: int
    scale: float
    noise_bits: float
    headroom_bits: float
    precision_bits: float

    def estimate(self) -> NoiseEstimate:
        """Reconstruct the :class:`NoiseEstimate` this record scored —
        the handle :class:`PrecisionProbe` compares against a decrypt."""
        return NoiseEstimate(noise=2.0 ** self.noise_bits,
                             scale=self.scale, level=self.level)

    def as_dict(self) -> dict:
        return {"node": self.node, "op": self.op, "level": self.level,
                "scale": self.scale,
                "noise_bits": round(self.noise_bits, 3),
                "headroom_bits": round(self.headroom_bits, 3),
                "precision_bits": round(self.precision_bits, 3)}


@dataclass(frozen=True)
class PlanNoiseProfile:
    """Analytic noise state of every node of one executed plan."""

    nodes: dict[int, NodeNoise]
    outputs: dict[str, NodeNoise]
    #: worst headroom anywhere in the graph (the true cliff distance)
    min_headroom_bits: float
    #: worst headroom over the *output* nodes (what the tenant receives)
    terminal_headroom_bits: float

    def worst_output(self) -> NodeNoise | None:
        """The output with the least headroom (None: no outputs)."""
        return min(self.outputs.values(), key=lambda rec: rec.headroom_bits,
                   default=None)

    def pressure_points(self) -> list[dict]:
        """Planner-inserted relief valves, scored by the headroom of the
        state they relieved: how close the planner let noise get to the
        cliff before spending a RESCALE / BOOTSTRAP on it."""
        points = []
        for rec in self.nodes.values():
            if rec.op not in _RELIEF_OPS:
                continue
            points.append({"node": rec.node, "op": rec.op,
                           "level": rec.level,
                           "headroom_after_bits": round(
                               rec.headroom_bits, 3)})
        return sorted(points, key=lambda p: p["node"])

    def as_dict(self) -> dict:
        return {
            "min_headroom_bits": round(self.min_headroom_bits, 3),
            "terminal_headroom_bits": round(self.terminal_headroom_bits, 3),
            "outputs": {name: rec.as_dict()
                        for name, rec in self.outputs.items()},
            "pressure_points": self.pressure_points(),
        }


class NoiseTracker:
    """Propagates analytic noise estimates through planned op graphs.

    ``q_values`` is the per-level prime chain (actual float values of
    ``q_0 .. q_L``) — with it, ``log2(q_chain)`` and rescale divisions
    are exact rather than nominal.  Defaults to the nominal chain
    ``2^q0_bits, 2^scale_bits, ...`` when the ring is not at hand.
    """

    def __init__(self, params: CkksParams,
                 q_values: tuple[float, ...] | None = None,
                 message_bound: float = 1.0,
                 bootstrap_error_bits: float = 5.0,
                 margin_bits: float = 4.0) -> None:
        self.params = params
        self.estimator = NoiseEstimator(params, message_bound)
        self.bootstrap_error_bits = float(bootstrap_error_bits)
        # The estimator's canonical-embedding heuristics are
        # average-case and run a bit optimistic against the *max* slot
        # error (the repo's own noise tests allow ~2 bits of slack);
        # telemetry must be sound — never claim more precision than a
        # decrypt would measure — so every scored noise figure carries
        # this pessimism on top of the raw estimate.
        self.margin_bits = float(margin_bits)
        if q_values is None:
            q_values = (2.0 ** params.q0_bits,) + \
                (2.0 ** params.scale_bits,) * params.l
        if len(q_values) != params.l + 1:
            raise ValueError(
                f"q_values has {len(q_values)} entries, params declare "
                f"{params.l + 1} levels")
        self.q_values = tuple(float(q) for q in q_values)
        # log2(q_0 * ... * q_level), cumulative per level
        self._log2_chain: list[float] = []
        acc = 0.0
        for q in self.q_values:
            acc += math.log2(q)
            self._log2_chain.append(acc)

    @classmethod
    def from_ring(cls, ring, message_bound: float = 1.0,
                  bootstrap_error_bits: float = 5.0,
                  margin_bits: float = 4.0) -> "NoiseTracker":
        """Build from a :class:`~repro.ckks.params.RingContext` (exact
        primes)."""
        return cls(ring.params,
                   q_values=tuple(p.value for p in ring.q_primes),
                   message_bound=message_bound,
                   bootstrap_error_bits=bootstrap_error_bits,
                   margin_bits=margin_bits)

    # ----- scoring ----------------------------------------------------------

    def log2_q_chain(self, level: int) -> float:
        return self._log2_chain[level]

    def noise_bits(self, est: NoiseEstimate) -> float:
        """log2 of the scored noise: raw estimate plus the soundness
        margin."""
        return math.log2(max(est.noise, _MIN_NOISE)) + self.margin_bits

    def headroom_bits(self, est: NoiseEstimate) -> float:
        """log2(q_chain/scale) - noise_bits at the estimate's level."""
        return self.log2_q_chain(est.level) - math.log2(est.scale) \
            - self.noise_bits(est)

    def score(self, est: NoiseEstimate) -> NoiseEstimate:
        """Raw estimator state -> final scored state (margin applied);
        the form :meth:`PrecisionProbe.record` expects."""
        return NoiseEstimate(noise=2.0 ** self.noise_bits(est),
                             scale=est.scale, level=est.level)

    def describe(self, node: int, op: str,
                 est: NoiseEstimate) -> NodeNoise:
        nb = self.noise_bits(est)
        return NodeNoise(node=node, op=op, level=est.level,
                         scale=est.scale,
                         noise_bits=nb,
                         headroom_bits=self.log2_q_chain(est.level)
                         - math.log2(est.scale) - nb,
                         precision_bits=math.log2(est.scale) - nb)

    # ----- plan propagation -------------------------------------------------

    def profile(self, plan) -> PlanNoiseProfile:
        """Propagate estimates through ``plan`` and score every node.

        Propagation follows the *original* node graph: a fused
        rotate-reduce tree is scored as the sum of its rotated weighted
        terms, which upper-bounds the fused execution (one shared
        ModDown can only key-switch less than N sequential ones).
        """
        est = self.estimator
        states: dict[int, NoiseEstimate] = {}
        records: dict[int, NodeNoise] = {}
        for nid in plan.order:
            node = plan.nodes[nid]
            meta = plan.meta[nid]
            op = str(node.op.value)
            if op == "input":
                state = est.fresh(meta.scale, meta.level)
            elif op == "hmult":
                state = est.multiply(states[node.args[0]],
                                     states[node.args[1]])
            elif op in ("pmult", "cmult"):
                state = self._scaled_product(
                    states[node.args[0]], meta.enc_scale, node.payload)
            elif op == "hadd":
                state = est.add(states[node.args[0]], states[node.args[1]])
            elif op == "hsub":
                state = est.sub(states[node.args[0]], states[node.args[1]])
            elif op == "neg":
                state = est.negate(states[node.args[0]])
            elif op == "hrot":
                state = est.rotate(states[node.args[0]])
            elif op == "conj":
                state = est.conjugate(states[node.args[0]])
            elif op == "rescale":
                prev = states[node.args[0]]
                state = est.rescale(prev, prime=self.q_values[prev.level])
            elif op == "bootstrap":
                state = est.bootstrap(
                    states[node.args[0]], meta.level, meta.scale,
                    approx_error_bits=self.bootstrap_error_bits)
            else:  # pragma: no cover - enum is closed
                raise ValueError(f"unhandled op {op}")
            states[nid] = state
            records[nid] = self.describe(nid, op, state)

        outputs = {name: records[nid]
                   for name, nid in plan.outputs.items()}
        min_headroom = min(
            (r.headroom_bits for r in records.values()),
            default=float("inf"))
        terminal = min((r.headroom_bits for r in outputs.values()),
                       default=float("inf"))
        return PlanNoiseProfile(nodes=records, outputs=outputs,
                                min_headroom_bits=min_headroom,
                                terminal_headroom_bits=terminal)

    def _scaled_product(self, a: NoiseEstimate, enc_scale: float,
                        payload) -> NoiseEstimate:
        """PMULT/CMULT: noise scales with the payload's encoded
        magnitude, floored at 1 so small constants never *reduce* the
        tracked bound."""
        magnitude = float(np.max(np.abs(np.asarray(payload))))
        bound = max(1.0, magnitude)
        noise = a.noise * bound * enc_scale
        return NoiseEstimate(noise=noise, scale=a.scale * enc_scale,
                             level=a.level)


# ----- decrypt-probe calibration ----------------------------------------------


@dataclass(frozen=True)
class ProbeRecord:
    """One estimate-vs-measured comparison for a named workload."""

    workload: str
    estimated_precision_bits: float
    measured_precision_bits: float
    estimated_noise_bits: float
    headroom_bits: float
    measured_error: float

    @property
    def sound(self) -> bool:
        """Estimate claims no more precision than the truth delivers."""
        return self.estimated_precision_bits \
            <= self.measured_precision_bits

    @property
    def gap_bits(self) -> float:
        """Pessimism of the estimate (bits of precision under-claimed)."""
        return self.measured_precision_bits - self.estimated_precision_bits

    def as_dict(self) -> dict:
        return {
            "estimated_precision_bits": round(
                self.estimated_precision_bits, 3),
            "measured_precision_bits": round(
                self.measured_precision_bits, 3),
            "estimated_noise_bits": round(self.estimated_noise_bits, 3),
            "headroom_bits": round(self.headroom_bits, 3),
            "measured_error": float(self.measured_error),
            "sound": self.sound,
            "gap_bits": round(self.gap_bits, 3),
        }


class PrecisionProbe:
    """Decrypt-probe calibrator: true error vs analytic estimate.

    Requires the secret key, so it lives on the trusted side only
    (benchmarks, tests, demos) — the serving layer never sees it.  Each
    :meth:`record` decrypts one result ciphertext, measures the max
    slot error against a plaintext reference, and logs it next to the
    tracker's estimate for that ciphertext's state.
    """

    def __init__(self, evaluator, secret, tracker: NoiseTracker) -> None:
        self.evaluator = evaluator
        self.secret = secret
        self.tracker = tracker
        self._records: dict[str, ProbeRecord] = {}

    def record(self, workload: str, ct, reference,
               estimate: NoiseEstimate) -> ProbeRecord:
        """Compare one decrypt against ``estimate``.

        ``estimate`` is taken as the *final scored* state — pass
        :meth:`NodeNoise.estimate` (margin already applied by the
        tracker) or :meth:`NoiseTracker.score`; no further margin is
        added here.
        """
        err = NoiseEstimator.measured_error(
            self.evaluator, ct, self.secret, np.asarray(reference))
        measured_bits = float("inf") if err == 0 else -math.log2(err)
        noise_bits = math.log2(max(estimate.noise, _MIN_NOISE))
        rec = ProbeRecord(
            workload=workload,
            estimated_precision_bits=estimate.precision_bits,
            measured_precision_bits=measured_bits,
            estimated_noise_bits=noise_bits,
            headroom_bits=self.tracker.log2_q_chain(estimate.level)
            - math.log2(estimate.scale) - noise_bits,
            measured_error=err)
        self._records[workload] = rec
        return rec

    def records(self) -> dict[str, ProbeRecord]:
        return dict(self._records)

    def all_sound(self) -> bool:
        return all(r.sound for r in self._records.values())

    def summary(self) -> dict:
        """The ``precision_calibration`` payload for BENCH_functional."""
        return {name: rec.as_dict()
                for name, rec in sorted(self._records.items())}
