"""Observability overhead: the disabled path must cost < 5%.

The event engine is the hottest loop in the repo (a single planner run
drives it hundreds of thousands of events), so the tracing hooks in
:meth:`repro.cluster.events.EventLoop.run` are gated on one attribute
check. This bench pins that claim two ways:

1. **micro** — the instrumented ``EventLoop`` (observability disabled)
   against a replica of the pre-instrumentation loop body, min-of-N
   over a large no-op event storm; asserted ``< 5%``;
2. **macro** — a full ``sim``-fidelity batch breakdown with
   observability disabled vs enabled (tracer + metrics collecting),
   reported for scale but not asserted (enabled mode is allowed to
   cost what it costs).
"""

from __future__ import annotations

import heapq
import time

from repro.models import get_spec
from repro.obs import MetricsRegistry, Tracer, observed
from repro.cluster.events import EventLoop
from repro.parallel import simulate_batch

N_EVENTS = 100_000
REPEATS = 7
BUDGET = 0.05


class _BaselineLoop(EventLoop):
    """The pre-instrumentation ``run`` body, byte-for-byte semantics."""

    def run(self, max_events: int = 10_000_000) -> float:
        n = 0
        while self._heap:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = t
            fn(*args)
            n += 1
            if n > max_events:
                raise RuntimeError("event budget exceeded")
        self.events_processed += n
        return self.now


def _storm(loop: EventLoop, n: int) -> float:
    """Time one drain of ``n`` no-op events (scheduling excluded)."""
    fn = lambda: None  # noqa: E731
    for i in range(n):
        loop.at(float(i % 97), fn)
    t0 = time.perf_counter()
    loop.run()
    return time.perf_counter() - t0


def _measure() -> tuple[float, float]:
    """Interleaved min-of-N for both loops.

    Back-to-back blocks of one class then the other bias the comparison
    by >10% (allocator/cache warmup accrues to whichever runs second);
    alternating runs and taking each side's min removes it.
    """
    _storm(_BaselineLoop(), N_EVENTS)  # warmup
    _storm(EventLoop(), N_EVENTS)
    bases, instrs = [], []
    for _ in range(REPEATS):
        bases.append(_storm(_BaselineLoop(), N_EVENTS))
        instrs.append(_storm(EventLoop(), N_EVENTS))
    return min(bases), min(instrs)


def test_disabled_overhead_under_budget(report):
    base, instr = _measure()
    overhead = instr / base - 1.0

    # macro scale: one sim-fidelity breakdown, disabled vs enabled
    spec = get_spec("gpt3-2.7b")
    kwargs = dict(scenario="degraded-ring", overlap=True)
    t0 = time.perf_counter()
    disabled = simulate_batch(spec, 128, "axonn", **kwargs)
    t_disabled = time.perf_counter() - t0
    tracer, registry = Tracer(), MetricsRegistry()
    with observed(tracer=tracer, metrics=registry):
        t0 = time.perf_counter()
        enabled = simulate_batch(spec, 128, "axonn", **kwargs)
        t_enabled = time.perf_counter() - t0
    assert enabled.total == disabled.total  # enabled never moves a number

    lines = [
        f"event storm: {N_EVENTS} no-op events, best of {REPEATS}",
        f"  baseline loop (pre-instrumentation replica): {base * 1e3:8.2f} ms",
        f"  instrumented loop, observability disabled:   {instr * 1e3:8.2f} ms",
        f"  disabled overhead: {overhead * 100:+.2f}%  (budget {BUDGET * 100:.0f}%)",
        "",
        "macro: sim-fidelity breakdown (gpt3-2.7b, 128 GPUs, degraded-ring, overlap)",
        f"  observability disabled: {t_disabled * 1e3:8.2f} ms",
        f"  tracer + metrics on:    {t_enabled * 1e3:8.2f} ms "
        f"({t_enabled / t_disabled:.2f}x, {len(tracer)} spans collected)",
        "  (identical batch totals either way — spans never move a number)",
    ]
    report("obs_overhead", "\n".join(lines))
    assert overhead < BUDGET, (
        f"disabled observability costs {overhead * 100:.2f}% "
        f"(> {BUDGET * 100:.0f}% budget)"
    )
