#!/usr/bin/env python3
"""Master queueing: Figure 9's blocking-latency curve two ways.

Reproduces the curve with the analytic fluid model and with a
discrete-event D/D/1 simulation of the master's receive queue, showing
the two agree.

Run:  python examples/fig9_master_queue.py
"""

from repro.cluster.costmodel import CostModel
from repro.cluster.events import blocking_vs_unpruned


def queue_demo():
    print("== Figure 9 two ways: fluid model vs event simulation ==")
    model = CostModel()
    total = 31_700_000
    stream = model.cheetah_stream_seconds(total, workers=5,
                                          network_bps=10e9)
    fractions = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    rate = model.master_service_rate("groupby")
    simulated = dict(blocking_vs_unpruned(total, stream, rate, fractions))
    print(f"  stream time {stream:.2f}s, max-GROUP-BY master at "
          f"{rate / 1e6:.1f}M entries/s")
    print("  unpruned   fluid_s   simulated_s")
    for fraction in fractions:
        fluid = model.master_blocking_seconds(
            "groupby", total, round(total * fraction), stream)
        print(f"  {fraction:>7.0%}   {fluid:7.2f}   {simulated[fraction]:7.2f}")


if __name__ == "__main__":
    queue_demo()
