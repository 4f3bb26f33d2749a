"""Run the discrete-event simulator end to end and print windowed metrics.

Arrivals trigger the embedding strategy, departures release resources, and
every acceptance is shadow-checked by the independent validator.  The trace
then feeds the windowed metric aggregation.
"""

from secvne import (
    GeneratorConfig,
    cumulative_series,
    generate_substrate,
    generate_vnr_stream,
    make_strategy,
    run,
    windowed_series,
)

HORIZON = 4000.0
cfg = GeneratorConfig(seed=9)
net = generate_substrate(cfg)
vnrs = generate_vnr_stream(cfg, HORIZON)

trace = run(net, vnrs, make_strategy("stec-iot", seed=9), HORIZON)
print(f"arrived {trace.arrived}, accepted {trace.accepted} "
      f"(acceptance {trace.acceptance:.3f}), "
      f"{trace.accepted} embeddings shadow-validated\n")

print("window        arrived accepted acceptance avg_rev avg_cost  r/c")
for row in windowed_series(trace, 500.0):
    w = row.window
    acc = f"{row.acceptance:.3f}" if row.acceptance is not None else "  -  "
    rc = f"{row.rc_ratio:.3f}" if row.rc_ratio is not None else "  -  "
    print(f"[{w.t_start:5.0f},{w.t_end:5.0f})  {w.arrived:5d} {w.accepted:8d} "
          f"{acc:>9s} {row.avg_revenue:8.2f} {row.avg_cost:8.2f} {rc:>6s}")

final = cumulative_series(trace, 500.0)[-1]
print(f"\ncumulative: revenue {final.revenue:.0f}, cost {final.cost:.0f}, "
      f"r/c {final.rc_ratio:.3f}")
print(f"network drained cleanly: {not net.active}")
