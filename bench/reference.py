"""Fixed reference computation that gauges the machine's current speed.

Shares no code with dynfdr, so no change to the program can change its
time.  It mixes the kinds of work the workloads do: interpreter start-up
and numpy import, many small-array numpy calls from a Python loop, and
formatting and parsing of floats.  The benchmark runs it as a child
before each invocation and divides the invocation's times by it.
"""

import numpy as np

rng = np.random.default_rng(0)
acc = 0.0
for _ in range(3000):
    x = rng.standard_normal(1000)
    order = np.argsort(x, kind="stable")
    acc += float(x[order][:50].sum()) + int(np.searchsorted(x[order], 0.5))
text = "\n".join(format(v, ".17g") for v in rng.random(200_000).tolist())
acc += sum(float(v) for v in text.split())
print(f"{acc:.6f}")
