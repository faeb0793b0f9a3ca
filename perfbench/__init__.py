"""The repository benchmark: end-to-end workloads over ``repro`` plus a
traced run that attributes host time to each layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload (see :mod:`perfbench.workloads`) and
prints its metrics; ``README.md`` beside this file lists the workloads,
the metrics and which layer metric should move which end-to-end one.
Nothing here changes ``src/repro``: every layer is timed from outside,
by wrapping the public functions the layers call each other through.
"""
