"""The repository benchmark: four phases over the public surfaces.

Run it from the repository root::

    python3 perfbench/run.py --workload solve --seed 1 --seconds 5 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric moves which end-to-end metric.
"""
