"""End-to-end and per-layer benchmark of the ``repro`` simulator.

Run ``python3 perfbench/run.py --workload NAME`` from the repository
root; see ``perfbench/README.md``.
"""
