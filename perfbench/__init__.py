"""End-to-end and per-layer benchmark of the roughvolterra CLI.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
