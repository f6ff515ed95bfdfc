"""Benchmark of the stringlinks command line on seeded braids, tangles and series.

Run it from the root of a checkout:

    python3 slbench/run.py --workload braids --seed 1 --seconds 30 --trace 0
"""
