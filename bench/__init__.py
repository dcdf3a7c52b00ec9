"""The repository's benchmark: deterministic work, noise-floor timing.

Run ``python3 bench/run.py --workload <name> --seed <n>``; see
``bench/README.md`` for what is measured and why.
"""
