"""The repository benchmark: three seeded workloads timed end to end
through the public API, plus a traced run that times each layer.  Run
``python3 perfbench/run.py --help``; see ``README.md`` here."""
