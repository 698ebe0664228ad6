"""The repo benchmark: five workloads, host + simulated end-to-end
metrics, per-layer attribution.  See ``bench/README.md``.

Everything here measures ``src/repro`` from the outside — clocks around
calls into its public entry points, its public stats read-outs, and a
profiler the harness installs itself.  Nothing in ``src/`` knows the
benchmark exists.
"""
