"""End-to-end benchmark of the three KiNETGAN user paths with per-layer traces.

Run ``python3 perfbench/run.py --workload {train,federated,serve} --seed N
--seconds S --trace {0,1}`` from the repository root; ``perfbench/README.md``
documents the workloads, the metrics and the layer map.
"""
