"""End-to-end and per-layer benchmark of evrecon; run `perfbench/run.py`."""
