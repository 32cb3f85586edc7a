"""End-to-end and per-layer benchmark of the qdamp command-line program.

`python3 perfbench/run.py` is the entry point; see perfbench/README.md.
"""
