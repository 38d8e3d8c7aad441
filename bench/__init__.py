"""Probe-normalised benchmark of the repro package; see ``bench/README.md``."""

import os

#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Import root of the package under test.
SRC = os.path.join(ROOT, "src")
#: Where runs leave files: Perfetto traces and sweep scratch directories.
OUT_DIR = os.path.join(ROOT, ".bench_out")
