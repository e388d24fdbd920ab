"""The benchmark's layer tracer finds every library attribute it wraps.

A missing target breaks only traced benchmark runs, so it is checked here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layertrace  # noqa: E402


def test_every_traced_attribute_resolves():
    for path, attr, _ in layertrace.TARGETS:
        owner = layertrace._resolve(path)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr}"
