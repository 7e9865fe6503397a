"""Locating the program the benchmark measures.

The benchmark always runs the meshsdn sources of the checkout it sits in,
never an installed copy, so that a run measures exactly the tree at hand.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source() -> None:
    """Put the checkout's ``src`` first on the import path and check that
    ``meshsdn`` resolves there; exit with an error if it does not."""
    package = SRC / "meshsdn"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no meshsdn sources at {package}")
    sys.path.insert(0, str(SRC))
    import meshsdn

    if Path(meshsdn.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: meshsdn imported from {meshsdn.__file__}, not {package}")
