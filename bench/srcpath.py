"""Put this checkout's `src/` first on `sys.path`, or stop with an error.

The benchmark must measure the sources next to it, never an installed
copy of tlsynth, and must fail when those sources are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "tlsynth" / "__init__.py").is_file():
    raise SystemExit(f"bench: no tlsynth sources under {SRC}")
sys.path.insert(0, str(SRC))

import tlsynth  # noqa: E402

if Path(tlsynth.__file__).resolve().parent != SRC / "tlsynth":
    raise SystemExit(f"bench: imported tlsynth from {tlsynth.__file__}, not {SRC}")
