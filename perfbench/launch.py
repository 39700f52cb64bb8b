"""Traced server launcher: ``python perfbench/launch.py SPANS.json ARGV...``.

Installs the span recorder's wrappers, then runs
``repro.cli.main(ARGV)`` — ``serve`` exactly as
``python -m repro ARGV`` would, so the traced process layout matches the
untraced one.  When the server shuts down (SIGINT) the spans are written
to ``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv) -> int:
    from repro.cli import main as repro_main

    from spans import SpanRecorder, install

    out = Path(argv[0])
    recorder = SpanRecorder()
    install(recorder)
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
