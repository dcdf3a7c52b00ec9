"""``repro serve`` with the benchmark's span wrappers installed.

The traced ``serve-mixed`` epochs launch the server through this module
instead of ``repro.cli``: it wraps the layer boundaries from outside
(:func:`bench.trace.install`), hands the command line to
``repro.cli.main`` unchanged, and dumps the spans to ``$BENCH_SPAN_FILE``
once the server has drained and ``main`` returns.
"""

from __future__ import annotations

import os
import sys

from bench.trace import SpanRecorder, install


def main(argv: list[str]) -> int:
    recorder = SpanRecorder()
    with install(recorder):
        from repro.cli import main as repro_main

        code = repro_main(argv)
    recorder.dump(os.environ["BENCH_SPAN_FILE"])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
