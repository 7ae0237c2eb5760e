"""One benchmark operation in a fresh process.

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/child.py SRC_DIR [--trace SPANS_JSON] [-- VERB ARGS...]

Imports ``sqglab`` from ``SRC_DIR``, prints ``PERFBENCH ready``, runs
``sqglab.cli.main(VERB ARGS...)`` exactly as the ``sqglab`` command would,
and prints ``PERFBENCH done <exit status>``.  Without a verb it stops after
``ready``, which is how set-up time alone is sampled.  With ``--trace``
the spans are written to ``SPANS_JSON`` after ``done``, so writing them
is outside the timed interval.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    src = Path(argv[0]).resolve()
    rest = argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    verb_args = rest[1:] if rest[:1] == ["--"] else []

    sys.path.insert(0, str(src))
    import sqglab.cli

    if not Path(sqglab.__file__).resolve().is_relative_to(src):
        print(f"perfbench: sqglab imported from {sqglab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    print("PERFBENCH ready", flush=True)
    if not verb_args:
        return 0

    recorder = None
    if trace_path is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        recorder = tracing.install()
    # the verb's own summary lines go to stderr so stdout carries only
    # the two protocol lines
    stdout, sys.stdout = sys.stdout, sys.stderr
    try:
        status = sqglab.cli.main(verb_args)
    finally:
        sys.stdout = stdout
    print(f"PERFBENCH done {status}", flush=True)
    if recorder is not None:
        recorder.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
