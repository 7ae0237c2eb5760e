"""Command-line front end: one verb per experiment.

Usage::

    sqglab <experiment> [--config FILE] [--out DIR] [--seed N] [--threads N]

Parameters come from the JSON config file when given; the command verb,
``--out`` and ``--seed`` flags override the file.  ``sqglab <experiment>
--help`` lists the experiment's config keys and their defaults.  Exit status is 0 when
every verdict passed, 1 when any failed, 2 on a rejected configuration.

The command owns its process and sets it up: importing this module
before numpy holds OpenBLAS to one thread (``OPENBLAS_NUM_THREADS=1``
unless the variable is already set), and :func:`main` keeps freed heap
pages (:func:`_keep_freed_heap_pages`).  Importing any other sqglab
module does neither.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

# No verb's computation needs a BLAS thread pool (the one BLAS caller,
# verify-identity's np.linalg.norm, reads at most 64 x 64 arrays), yet by
# default OpenBLAS starts a worker per further core while numpy imports:
# about 70 ms of every run's set-up on a 2-vCPU VM.  OpenBLAS reads the
# variable once, when numpy loads it, so it is set before the first import
# of numpy, and not at all once a host process has loaded numpy; a value
# the user set wins.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .runner import VERBS, ExperimentConfig, config_from_dict, run_experiment  # noqa: E402
from .spectral import set_fft_workers  # noqa: E402


def _config_keys(name: str) -> str:
    """The verb's keys and defaults, spelled as its report's config block."""
    defaults = ExperimentConfig(name).echo()
    del defaults["experiment"]
    width = max(map(len, defaults))
    return "config keys (--config FILE) and their defaults:\n" + "\n".join(
        f"  {key:<{width}}  {json.dumps(value)}" for key, value in defaults.items()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqglab",
        description="spectral experiments for the stationary advection fixed point",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name, verb in VERBS.items():
        cmd = sub.add_parser(name, help=verb.help, description=verb.help,
                             epilog=_config_keys(name),
                             formatter_class=argparse.RawDescriptionHelpFormatter)
        cmd.add_argument("--config", type=Path, default=None,
                         help="JSON file of experiment parameters")
        cmd.add_argument("--out", default=None,
                         help="directory for report artifacts (default: runs)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="random seed (default: 0)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="FFT worker thread count; -1 all cores (default), "
                              "-2 all but one, ...; BLAS runs on one thread "
                              "unless OPENBLAS_NUM_THREADS is set")
    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_pages() -> None:
    """Let this process keep the heap pages it frees, up to glibc's own ceilings.

    By default glibc returns the top of the heap to the kernel whenever
    more than twice the current mmap threshold is free there.  The
    quadratic form allocates and frees arrays of about 1 MB many times per
    iteration, so every call paid for freshly zeroed pages again: about
    2,600 minor page faults per quadratic form at m=256, measured when it
    still transformed whole padded arrays.  This fixes the mmap threshold
    at 32 MiB and the trim threshold at 64 MiB.  Those are not tuned
    numbers: they are the ceilings glibc's dynamic rule reaches,
    DEFAULT_MMAP_THRESHOLD_MAX on 64-bit and twice it.  Arrays above
    32 MiB (the fields of the largest lattices and the quadratic form's
    column arrays in the big sweeps) still come from mmap and go back to
    the kernel when freed, so the big sweeps do not keep their peaks.

    Only the command line does this, because it owns its process; importing
    sqglab leaves a host process's allocator alone.  Where there is no
    ``mallopt`` (not glibc), nothing happens.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_heap_pages()
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        try:
            set_fft_workers(args.threads)
        except ValueError as err:
            print(f"error: --threads: {err}", file=sys.stderr)
            return 2
    raw: dict = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read config {args.config}: {err}", file=sys.stderr)
            return 2
        if not isinstance(raw, dict):
            print(f"error: config {args.config} must hold a JSON object",
                  file=sys.stderr)
            return 2
    configured = raw.setdefault("experiment", args.experiment)
    if configured != args.experiment:
        print(
            f"error: config names experiment {configured!r} but the command "
            f"verb is {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
    try:
        cfg = config_from_dict(raw)
        report = run_experiment(cfg)
    except (ValueError, TypeError, FloatingPointError) as err:
        # an operator that left the float range is the config's doing too
        print(f"error: {err}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
