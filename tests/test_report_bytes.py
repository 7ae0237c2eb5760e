"""Report bytes of the three benchmark configurations and four desk runs, pinned.

The first three configurations are the ones the ``perfbench`` workloads
run.  ``illpose-step3`` at m = 1024 runs the L4 leg's stride calibration
and norms for 2 and 4 blocks and one translated-block forcing (4 blocks
are reported infeasible at this lattice's Nyquist frequency);
``partition-check`` at m = 256 reads every ring and the telescoped sum;
``verify-identity`` with 5 samples runs the direct quadrature (the
coupling tensor, the Riesz velocity and its contraction) against both
fast forms; ``constants`` at its defaults runs the samplers, the single
shell fields and the Besov norms.  Every file a report emits is compared
byte for byte with the copy committed under
``tests/data/report_bytes/<verb>/``.  The copy of ``solve`` was recorded
with the code as it stood before fields were stored as (m, m/2) half
spectra, that of ``partition-check`` with the code as it stood before the
block envelope was built on its box, and that of ``verify-identity`` with
the code as it stood before fields became scalar-only and the lattice
dropped its m x m coordinate arrays.  Those of ``illpose-step1``,
``illpose-step2``, ``illpose-step3`` and ``constants`` were re-recorded
when the quadratic form's rows began to follow the k2 band of its
product: forms of inputs narrow in k2 round differently there, and
their values moved by at most 6.7e-16 relative, with every verdict
unchanged.  That of ``illpose-step2`` was re-recorded once more when
its config block began to be echoed from the verb table (``size_range``
in place of ``term_range``); nothing else in it changed.  That of
``illpose-step1`` was re-recorded once more when the perturbation step
became Picard re-centred on base = theta1 + theta2, stepping with
B[base + tilde, base + tilde] - theta2 instead of a source plus
B[base + tilde, base + tilde] - B[base, base]: the two are equal in exact
arithmetic and round differently, and only the size-4 row's
``perturbation_norm`` and ``perturbation_over_second`` moved, by 4.5e-16
and 4.7e-16 relative, with every verdict and iteration count unchanged.
That of ``illpose-step2`` was re-recorded once more when even-p Besov
shells began to be summed on rows as long as the field's k2 band needs
(M_j x G_j grids in place of M_j x M_j): the q = 4 data norm moved from
1.2236825213178855 to 1.2236825213178852 (2.4e-16 relative), the one
value that changed, with every verdict unchanged.
All were recorded from the command line (``sqglab <verb> --config FILE
--seed 0 --threads 1 --out DIR``), and every change since has kept them.  A
change that moves any reported value, even in its last printed digit,
fails here, naming the first line that differs and the command that
re-records the copy; if the change is meant to move it, re-record and
say so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from sqglab.runner import config_from_dict, run_experiment

DATA = Path(__file__).resolve().parent / "data" / "report_bytes"

CONFIGS = {
    "solve": {"seed": 0},
    "illpose-step1": {"m": 256, "size_range": [4, 5]},
    "illpose-step2": {"m": 1024, "h_xi": 0.25},
    "illpose-step3": {"m": 1024, "block_counts": [2, 4]},
    "partition-check": {"m": 256},
    "verify-identity": {"samples": 5},
    "constants": {},
}


def first_difference(recorded: bytes, written: bytes) -> str:
    """The first line at which ``written`` departs from ``recorded``, with
    both versions of it."""
    old, new = recorded.decode().splitlines(), written.decode().splitlines()
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))

    def line(lines):
        return repr(lines[n]) if n < len(lines) else "<end of file>"

    return f"line {n + 1}\n  recorded: {line(old)}\n  written:  {line(new)}"


@pytest.mark.parametrize("verb", sorted(CONFIGS))
def test_report_files_are_byte_identical(verb, tmp_path):
    run_experiment(config_from_dict({"experiment": verb, **CONFIGS[verb],
                                     "out_dir": str(tmp_path)}))
    want = sorted(p.name for p in (DATA / verb).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    rerecord = (f"if the change is meant, write {json.dumps(CONFIGS[verb])} to FILE and run\n"
                f"  sqglab {verb} --config FILE --seed 0 --threads 1 "
                f"--out tests/data/report_bytes/{verb}")
    for name in want:
        recorded, written = (DATA / verb / name).read_bytes(), (tmp_path / name).read_bytes()
        assert written == recorded, (
            f"{name} differs from its recorded copy at {first_difference(recorded, written)}\n"
            f"{rerecord}")
