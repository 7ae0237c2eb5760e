"""Report bytes of the three benchmark configurations, pinned.

Each configuration is the one a ``perfbench`` workload runs; every file
its report emits is compared byte for byte with the copy committed under
``tests/data/report_bytes/<verb>/``.  Those copies were recorded with the
code as it stood before fields were stored as (m, m/2) half spectra, from
the command line (``sqglab <verb> --config FILE --seed 0 --threads 1 --out
DIR``), and every change since has kept them.  A change that moves any
reported value, even in its last printed digit, fails here; if it is meant
to, re-record the copies and say so in CHANGES.md.
"""

from pathlib import Path

import pytest

from sqglab.runner import config_from_dict, run_experiment

DATA = Path(__file__).resolve().parent / "data" / "report_bytes"

CONFIGS = {
    "solve": {"seed": 0},
    "illpose-step1": {"m": 256, "size_range": [4, 5]},
    "illpose-step2": {"m": 1024, "h_xi": 0.25},
}


@pytest.mark.parametrize("verb", sorted(CONFIGS))
def test_report_files_are_byte_identical(verb, tmp_path):
    run_experiment(config_from_dict({"experiment": verb, **CONFIGS[verb],
                                     "out_dir": str(tmp_path)}))
    want = sorted(p.name for p in (DATA / verb).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for name in want:
        assert (tmp_path / name).read_bytes() == (DATA / verb / name).read_bytes(), name
