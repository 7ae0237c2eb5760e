"""Experiment configs, deterministic report emission, CLI exit codes."""

import ctypes
import functools
import inspect
import json
import math
import mmap
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqglab
from sqglab import runner, spectral
from sqglab.besov import DyadicPartition
from sqglab.cli import main
from sqglab.forcing import ExponentMap, ForceSpec, lacunary_force
from sqglab.reports import ExperimentReport, Table, Verdict, emit_report, format_value
from sqglab.runner import ExperimentConfig, config_from_dict, run_experiment
from sqglab.solver import SolveConfig
from sqglab.spectral import FrequencyLattice


# -- configuration ---------------------------------------------------------


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: bogus"):
        config_from_dict({"experiment": "solve", "bogus": 1})


def test_config_rejects_a_mistyped_out_dir():
    with pytest.raises(ValueError, match="config key out_dir must be a string"):
        config_from_dict({"experiment": "constants", "out_dir": 5})


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        config_from_dict({"experiment": "frobnicate"})


def test_config_parses_inf_and_coerces_tuples():
    cfg = config_from_dict({"experiment": "illpose-step3", "block_counts": [2.0, 4.0]})
    assert cfg["block_counts"] == (2, 4)
    cfg = config_from_dict({"experiment": "illpose-step1", "size_range": [4.0, 7]})
    assert cfg["size_range"] == (4, 7)
    # a JSON int is a valid float and is echoed as given; null means default
    cfg = config_from_dict({"experiment": "illpose-step1", "p": 8, "q": None})
    assert type(cfg["p"]) is int and cfg.echo()["p"] == 8
    assert cfg["q"] == 2.0


def test_config_rejects_keys_the_verb_does_not_read():
    with pytest.raises(ValueError, match="not read by constants: block_counts, size_range"):
        config_from_dict({"experiment": "constants", "block_counts": [2, 4], "size_range": None})
    assert all("seed" in verb.defaults for verb in runner.VERBS.values())


def test_config_built_directly_refuses_keys_the_verb_does_not_read():
    with pytest.raises(ValueError, match="not read by constants: block_counts;"):
        ExperimentConfig("constants", {"m": 32, "samples": 50, "block_counts": (2, 4)})
    # the verb's own keys are accepted, and the rest take their defaults
    cfg = ExperimentConfig("constants", {"m": 32, "samples": 50, "seed": 3},
                           out_dir="elsewhere")
    assert cfg.params == {"m": 32, "h_xi": 0.25, "samples": 50, "p": 4.0, "q": 2.0,
                          "seed": 3}


def keys_read_by(fn):
    """``cfg["<key>"]`` reads in a function's source and in the helpers it hands cfg to."""
    source = inspect.getsource(fn)
    keys = set(re.findall(r"\bcfg\[\"(\w+)\"\]", source))
    for name in set(re.findall(r"(\w+)\(cfg\b", source)) - {fn.__name__}:
        helper = getattr(runner, name, None)
        if inspect.isfunction(helper) and helper.__module__ == runner.__name__:
            keys |= keys_read_by(helper)
    return keys


@pytest.mark.parametrize("verb", runner.VERBS)
def test_listed_keys_are_the_keys_the_pipeline_reads(verb):
    # a key the pipeline reads but its table lacks would raise KeyError, and
    # a listed key it never reads would be a default that changes nothing;
    # every verb takes --seed and echoes it, though step1 never draws from it
    read = keys_read_by(runner.VERBS[verb].run)
    assert read | {"seed"} == set(runner.VERBS[verb].defaults)


# -- report containers -----------------------------------------------------


def test_format_value():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(None) == ""
    assert format_value(True) == "true"
    assert format_value(3) == "3"


def test_table_checks_row_width():
    with pytest.raises(ValueError, match="row of width"):
        Table("t", ("a", "b"), ((1,),))


def test_verdict_line():
    v = Verdict("gap", False, "0.3", "gap <= 0.1")
    assert v.line() == "[FAIL] gap: observed 0.3 against gap <= 0.1"


def sample_report(partial=False):
    return ExperimentReport(
        "constants",
        {"experiment": "constants", "m": 32},
        tables=[Table("t", ("x",), ((math.inf,),))],
        verdicts=[Verdict("ok", True, "0", "zero")],
        partial=partial,
        wall_seconds=1.25,
    )


def test_summary_lines_and_passed():
    rep = sample_report(partial=True)
    lines = rep.summary_lines()
    assert lines[0].startswith("[PASS] ok")
    assert lines[-1] == "constants: pass, partial in 1.2s"
    rep.verdicts.append(Verdict("bad", False, "1", "one"))
    assert not rep.passed


def test_emit_is_deterministic_and_excludes_wall_clock(tmp_path):
    rep = sample_report()
    paths = emit_report(rep, tmp_path / "a")
    assert [p.name for p in paths] == ["constants_report.json", "constants_t.csv"]
    payload = json.loads(paths[0].read_text())
    assert set(payload) == {
        "experiment", "config", "tables", "verdicts", "partial", "passed",
    }
    assert payload["tables"][0]["rows"] == [["inf"]]  # sanitized for JSON
    assert paths[1].read_text() == "x\ninf\n"

    rep2 = sample_report()
    rep2.wall_seconds = 99.0  # different clock, same bytes
    paths2 = emit_report(rep2, tmp_path / "b")
    for a, b in zip(paths, paths2):
        assert a.read_bytes() == b.read_bytes()


# -- experiment pipelines (small fast variants) -----------------------------


def test_partition_check_pipeline():
    cfg = config_from_dict({"experiment": "partition-check", "m": 64, "h_xi": 0.25})
    rep = run_experiment(cfg, write=False)
    assert rep.passed
    assert rep.config == {"experiment": "partition-check", "m": 64, "h_xi": 0.25, "seed": 0,
                          "tolerance": 1e-12}
    assert {v.name for v in rep.verdicts} == {
        "partition-of-unity", "support", "plateau", "reconstruction",
    }
    assert rep.wall_seconds is not None


def test_verify_identity_pipeline():
    cfg = config_from_dict({"experiment": "verify-identity", "m": 16, "samples": 3})
    rep = run_experiment(cfg, write=False)
    assert rep.passed
    assert rep.config == {"experiment": "verify-identity", "m": 16, "h_xi": 0.25,
                          "samples": 3, "seed": 0, "tolerance": 1e-10}
    assert len(rep.tables[0].rows) == 3
    big = config_from_dict({"experiment": "verify-identity", "m": 128})
    with pytest.raises(ValueError, match="size limit"):
        run_experiment(big, write=False)


def test_constants_pipeline_determinism(tmp_path):
    raw = {"experiment": "constants", "m": 32, "samples": 50,
           "out_dir": str(tmp_path / "one")}
    rep = run_experiment(config_from_dict(raw))
    assert rep.passed
    assert rep.config == {"experiment": "constants", "m": 32, "h_xi": 0.25, "samples": 50,
                          "p": 4.0, "q": 2.0, "seed": 0}
    raw2 = dict(raw, out_dir=str(tmp_path / "two"))
    run_experiment(config_from_dict(raw2))
    a = (tmp_path / "one" / "constants_report.json").read_bytes()
    b = (tmp_path / "two" / "constants_report.json").read_bytes()
    assert a == b
    raw3 = dict(raw, out_dir=str(tmp_path / "three"), seed=1)
    run_experiment(config_from_dict(raw3))
    c = (tmp_path / "three" / "constants_report.json").read_bytes()
    assert c != a


def test_solve_pipeline_small():
    cfg = config_from_dict({"experiment": "solve", "m": 32, "samples": 50})
    rep = run_experiment(cfg, write=False)
    assert rep.passed, [v.line() for v in rep.verdicts]
    assert rep.config == {"experiment": "solve", "m": 32, "h_xi": 0.25, "samples": 50,
                          "p": 4.0, "q": 2.0, "solve_tol": 1e-10, "max_iter": 64,
                          "ball_fraction": 0.5, "seed": 0}


def emitted_at_fft_workers(tmp_path, raw):
    """Report files of one run per FFT worker count (1 and 2), by name."""
    workers = spectral._FFT_WORKERS
    emitted = []
    try:
        for n in (1, 2):
            spectral.set_fft_workers(n)
            out = tmp_path / f"workers{n}"
            run_experiment(config_from_dict(dict(raw, out_dir=str(out))))
            emitted.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    finally:
        spectral.set_fft_workers(workers)
    return emitted


def test_solve_report_bytes_independent_of_fft_workers(tmp_path):
    emitted = emitted_at_fft_workers(
        tmp_path, {"experiment": "solve", "m": 32, "samples": 50}
    )
    assert emitted[0] and emitted[0] == emitted[1]


def test_step1_report_bytes_independent_of_fft_workers(tmp_path):
    emitted = emitted_at_fft_workers(tmp_path, {
        "experiment": "illpose-step1",
        "m": 128,
        "h_xi": 0.25,
        "size_range": [4, 5],
    })
    assert emitted[0] and emitted[0] == emitted[1]
    echo = json.loads(emitted[0]["illpose-step1_report.json"])["config"]
    assert echo == {"experiment": "illpose-step1", "m": 128, "h_xi": 0.25, "p": 8.0,
                    "q": 2.0, "delta": 0.01, "size_range": [4, 5], "carrier_offset": -2,
                    "seed": 0}


def test_step3_report_bytes_independent_of_fft_workers(tmp_path):
    # both legs at desk scale: S=2 is computed, S=4's band exceeds Nyquist
    emitted = emitted_at_fft_workers(tmp_path, {
        "experiment": "illpose-step3",
        "m": 256,
        "h_xi": 0.0625,
        "block_counts": [2, 4],
    })
    assert emitted[0] and emitted[0] == emitted[1]
    report = json.loads(emitted[0]["illpose-step3_report.json"])
    assert report["config"] == {
        "experiment": "illpose-step3", "delta": 0.01, "block_counts": [2, 4], "probe_gap": 3,
        "l4_leg": {"m": 1024, "h_xi": 0.125, "equal_shell": 3,
                   "exponent_map": {"kind": "affine", "scale": 2, "shift": 0}},
        "inflation_leg": {"m": 256, "h_xi": 0.0625,
                          "exponent_map": {"kind": "affine", "scale": 2, "shift": -4},
                          "carrier_exponent": 2},
        "seed": 0,
    }
    notes = [row[-1] for row in report["tables"][1]["rows"]]
    assert notes[0] == "" and notes[1].startswith("infeasible: modulated band")


@pytest.mark.parametrize(
    "raw, echo",
    [
        # bilinear_block on white-spectrum pairs
        ({"experiment": "constants", "m": 64, "h_xi": 0.25},
         {"experiment": "constants", "m": 64, "h_xi": 0.25, "samples": 64, "p": 4.0,
          "q": 2.0, "seed": 0}),
        # quadratic_diagonal on the padded grid of a larger lattice
        ({"experiment": "illpose-step2", "m": 256, "h_xi": 0.25, "size_range": [1, 2]},
         {"experiment": "illpose-step2", "m": 256, "h_xi": 0.25, "delta": 0.01,
          "size_range": [1, 2], "exponent_map": {"kind": "affine", "scale": 2, "shift": 0},
          "seed": 0}),
    ],
    ids=["constants", "illpose-step2"],
)
def test_report_bytes_independent_of_fft_workers(tmp_path, raw, echo):
    emitted = emitted_at_fft_workers(tmp_path, raw)
    assert emitted[0] and emitted[0] == emitted[1]
    report = emitted[0][f"{raw['experiment']}_report.json"]
    assert json.loads(report)["config"] == echo


def test_step1_dominance_needs_every_perturbation_converged(monkeypatch):
    # one perturbation step at delta = 1e-3 stops both loops at max_iter
    # with norms far below the second iterate's: a ratio that would pass,
    # but an unfinished loop's norm is no evidence of dominance.  (A
    # divergence on the first form, which left the zero start's norm 0,
    # needed delta = 1e100, whose data norms now leave the float range and
    # are refused.)
    monkeypatch.setattr(runner, "SolveConfig", functools.partial(SolveConfig, max_iter=1))
    cfg = config_from_dict({"experiment": "illpose-step1", "m": 256, "size_range": [4, 5],
                            "delta": 1e-3})
    report = run_experiment(cfg, write=False)
    sweep = report.tables[0]
    assert [row[-1] for row in sweep.rows] == ["max_iter", "max_iter"]
    assert all(0.0 < row[6] < 0.2 for row in sweep.rows)
    verdict = next(v for v in report.verdicts if v.name == "second-iterate-dominates")
    assert not verdict.passed
    assert verdict.observed.endswith(
        "; perturbation not converged: size 4 max_iter, size 5 max_iter")


def test_step2_terms_are_the_amplitudes_of_the_built_forcing():
    # the terms table reads the law that builds the forcing: term n's bump is
    # exactly 1 at its centre (+S, 0), so its coefficient there is half the
    # amplitude
    report = run_experiment(config_from_dict(
        {"experiment": "illpose-step2", "m": 1024, "h_xi": 0.25, "delta": 0.03}), write=False)
    lattice = FrequencyLattice(m=1024, h_xi=0.25)
    spec = ForceSpec(variant="lacunary", delta=0.03, size=3, block_range=(1, 3),
                     exponents=ExponentMap.affine(2, 0))
    coeffs = lacunary_force(lattice, spec).coeffs
    terms = next(t for t in report.tables if t.name == "terms")
    assert [row[:2] for row in terms.rows] == [(1, 2), (2, 4), (3, 6)]
    for _, s, amplitude in terms.rows:
        centre = coeffs[round(2.0**s / lattice.h_xi), 0]
        assert centre.imag == 0.0 and amplitude == 2.0 * centre.real


def test_pipeline_validation_errors():
    with pytest.raises(ValueError, match="ball_fraction"):
        run_experiment(
            config_from_dict({"experiment": "solve", "ball_fraction": 0.0}),
            write=False,
        )
    with pytest.raises(ValueError, match="must be increasing"):
        run_experiment(
            config_from_dict({"experiment": "illpose-step3", "block_counts": [4, 2]}),
            write=False,
        )
    with pytest.raises(ValueError, match="from at least 2"):
        run_experiment(
            config_from_dict({"experiment": "illpose-step3", "block_counts": [1, 2]}),
            write=False,
        )
    with pytest.raises(ValueError, match="span at least two sizes"):
        run_experiment(
            config_from_dict({"experiment": "illpose-step1", "size_range": [4, 4]}),
            write=False,
        )


@pytest.mark.parametrize(
    "payload, lattices",
    [
        ({"experiment": "illpose-step2", "m": 256, "h_xi": 0.25, "size_range": [1, 2]}, 1),
        # the L4 leg's fixed lattice and the inflation leg's
        ({"experiment": "illpose-step3", "m": 256, "h_xi": 0.0625, "block_counts": [2, 4]}, 2),
    ],
    ids=lambda value: value.get("experiment") if isinstance(value, dict) else str(value),
)
def test_a_run_builds_one_partition_per_lattice(monkeypatch, payload, lattices):
    built = []
    init = DyadicPartition.__init__

    def counted(self, lattice):
        built.append(lattice)
        init(self, lattice)

    monkeypatch.setattr(DyadicPartition, "__init__", counted)
    run_experiment(config_from_dict(payload), write=False)
    assert len(built) == len(set(map(id, built))) == lattices


# -- command line -----------------------------------------------------------


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_pass_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"m": 64, "h_xi": 0.25})
    code = main(["partition-check", "--config", cfg, "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert code == 0
    assert "partition-check: pass" in out
    assert (tmp_path / "runs" / "partition-check_report.json").exists()


def test_cli_fail_exit_code(tmp_path, capsys):
    # an impossible tolerance turns a healthy run into a failed verdict
    cfg = write_cfg(
        tmp_path,
        {"m": 16, "samples": 1, "tolerance": 1e-30},
    )
    code = main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "runs")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] three-way-identity" in out


def test_cli_config_error_exit_codes(tmp_path, capsys):
    mismatched = write_cfg(tmp_path, {"experiment": "solve"})
    assert main(["constants", "--config", mismatched]) == 2
    assert "but the command verb" in capsys.readouterr().err

    unknown = write_cfg(tmp_path, {"bogus": 1}, name="u.json")
    assert main(["constants", "--config", unknown]) == 2
    assert "unknown config keys" in capsys.readouterr().err

    assert main(["constants", "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["constants", "--config", str(not_object)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("verb", runner.VERBS)
def test_cli_refuses_a_key_the_verb_does_not_read(tmp_path, capsys, verb):
    # exit 2, naming the key, before any computation (nothing is written)
    reads = runner.VERBS[verb].defaults
    key = next(k for other in runner.VERBS.values() for k in other.defaults
               if k not in reads)
    cfg = write_cfg(tmp_path, {key: [2, 4]})
    out_dir = tmp_path / "runs"
    assert main([verb, "--config", cfg, "--out", str(out_dir)]) == 2
    assert f"not read by {verb}: {key};" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "verb, payload, key",
    [
        ("solve", {"max_iter": "5"}, "max_iter"),
        ("solve", {"max_iter": 0}, "max_iter"),
        ("verify-identity", {"samples": 0}, "samples"),
        ("verify-identity", {"samples": -3}, "samples"),
        ("constants", {"samples": 0}, "samples"),
        # the constants take at least 50 samples for a stable estimate
        ("constants", {"samples": 10}, "samples"),
        ("solve", {"samples": 10}, "samples"),
        ("solve", {"m": 64.0}, "m"),
        ("constants", {"p": True}, "p"),
        ("illpose-step1", {"size_range": [4]}, "size_range"),
        ("illpose-step1", {"m": 256, "size_range": [0, 1]}, "size_range"),
        ("illpose-step1", {"m": 256, "size_range": [-3, 1]}, "size_range"),
        ("illpose-step1", {"m": 256, "size_range": [5, 4]}, "size_range"),
        ("illpose-step2", {"size_range": [3, 1]}, "size_range"),
        ("illpose-step2", {"size_range": [0, 2]}, "size_range"),
        ("illpose-step2", {"size_range": [1, 1]}, "size_range"),
        ("illpose-step3", {"m": 256, "h_xi": 0.0625, "block_counts": [2, 4], "probe_gap": 2},
         "probe_gap"),
        ("illpose-step3", {"equal_shell": 40}, "equal_shell"),
        ("illpose-step2", {"exponent_map": {"kind": "afine"}}, "exponent_map"),
        ("illpose-step2", {"exponent_map": {"kind": "affine", "scael": 3}}, "exponent_map"),
        ("illpose-step3", {"exponent_map": {"kind": "affine", "scale": 2.5}}, "exponent_map"),
        # the affine object is the only map: another kind, or a key it lacks, is refused
        *((verb, {"exponent_map": spec}, "exponent_map")
          for verb in ("illpose-step2", "illpose-step3")
          for spec in ({"kind": "square"}, {"kind": "table", "entries": [[1, 2]]},
                       {"scale": 3}, {"kind": "affine", "entries": []})),
        # JSON's Infinity and NaN parse as floats; only p and q may be +inf
        ("partition-check", {"m": 64, "h_xi": math.inf}, "h_xi"),
        ("partition-check", {"tolerance": math.nan}, "tolerance"),
        ("illpose-step1", {"m": 256, "size_range": [4, 5], "delta": math.inf}, "delta"),
        ("illpose-step1", {"delta": math.nan}, "delta"),
        ("solve", {"solve_tol": math.nan}, "solve_tol"),
        ("solve", {"ball_fraction": -math.inf}, "ball_fraction"),
        ("constants", {"p": math.nan}, "p"),
        ("constants", {"q": -math.inf}, "q"),
        # numpy's generators take no negative seed
        *((verb, {"seed": -1}, "seed") for verb in runner.VERBS),
    ],
    ids=lambda value: value if isinstance(value, str) else json.dumps(value),
)
def test_cli_refuses_a_mistyped_value_by_name(tmp_path, capsys, verb, payload, key):
    # exit 2, naming the key, before anything is computed or written
    cfg = write_cfg(tmp_path, payload)
    out_dir = tmp_path / "runs"
    assert main([verb, "--config", cfg, "--out", str(out_dir)]) == 2
    assert f"config key {key}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "verb, payload, name",
    [
        # |xi|**2 overflows or underflows at some lattice radius
        ("verify-identity", {"h_xi": 1e200}, "h_xi"),
        ("verify-identity", {"h_xi": 1e-200}, "h_xi"),
        ("solve", {"h_xi": 1e200}, "h_xi"),
        # the sampled quotients' Besov quadratures leave the float range
        ("constants", {"p": 1000}, "p = 1000"),
        ("solve", {"p": 1000}, "p = 1000"),
        ("constants", {"p": 200}, "p = 200"),
        # a shell weight 2**(s j) leaves the float range (shells near j = -500)
        ("constants", {"m": 32, "h_xi": 1e-150}, "h_xi=1e-150"),
        ("solve", {"m": 32, "h_xi": 1e-150}, "h_xi=1e-150"),
        # a bump carrier 2**(size + carrier_offset) too close to frequency 0,
        # or past the lattice Nyquist
        ("illpose-step1", {"m": 256, "size_range": [1, 2]},
         "config keys size_range and carrier_offset"),
        ("illpose-step1", {"m": 256, "size_range": [4, 5], "carrier_offset": 3},
         "config keys size_range and carrier_offset"),
        # the second iterate's quadratic form overflows
        ("illpose-step1", {"m": 256, "size_range": [4, 5], "delta": 1e300}, "config key delta"),
        ("illpose-step2", {"m": 1024, "h_xi": 0.25, "delta": 1e300}, "config key delta"),
        ("illpose-step3", {"m": 1024, "h_xi": 0.0625, "block_counts": [2, 4], "delta": 1e300},
         "config key delta"),
        # the form fits, but a Besov quadrature of the data or of the second
        # iterate overflows, or underflows to 0
        ("illpose-step1", {"m": 256, "size_range": [4, 5], "delta": 1e100}, "config key delta"),
        ("illpose-step1", {"m": 256, "size_range": [4, 5], "delta": 1e-60}, "config key delta"),
        ("illpose-step2", {"m": 1024, "h_xi": 0.25, "delta": 1e100}, "config key delta"),
        ("illpose-step2", {"m": 1024, "h_xi": 0.25, "delta": 1e-100}, "config key delta"),
        ("illpose-step3", {"m": 1024, "h_xi": 0.0625, "block_counts": [2, 4], "delta": 1e100},
         "config key delta"),
        ("illpose-step3", {"m": 1024, "h_xi": 0.0625, "block_counts": [2, 4], "delta": 1e-100},
         "config key delta"),
        # every verb builds its lattice, and reads its ring system, in one place
        ("constants", {"m": 100}, "config keys m and h_xi: m must be a power of two"),
        ("partition-check", {"h_xi": -1.0}, "config keys m and h_xi: h_xi must be positive"),
        ("solve", {"ball_fraction": 1.5}, "config key ball_fraction"),
        ("illpose-step3", {"block_counts": [4, 2]}, "config key block_counts"),
        ("verify-identity", {"m": 128}, "config key m: "),
        ("illpose-step2", {"m": 128},
         "config keys size_range, exponent_map, m and h_xi: lacunary carrier"),
    ],
    ids=lambda value: value if isinstance(value, str) else json.dumps(value),
)
def test_cli_refuses_a_typed_but_extreme_config_by_name(tmp_path, capsys, verb, payload, name):
    # well typed, but nothing can be computed from it: exit 2 naming the
    # key, never a traceback, and nothing written
    cfg = write_cfg(tmp_path, payload)
    out_dir = tmp_path / "runs"
    with np.errstate(all="ignore"):
        code = main([verb, "--config", cfg, "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert name in err
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", runner.VERBS)
def test_cli_refuses_a_lattice_its_rings_cannot_cover(tmp_path, capsys, monkeypatch, verb):
    # the ring system is built on first read of lattice.partition; every verb
    # reads it with its lattice, so the refusal still comes before anything
    # runs (step3's fixed L4 lattice, m = 1024, is covered)
    monkeypatch.setattr(DyadicPartition, "_covers_lattice", lambda self: self.m != 64)
    cfg = write_cfg(tmp_path, {"m": 64})
    out_dir = tmp_path / "runs"
    assert main([verb, "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config keys m and h_xi: the shell window" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("p", [200, 1000])
def test_cli_refusal_is_all_it_writes_to_stderr(tmp_path, capfd, p):
    # the sampled quadratures overflow on the way to the refusal; a fresh
    # interpreter, with Python's default warning filters, writes nothing
    # to stderr but the refusal's one line
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    cfg = write_cfg(tmp_path, {"p": p})
    done = subprocess.run([sys.executable, "-m", "sqglab.cli", "constants", "--config", cfg,
                           "--out", str(tmp_path / "runs")], env=env, cwd=tmp_path)
    err = capfd.readouterr().err
    assert done.returncode == 2
    assert err.startswith(f"error: the Besov quadratures at p = {p} ")
    assert err.count("\n") == 1 and err.endswith("\n")


def step1_refusal_stderr(tmp_path, capfd, delta):
    """What a fresh interpreter, with Python's default warning filters,
    writes to stderr running illpose-step1 at m = 256 and this ``delta``,
    which must be refused: exit 2 and nothing written."""
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    cfg = write_cfg(tmp_path, {"m": 256, "size_range": [4, 5], "delta": delta})
    done = subprocess.run([sys.executable, "-m", "sqglab.cli", "illpose-step1", "--config", cfg,
                           "--out", str(tmp_path / "runs")], env=env, cwd=tmp_path)
    assert done.returncode == 2
    assert not (tmp_path / "runs").exists()
    return capfd.readouterr().err


def test_cli_overflow_refusal_is_all_it_writes_to_stderr(tmp_path, capfd):
    # the second iterate's form overflows on the way to the refusal
    assert step1_refusal_stderr(tmp_path, capfd, 1e300) == (
        "error: config key delta: the second iterate at delta = 1e+300 "
        "leaves the float range\n")


def test_cli_norm_overflow_refusal_is_all_it_writes_to_stderr(tmp_path, capfd):
    # the form fits; the eighth powers of the p = 8 data norm overflow on
    # the way to the refusal
    assert step1_refusal_stderr(tmp_path, capfd, 1e100) == (
        "error: config key delta: a Besov norm at delta = 1e+100 "
        "leaves the float range\n")


def test_an_echoed_config_runs_again(tmp_path):
    # the report's config block is a config: fed back, it runs the same
    # experiment and is echoed unchanged
    raw = {"experiment": "illpose-step2", "m": 256, "h_xi": 0.25, "size_range": [1, 2],
           "out_dir": str(tmp_path / "a")}
    echo = run_experiment(config_from_dict(raw)).config
    again = run_experiment(config_from_dict({**echo, "out_dir": str(tmp_path / "b")}))
    assert again.config == echo
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_cli_runs_a_besov_exponent_of_infinity(tmp_path):
    # +inf is a Besov exponent (a sup over the shells), echoed as "inf"
    cfg = write_cfg(tmp_path, {"m": 32, "q": math.inf})
    out_dir = tmp_path / "runs"
    assert main(["constants", "--config", cfg, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "constants_report.json").read_text())
    assert report["config"]["q"] == "inf"


def test_cli_names_the_keys_of_an_l4_leg_without_a_stride(tmp_path, capsys):
    # shell -3 blocks are too wide for the L4 leg's fixed box: exit 2 naming
    # the keys that choose them and that lattice, which no key sets
    cfg = write_cfg(tmp_path, {"equal_shell": -3, "block_counts": [2, 4]})
    out_dir = tmp_path / "runs"
    assert main(["illpose-step3", "--config", cfg, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "config keys equal_shell and block_counts" in err
    assert "m=1024, h_xi=0.125" in err
    assert "smaller h_xi" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["partition-check", "solve"])
@pytest.mark.parametrize("threads", [0, -(os.cpu_count() or 1) - 1], ids=["zero", "below-cores"])
def test_cli_refuses_a_bad_thread_count(tmp_path, capsys, verb, threads):
    # exit 2, naming the flag, before anything is computed or written; the
    # worker count in force is kept
    workers = spectral._FFT_WORKERS
    out_dir = tmp_path / "runs"
    assert main([verb, "--threads", str(threads), "--out", str(out_dir)]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out_dir.exists()
    assert spectral._FFT_WORKERS == workers


@pytest.mark.parametrize("verb", runner.VERBS)
def test_cli_help_lists_the_verbs_keys_and_defaults(capsys, verb):
    with pytest.raises(SystemExit) as done:
        main([verb, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    listed = out.split("and their defaults:\n", 1)[1].splitlines()
    assert [line.split()[0] for line in listed] == list(runner.VERBS[verb].defaults)
    # each value is spelled as the report's config block spells it, and
    # given back as a config value it resolves to the default
    echo = ExperimentConfig(verb).echo()
    defaults = ExperimentConfig(verb).params
    for line in listed:
        key, value = line.split(None, 1)
        assert json.loads(value) == echo[key]
        assert ExperimentConfig(verb, {key: json.loads(value)})[key] == defaults[key]


def test_cli_refuses_a_negative_seed_flag_by_name(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    assert main(["constants", "--seed", "-2", "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == "error: config key seed must be a non-negative integer, got -2\n"
    assert not out_dir.exists()


def test_cli_turns_an_escaping_overflow_into_exit_2(tmp_path, capsys, monkeypatch):
    # an operator that leaves the float range outside every named check is
    # still a refusal of the config, in one line
    def overflow(cfg):
        raise FloatingPointError("an operator produced non-finite amplitudes")

    monkeypatch.setattr("sqglab.cli.run_experiment", overflow)
    assert main(["constants", "--out", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err == "error: an operator produced non-finite amplitudes\n"


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"m": 32, "samples": 50, "seed": 0})
    out_dir = tmp_path / "runs"
    code = main(
        ["constants", "--config", cfg, "--out", str(out_dir), "--seed", "3"]
    )
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "constants_report.json").read_text())
    assert payload["config"]["seed"] == 3


def _fresh_python(code: str, cwd: Path, **env_vars: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    sqglab from this checkout, with ``OPENBLAS_NUM_THREADS`` unset unless
    given."""
    env = dict(os.environ, PYTHONPATH=str(Path(sqglab.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_vars)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_cli_import_leaves_scipy_fft_unloaded(tmp_path):
    # the transforms call scipy's compiled pocketfft binding; importing
    # scipy.fft would also load scipy.special and scipy's array-API layer;
    # numpy.ma comes in through np.unique, which no run calls
    code = ("import sys, sqglab.cli\n"
            "print(' '.join(sorted(n for n in ('scipy.fft', 'scipy.special', "
            "'scipy._lib._array_api', 'numpy.ma') if n in sys.modules)))")
    assert _fresh_python(code, tmp_path).split() == []


_READ_PIN = "import os, sqglab.cli\nprint(os.environ.get('OPENBLAS_NUM_THREADS'))\n"


def test_cli_import_holds_openblas_to_one_thread(tmp_path):
    # OpenBLAS starts one worker thread per further core while numpy loads,
    # unless the variable was set before; with it, the process runs one thread
    code = _READ_PIN + (
        "from pathlib import Path\n"
        "status = Path('/proc/self/status')\n"
        "if status.exists():\n"
        "    print(next(line.split()[1] for line in status.read_text().splitlines()\n"
        "               if line.startswith('Threads:')))\n"
    )
    pin, *threads = _fresh_python(code, tmp_path).split()
    assert pin == "1"
    if not threads:
        pytest.skip("no /proc/self/status to count threads in")
    assert threads == ["1"]


def test_cli_import_keeps_the_users_openblas_thread_count(tmp_path):
    assert _fresh_python(_READ_PIN, tmp_path, OPENBLAS_NUM_THREADS="2").split() == ["2"]


def test_cli_import_after_numpy_leaves_openblas_unset(tmp_path):
    # numpy already loaded OpenBLAS, which read the variable then; setting it
    # now would only mislead the host process and its children
    code = "import numpy\n" + _READ_PIN
    assert _fresh_python(code, tmp_path).split() == ["None"]


# -- heap retention -------------------------------------------------------------

_HEAP_CHURN = """
import resource

import numpy as np
{setup}

def churn(rounds):
    # five 1 MiB arrays, written (so every page is touched), freed together
    for _ in range(rounds):
        arrays = [np.full(1 << 17, 1.0) for _ in range(5)]
        del arrays

churn(3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn({rounds})
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    return platform.libc_ver()[0] == "glibc"


def minor_faults_of_churn(setup: str, rounds: int, cwd: Path) -> int:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(sqglab.__file__).parents[1])
    code = _HEAP_CHURN.format(setup=setup, rounds=rounds)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_cli_process_keeps_its_freed_heap_pages(tmp_path):
    # glibc trims the freed arrays off the heap and faults them in again on
    # the next round; after the CLI has started (here it stops at a missing
    # config) the pages stay.  Importing sqglab alone must leave the
    # allocator as it was.
    rounds = 40
    touched = rounds * 5 * (1 << 20) // mmap.PAGESIZE
    cli_start = "from sqglab.cli import main\nassert main(['constants', '--config', 'missing.json']) == 2"
    kept = minor_faults_of_churn(cli_start, rounds, tmp_path)
    imported = minor_faults_of_churn("import sqglab.cli", rounds, tmp_path)
    assert kept < touched // 20
    assert imported > touched // 2
