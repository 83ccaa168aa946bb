"""Command line interface: exit codes, report shapes, determinism."""

import json
from pathlib import Path

import pytest

from shuntline.cli import main
from shuntline.examples import example_document

from conftest import derivations


def run_cli(tmp_path, *argv, out_name="report.json"):
    out = tmp_path / out_name
    code = main(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_validate_builtin_ok(tmp_path):
    code, doc = run_cli(tmp_path, "validate", "--example", "bm")
    assert code == 0
    assert doc["validation"]["ok"] is True
    assert doc["name"] == "bm"
    assert "digest" in doc


# a scale that is not increasing: parses, fails validation
BAD_DOC = {"name": "bad", "pieces": [
    {"kind": "regular_interval", "a": "-inf", "b": "inf",
     "scale": "sin(x)", "speed": {"density": "2"}}]}


def test_validate_bad_spec_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_DOC))
    code, doc = run_cli(tmp_path, "validate", "--spec", str(bad))
    assert code == 1
    assert doc["validation"]["ok"] is False
    assert any(v["code"] == "scale_monotone"
               for v in doc["validation"]["violations"])


def test_unparseable_spec_exits_one(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["validate", "--spec", str(bad)])
    assert code == 1


def test_missing_subcommand_exits_three(capsys):
    assert main([]) == 3
    assert main(["no-such-command"]) == 3
    capsys.readouterr()


def test_conflicting_sources_exit_three(capsys):
    code = main(["classify", "--example", "bm", "--spec", "x.json"])
    assert code == 3
    capsys.readouterr()


def test_classify_report_shape(tmp_path):
    code, doc = run_cli(tmp_path, "classify", "--example", "exa1")
    assert code == 0
    cls = doc["classification"]
    assert cls["lambda_pr"] == [{"lo": 0.0, "hi": 0.0,
                                 "lo_closed": True, "hi_closed": True}]
    assert doc["communication_classes"]["interval_classes"]
    sides = {(b["piece_index"], b["side"]) for b in doc["boundary"]}
    assert sides == {(0, "a"), (0, "b"), (2, "a"), (2, "b")}


def test_classify_undetermined_exits_two(tmp_path, borderline_doc):
    f = tmp_path / "b.json"
    f.write_text(json.dumps(borderline_doc))
    code = main(["classify", "--spec", str(f)])
    assert code == 2


def test_check_hunt_verdicts(tmp_path):
    code, doc = run_cli(tmp_path, "check-hunt", "--example", "bm")
    assert code == 0 and doc["hunt"]["holds"] is True
    code, doc = run_cli(tmp_path, "check-hunt", "--example", "drift")
    assert code == 0 and doc["hunt"]["holds"] is False
    assert doc["hunt"]["witnesses"][0]["kind"] == "r1"
    assert doc["hunt"]["witnesses"][0]["lo"] == "-inf"


def test_check_symmetry_report(tmp_path):
    code, doc = run_cli(tmp_path, "check-symmetry", "--example", "exa2")
    assert code == 0
    sym = doc["symmetry"]
    assert sym["killed_symmetrizable"] is True
    assert sym["full_symmetrizable"] is False
    assert sym["lambda_at"] == [0.0]
    assert sym["components"][0]["exit_sides"] == ["a"]


def test_measure_with_coefficients(tmp_path):
    code, doc = run_cli(tmp_path, "measure", "--example", "split-bm",
                        "--coefficients", "3,5")
    assert code == 0
    weights = [e["weight"] for e in doc["measure"]["entries"]]
    assert weights == [3.0, 5.0]
    # refusing a non-symmetrizable model is an unsatisfiable request
    code2 = main(["measure", "--example", "exa1"])
    assert code2 == 1


def test_dirichlet_report(tmp_path):
    code, doc = run_cli(tmp_path, "dirichlet", "--example", "bm")
    assert code == 0
    assert doc["dirichlet"]["regular_form"]["ok"] is True
    assert doc["dirichlet"]["adapted"]["ok"] is True
    code2 = main(["dirichlet", "--example", "exa2"])
    assert code2 == 1


def test_simulate_hitting_and_determinism(tmp_path):
    args = ["simulate", "--example", "bm", "--window", "0,1",
            "--h", "0.02", "--t-max", "50", "--x0", "0.3",
            "--target", "1.0", "--n-rep", "400", "--seed", "12"]
    code, doc1 = run_cli(tmp_path, *args, "--jobs", "1", out_name="r1.json")
    assert code == 0
    est = doc1["simulation"]["hitting"]
    assert est["ci_low"] <= 0.3 <= est["ci_high"]
    _, doc2 = run_cli(tmp_path, *args, "--jobs", "8", out_name="r2.json")
    r1 = (tmp_path / "r1.json").read_bytes()
    r2 = (tmp_path / "r2.json").read_bytes()
    assert r1 == r2


def test_simulate_refuses_jobs_below_one(capsys):
    args = ["simulate", "--example", "bm", "--window", "0,1", "--h", "0.05",
            "--t-max", "1", "--x0", "0.3", "--n-rep", "10"]
    assert main(args + ["--jobs", "0"]) == 3
    assert "--jobs" in capsys.readouterr().err


def test_simulate_refuses_a_window_edge_on_an_unbounded_scale(capsys):
    code = main(["simulate", "--example", "split-bm", "--window", "0,1",
                 "--h", "0.05", "--t-max", "1", "--x0", "0.5"])
    assert code == 1
    assert capsys.readouterr().err == (
        "shuntline simulate: error: piece 2: window edge 0.0 falls on a "
        "piece endpoint where the scale is unbounded; move the window edge "
        "off the endpoint\n")


def test_validate_names_an_undefined_point_as_a_plain_number(tmp_path):
    spec = tmp_path / "ln.json"
    spec.write_text(json.dumps({"name": "ln-half", "pieces": [
        {"kind": "trap_segment", "a": "-inf", "b": "0"},
        {"kind": "singular_point", "x": "0", "class": "trap"},
        {"kind": "regular_interval", "a": "0", "b": "1",
         "scale": "ln(x - 0.5)", "speed": {"density": "2"}},
        {"kind": "singular_point", "x": "1", "class": "trap"},
        {"kind": "trap_segment", "a": "1", "b": "inf"}]}))
    code, doc = run_cli(tmp_path, "validate", "--spec", str(spec))
    assert code == 1
    assert [v["message"] for v in doc["validation"]["violations"]] == [
        "scale not evaluable: expression undefined at x = 1e-06"]


def test_simulate_defect_interval_form(tmp_path):
    code, doc = run_cli(
        tmp_path, "simulate", "--example", "bm", "--window", "0,1",
        "--h", "0.05", "--t-max", "0.3", "--defect", "0.2,0.4,0.6,0.8",
        "--n-rep", "200", "--seed", "3")
    assert code == 0
    d = doc["simulation"]["defect"]
    assert d["ci_low"] <= 0.0 <= d["ci_high"]
    assert d["f_window"] == [0.2, 0.4]
    assert d["g_window"] == [0.6, 0.8]


def test_simulate_paths_csv(tmp_path):
    paths = tmp_path / "paths.csv"
    code, doc = run_cli(
        tmp_path, "simulate", "--example", "bm", "--window", "0,1",
        "--h", "0.05", "--t-max", "0.3", "--x0", "0.5",
        "--n-rep", "20", "--seed", "3", "--paths-out", str(paths))
    assert code == 0
    assert doc["simulation"]["paths_out"] == str(paths)
    lines = paths.read_text().strip().splitlines()
    assert lines[0] == "t,x,status"
    assert len(lines) > 2
    t0, x0, _ = lines[1].split(",")
    assert float(t0) == 0.0
    assert float(x0) == 0.5


def test_simulate_window_must_fit_model(tmp_path):
    code = main(["simulate", "--example", "drift", "--window=-inf,inf",
                 "--h", "0.05", "--t-max", "1", "--x0", "0"])
    assert code == 1


def test_simulate_negative_window_values(tmp_path):
    code, doc = run_cli(tmp_path, "simulate", "--example", "bm",
                        "--window=-1,1", "--h", "0.05", "--t-max", "0.1",
                        "--x0", "0.0", "--n-rep", "50")
    assert code == 0
    assert doc["simulation"]["n_rep"] == 50


SIM = ["--window", "0,1", "--h", "0.05", "--t-max", "0.1", "--n-rep", "10"]
SPEC_COMMANDS = ("validate", "classify", "check-hunt", "check-symmetry",
                 "measure", "dirichlet")


@pytest.mark.parametrize("argv, code", [
    *[([cmd, "--spec", "{bad}"], 1) for cmd in SPEC_COMMANDS],
    (["simulate", "--spec", "{bad}", *SIM, "--x0", "0.5"], 1),
    (["example"], 3),
    (["simulate", "--example", "bm", *SIM, "--target", "1.0"], 3),
    (["simulate", "--example", "bm", *SIM], 3),
    (["simulate", "--example", "bm", *SIM, "--defect", "0.2,0.4,0.6,0.8",
      "--paths-out", "{tmp}/p.csv"], 3),
    (["simulate", "--example", "bm", *SIM, "--window", "0,0.5,1",
      "--x0", "0.3"], 3),
    (["check-hunt", "--example", "bm", "--out", "{tmp}/missing/r.json"], 1),
    (["measure", "--example", "split-bm", "--coefficients", "3,x"], 3),
    (["measure", "--example", "split-bm", "--coefficients", "3"], 1),
    (["simulate", "--example", "bm", *SIM, "--x0", "0.3", "--n-rep", "-3"], 3),
    (["simulate", "--example", "bm", *SIM, "--x0", "0.3", "--n-rep", "0"], 3),
    (["simulate", "--example", "bm", *SIM, "--x0", "0.3", "--t-max", "-1"], 3),
    (["simulate", "--example", "bm", *SIM, "--x0", "0.3", "--target", "1.0",
      "--t-max", "nan"], 3),
    (["simulate", "--example", "bm", *SIM, "--defect", "0.2,0.4,0.6,0.8",
      "--t-max", "inf"], 3),
])
def test_gates_and_usage_errors(tmp_path, capsys, argv, code):
    """An invalid spec gets only its validation report, exit 1; a usage
    error (exit 3), a refused request or an unwritable --out (exit 1)
    writes no report."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(BAD_DOC))
    out = tmp_path / "r.json"
    args = [a.format(bad=bad, tmp=tmp_path) for a in argv]
    if "--out" not in args:
        args += ["--out", str(out)]
    assert main(args) == code
    assert capsys.readouterr().out == ""
    if "{bad}" in argv:
        doc = json.loads(out.read_text())
        assert set(doc) == {"name", "digest", "validation"}
        assert doc["validation"]["ok"] is False
    else:
        assert not out.exists()
        assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("t_max", ["-1", "nan", "inf"])
def test_horizon_that_is_negative_or_not_finite_is_a_usage_error(capsys,
                                                                 t_max):
    args = ["simulate", "--example", "bm", "--window", "0,1", "--h", "0.05",
            "--t-max", t_max, "--x0", "0.3"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err == ("shuntline simulate: error: --t-max must be finite and "
                   "non-negative\n")


@pytest.mark.parametrize("extra, message", [
    (["--x0", "nan", "--target", "1.0"],
     "a start or target position must be a number, got nan"),
    (["--x0", "0.3", "--target", "nan"],
     "a start or target position must be a number, got nan"),
    (["--x0", "nan"], "a start or target position must be a number, got nan"),
    (["--x0", "0.3", "--seed=-1"], "seed must lie in [0, 2 ** 64), got -1"),
    (["--defect", "0.2,0.4,0.6,0.8", "--seed", "18446744073709551616"],
     "seed must lie in [0, 2 ** 64), got 18446744073709551616"),
], ids=["nan-start", "nan-target", "nan-run", "seed-below", "seed-above"])
def test_simulate_refuses_a_nan_position_or_a_seed_out_of_range(capsys, extra,
                                                                message):
    args = ["simulate", "--example", "bm", "--window", "0,1", "--h", "0.05",
            "--t-max", "1", "--n-rep", "10", *extra]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"shuntline simulate: error: "
                                       f"{message}\n")


def test_simulate_accepts_the_largest_seed(tmp_path):
    code, doc = run_cli(tmp_path, "simulate", "--example", "bm", *SIM,
                        "--x0", "0.3", "--seed", "18446744073709551615")
    assert code == 0
    assert doc["simulation"]["seed"] == 2 ** 64 - 1


def test_example_listing_and_round_trip(tmp_path, capsys):
    assert main(["example", "--list"]) == 0
    names = capsys.readouterr().out.split()
    assert "bm" in names and "exa2" in names
    out = tmp_path / "spec.json"
    assert main(["example", "bm", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "bm"
    # emitted text is the canonical serialization of the same model
    from shuntline import parse_spec, spec_digest
    assert spec_digest(parse_spec(doc)) == spec_digest(
        parse_spec(example_document("bm")))
    code, rep = run_cli(tmp_path, "validate", "--spec", str(out))
    assert code == 0 and rep["validation"]["ok"]


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_NAMES = ("bm", "drift", "bessel-glue", "exa1", "exa2")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_check_hunt_matches_golden_report(tmp_path, name):
    out = tmp_path / "r.json"
    main(["check-hunt", "--example", name, "--out", str(out)])
    golden = (GOLDEN_DIR / f"hunt_{name}.json").read_bytes()
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_check_symmetry_matches_golden_report(tmp_path, name):
    out = tmp_path / "r.json"
    main(["check-symmetry", "--example", name, "--out", str(out)])
    golden = (GOLDEN_DIR / f"symmetry_{name}.json").read_bytes()
    assert out.read_bytes() == golden


def test_reports_are_sorted_and_stable(tmp_path):
    _, d1 = run_cli(tmp_path, "check-symmetry", "--example", "bm",
                    out_name="a.json")
    _, d2 = run_cli(tmp_path, "check-symmetry", "--example", "bm",
                    out_name="b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    keys = list(d1)
    assert keys == sorted(keys)


def test_dirichlet_passes_rel_tol_to_both_checks(tmp_path, monkeypatch):
    from shuntline import cli

    seen = []
    for name in ("check_regular_form", "check_adapted"):
        real = getattr(cli, name)

        def spy(spec, rel_tol=None, real=real, name=name):
            seen.append((name, rel_tol))
            return real(spec, rel_tol=rel_tol)

        monkeypatch.setattr(cli, name, spy)
    code, doc = run_cli(tmp_path, "dirichlet", "--example", "bm",
                        "--rel-tol", "1e-8")
    assert code == 0
    assert doc["dirichlet"]["regular_form"]["ok"] is True
    assert doc["dirichlet"]["adapted"]["ok"] is True
    assert seen == [("check_regular_form", 1e-8), ("check_adapted", 1e-8)]


def _fresh_spec_file(tmp_path, example, name):
    """The example's document under a name no other test uses, so nothing
    is derived for it yet."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(example_document(example), name=name)))
    return str(path)


def test_measure_decides_its_verdict_once(tmp_path):
    from shuntline import check_symmetrizable

    for k, extra in enumerate(([], ["--coefficients", "3,5"])):
        path = _fresh_spec_file(tmp_path, "split-bm", f"split-bm-measure-{k}")
        with derivations(check_symmetrizable) as runs:
            code, doc = run_cli(tmp_path, "measure", "--spec", path, *extra)
        assert code == 0
        assert runs == {"check_symmetrizable": 1}
    assert [e["weight"] for e in doc["measure"]["entries"]] == [3.0, 5.0]


def test_dirichlet_derives_each_stage_once(tmp_path):
    from shuntline import (boundary_profile, build_graph, check_hunt,
                           check_symmetrizable)
    from shuntline.symmetry import _measure_from

    stages = (boundary_profile, build_graph, check_hunt, check_symmetrizable,
              _measure_from)
    path = _fresh_spec_file(tmp_path, "bm", "bm-dirichlet-once")
    with derivations(*stages) as runs:
        code, doc = run_cli(tmp_path, "dirichlet", "--spec", path,
                            "--rel-tol", "1e-8")
    assert code == 0 and doc["dirichlet"]["adapted"]["ok"] is True
    assert runs == {stage.__name__: 1 for stage in stages}
