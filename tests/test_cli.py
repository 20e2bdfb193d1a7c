import json
from pathlib import Path

import pytest
import yaml

from failsim.cli import EXIT_ENGINE, EXIT_OK, EXIT_VALIDATION, main
from failsim.dist import Exponential
from failsim.procgen import MarkovRenewalSpec, ProcessError
from failsim.scenario import ScenarioError, apply_overrides, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def small_restart_doc(n=2000, seed=3):
    return {
        "model": "restart",
        "process": {"kind": "renewal", "size": "exp(2)"},
        "marks": "exp(1)",
        "run": {"iterations": n, "seed": seed},
        "output": {"curve_points": 10},
    }


def test_all_shipped_scenarios_validate():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        assert main(["validate", str(path)]) == EXIT_OK, path.name


def test_validate_rejects_bad_distribution(tmp_path):
    doc = small_restart_doc()
    doc["marks"] = "gauss(0,1)"
    path = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["validate", path]) == EXIT_VALIDATION


def test_validate_rejects_missing_field(tmp_path):
    doc = small_restart_doc()
    del doc["run"]["iterations"]
    path = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["validate", path]) == EXIT_VALIDATION


def test_run_writes_artifacts(tmp_path):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "restart"
    assert summary["n_iterations"] == 2000
    assert (out / "curve.csv").exists()
    assert (out / "rep_0_trace.csv").exists()


def test_rerun_is_byte_identical(tmp_path):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out1)]) == EXIT_OK
    assert main(["run", path, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_seed_changes_summary(tmp_path):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", path, "--out", str(out1)]) == EXIT_OK
    assert main(["run", path, "--seed", "99", "--out", str(out2)]) == EXIT_OK
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1["seed"] != s2["seed"]
    assert s1["estimates"] != s2["estimates"]


def test_override_plumbing(tmp_path):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out = tmp_path / "out"
    rc = main(["run", path, "--override", "N=500", "--out", str(out)])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_iterations"] == 500


def test_engine_error_exit_code(tmp_path):
    # equal size/mark rates with a tiny attempt cap must fail loudly
    doc = small_restart_doc(n=5000)
    doc["process"]["size"] = "exp(1)"
    doc["run"]["attempt_cap"] = 50
    path = write_yaml(tmp_path / "s.yaml", doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_ENGINE


def test_universal_scan_cap_exit_code(tmp_path, capsys):
    path = str(SCENARIOS / "universal_exp.yaml")
    argv = ["run", path, "--override", "run.scan_cap=2", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_ENGINE
    assert "exceeded scan cap 2" in capsys.readouterr().err


def periodic_markov_doc(n=2000):
    return {
        "model": "restart",
        "process": {
            "kind": "markov",
            "states": ["a", "b", "c"],
            "transition": [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]],
            "size_laws": {"a->b": "exp(2)", "b->a": "exp(3)", "b->c": "exp(2)",
                          "c->b": "exp(3)"},
            "mark_laws": {"a->b": "exp(1)", "b->a": "exp(1)", "b->c": "exp(1)",
                          "c->b": "exp(1)"},
        },
        "run": {"iterations": n, "seed": 4},
    }


def test_periodic_markov_chain_runs(tmp_path):
    path = write_yaml(tmp_path / "s.yaml", periodic_markov_doc())
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("initial", [[0.3, 0.3], [1.0], [1.5, -0.5], [0.5, None], "even"])
def test_bad_initial_law_is_a_validation_error(tmp_path, capsys, initial):
    doc = yaml.safe_load((SCENARIOS / "mrp_alternating.yaml").read_text())
    doc["process"]["initial"] = initial
    path = write_yaml(tmp_path / "s.yaml", doc)
    argv = ["run", path, "--seed", "17", "--override", "R=12", "--override", "N=2000",
            "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "process" in err and "Traceback" not in err
    assert main(["validate", path]) == EXIT_VALIDATION


def test_explicit_initial_law_runs(tmp_path):
    doc = yaml.safe_load((SCENARIOS / "mrp_alternating.yaml").read_text())
    doc["process"]["initial"] = [1.0, 0.0]
    path = write_yaml(tmp_path / "s.yaml", doc)
    out = tmp_path / "out"
    argv = ["run", path, "--override", "N=2000", "--override", "output.traces=true",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    # every replication starts in state a
    for rep in range(2):
        with open(out / f"rep_{rep}_trace.csv") as fh:
            header, first = fh.readline(), fh.readline()
        assert first.split(",")[header.strip().split(",").index("state")] == "a"


def test_process_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(self):
        raise ProcessError("stationary law unavailable")

    monkeypatch.setattr(MarkovRenewalSpec, "stationary", broken)
    path = write_yaml(tmp_path / "s.yaml", periodic_markov_doc())
    for argv in (["run", path, "--out", str(tmp_path / "out")], ["compare", path]):
        assert main(argv) == EXIT_ENGINE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stationary law unavailable" in err
        assert "Traceback" not in err


def test_compare_without_analytic_counterpart_is_a_validation_error(capsys):
    path = str(SCENARIOS / "mixture_regimes.yaml")
    assert main(["compare", path, "--override", "N=2000"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no analytic counterpart" in err
    assert "Traceback" not in err


def test_run_into_an_existing_file_is_a_validation_error(tmp_path, capsys):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc(n=100))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["run", path, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("example", sorted(p.name for p in SCENARIOS.glob("*.yaml")))
def test_compare_on_every_example_ends_with_a_documented_exit_code(example, capsys):
    code = main(["compare", str(SCENARIOS / example), "--override", "N=2000"])
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_ENGINE)
    assert "Traceback" not in capsys.readouterr().err


def test_compare_runs(tmp_path, capsys):
    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    assert main(["compare", path]) == EXIT_OK
    assert capsys.readouterr().out.strip()


def test_rwalk_reports_exact_constants_and_compare_checks_them(tmp_path):
    from failsim.cli import compare_report, run_scenario

    doc = yaml.safe_load((SCENARIOS / "rwalk_exp.yaml").read_text())
    sc = load_scenario(apply_overrides(doc, ["N=3000"]))
    summary = run_scenario(sc, tmp_path / "out")
    assert summary["estimates"]["gamma"] == {"mean": 0.5 / 0.75, "se": 0.0}
    assert summary["estimates"]["rho"] == {"mean": 2.0, "se": 0.0}
    rows = {row[0]: row for row in compare_report(sc)}
    for name in ("gamma", "rho"):
        _, exact, monte_carlo, se, agrees = rows[name]
        assert exact == summary["estimates"][name]["mean"]
        assert monte_carlo != exact and se > 0 and agrees


def test_summary_validates_against_schema(tmp_path):
    import jsonschema
    from importlib import resources

    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    schema = json.loads(
        resources.files("failsim").joinpath("schemas/summary.schema.json").read_text()
    )
    jsonschema.validate(json.loads((out / "summary.json").read_text()), schema)


def test_invalid_summary_raises_what_jsonschema_raises(tmp_path):
    import jsonschema
    from importlib import resources

    from failsim.cli import validate_summary

    path = write_yaml(tmp_path / "s.yaml", small_restart_doc())
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == EXIT_OK
    schema = json.loads(
        resources.files("failsim").joinpath("schemas/summary.schema.json").read_text()
    )
    summary = json.loads((out / "summary.json").read_text())
    validate_summary(summary)
    broken_summaries = (
        {**summary, "replications": "two"},
        {**summary, "model": "chain", "n_iterations": 0},  # two errors: the best one wins
        {k: v for k, v in summary.items() if k != "seed"},
    )
    for broken in broken_summaries:
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(broken, schema)
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_summary(broken)
        assert (got.value.message, list(got.value.absolute_path)) == (
            want.value.message, list(want.value.absolute_path))


# ---- scenario-document level tests ----


def test_load_scenario_parses_laws():
    sc = load_scenario(small_restart_doc())
    assert isinstance(sc.size_law, Exponential)
    assert sc.size_law.rate == 2.0
    assert sc.iterations == 2000
    assert sc.attempt_cap == 1_000_000_000


def test_attempt_cap_zero_means_unlimited():
    doc = small_restart_doc()
    doc["run"]["attempt_cap"] = 0
    assert load_scenario(doc).attempt_cap is None


def test_error_names_field_path():
    doc = small_restart_doc()
    doc["run"]["iterations"] = -2
    with pytest.raises(ScenarioError) as exc:
        load_scenario(doc)
    assert "run.iterations" in str(exc.value)


def test_analytic_run_with_coinciding_mixture_components(tmp_path):
    doc = {
        "model": "analytic",
        "process": {"kind": "renewal", "size": "mix(0.56*exp(2.711),0.44*exp(2.711))"},
        "marks": "exp(1)",
        "run": {"iterations": 1},
    }
    out = tmp_path / "out"
    assert main(["run", write_yaml(tmp_path / "s.yaml", doc), "--out", str(out)]) == EXIT_OK
    estimates = json.loads((out / "summary.json").read_text())["estimates"]
    assert estimates["expected_restart_time"]["value"] == pytest.approx(1 / 1.711, rel=1e-9)


def test_universal_requires_exponential_marks():
    doc = {
        "model": "universal",
        "process": {"kind": "renewal", "size": "exp(1)"},
        "marks": "weibull(1,2)",
        "run": {"iterations": 1000, "lookback": 100},
    }
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_bounded_size_rejected_for_restart():
    doc = small_restart_doc()
    doc["process"]["size"] = "det(2)"
    with pytest.raises(ScenarioError):
        load_scenario(doc)


def test_apply_overrides_aliases_and_paths():
    doc = small_restart_doc()
    out = apply_overrides(doc, ["N=77", "seed=5", "process.size=exp(3)"])
    assert out["run"]["iterations"] == 77
    assert out["run"]["seed"] == 5
    assert out["process"]["size"] == "exp(3)"
    # original untouched
    assert doc["run"]["iterations"] == 2000


def test_apply_overrides_rejects_malformed():
    with pytest.raises(ScenarioError):
        apply_overrides(small_restart_doc(), ["not-an-assignment"])


def test_scenario_hash_tracks_content():
    a = load_scenario(small_restart_doc())
    doc = small_restart_doc()
    doc["run"]["seed"] = 12345
    b = load_scenario(doc)
    assert a.hash() != b.hash()
    assert a.hash() == load_scenario(small_restart_doc()).hash()
