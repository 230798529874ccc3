"""CLI behavior: JSON reports, error objects, exit codes, manifests."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import singlab
from singlab import discriminant, figures, serialize
from singlab.cli import OPS, main, run_manifest
from singlab.discriminant import cerf_trace, equal_level_search, slice_sample
from singlab.errors import InvalidInput, ManifestError
from singlab.milnor import unfold_germ
from singlab.morselab import (ParameterPoint, critical_points,
                              degree_invariance_scan)
from singlab.poly import parse_polynomial
from singlab.semitoric import OverweightDeformation, overweight_check

README = Path(__file__).parents[1] / "README.md"
GOLDEN_SVGS = Path(__file__).parent / "golden" / "cerf_svgs.json"
CLI_DIGESTS = Path(__file__).parent / "golden" / "cli_digests.txt"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def run_cli_process(*argv, timeout=60):
    """The CLI in a child process, so that a hang fails instead of blocking."""
    env = dict(os.environ, PYTHONPATH=str(Path(singlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "singlab.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None


class TestCommands:
    def test_analyze(self, capsys):
        code, out = run_cli(capsys, "analyze", "z^3")
        assert code == 0
        assert out["mu"] == 2
        assert out["cobasis"] == ["1", "z"]

    def test_discriminant_golden(self, capsys):
        code, out = run_cli(capsys, "discriminant", "z^3")
        assert code == 0
        assert out["discriminant"] == "4*t1^3 + 27*lambda^2"

    def test_verify_identity_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify-identity", "z^4")
        assert code == 0 and out["ok"] is True

    def test_morse_report(self, capsys):
        code, out = run_cli(capsys, "morse", "z^3", "--t", "-3",
                            "--box-radius", "2")
        assert code == 0
        assert out["counts"] == [1, 1]

    def test_error_object_not_crash(self, capsys):
        # degenerate parameter: machine-readable error, exit 1
        code, out = run_cli(capsys, "morse", "z^3", "--t", "0")
        assert code == 1
        assert out["error"]["type"] == "DegenerateParameter"

    def test_quiet_suppresses_output(self, capsys):
        code = main(["--quiet", "analyze", "z^3"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_semigroup_from_branch(self, capsys):
        code, out = run_cli(capsys, "semigroup", "--x-exponent", "4",
                            "--y", "6:1,7:1")
        assert code == 0
        assert out["minimal_generators"] == [4, 6, 13]
        assert out["characteristic_exponents"] == [4, 6, 7]

    def test_toric_resolve_four_generators(self, capsys):
        # ambient dimension 4: the semigroup of (t^8, t^12 + t^14 + t^15)
        code, out = run_cli(capsys, "toric-resolve", "--generators",
                            "8,12,26,53")
        assert code == 0
        assert out["chart_rays"][-1] == [8, 12, 26, 53]
        assert out["exponents"] == [0, 0, 0, 1]

    @pytest.mark.parametrize("argv", [
        ("semigroup", "--generators", "0,3"),
        ("toric-ideal", "--generators", "1"),
        ("toric-resolve", "--generators", "1"),
    ])
    def test_bad_generators_exit_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"

    @pytest.mark.parametrize("value", ["abc", "", "-5"])
    def test_bad_budget_exit_two(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SINGLAB_BUDGET", value)
        code, out = run_cli(capsys, "toric-ideal", "--generators", "3,4,5")
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"
        assert "SINGLAB_BUDGET" in out["error"]["message"]

    def test_huge_generators_exceed_the_budget(self, capsys, monkeypatch):
        # the semigroup table would take 40000 * 40001 cells
        monkeypatch.delenv("SINGLAB_BUDGET", raising=False)
        code, out = run_cli(capsys, "toric-ideal", "--generators",
                            "40000,40001")
        assert code == 1
        assert out["error"]["type"] == "BudgetExceeded"

    def test_staircase_exceeds_the_budget(self, capsys, monkeypatch):
        # the staircase of z^3 + w^1000 holds 2 * 999 monomials
        monkeypatch.setenv("SINGLAB_BUDGET", "1000")
        code, out = run_cli(capsys, "analyze", "z^3 + w^1000")
        assert code == 1
        assert out["error"] == {
            "type": "BudgetExceeded",
            "message": "staircase_monomials exceeded 1000 steps"}
        task = _one_task({"kind": "unfolding", "germ": "z^3 + w^1000"},
                         {"op": "analyze"})
        assert task == (out, False)

    def test_unfolding_exceeds_the_budget(self, capsys, monkeypatch):
        # the staircase (1998 steps) fits under 3000; the unfolding's 1998
        # terms of 2000 exponents each are 3996 steps
        monkeypatch.setenv("SINGLAB_BUDGET", "3000")
        code, out = run_cli(capsys, "analyze", "z^3 + w^1000")
        assert code == 1
        assert out["error"] == {
            "type": "BudgetExceeded",
            "message": "miniversal_unfolding exceeded 3000 steps"}
        task = _one_task({"kind": "unfolding", "germ": "z^3 + w^1000"},
                         {"op": "analyze"})
        assert task == (out, False)

    def test_deeply_nested_germ_exits_two(self, capsys):
        # 250 levels recursed past Python's limit: exit 1, a traceback
        code, out = run_cli(capsys, "analyze", "(" * 200 + "z^3" + ")" * 200)
        assert code == 0 and out["mu"] == 2
        code, out = run_cli(capsys, "analyze", "(" * 250 + "z^3" + ")" * 250)
        assert code == 2
        assert out["error"] == {
            "type": "InvalidInput",
            "message": "germ: expression nested deeper than 200 levels"}

    def test_unrefined_crossing_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(discriminant, "_agree", lambda *args: False)
        code, out = run_cli(capsys, "cerf", "z^4", "--path=-1/2,-3/2;1/2,-3/2",
                            "--steps", "8", "--delta", "2")
        assert code == 3
        assert [(e["kind"], e["s"], e["data"]) for e in out["events"]] == \
            [("unresolved", "1/2", {"reason": "crossing-unrefined"})]

    @pytest.mark.parametrize("argv", [
        ("discriminant", "lambda^3"),
        ("cerf", "lambda^4", "--path=-1/2,-1;1/2,-1", "--steps", "4"),
        ("maxwell", "lambda^4"),
        ("slice", "lambda^4", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-1,1", "--fixed", "t2=-1/2", "--grid", "3"),
    ], ids=["discriminant", "cerf", "maxwell", "slice"])
    def test_germ_variable_lambda_collides(self, capsys, argv):
        # the fiber determinant's ring would hold "lambda" twice
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out["error"] == {
            "type": "VariableMismatch",
            "message": "germ variable 'lambda' collides with the fiber "
                       "coordinate"}

    @pytest.mark.parametrize("argv", [
        ("analyze", "lambda^4"),
        ("morse", "lambda^4", "--t=-1/2,-1"),
        ("euler-check", "lambda^3", "--t=-3"),
        ("slice", "lambda^3", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-1,1", "--grid", "1"),
    ], ids=["analyze", "morse", "euler-check", "slice-one-cell"])
    def test_germ_variable_lambda_elsewhere(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and "error" not in out

    @pytest.mark.parametrize("argv", [
        ("semigroup", "--generators", "a,3"),
        ("strict-transform", "--x-exponent", "4", "--y", "10:1,x:1"),
        ("semigroup",),
        ("strict-transform", "--x-exponent", "0", "--y", "3:1"),
        ("strict-transform", "--x-exponent", "-2", "--y", "3:1"),
    ], ids=["generators-not-integers", "y-exponent-not-integer",
            "no-curve-source", "x-exponent-zero", "x-exponent-negative"])
    def test_bad_curve_input_exit_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"

    @pytest.mark.parametrize("x_exponent,y", [
        ("6", "4:1,5:1"), ("9", "6:1,7:1"), ("8", "6:1,7:1"), ("4", "3:1")])
    def test_y_below_x_is_order_mismatch(self, x_exponent, y):
        code, out = run_cli_process("strict-transform", "--x-exponent",
                                    x_exponent, "--y", y)
        assert code == 1
        assert out["error"]["type"] == "OrderMismatch"

    def test_overweight_fail_exit_three(self, capsys):
        code, out = run_cli(capsys, "overweight",
                            "--variables", "U0,U1",
                            "--weights", "2,3",
                            "--series", "U1^2 - U0^3 + U0",
                            "--expected", "U1^2 - U0^3")
        assert code == 3
        assert out["ok"] is False

    def test_degree_scan_csv(self, capsys, tmp_path):
        csv = tmp_path / "scan.csv"
        code, out = run_cli(capsys, "degree-scan", "z^3", "--samples", "5",
                            "--csv", str(csv))
        assert code == 0 and out["accepted"] == 5
        lines = csv.read_text().splitlines()
        assert lines[0] == "t1,N0,N1,alt_sum"
        assert len(lines) == 6

    @pytest.mark.parametrize("argv", [
        ("analyze", "z^^3"),
        ("morse", "z^3", "--t", "abc"),
        ("morse", "z^3", "--t", "-3", "--box-radius", "abc"),
        ("cerf", "z^3", "--path=-1/2;1/2", "--steps", "1"),
        ("degree-scan", "z^3", "--samples", "1"),
        ("overweight", "--variables", "U0,U1", "--weights", "a,3",
         "--series", "U1^2 - U0^3", "--expected", "U1^2 - U0^3"),
        ("maxwell", "z^4", "--segment=-1,-2"),
        ("overweight", "--variables", "U0,U1", "--weights", "2,3",
         "--series", "U1^2 - U0^3", "--expected", "U1^2"),
        ("overweight", "--variables", "U0,U1", "--weights", "2,3",
         "--series", "U1^2 - U0^3", "--series", "U1^2 - U0^3 + U0",
         "--expected", "U1^2 - U0^3"),
        ("slice", "z^3", "--t-axis", "t9", "--lambda-range=-2,2",
         "--t-range=-2,2"),
        ("slice", "z^4", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-2,2"),
        ("slice", "z^3", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-2,2", "--fixed", "t9=1"),
        ("slice", "z^3", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-2,2", "--grid", "0", "--svg", "no-such-dir/slice.svg"),
        ("slice", "z^3", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-2,2", "--grid", "-3"),
        ("morse", "z^4", "--t", "1"),
        ("euler-check", "z^4", "--t", "1,2,3"),
        ("cerf", "z^4", "--path", "0;1"),
        ("maxwell", "z^4", "--segment", "0;1"),
        ("morse", "z^3", "--t", "-1/2"),
        ("morse", "z^3"),
        (),
        ("herman-probe", "z^3", "--budget=-2"),
        ("herman-probe", "z^3", "--budget", "0"),
        ("maxwell", "z^4", "--samples=-3"),
        ("maxwell", "z^4", "--tol=-1"),
        ("equal-level", "z^4", "--index", "0", "--budget=-1"),
        ("equal-level", "z^4", "--index", "0", "--tol", "0"),
        ("cerf", "z^3", "--path=-1/2;1/2", "--hessian-tol=-1"),
        ("equal-level", "z^4", "--index", "5"),
        ("equal-level", "z^4", "--index=-1"),
        ("morse", "z^3", "--t=-3", "--margin=-1"),
    ], ids=["germ-syntax", "t-not-rational", "box-radius-not-rational",
            "one-cerf-step", "one-scan-sample", "weights-not-integers",
            "segment-of-one-point", "expected-not-binomial",
            "series-without-expected", "slice-axis-not-a-parameter",
            "slice-parameter-not-fixed", "slice-fixes-no-parameter",
            "slice-grid-zero", "slice-grid-negative",
            "morse-t-too-short", "euler-t-too-long", "cerf-path-too-short",
            "maxwell-segment-too-short",
            "negative-fraction-as-flag", "missing-required-flag",
            "missing-command", "herman-budget-negative", "herman-budget-zero",
            "maxwell-samples-negative", "maxwell-tol-negative",
            "equal-level-budget-negative", "equal-level-tol-zero",
            "cerf-hessian-tol-negative", "equal-level-index-above-n",
            "equal-level-index-negative", "morse-margin-negative"])
    def test_bad_input_exit_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"

    @pytest.mark.parametrize("argv", [
        ("maxwell", "z^4", "--segment=-1,-2;1,-2,5"),
        ("cerf", "z^3", "--path=-1/2;1/2,1", "--steps", "4"),
        ("cerf", "z^3 + w^3", "--path=0,0,0;1,1,1,1", "--steps", "4"),
    ], ids=["maxwell-segment", "cerf-path", "cerf-path-two-variables"])
    def test_breakpoint_of_the_wrong_length_is_named(self, capsys, argv):
        # checked before any report, so a path is never truncated
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"
        assert out["error"]["message"].startswith("breakpoint 1 has")

    def test_usage_error_names_the_flag(self, capsys):
        _, out = run_cli(capsys, "morse", "z^3", "--t", "-1/2")
        assert "--t" in out["error"]["message"]
        assert capsys.readouterr().err == ""

    def test_slice_error_names_the_axis(self, capsys):
        _, out = run_cli(capsys, "slice", "z^3", "--t-axis", "t9",
                         "--lambda-range=-2,2", "--t-range=-2,2")
        assert out["error"]["message"].startswith("t_axis: 't9'")

    def test_slice_with_a_fixed_parameter(self, capsys):
        code, out = run_cli(capsys, "slice", "z^4", "--t-axis", "t1",
                            "--lambda-range=-2,2", "--t-range=-2,2",
                            "--fixed", "t2=-1/2", "--grid", "3")
        assert code == 0
        assert out["fixed"] == {"t2": "-1/2"} and len(out["root_counts"]) == 3

    def test_cerf_unresolved_is_negative_verdict(self, capsys):
        code, out = run_cli(capsys, "cerf", "z^3", "--path=-1/2;0",
                            "--steps", "2")
        assert code == 3
        assert [e["kind"] for e in out["events"]] == ["unresolved"]

    def test_cerf_svg_emitted(self, capsys, tmp_path):
        svg = tmp_path / "trace.svg"
        code, _ = run_cli(capsys, "cerf", "z^3", "--path=-1/2;1/2",
                          "--steps", "16", "--svg", str(svg))
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg ") and content.rstrip().endswith(
            "</svg>")

    @pytest.mark.parametrize("argv", [
        ("degree-scan", "z^3", "--samples", "3", "--csv"),
        ("cerf", "z^3", "--path=-1/2;1/2", "--steps", "4", "--svg"),
        ("cerf", "z^3", "--path=-1/2;1/2", "--steps", "4", "--csv"),
        ("slice", "z^3", "--t-axis", "t1", "--lambda-range=-2,2",
         "--t-range=-2,2", "--grid", "2", "--svg"),
    ], ids=["scan-csv", "cerf-svg", "cerf-csv", "slice-svg"])
    def test_unwritable_output_exit_two(self, capsys, tmp_path, argv):
        code, out = run_cli(capsys, *argv, str(tmp_path / "no-dir" / "out"))
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"
        assert "cannot write" in out["error"]["message"]


MANIFEST = {
    "schema": "singlab-manifest/1",
    "seed": 3,
    "jobs": [
        {"kind": "unfolding", "germ": "z^3",
         "tasks": [{"op": "verify-identity"},
                   {"op": "degree-scan", "samples": 6},
                   {"op": "discriminant"}]},
        {"kind": "branch", "x_exponent": 2, "y": [[3, "1"]],
         "tasks": [{"op": "semigroup"}, {"op": "strict-transform"}]},
    ],
}


class TestManifest:
    def test_full_pipeline_report(self):
        report, ok = run_manifest(MANIFEST)
        assert ok
        tasks = report["jobs"][0]["tasks"]
        assert tasks[0]["result"]["ok"] is True
        assert tasks[1]["result"]["alt_sum"] == 0
        assert tasks[2]["result"]["discriminant"] == "4*t1^3 + 27*lambda^2"
        assert report["jobs"][1]["tasks"][1]["ok"] is True

    def test_reports_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            doc = json.loads(json.dumps(MANIFEST))
            doc["outputs"] = {"report": str(tmp_path / f"{name}.json"),
                              "csv": str(tmp_path / f"{name}.csv")}
            run_manifest(doc)
            outs.append(((tmp_path / f"{name}.json").read_bytes(),
                         (tmp_path / f"{name}.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_seed_changes_samples(self, tmp_path):
        doc = json.loads(json.dumps(MANIFEST))
        doc["seed"] = 4
        a, _ = run_manifest(MANIFEST)
        b, _ = run_manifest(doc)
        scan_a = a["jobs"][0]["tasks"][1]["result"]["samples"]
        scan_b = b["jobs"][0]["tasks"][1]["result"]["samples"]
        assert scan_a != scan_b

    def test_schema_field_required(self):
        with pytest.raises(ManifestError) as err:
            run_manifest({"jobs": []})
        assert err.value.field == "schema"

    def test_field_diagnostics(self):
        bad = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "nope"}]}]}
        with pytest.raises(ManifestError) as err:
            run_manifest(bad)
        assert err.value.field == "jobs[0].tasks[0].op"

    def test_negative_radius_rejected(self):
        bad = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "box_radius": "-1",
                         "tasks": [{"op": "analyze"}]}]}
        with pytest.raises(ManifestError) as err:
            run_manifest(bad)
        assert err.value.field == "jobs[0].box_radius"

    def test_stage_error_propagates_into_report(self):
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "morse", "t": ["0"]}]}]}
        report, ok = run_manifest(doc)
        assert not ok
        result = report["jobs"][0]["tasks"][0]["result"]
        assert result["error"]["type"] == "DegenerateParameter"


    def test_slice_grid_below_one_rejected_at_its_field(self):
        bad = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "analyze"},
                                   {"op": "slice", "t_axis": "t1",
                                    "lambda_range": ["-2", "2"],
                                    "t_range": ["-2", "2"], "grid": 0}]}]}
        with pytest.raises(ManifestError) as err:
            run_manifest(bad)
        assert err.value.field == "jobs[0].tasks[1].grid"

    def test_bad_y_term_rejected(self):
        bad = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "branch", "x_exponent": 4,
                         "y": [[6, "1"], ["x", 1]],
                         "tasks": [{"op": "semigroup"}]}]}
        with pytest.raises(ManifestError) as err:
            run_manifest(bad)
        assert err.value.field == "jobs[0].y[1]"

    def test_y_below_x_recorded_as_task_error(self, tmp_path):
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "branch", "x_exponent": 6,
                         "y": [[4, "1"], [5, "1"]],
                         "tasks": [{"op": "strict-transform"}]}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_process("run", str(path))
        assert code == 3
        result = out["jobs"][0]["tasks"][0]["result"]
        assert result["error"]["type"] == "OrderMismatch"

    def test_bad_generators_recorded_as_task_error(self):
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "semigroup", "generators": [0, 3],
                         "tasks": [{"op": "semigroup"}]},
                        {"kind": "semigroup", "generators": [2, 3],
                         "tasks": [{"op": "toric-ideal"}]}]}
        report, ok = run_manifest(doc)
        assert not ok
        first, second = (job["tasks"][0] for job in report["jobs"])
        assert first["result"]["error"]["type"] == "InvalidInput"
        assert second["ok"] is True

    def test_bad_budget_recorded_as_task_error(self, monkeypatch):
        monkeypatch.setenv("SINGLAB_BUDGET", "abc")
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "semigroup", "generators": [3, 4, 5],
                         "tasks": [{"op": "toric-ideal"}]}]}
        report, ok = run_manifest(doc)
        assert not ok
        result = report["jobs"][0]["tasks"][0]["result"]
        assert result["error"]["type"] == "InvalidInput"


    @pytest.mark.parametrize("key", ["report", "csv"])
    def test_unwritable_output_is_a_manifest_error(self, capsys, tmp_path,
                                                   key):
        doc = {**MANIFEST, "outputs": {key: str(tmp_path / "no-dir" / key)}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out["error"]["type"] == "ManifestError"
        assert out["error"]["field"] == f"outputs.{key}"

    @pytest.mark.parametrize("key", ["report", "csv"])
    @pytest.mark.parametrize("value", [5, ["a"]], ids=["int", "list"])
    def test_output_path_not_a_string(self, capsys, tmp_path, key, value):
        # refused at validation: the task's csv is never written
        task_csv = tmp_path / "scan.csv"
        doc = {"schema": "singlab-manifest/1", "outputs": {key: value},
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "degree-scan", "samples": 3,
                                    "csv": str(task_csv)}]}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out["error"] == {"type": "ManifestError", "field":
                                f"outputs.{key}", "message":
                                f"{value!r} is not a string"}
        assert not task_csv.exists()

    @pytest.mark.parametrize("key", ["report", "csv"])
    @pytest.mark.parametrize("value", ["", "   "], ids=["empty", "spaces"])
    def test_output_path_empty(self, capsys, tmp_path, key, value):
        # refused at validation: the task's csv is never written
        task_csv = tmp_path / "scan.csv"
        doc = {"schema": "singlab-manifest/1", "outputs": {key: value},
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "degree-scan", "samples": 3,
                                    "csv": str(task_csv)}]}]}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out["error"] == {"type": "ManifestError", "field":
                                f"outputs.{key}", "message":
                                f"{value!r} is not a file path"}
        assert not task_csv.exists()

    @pytest.mark.parametrize("key", ["report", "csv"])
    def test_output_path_written_as_validated(self, capsys, tmp_path, key):
        # validation strips the path, so the file goes where it says
        target = tmp_path / key
        doc = {**MANIFEST, "outputs": {key: f" {target} "}}
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "run", str(path))
        assert code == 0 and out["ok"]
        assert target.read_text()

    @pytest.mark.parametrize("argv", [
        ["degree-scan", "z^3", "--samples", "3", "--csv", ""],
        ["cerf", "z^3", "--path=-1/2;1/2", "--steps", "4", "--svg", " "]],
        ids=["degree-scan-csv", "cerf-svg"])
    def test_flag_output_path_empty(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"
        assert "is not a file path" in out["error"]["message"]

    def test_unwritable_task_output_recorded_as_task_error(self, tmp_path):
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "degree-scan", "samples": 3,
                                    "csv": str(tmp_path / "no-dir" / "s")},
                                   {"op": "discriminant"}]}]}
        report, ok = run_manifest(doc)
        assert not ok
        first, second = report["jobs"][0]["tasks"]
        assert first["result"]["error"]["type"] == "InvalidInput"
        assert second["ok"] is True

    def test_source_error_recorded_and_next_job_runs(self):
        doc = {"schema": "singlab-manifest/1",
               "jobs": [{"kind": "unfolding", "germ": "z^2*w^2",
                         "tasks": [{"op": "analyze"}, {"op": "unfold"}]},
                        {"kind": "unfolding", "germ": "z^3",
                         "tasks": [{"op": "analyze"}]}]}
        report, ok = run_manifest(doc)
        assert not ok
        first, second = report["jobs"]
        assert [t["result"]["error"]["type"] for t in first["tasks"]] == \
            ["NotIsolated", "NotIsolated"]
        assert second["tasks"][0]["ok"] is True

    @pytest.mark.parametrize("job,field", [
        ({"kind": "unfolding", "germ": "z^^3",
          "tasks": [{"op": "analyze"}]}, "jobs[0].germ"),
        ({"kind": "unfolding", "germ": "z^3",
          "tasks": [{"op": "analyze"}, {"op": "morse", "t": ["abc"]}]},
         "jobs[0].tasks[1].t[0]"),
        ({"kind": "branch", "x_exponent": 4, "y": [[6.9, "1"], [7, "1"]],
          "tasks": [{"op": "semigroup"}]}, "jobs[0].y[0]"),
        ({"kind": "branch", "x_exponent": True, "y": [[6, "1"], [7, "1"]],
          "tasks": [{"op": "semigroup"}]}, "jobs[0].x_exponent"),
        ({"kind": "unfolding", "germ": "z^3",
          "tasks": [{"op": "degree-scan", "sampels": 6}]},
         "jobs[0].tasks[0].sampels"),
        ({"kind": "unfolding", "germ": "z^3", "box_radus": "2",
          "tasks": [{"op": "analyze"}]}, "jobs[0].box_radus"),
        ({"kind": "unfolding", "germ": "z^3",
          "tasks": [{"op": "morse", "t": ["-3"], "margin": "-1/2"}]},
         "jobs[0].tasks[0].margin"),
        ({"kind": "unfolding", "germ": "(" * 250 + "z^3" + ")" * 250,
          "tasks": [{"op": "analyze"}]}, "jobs[0].germ"),
    ], ids=["germ-syntax", "t-not-rational", "y-exponent-not-integral",
            "x-exponent-bool", "unknown-task-key", "unknown-job-key",
            "margin-negative", "germ-nested-too-deep"])
    def test_bad_field_rejected_at_validation(self, job, field):
        with pytest.raises(ManifestError) as err:
            run_manifest({"schema": "singlab-manifest/1", "jobs": [job]})
        assert err.value.field == field


# One case per op: the command line, and the job and task giving the same
# inputs to a manifest.
GERM = {"kind": "unfolding", "germ": "z^3"}
QUARTIC = {"kind": "unfolding", "germ": "z^4"}
BRANCH = {"kind": "branch", "x_exponent": 4, "y": [[6, "1"], [7, "1"]]}
PARITY = {
    "analyze": (["z^3"], GERM, {}),
    "unfold": (["z^4"], QUARTIC, {}),
    "verify-identity": (["z^3"], GERM, {}),
    "morse": (["z^3", "--t", "-3", "--box-radius", "2"], GERM,
              {"t": ["-3"], "box_radius": "2"}),
    "degree-scan": (["z^3", "--samples", "5"], GERM, {"samples": 5}),
    "euler-check": (["z^4", "--t", "0,-2"], QUARTIC, {"t": [0, "-2"]}),
    "herman-probe": (["z^3", "--budget", "20"], GERM, {"budget": 20}),
    "discriminant": (["z^3"], GERM, {}),
    "cerf": (["z^3", "--path=-1/2;1/2", "--steps", "16"], GERM,
             {"path": [["-1/2"], ["1/2"]], "steps": 16}),
    "maxwell": (["z^4", "--segment=-1,-2;1,-2"], QUARTIC,
                {"segment": [["-1", "-2"], ["1", "-2"]]}),
    "equal-level": (["z^4", "--index", "0", "--budget", "20"], QUARTIC,
                    {"index": 0, "budget": 20}),
    "slice": (["z^3", "--t-axis", "t1", "--lambda-range=-2,2",
               "--t-range=-2,2", "--grid", "4"], GERM,
              {"t_axis": "t1", "lambda_range": ["-2", "2"],
               "t_range": ["-2", "2"], "grid": 4}),
    "semigroup": (["--generators", "4,6,13"],
                  {"kind": "semigroup", "generators": [4, 6, 13]}, {}),
    "toric-ideal": (["--x-exponent", "4", "--y", "6:1,7:1"], BRANCH, {}),
    "toric-resolve": (["--generators", "2,3"],
                      {"kind": "semigroup", "generators": [2, 3]}, {}),
    "strict-transform": (["--x-exponent", "4", "--y", "6:1,7:1"], BRANCH,
                         {}),
    "overweight": (["--variables", "U0,U1", "--weights", "2,3",
                    "--series", "U1^2 - U0^3 + U0",
                    "--expected", "U1^2 - U0^3"],
                   {"kind": "overweight", "variables": ["U0", "U1"],
                    "weights": [2, 3], "series": ["U1^2 - U0^3 + U0"],
                    "expected": ["U1^2 - U0^3"]}, {}),
}


def _one_task(job, task):
    doc = {"schema": "singlab-manifest/1",
           "jobs": [{**job, "tasks": [task]}]}
    report, _ = run_manifest(doc)
    out = report["jobs"][0]["tasks"][0]
    return json.loads(serialize.dumps(out["result"])), out["ok"]


class TestOpTable:
    def test_every_op_has_a_parity_case(self):
        assert set(PARITY) == set(OPS)

    @pytest.mark.parametrize("op", sorted(PARITY))
    def test_cli_and_manifest_agree(self, capsys, op):
        argv, job, fields = PARITY[op]
        code, cli_payload = run_cli(capsys, op, *argv)
        assert code in (0, 3)
        assert _one_task(job, {"op": op, **fields}) == (cli_payload,
                                                        code == 0)

    def test_margin_reaches_the_library(self, capsys):
        argv = ("morse", "z^3", "--t", "-3", "--box-radius", "2",
                "--margin", "100")
        code, cli_payload = run_cli(capsys, *argv)
        assert code == 1
        assert cli_payload["error"]["type"] == "DegenerateParameter"
        task = {"op": "morse", "t": ["-3"], "box_radius": "2",
                "margin": "100"}
        assert _one_task(GERM, task) == (cli_payload, False)

    def test_margin_zero_is_accepted(self, capsys):
        # a margin of 0 rejects only a Hessian determinant enclosing 0
        code, out = run_cli(capsys, "morse", "z^3", "--t=-3", "--margin=0")
        assert code == 0 and out["counts"] == [1, 1]
        task = {"op": "morse", "t": ["-3"], "margin": 0}
        assert _one_task(GERM, task) == (out, True)

    @pytest.mark.parametrize("germ, index", [
        ("z^2", 0), ("z^2 + w^2", 0), ("z*w", 1)])
    def test_morse_germ_at_the_empty_point(self, capsys, germ, index):
        # mu = 1: the unfolding has no parameter, so t is the empty point
        code, out = run_cli(capsys, "morse", germ, "--t=")
        assert code == 0
        assert [p["index"] for p in out["points"]] == [index]
        task = {"op": "morse", "t": []}
        assert _one_task({"kind": "unfolding", "germ": germ}, task) == (
            out, True)

    def test_empty_point_of_the_wrong_length(self, capsys):
        code, out = run_cli(capsys, "morse", "z^3", "--t=")
        assert code == 2
        assert out["error"] == {
            "type": "InvalidInput",
            "message": "parameter point has 0 coordinates, expected 1"}

    def test_euler_check_at_the_empty_point(self, capsys):
        code, out = run_cli(capsys, "euler-check", "z^2", "--t=")
        assert code == 0 and out["ok"] is True

    def test_readme_commands_run(self, capsys, tmp_path, monkeypatch):
        """Every README command line runs: exit 0, or 3 for a negative
        verdict; `run experiment.json` runs the README's manifest."""
        text = README.read_text()
        block = text.split("## Command line")[1].split("```sh")[1]
        lines = block.split("```")[0].replace("\\\n", " ").splitlines()
        example = text.split("## Manifests")[1].split("```json")[1]
        (tmp_path / "experiment.json").write_text(example.split("```")[0])
        monkeypatch.chdir(tmp_path)
        commands = [shlex.split(line, comments=True)[1:] for line in lines
                    if line.startswith("singlab ")]
        assert {argv[0] for argv in commands} == set(OPS) | {"run"}
        for argv in commands:
            assert main(argv) in (0, 3), argv
            json.loads(capsys.readouterr().out)


class TestLibraryInputErrors:
    """The library's own input checks raise InvalidInput (a ValueError)."""

    @pytest.mark.parametrize("call", [
        lambda u: parse_polynomial("z^^3", ("z",)),
        lambda u: parse_polynomial("z^3 + y", ("z",)),
        lambda u: critical_points(u, ParameterPoint((Fraction(-1),)), 0),
        lambda u: critical_points(u, ParameterPoint((Fraction(-1),) * 2)),
        lambda u: slice_sample(u, "t1", (-2, 2), (-2, 2), {}, 0),
        lambda u: degree_invariance_scan(u, 1),
        lambda u: cerf_trace(u, [ParameterPoint((Fraction(0),))] * 2, 1),
        lambda u: cerf_trace(u, [ParameterPoint((Fraction(0),))], 4),
        lambda u: overweight_check(OverweightDeformation(
            (2, 3), (parse_polynomial("y^2", ("x", "y")),),
            (parse_polynomial("y^2 - x", ("x", "y")),))),
        lambda u: equal_level_search(u, 2),
        lambda u: equal_level_search(u, -1),
    ], ids=["syntax", "unknown-variable", "box-radius", "t-length",
            "slice-grid", "samples", "steps",
            "path", "not-weight-homogeneous", "index-above-n",
            "index-negative"])
    def test_raises_invalid_input(self, call):
        u = unfold_germ(parse_polynomial("z^3", ("z",)))
        with pytest.raises(InvalidInput):
            call(u)


def _digest_lines():
    return [line for line in CLI_DIGESTS.read_text().splitlines()
            if line and not line.startswith("#")]


class TestDigests:
    def test_table_holds_every_command(self):
        assert len(_digest_lines()) >= 28  # none lost

    @pytest.mark.parametrize("line", _digest_lines(),
                             ids=lambda line: line.split(" ", 2)[2])
    def test_command_keeps_its_digest(self, capsys, monkeypatch, line):
        # the table that CI runs through the console script, in-process
        monkeypatch.delenv("SINGLAB_BUDGET", raising=False)
        want_code, want, *argv = shlex.split(line)
        code = main(argv)
        got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert (code, got) == (int(want_code), want)


class TestFigures:
    def test_cerf_svg_byte_stable(self):
        from fractions import Fraction
        from singlab.discriminant import cerf_trace
        from singlab.figures import cerf_svg
        from singlab.milnor import unfold_germ
        from singlab.morselab import ParameterPoint
        from singlab.poly import parse_polynomial
        u = unfold_germ(parse_polynomial("z^3", ("z",)))
        path = [ParameterPoint((Fraction(-1, 2),)),
                ParameterPoint((Fraction(1, 2),))]
        a = cerf_svg(cerf_trace(u, path, 16))
        b = cerf_svg(cerf_trace(u, path, 16))
        assert a == b

    # golden key -> (germ, path breakpoints, steps, delta): a z^3 death, a
    # z^4 Maxwell event at s = 1/2 between samples and on sample 16, and
    # z^4 births, deaths and a Maxwell point
    SVG_CASES = {
        "z^3 | -1/2 -> 1/2 | steps=40 delta=1":
            ("z^3", [(-Fraction(1, 2),), (Fraction(1, 2),)], 40, 1),
        "z^4 | -1,-2 -> 1,-2 | steps=31 delta=2":
            ("z^4", [(-1, -2), (1, -2)], 31, 2),
        "z^4 | -1,-2 -> 1,-2 | steps=32 delta=2":
            ("z^4", [(-1, -2), (1, -2)], 32, 2),
        "z^4 | 0,-2 -> 1/3,1/2 -> -1/2,-1 | steps=48 delta=3":
            ("z^4", [(0, -2), (Fraction(1, 3), Fraction(1, 2)),
                     (-Fraction(1, 2), -1)], 48, 3),
    }

    @pytest.mark.parametrize("key", SVG_CASES)
    def test_cerf_svg_matches_golden_digest(self, key):
        germ, path, steps, delta = self.SVG_CASES[key]
        u = unfold_germ(parse_polynomial(germ, ("z",)))
        trace = cerf_trace(u, [ParameterPoint(tuple(map(Fraction, p)))
                               for p in path], steps, delta=delta)
        svg = figures.cerf_svg(trace).encode()
        assert hashlib.sha256(svg).hexdigest() == \
            json.loads(GOLDEN_SVGS.read_text())[key]
