"""CLI behavior: JSON reports, error objects, exit codes, manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import singlab
from singlab.cli import main, run_manifest
from singlab.errors import ManifestError


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

    @pytest.mark.parametrize("argv", [
        ("semigroup", "--generators", "0,3"),
        ("toric-ideal", "--generators", "1"),
        ("toric-resolve", "--generators", "1"),
    ])
    def test_bad_generators_exit_two(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "InvalidInput"

    @pytest.mark.parametrize("argv", [
        ("semigroup", "--generators", "a,3"),
        ("strict-transform", "--x-exponent", "4", "--y", "10:1,x:1"),
        ("semigroup",),
    ], ids=["generators-not-integers", "y-exponent-not-integer",
            "no-curve-source"])
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

    def test_cerf_svg_emitted(self, capsys, tmp_path):
        svg = tmp_path / "trace.svg"
        code, _ = run_cli(capsys, "cerf", "z^3", "--path=-1/2;1/2",
                          "--steps", "16", "--svg", str(svg))
        assert code == 0
        content = svg.read_text()
        assert content.startswith("<svg ") and content.rstrip().endswith(
            "</svg>")


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
