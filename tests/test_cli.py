"""Command-line interface: subcommand behavior, output formats, exit codes
and reproducibility."""

import io
import json
import math

import numpy as np
import pytest

from trunctet import L0, Tetrahedron
from trunctet.cli import build_parser, main

PI6 = ",".join([repr(math.pi / 6)] * 6)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestConvert:
    def test_angles_to_json(self):
        code, out, _ = run(["convert", "--angles", PI6])
        assert code == 0
        record = json.loads(out)
        assert np.allclose(record["lengths"], L0, atol=1e-12)

    def test_degrees(self):
        code, out, _ = run(["convert", "--angles", "30,30,30,30,30,30", "--degrees"])
        assert code == 0
        assert np.allclose(json.loads(out)["lengths"], L0, atol=1e-12)

    def test_lengths_input(self):
        code, out, _ = run(["convert", "--lengths", ",".join([repr(L0)] * 6)])
        assert code == 0
        assert np.allclose(json.loads(out)["angles"], math.pi / 6, atol=1e-9)

    def test_csv(self):
        code, out, _ = run(["convert", "--angles", PI6, "--csv"])
        assert code == 0
        assert out.splitlines()[0] == "l12,l13,l14,l34,l24,l23"


class TestVolume:
    def test_golden(self):
        code, out, _ = run(["volume", "--angles", PI6])
        assert code == 0
        assert float(out) == pytest.approx(3.226, abs=1e-3)

    def test_json_round_trips_record(self):
        code, out, _ = run(["volume", "--angles", PI6, "--json"])
        assert code == 0
        tet = Tetrahedron.from_json_dict(json.loads(out))
        assert tet.volume == pytest.approx(3.226, abs=1e-3)


class TestGrad:
    def test_both_charts(self):
        code, out, _ = run(["grad", "--angles", PI6])
        assert code == 0
        record = json.loads(out)
        assert np.allclose(record["dvol_dangles"], -L0 / 2.0, atol=1e-9)
        assert all(v < 0 for v in record["dvol_dlengths"])


class TestVerify:
    def test_theorem_passes(self):
        code, out, _ = run(
            ["verify", "theorem", "--ell", "0.59", "--samples", "200", "--seed", "7"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["report"]["passes"] == 200
        assert record["defaults"]["seed"] == 7

    def test_anglesum(self):
        code, out, _ = run(
            ["verify", "anglesum", "--sum", "3.0", "--samples", "50", "--seed", "8"]
        )
        assert code == 0
        assert json.loads(out)["report"]["failures"] == 0

    def test_missing_ell_is_usage_error(self):
        code, _, err = run(["verify", "theorem", "--samples", "5"])
        assert code == 1
        assert "ell" in err


class TestFlow:
    def test_csv_output(self):
        code, out, _ = run(
            ["flow", "--lengths", "0.9,0.8,0.7,0.9,0.8,0.7", "--ell", "0.3"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,l12,l13,l14,l34,l24,l23,volume"
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(r) == 8 for r in rows)
        assert all(min(map(float, r[1:7])) >= 0.3 - 1e-9 for r in rows)

    def test_json_output(self):
        code, out, _ = run(
            ["flow", "--lengths", "0.7,0.7,0.7,0.7,0.7,0.7", "--ell", "0.5", "--json"]
        )
        assert code == 0
        record = json.loads(out)
        assert record["reason"] == "regular"
        Tetrahedron.from_json_dict(record["points"][0]["tetrahedron"])


class TestOtherSubcommands:
    def test_degenerate(self):
        code, out, _ = run(["degenerate", "--steps", "5"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert float(lines[-1].split(",")[-1]) == pytest.approx(0.0, abs=1e-9)

    def test_scan(self):
        code, out, _ = run(["scan", "--grid", "0.2:2.0:10"])
        assert code == 0
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_sample(self):
        code, out, _ = run(["sample", "--constraint", "acute", "--seed", "3"])
        assert code == 0
        Tetrahedron.from_json_dict(json.loads(out))

    def test_conjecture_prima(self):
        code, out, _ = run(
            ["conjecture", "prima", "--angles", "0.4,0.5,0.3,0.45,0.35,0.5",
             "--ell", "0.3"]
        )
        assert code == 0
        assert json.loads(out)["holds"] is True

    @pytest.mark.parametrize("name", ["prima", "prima2"])
    @pytest.mark.parametrize("ell", ["0", "-1", "-1e300"])
    def test_conjecture_rejects_nonpositive_ell(self, name, ell):
        code, out, err = run(["conjecture", name, "--angles", A, "--ell", ell])
        assert (code, out) == (2, "")
        assert err == f"numerical error: ell must be positive, got {float(ell)!r}\n"


A = "0.4,0.5,0.3,0.45,0.35,0.5"


def csv_rows(text):
    # the numbers of each row below the header; grad's rows start with a label
    rows = [line.split(",") for line in text.splitlines()[1:]]
    return [[float(c) for c in row if c not in ("angles", "lengths")] for row in rows]


class TestOneOutputPath:
    @pytest.mark.parametrize(
        "argv, default, rows",
        [
            (["convert", "--angles", A], "--json", lambda r: [r["lengths"]]),
            (["grad", "--angles", A], "--json", lambda r: [r["dvol_dangles"], r["dvol_dlengths"]]),
            (["flow", "--lengths", "0.9,0.8,0.7,0.9,0.8,0.7", "--ell", "0.3", "--dt", "0.01"],
             "--csv",
             lambda r: [[p["t"], *p["tetrahedron"]["lengths"], p["tetrahedron"]["volume"]]
                        for p in r["points"]]),
            (["degenerate", "--steps", "5"], "--csv", lambda r: [[*p["angles"], p["volume"]] for p in r]),
            (["scan", "--ells", "0.3,0.5,1"], "--csv", lambda r: [[p["ell"], p["volume"]] for p in r]),
        ],
    )
    def test_table_and_payload_carry_the_same_numbers(self, argv, default, rows):
        code, table, _ = run(argv + ["--csv"])
        assert code == 0
        code, payload, _ = run(argv + ["--json"])
        assert code == 0
        assert csv_rows(table) == rows(json.loads(payload))
        assert run(argv) == run(argv + [default])

    def test_volume_prints_its_table(self):
        argv = ["volume", "--angles", A]
        assert run(argv) == run(argv + ["--csv"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "theorem", "--ell", "0.3", "--samples", "20", "--seed", "3"],
            ["conjecture", "prima", "--angles", A, "--ell", "0.3"],
            ["sample", "--constraint", "acute", "--seed", "3"],
        ],
    )
    def test_commands_without_a_table_print_json(self, argv):
        code, out, _ = run(argv)
        assert code == 0 and json.loads(out)
        assert run(argv + ["--csv"]) == run(argv + ["--json"]) == (code, out, "")


class TestErrorsAndDeterminism:
    def test_malformed_vector(self):
        code, _, err = run(["volume", "--angles", "1,2,3"])
        assert code == 1
        assert err

    def test_missing_input(self):
        code, _, _ = run(["volume"])
        assert code == 1

    def test_numerical_failure(self):
        code, _, err = run(["volume", "--angles", "2,2,2,2,2,2"])
        assert code == 2
        assert "error" in err

    def test_lengths_outside_the_chart(self):
        # angles strictly inside the polytope that convert back 3.3e-9 away
        row = ("2.651957293466562,2.614016170158948,2.8056799092691507,"
               "0.006183145337208207,0.1598965149906323,2.461917259130263")
        code, out, err = run(["convert", "--lengths", row])
        assert (code, out) == (2, "")
        assert err.startswith("numerical error: lengths") and "outside the length chart" in err

    def test_vector_starting_with_a_minus_sign(self):
        # a separate "-0.1,..." value reaches the chart as the "=" form does
        for flag, vector in (("--angles", "-0.1,0.5,0.5,0.5,0.5,0.5"),
                             ("--lengths", "-.7,0.7,0.8,0.7,0.7,0.8")):
            code, _, err = run(["volume", flag, vector])
            assert (code, err) == run(["volume", f"{flag}={vector}"])[::2]
            assert code == 2 and "numerical error" in err
        # an option after a vector flag is still an option
        assert run(["volume", "--angles", "--degrees"])[0] == 1

    def test_negative_values_in_scientific_notation(self, capsys):
        # "-1e-3" is no plain number to stock argparse; after every flag of
        # every subcommand that takes a value it reads as the "=" form does
        bases = {
            "verify": ["theorem", "--ell", "0.3", "--samples", "3"],
            "flow": ["--lengths", "0.9,0.8,0.7,0.9,0.8,0.7", "--ell", "0.3"],
            "conjecture": ["prima", "--angles", "0.4,0.5,0.3,0.45,0.35,0.5", "--ell", "0.3"],
            "sample": ["--constraint", "volume_floor", "--floor", "3.3"],
        }
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        tried = set()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                for flag in action.option_strings if action.nargs != 0 else ():
                    argv = [command, *bases.get(command, []), flag]
                    separate = run(argv + ["-1e-3"]), capsys.readouterr()
                    joined = run(argv[:-1] + [flag + "=-1e-3"]), capsys.readouterr()
                    assert separate == joined, argv
                    assert "expected one argument" not in separate[1].err, argv
                    tried.add(flag)
        assert tried == {"--angles", "--lengths", "--ell", "--sum", "--samples", "--seed",
                         "--tol", "--dt", "--steps", "--ells", "--grid", "--constraint",
                         "--floor"}
        # a switch takes no value, so a number after it is a stray argument
        for switch in ("--json", "--csv", "--degrees"):
            code, _, _ = run(["volume", "--angles", PI6, switch, "-1e-3"])
            assert code == 1
            assert "unrecognized arguments: -1e-3" in capsys.readouterr().err

    def test_negative_counts_are_usage_errors(self):
        for argv in (["verify", "theorem", "--ell", "0.3", "--samples", "-5"],
                     ["verify", "anglesum", "--sum", "3.0", "--samples", "-1"]):
            code, out, err = run(argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: --") and "must be nonnegative" in err
        # no samples is a valid, empty campaign
        code, out, _ = run(["verify", "theorem", "--ell", "0.3", "--samples", "0"])
        assert code == 0
        assert json.loads(out)["report"]["samples"] == 0

    def test_conjecture_takes_no_probes_or_seed(self, capsys):
        # prima2 tests a fixed set of points: it has no probe budget and no seed
        for flag in ("--probes", "--seed"):
            code, out, _ = run(["conjecture", "prima2", "--angles", "0.4,0.5,0.3,0.45,0.35,0.5",
                                "--ell", "0.3", flag, "5"])
            assert (code, out) == (1, "")
            assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_unknown_flag(self):
        code, _, _ = run(["volume", "--bogus", "1"])
        assert code == 1

    def test_shared_parser_gives_fresh_parser_results(self, capsys):
        # usage errors from the handler and from argparse itself, between
        # successful commands
        argvs = [
            ["verify", "theorem", "--ell", "0.3", "--samples", "20", "--seed", "5"],
            ["grad", "--angles", PI6],
            ["verify", "theorem"],
            ["verify", "bogus"],
            ["verify", "anglesum", "--sum", "3.0", "--samples", "20", "--seed", "6"],
        ]
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append((run(argv), capsys.readouterr()))
        assert build_parser() is build_parser()
        for argv, expected in zip(argvs + argvs[::-1], fresh + fresh[::-1]):
            assert (run(argv), capsys.readouterr()) == expected
        assert [result[0] for result, _ in fresh] == [0, 0, 1, 1, 0]

    def test_byte_determinism(self):
        argv = ["verify", "theorem", "--ell", "0.3", "--samples", "100", "--seed", "5"]
        results = [run(argv) for _ in range(2)]
        assert results[0] == results[1]
        assert results[0][0] == 0
