from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import pytest

from freemoments import checks, cli
from freemoments.exactcomb import IdentityCheck
from freemoments.specfun import SeriesConvergenceError
from freemoments.moments import moment_polynomial


def run(capsys, argv: list[str]) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().out


class TestMoments:
    def test_polynomial_table(self, capsys):
        code, out = run(capsys, ["moments", "--n-max", "2", "--mode", "polynomial"])
        assert code == 0
        assert "-1/2 t" in out
        assert "t + 1/3 t^2" in out

    def test_n_max_zero(self, capsys):
        code, out = run(capsys, ["moments", "--n-max", "0"])
        assert code == 0
        assert out.strip().splitlines()[-1].split()[-1] == "1"

    def test_oracle_diffs_all_zero(self, capsys):
        code, out = run(
            capsys, ["moments", "--n-max", "30", "--oracle", "--format", "csv"]
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,m_n,oracle_diff"
        assert len(rows) == 32
        assert all(line.rsplit(",", 1)[1] == "0" for line in rows[1:])

    def test_at_t_values_round_trip_exactly(self, capsys):
        code, out = run(
            capsys,
            ["moments", "--n-max", "6", "--mode", "at-t", "--t", "1/3", "--format", "csv"],
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            n_text, value_text = line.split(",")
            reparsed = Fraction(value_text)
            assert reparsed == moment_polynomial(int(n_text))(Fraction(1, 3))

    def test_json_coefficients_round_trip(self, capsys):
        code, out = run(
            capsys, ["moments", "--n-max", "4", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            n = int(row[0])
            # the rendered polynomial is the library's own string form
            assert row[1] == str(moment_polynomial(n))

    def test_at_t_requires_t(self, capsys):
        code = cli.main(["moments", "--mode", "at-t"])
        capsys.readouterr()
        assert code == 2


class TestNu:
    def test_integer_orders_table(self, capsys):
        code, out = run(capsys, ["nu", "--n", "1", "--t", "1"])
        assert code == 0
        assert out.count("1.64872") == 2

    def test_alpha_minus_one(self, capsys):
        code, out = run(capsys, ["nu", "--alpha=-1", "--t", "1", "--format", "csv"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_alpha_zero_is_the_mass(self, capsys):
        # exited 2: the direct sum refused order 0
        code, out = run(capsys, ["nu", "--alpha", "0", "--t", "1", "--format", "csv"])
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == float(row[2]) == 1.0

    def test_tiny_time_is_near_one(self, capsys):
        code, out = run(capsys, ["nu", "--n", "1", "--t", "0.000001", "--format", "csv"])
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_complex_alpha_accepts_i_suffix(self, capsys):
        code, out = run(capsys, ["nu", "--alpha", "0.5+0.5i", "--t", "1", "--format", "csv"])
        assert code == 0
        assert "rel_diff" in out

    def test_complex_alpha_compares_two_different_sums(self, capsys):
        # Re(alpha) t <= 1: the direct series is the returned value, so the
        # second column must be the Kummer-reflected one, not the same sum
        code, out = run(capsys, ["nu", "--alpha", "0.5+2i", "--t", "0.5", "--format", "csv"])
        assert code == 0
        assert out == (
            "alpha,direct,reflected,rel_diff\n"
            "(0.5+2j),(0.24056737348768706+0.24938671496593023j),"
            "(0.2405673734876871+0.24938671496593032j),6.518e-17\n"
        )
        header, row = out.strip().splitlines()
        assert header == "alpha,direct,reflected,rel_diff"
        _, direct, reflected, rel_diff = row.split(",")
        assert direct != reflected
        assert 0 < float(rel_diff) <= 1e-15
        with mpmath.workdps(30):
            alpha = mpmath.mpc(0.5, 2)
            ref = complex(mpmath.exp(alpha / 4) * mpmath.hyp1f1(1 - alpha, 2, -alpha / 2))
        for value in (complex(direct), complex(reflected)):
            assert abs(value - ref) <= 1e-15 * abs(ref)

    def test_requires_exactly_one_selector(self, capsys):
        assert cli.main(["nu", "--t", "1"]) == 2
        capsys.readouterr()
        assert cli.main(["nu", "--n", "2", "--alpha", "1", "--t", "1"]) == 2
        capsys.readouterr()

    def test_malformed_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["nu", "--alpha", "1+2x", "--t", "1"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("inf", "non-finite complex number: 'inf'"),
            ("-inf+1i", "non-finite complex number: '-inf+1i'"),
            ("nan", "non-finite complex number: 'nan'"),
            ("1+2x", "malformed complex number: '1+2x'"),
        ],
    )
    def test_bad_alpha_is_named(self, capsys, alpha: str, message: str):
        # inf and -inf+1i were called malformed: the i of inf was read as the imaginary unit
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["nu", f"--alpha={alpha}", "--t", "1"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"argument --alpha: {message}\n")

    def test_refused_sum_is_replaced_by_the_contour_integral(self, capsys):
        # the direct sum cancels; it exited 3 with "lost over half its
        # digits", since |alpha t| = 27.3 was below the large-argument gate
        code, out = run(capsys, ["nu", "--alpha=0.5787", "--t", "47.09", "--format", "csv"])
        assert code == 0
        _, direct, reflected, rel_diff = out.strip().splitlines()[1].split(",")
        with mpmath.workdps(40):
            alpha, t = mpmath.mpf(0.5787), mpmath.mpf(47.09)
            ref = float(mpmath.exp(alpha * t / 2) * mpmath.hyp1f1(1 - alpha, 2, -alpha * t))
        for value in (float(direct), float(reflected)):
            assert abs(value - ref) <= 1e-13 * ref
        assert float(rel_diff) <= 1e-13

    def test_overflowing_order_is_numerical_failure(self, capsys):
        code = cli.main(["nu", "--alpha=200", "--t", "50"])
        capsys.readouterr()
        assert code == 3

    def test_integer_orders_json_is_pinned(self, capsys):
        # both routes' values and their deviations, byte for byte
        code, out = run(capsys, ["nu", "--n", "12", "--t", "2", "--format", "json"])
        assert code == 0
        rows = [
            ["1", "2.718281828459045", "2.718281828459045", "0.000e+00"],
            ["2", "22.16716829679195", "22.16716829679195", "0.000e+00"],
            ["3", "261.1119800014397", "261.1119800014397", "0.000e+00"],
            ["4", "3621.677285531901", "3621.677285531901", "0.000e+00"],
            ["5", "55061.28202705592", "55061.28202705591", "1.321e-16"],
            ["6", "887785.4029601129", "887785.4029601129", "0.000e+00"],
            ["7", "14911457.186918097", "14911457.186918093", "2.498e-16"],
            ["8", "258102613.37827146", "258102613.37827143", "1.155e-16"],
            ["9", "4571699063.050233", "4571699063.050233", "0.000e+00"],
            ["10", "82467724916.28479", "82467724916.28482", "3.701e-16"],
            ["11", "1509779369297.401", "1509779369297.4014", "3.234e-16"],
            ["12", "27980559051650.723", "27980559051650.723", "0.000e+00"],
        ]
        payload = {
            "command": "nu",
            "params": {"t": 2.0, "n_max": 12},
            "columns": ["n", "laguerre", "hypergeometric", "rel_diff"],
            "rows": rows,
        }
        assert out == json.dumps(payload, indent=2) + "\n"


class TestVerify:
    def test_stirling_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "stirling", "--l-max", "8", "--m-max", "8"])
        assert code == 0
        assert "FAIL" not in out

    def test_kummer_suite_passes(self, capsys):
        code, out = run(capsys, ["verify", "kummer", "--samples", "15"])
        assert code == 0

    def test_theorem_main_json(self, capsys):
        code, out = run(
            capsys,
            ["verify", "theorem-main", "--n-max", "6", "--samples", "10", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(check["passed"] for check in payload["checks"])

    def test_exp_image_moments_row_is_pinned(self, capsys):
        # the JSON rows of the integer moments by both routes and of the seeded
        # fractional orders, byte for byte
        code, out = run(capsys, ["verify", "theorem-main", "--format", "json"])
        assert code == 0
        rows = (
            (
                '    {\n'
                '      "name": "exp-image-moments",\n'
                '      "passed": true,\n'
                '      "detail": "max deviation 2.075e-16 for n <= 10, t=1.0"\n'
                '    },\n'
            ),
            (
                '    {\n'
                '      "name": "fractional-moments",\n'
                '      "passed": true,\n'
                '      "detail": "max deviation 3.141e-14 over 50 complex orders, t=1.0"\n'
                '    }\n'
                '  ],\n'
            ),
        )
        for row in rows:
            assert row in out

    @pytest.mark.parametrize(
        "suite, rows",
        [
            (
                "stirling",
                [
                    ("stirling-identity", True, "144 (l, m) pairs exact"),
                    (
                        "stirling-log-series",
                        True,
                        "coefficient extraction matches recurrence for n <= 20",
                    ),
                    ("alternating-binomial-sum", True, "partial alternating sums exact for N <= 30"),
                ],
            ),
            (
                "kummer",
                [
                    ("kummer-transform", True, "50 random (a, b, x) points, 0 failures"),
                    ("euler-integral", True, "max deviation 1.848e-15 over the (a, b, x) grid"),
                    ("laguerre-terminating-series", True, "max deviation 2.855e-15 for n <= 8"),
                ],
            ),
        ],
    )
    def test_suite_json_is_pinned(self, capsys, suite: str, rows: list):
        # the whole report at the default arguments, byte for byte
        code, out = run(capsys, ["verify", suite, "--format", "json"])
        assert code == 0
        payload = {
            "command": "verify",
            "params": {
                "suite": suite,
                "l_max": 12,
                "m_max": 12,
                "n_max": 10,
                "t": 1.0,
                "samples": 50,
                "tolerance": 1e-10,
                "seed": 0,
            },
            "checks": [dict(zip(("name", "passed", "detail"), row)) for row in rows],
            "passed": True,
        }
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_failure_sets_exit_code(self, capsys, monkeypatch):
        broken = IdentityCheck(False, Fraction(1), Fraction(2))
        monkeypatch.setattr(checks, "verify_stirling_identity", lambda l, m: broken)
        code, out = run(capsys, ["verify", "stirling", "--l-max", "2", "--m-max", "2"])
        assert code == 1
        assert "FAIL" in out

    def test_all_suite_json(self, capsys):
        code, out = run(capsys, ["verify", "all", "--format", "json"])
        assert code == 0
        assert [check["name"] for check in json.loads(out)["checks"]] == (
            "stirling-identity stirling-log-series alternating-binomial-sum "
            "kummer-transform euler-integral laguerre-terminating-series "
            "moment-polynomials exp-image-moments fractional-moments "
            "density-moments simulate-determinism"
        ).split()

    def test_refused_check_still_reports(self, capsys, monkeypatch):
        def refuse(n, k):
            raise SeriesConvergenceError("series lost its digits")

        monkeypatch.setattr(checks, "stirling_via_log_series", refuse)
        code, out = run(capsys, ["verify", "stirling", "--format", "json"])
        assert code == 3
        assert [tuple(check.values()) for check in json.loads(out)["checks"]] == [
            ("stirling-identity", True, "144 (l, m) pairs exact"),
            ("stirling-log-series", False, "refused: series lost its digits"),
            ("alternating-binomial-sum", True, "partial alternating sums exact for N <= 30"),
        ]
        code, out = run(capsys, ["verify", "stirling"])
        assert code == 3
        assert "refused: series lost its digits" in out and out.split()[-1] == "FAIL"


class TestDensity:
    def test_csv_with_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code = cli.main(
            ["density", "--t", "1", "--points", "600", "--format", "csv", "--out", str(out_path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 601
        meta = json.loads((tmp_path / "grid.csv.meta.json").read_text())
        assert 0.98 <= meta["mass_estimate"] <= 1.02
        assert meta["solver"]["tolerance"] == 1e-13
        assert meta["support"]["lower"] * meta["support"]["upper"] == pytest.approx(1.0)

    def test_exp_mode_annotates_closed_form_support(self, capsys):
        code, out = run(
            capsys,
            ["density", "--t", "2", "--exp", "--points", "400", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        r = math.sqrt(3.0)
        assert payload["meta"]["support"]["lower"] == pytest.approx((2 - r) * math.exp(-r))
        assert payload["meta"]["support"]["upper"] == pytest.approx((2 + r) * math.exp(r))
        assert min(payload["grid"]["abscissae"]) > 0

    def test_near_delta_time(self, capsys):
        code, out = run(
            capsys,
            ["density", "--t", "1e-9", "--points", "1500", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        xs = payload["grid"]["abscissae"]
        vs = payload["grid"]["values"]
        peak = max(range(len(vs)), key=vs.__getitem__)
        assert abs(xs[peak]) < 1e-3
        assert 0.98 <= payload["meta"]["mass_estimate"] <= 1.02

    def test_solver_failure_is_numerical_exit(self, capsys, monkeypatch):
        # the handler imports freeconv when it runs, and main still maps the
        # solver's typed error to exit code 3
        from freemoments import freeconv

        monkeypatch.setattr(freeconv, "_MAX_ITERATIONS", 0)
        code = cli.main(["density", "--t", "1", "--points", "50"])
        _, err = capsys.readouterr()
        assert code == 3
        assert err.startswith("numerical failure:")

    def test_window_validation(self, capsys):
        code = cli.main(["density", "--t", "1", "--x-lo", "2", "--x-hi", "-2"])
        capsys.readouterr()
        assert code == 2


class TestSimulate:
    def test_json_reports_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "simulate", "multiplicative", "--N", "24", "--t", "0.5",
            "--trials", "3", "--steps", "8", "--seed", "11", "--format", "json",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(argv + ["--out", str(first)]) == 0
        assert cli.main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_additive_table_shape(self, capsys):
        code, out = run(
            capsys,
            ["simulate", "additive", "--N", "40,60", "--t", "1", "--trials", "4", "--seed", "7"],
        )
        assert code == 0
        assert "model=additive" in out
        body = [line for line in out.splitlines() if line and not line.startswith(("#", "N "))]
        assert len(body) == 8  # two sizes x four orders

    def test_csv_floats_round_trip(self, capsys):
        code, out = run(
            capsys,
            ["simulate", "additive", "--N", "30", "--t", "1", "--trials", "3",
             "--seed", "5", "--format", "csv"],
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "N,n,empirical,oracle,rel_err,std_err"
        for line in rows:
            cells = line.split(",")
            assert float(cells[2]) == float(repr(float(cells[2])))

    def test_zero_time_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "additive", "--N", "4", "--t", "0", "--trials", "2"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_too_few_trials_rejected(self, capsys):
        code = cli.main(["simulate", "additive", "--N", "24", "--t", "1", "--trials", "1"])
        capsys.readouterr()
        assert code == 2
