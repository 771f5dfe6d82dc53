"""Front-end behavior: pinned outputs, exit codes, round trips."""

import json

import pytest

import moorealg.cli as cli
from moorealg.cli import main
from moorealg.rings import parse_ring
from moorealg.series import EXACT, compose, parse_series

Q = parse_ring("Q")


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestPinnedCommands:
    def test_hochschild_report(self, capsys):
        code, out, _ = run(
            [
                "hochschild",
                "--ring",
                "Zp:5:6[v]",
                "--series",
                "5*t + v*t^2",
                "--trunc",
                "12",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["torsion"] == "torsion-free"
        assert data["rank"] == 1
        assert data["ramification_index"] == 1
        assert data["mod_p_height"] == 2
        assert data["discrepancy"] is True
        assert data["presentation"]["ring"] == "Zp:5:6[v]"

    def test_canonicalize_with_a_sweep_move(self, capsys):
        # the digit sweep applies a move on this input; CI pins it too
        series = "15*t + 14560*t^2 + 6015*t^3 + 4174*t^4 + 65*t^5 + 6683*t^7 + 12958*t^9"
        code, out, _ = run(
            ["canonicalize", "--ring", "Zp:5:6", "--series", series, "--trunc", "10", "--json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 4
        assert data["form"] == "5*t + 40*t^2 + 120*t^3 + 59*t^4"
        assert data["witness"] == (
            "10417*t + 3830*t^2 + 10215*t^3 + 6497*t^4 + 1750*t^5 + 14448*t^6"
            " + 10976*t^7 + 7386*t^8 + 9208*t^9 + 8066*t^10"
        )

    @pytest.mark.parametrize("ring", ["F5", "Q"])
    def test_hochschild_bruteforce_dims(self, ring, capsys):
        code, out, _ = run(
            [
                "hochschild",
                "--ring",
                ring,
                "--series",
                "t + t^3",
                "--trunc",
                "10",
                "--maxdeg",
                "6",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        # a unit linear coefficient over a field kills the cohomology
        assert data["rank"] == 0
        assert data["bruteforce_dims"] == [0] * 7

    @pytest.mark.parametrize("ring, series", [("F5", "t^2 + t^3"), ("Q", "t^2")])
    def test_hochschild_field_rank_without_linear_term(self, ring, series, capsys):
        code, out, _ = run(
            ["hochschild", "--ring", ring, "--series", series, "--trunc", "10",
             "--maxdeg", "6", "--json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 1
        assert data["presentation"]["quotient"] == "F[t]/(t)"
        assert data["bruteforce_dims"] == [1, 0, 0, 0, 0, 0, 0]

    def test_hochschild_exact_zero_derivative(self, capsys):
        # u = t^5 over F5: u' = 0 exactly, so nothing is divided out
        argv = ["hochschild", "--ring", "F5", "--series", "t^5", "--trunc", "exact"]
        code, out, _ = run(argv + ["--maxdeg", "4", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == "infinity"
        assert data["presentation"]["quotient"] == "F[[t]]"
        assert data["bruteforce_dims"] == [1] * 5
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "rank: infinity" in out.splitlines()

    def test_canonicalize_quadratic(self, capsys):
        code, out, _ = run(
            ["canonicalize", "--ring", "Q", "--series", "t^2 + t^3", "--trunc", "8"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert fields["kind"] == "graded_field"
        assert fields["n"] == "2"
        assert fields["form"] == "t^2"
        # the printed witness re-parses and actually moves u onto the form
        wit = parse_series(Q, fields["witness"], 8)
        u = parse_series(Q, "t^2 + t^3", 8)
        assert compose(u, wit).coeffs == parse_series(Q, "t^2", 8).coeffs

    def test_verify_universal_even(self, capsys):
        code, out, _ = run(
            ["verify-universal", "--parity", "even", "--arity", "8", "--trunc", "10"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "m∘m = 0: PASS"

    def test_verify_universal_odd(self, capsys):
        code, out, _ = run(
            ["verify-universal", "--parity", "odd", "--arity", "8", "--trunc", "10"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "m∘m = 0: PASS"


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(
            ["canonicalize", "--ring", "Q", "--series", "t^2 + + t^3", "--trunc", "8"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "position" in err

    def test_bad_ring_is_2(self, capsys):
        code, _, err = run(["height", "--ring", "F6", "--series", "t"], capsys)
        assert code == 2
        assert "parse error" in err

    def test_domain_error_is_3_with_name(self, capsys):
        code, out, err = run(
            ["canonicalize", "--ring", "F5", "--series", "t^5 + t^6", "--trunc", "8"],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "WildCaseError" in err

    def test_zero_series_height_is_3(self, capsys):
        code, _, err = run(["height", "--ring", "Q", "--series", "0"], capsys)
        assert code == 3
        assert "HeightUndefinedError" in err

    def test_internal_error_is_4(self, capsys, monkeypatch):
        def boom(opt):
            raise cli.InternalError("synthetic breach")

        monkeypatch.setitem(cli._HANDLERS, "height", boom)
        code, out, err = run(["height", "--ring", "Q", "--series", "t"], capsys)
        assert code == 4
        assert out == ""
        assert "internal error" in err

    def test_unknown_linear_coefficient_is_3(self, capsys):
        code, out, err = run(
            ["hochschild", "--ring", "F5", "--series", "t", "--trunc", "0"], capsys
        )
        assert code == 3
        assert out == ""
        assert "PrecisionError" in err

    def test_inhomogeneous_graded_input_is_3(self, capsys):
        # 5t + 49t^4 has every coefficient in v^0, but d = 0 needs v^3 on t^4
        pair = ["--series", "5*t + 49*t^4", "--series2", "5*t + 49*t^4 + 30*t^5", "--trunc", "6"]
        code, out, err = run(["equivalent", "--ring", "Zp:5:3[v]", *pair], capsys)
        assert code == 3
        assert out == ""
        assert "StructureError" in err
        code, out, _ = run(["equivalent", "--ring", "Zp:5:3", *pair], capsys)
        assert code == 0
        assert out.strip() == "equivalent: yes"

    @pytest.mark.parametrize("verb", ["canonicalize", "equivalent", "invariant", "hochschild"])
    def test_z_mod_p_with_precision_1_is_2(self, verb, capsys):
        # Zp:5:1 is the field F5, whose uniformizer would be 0: the ring
        # parser refuses it and names F5, where canonicalize and equivalent
        # gave a StructureError, invariant "not a field" and hochschild a
        # ZeroDivisorError
        argv = [verb, "--ring", "Zp:5:1", "--series", "t^2+t^3", "--trunc", "6"]
        if verb == "equivalent":
            argv += ["--series2", "t^2+t^3"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "write F5" in err

    @pytest.mark.parametrize("verb", ["canonicalize", "equivalent"])
    def test_zero_linear_coefficient_over_z_mod_p_is_3(self, verb, capsys):
        # u_1 = 0 is no unit multiple of 5; it used to reach the rescale and
        # fail with "NotAUnitError: 0 is not a unit"
        argv = [verb, "--ring", "Zp:5:2", "--series", "t^2+t^3", "--trunc", "6"]
        if verb == "equivalent":
            argv += ["--series2", "t^2+t^3"]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert "StructureError" in err

    def test_negative_trunc_is_2(self, capsys):
        code, out, err = run(
            ["height", "--ring", "Q", "--series", "t", "--trunc", "-1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "truncation" in err

    def test_negative_word_length_is_2(self, capsys):
        code, out, err = run(
            ["verify-universal", "--parity", "even", "--arity", "3", "--trunc", "-2"],
            capsys,
        )
        assert code == 2
        assert "PASS" not in out
        assert "truncation" in err

    def test_missing_series_is_2(self, capsys):
        code, _, err = run(["height", "--ring", "Q"], capsys)
        assert code == 2
        assert "--series" in err


class TestLeadingMinus:
    def test_series(self, capsys):
        code, out, _ = run(
            ["height", "--ring", "Q", "--series", "-2*t^4", "--trunc", "8"], capsys
        )
        assert code == 0 and out.strip() == "height: 4"

    def test_series2(self, capsys):
        # t -> -t carries t^3 onto -t^3
        code, out, _ = run(
            [
                "equivalent",
                "--ring",
                "Q",
                "--series",
                "t^3 + t^4",
                "--series2",
                "-t^3",
                "--trunc",
                "8",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "equivalent: yes"


class TestDefaultsAndConfig:
    def test_env_default_trunc(self, capsys, monkeypatch):
        monkeypatch.setenv("MOORE_DEFAULT_TRUNC", "6")
        code, out, _ = run(
            ["act", "--ring", "Q", "--series", "t^2", "--series2", "t + t^5"], capsys
        )
        assert code == 0
        assert out.strip() == "result: t^2 + 2*t^6"

    def test_fallback_trunc_is_16(self, capsys, monkeypatch):
        monkeypatch.delenv("MOORE_DEFAULT_TRUNC", raising=False)
        code, out, _ = run(
            ["act", "--ring", "Q", "--series", "t^2", "--series2", "t + t^8"], capsys
        )
        assert code == 0
        assert "t^16" in out and "t^9" in out

    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({"ring": "F7", "trunc": 8, "series": "t + t^2"}))
        code, out, _ = run(["height", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.strip() == "height: 1"
        code, out, _ = run(["height", "--config", str(cfg), "--series", "t^3"], capsys)
        assert code == 0
        assert out.strip() == "height: 3"

    def test_negative_env_default_trunc_is_2(self, capsys, monkeypatch):
        monkeypatch.setenv("MOORE_DEFAULT_TRUNC", "-1")
        code, _, err = run(["height", "--ring", "Q", "--series", "t"], capsys)
        assert code == 2
        assert "truncation" in err
        # a flag wins, so the environment is not even read
        for raw in ("-1", "abc"):
            monkeypatch.setenv("MOORE_DEFAULT_TRUNC", raw)
            code, out, _ = run(
                ["height", "--ring", "Q", "--series", "t", "--trunc", "5"], capsys
            )
            assert code == 0 and out.strip() == "height: 1"

    def test_negative_config_trunc_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({"ring": "Q", "trunc": -3, "series": "t"}))
        code, _, err = run(["height", "--config", str(cfg)], capsys)
        assert code == 2
        assert "truncation" in err

    @pytest.mark.parametrize("bad", [True, 8.7])
    def test_non_integer_config_trunc_is_2(self, bad, capsys, tmp_path):
        # int() would read true as truncation 1 and 8.7 as 8
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({"ring": "Q", "series": "t^2", "trunc": bad}))
        code, out, err = run(["canonicalize", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "bad truncation" in err

    @pytest.mark.parametrize("verb", ["audit", "check"])
    def test_config_parity_is_read(self, verb, capsys, tmp_path):
        # --parity has no argparse default, which would hide the file's value
        data = {"ring": "Q", "series": "t^2 + t^4", "series2": "t^2", "parity": "odd", "trunc": 6}
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps(data))
        code, out, _ = run([verb, "--config", str(cfg)], capsys)
        assert code == 0
        assert (code, out) == run([verb, "--config", str(cfg), "--parity", "odd"], capsys)[:2]
        if verb == "audit":
            assert "z: -2, t: -3" in out
        else:
            assert "kind: odd" in out
        # without a flag or a key the handler's default is even
        del data["parity"]
        cfg.write_text(json.dumps(data))
        assert "kind: even" in run(["check", "--config", str(cfg)], capsys)[1]

    def test_config_parity_satisfies_verify_universal(self, capsys, tmp_path):
        # the handler requires --parity; argparse would not see the file
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({"parity": "odd", "arity": 2, "trunc": 4}))
        code, out, _ = run(["verify-universal", "--config", str(cfg), "--json"], capsys)
        assert code == 0 and json.loads(out)["parity"] == "odd"
        cfg.write_text(json.dumps({"arity": 2}))
        code, _, err = run(["verify-universal", "--config", str(cfg)], capsys)
        assert code == 2 and "--parity is required" in err

    @pytest.mark.parametrize("bad", ["two", 2.5, True])
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["invariant", "--ring", "Q", "--series", "12*t^2 + t^3", "--trunc", "8"], "d"),
            (["hochschild", "--ring", "F5", "--series", "t^2 + t^3", "--trunc", "6"], "maxdeg"),
            (["verify-universal", "--parity", "even", "--trunc", "3"], "arity"),
            (["normalize-cochain", "--ring", "Q", "--series", "t^2", "--trunc", "6"], "seed"),
            (["normalize-cochain", "--ring", "Q", "--series", "t^2", "--trunc", "6"], "degree"),
            (["normalize-cochain", "--ring", "Q", "--series", "t^2", "--trunc", "6"], "arity"),
            (["selftest"], "seed"),
        ],
    )
    def test_non_integer_config_value_is_2(self, argv, key, bad, capsys, tmp_path):
        # a word, a float or a bool is refused, never truncated to an int
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({key: bad}))
        code, _, err = run(argv + ["--config", str(cfg)], capsys)
        assert code == 2
        assert f"--{key} must be an integer" in err

    @pytest.mark.parametrize("value", [2, "2"])
    def test_config_integer_matches_the_flag(self, value, capsys, tmp_path):
        argv = ["invariant", "--ring", "Q", "--series", "12*t^2 + t^3", "--trunc", "8", "--json"]
        cfg = tmp_path / "moore.json"
        cfg.write_text(json.dumps({"d": value}))
        code, out, _ = run(argv + ["--config", str(cfg)], capsys)
        assert code == 0
        assert (code, out) == run(argv + ["--d", "2"], capsys)[:2]

    def test_bad_config_is_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run(["height", "--config", str(cfg)], capsys)
        assert code == 2
        assert "config" in err


class TestRoundTrips:
    def test_act_output_reparses(self, capsys):
        code, out, _ = run(
            [
                "act",
                "--ring",
                "Zp:5:6[v]",
                "--series",
                "5*t + v*t^2",
                "--series2",
                "t + 2*t^2",
                "--trunc",
                "8",
            ],
            capsys,
        )
        assert code == 0
        text = out.strip().removeprefix("result: ")
        ring = parse_ring("Zp:5:6[v]")
        u = parse_series(ring, "5*t + v*t^2", 8)
        f = parse_series(ring, "t + 2*t^2", 8)
        assert parse_series(ring, text, 8).coeffs == compose(u, f).coeffs

    def test_act_exact_truncation(self, capsys):
        code, out, _ = run(
            [
                "act",
                "--ring",
                "Q",
                "--series",
                "t^2",
                "--series2",
                "t + t^2",
                "--trunc",
                "exact",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["trunc"] == EXACT == 1000000000
        assert data["series"] == "t^2 + 2*t^3 + t^4"

    def test_json_mode_emits_parsable_series(self, capsys):
        code, out, _ = run(
            [
                "canonicalize",
                "--ring",
                "Zp:5:6",
                "--series",
                "5*t + t^3",
                "--trunc",
                "8",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "canonical"
        form = parse_series(parse_ring("Zp:5:6"), data["form"], 8)
        assert form.coeffs  # nonzero and syntactically valid


class TestOtherVerbs:
    def test_check_even(self, capsys):
        code, out, _ = run(
            ["check", "--ring", "F7", "--series", "t + 3*t^2", "--trunc", "8"], capsys
        )
        assert code == 0
        assert "m∘m = 0: PASS" in out

    def test_check_odd(self, capsys):
        code, out, _ = run(
            [
                "check",
                "--parity",
                "odd",
                "--ring",
                "F7",
                "--series",
                "t^2 + 2*t^4",
                "--series2",
                "3*t^2",
                "--trunc",
                "8",
            ],
            capsys,
        )
        assert code == 0
        assert "kind: odd" in out and "PASS" in out

    def test_equivalent_yes_no(self, capsys):
        code, out, _ = run(
            [
                "equivalent",
                "--ring",
                "Q",
                "--series",
                "t^2 + t^3",
                "--series2",
                "4*t^2",
                "--trunc",
                "8",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "equivalent: yes"
        code, out, _ = run(
            [
                "equivalent",
                "--ring",
                "Q",
                "--series",
                "t^2",
                "--series2",
                "t^3",
                "--trunc",
                "8",
            ],
            capsys,
        )
        assert code == 0 and out.strip() == "equivalent: no"

    def test_equivalent_graded_orbit(self, capsys):
        # u and u o (t + 31v^4 t^5) over Zp:5:3[v], both degree-homogeneous
        code, out, _ = run(
            ["equivalent", "--ring", "Zp:5:3[v]", "--series", "5*t + 49*v^3*t^4",
             "--series2", "5*t + 49*v^3*t^4 + 30*v^4*t^5", "--trunc", "6"],
            capsys,
        )
        assert code == 0 and out.strip() == "equivalent: yes"

    def test_invariant(self, capsys):
        code, out, _ = run(
            ["invariant", "--ring", "Q", "--series", "8*t^3 + t^4", "--trunc", "8"],
            capsys,
        )
        assert code == 0
        fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert fields["height"] == "3"
        assert fields["class"] == "1"

    def test_invariant_over_a_61_bit_prime(self, capsys):
        # 2^61 - 1 used to be tested for primality by trial division up to
        # its square root; 37 is its smallest primitive root, and 3 is not
        # a square modulo it
        code, out, _ = run(
            ["invariant", "--ring", "F2305843009213693951", "--series", "3*t^2 + t^3",
             "--trunc", "8"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines() == ["height: 2", "class: 37"]

    def test_audit_flags_degree_mismatch(self, capsys):
        code, out, _ = run(
            [
                "audit",
                "--ring",
                "Zp:5:6[v]",
                "--series",
                "5*t + v^2*t^2",
                "--trunc",
                "8",
                "--json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["hh_generator_degrees"] == {"z": -1, "t": -2}
        assert len(data["issues"]) == 1
        assert data["issues"][0]["exponent"] == 2

    def test_audit_clean(self, capsys):
        code, out, _ = run(
            ["audit", "--ring", "Zp:5:6[v]", "--series", "5*t + v*t^2", "--trunc", "8"],
            capsys,
        )
        assert code == 0
        assert "consistent" in out

    def test_normalize_cochain_deterministic(self, capsys):
        argv = [
            "normalize-cochain",
            "--ring",
            "F5",
            "--series",
            "t + 2*t^3",
            "--seed",
            "3",
            "--trunc",
            "8",
        ]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "normalized: yes" in out1
        # the cochain drawn over F_p must not move with the generator
        code, out, _ = run(argv + ["--json"], capsys)
        assert code == 0
        assert out == (
            '{\n  "seed": 3,\n  "degree": 1,\n  "normalized": true,\n'
            '  "witness_degree": 2,\n  "support": {\n    "0": 1,\n    "1": 1,\n'
            '    "2": 1\n  }\n}\n'
        )

    def test_selftest(self, capsys):
        code, out, _ = run(["selftest", "--seed", "5"], capsys)
        assert code == 0
        assert "selftest: PASS" in out
        assert out.count("PASS") == 6

    def test_selftest_redraws_wild_input(self, capsys):
        # seed 3 draws a u over Z/5^6 whose anchor degree 5 is divisible by 5
        code, out, err = run(["selftest", "--seed", "3"], capsys)
        assert code == 0, err
        assert "dvr-canonical-forms: PASS (4 cases)" in out
