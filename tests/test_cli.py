import pytest

from triltl import MAX_NESTING, Truth, elementary, gnba, modelcheck, read_hoa
from triltl.cli import main
from helpers import model_doc, validate_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTranslate:
    def test_summary_and_hoa_output(self, capsys, tmp_path):
        out = tmp_path / "out.hoa"
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "X a", "--alphabet", "a",
            "--value", "uu", "--out-hoa", str(out),
        )
        assert code == 0
        assert stdout == "states=9 initial=3 accsets=1\n"
        assert stderr == ""
        parsed = read_hoa(out.read_text(encoding="utf-8"))
        assert parsed.num_states == 9

    def test_dot_output(self, capsys, tmp_path):
        out = tmp_path / "out.gv"
        code, stdout, _ = run(
            capsys,
            "translate", "--formula", "X a", "--alphabet", "a",
            "--value", "u", "--out-dot", str(out),
        )
        assert code == 0
        validate_dot(out.read_text(encoding="utf-8"))

    def test_value_aliases(self, capsys, tmp_path):
        for alias in ("top", "t", "true"):
            out = tmp_path / f"{alias}.hoa"
            code, stdout, _ = run(
                capsys,
                "translate", "--formula", "a", "--alphabet", "a",
                "--value", alias, "--out-hoa", str(out),
            )
            assert code == 0
            assert stdout == "states=3 initial=1 accsets=1\n"

    def test_atom_outside_alphabet(self, capsys, tmp_path):
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "X a", "--alphabet", "b",
            "--value", "uu", "--out-hoa", str(tmp_path / "x.hoa"),
        )
        assert code == 2
        assert stdout == ""
        assert "alphabet" in stderr

    def test_parse_error_reports_position(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "translate", "--formula", "a U", "--alphabet", "a",
            "--value", "uu", "--out-hoa", str(tmp_path / "x.hoa"),
        )
        assert code == 2
        assert "position 3" in stderr

    def test_requires_an_output(self, capsys):
        code, _, stderr = run(
            capsys,
            "translate", "--formula", "a", "--alphabet", "a", "--value", "uu",
        )
        assert code == 2
        assert "--out-dot" in stderr

    def test_state_cap_exit_code(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "translate", "--formula", "a U b", "--alphabet", "a,b",
            "--value", "uu", "--state-cap", "8",
            "--out-hoa", str(tmp_path / "x.hoa"),
        )
        assert code == 3
        assert "state-space limit exceeded" in stderr

    def test_bad_truth_value(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys,
            "translate", "--formula", "a", "--alphabet", "a",
            "--value", "maybe", "--out-hoa", str(tmp_path / "x.hoa"),
        )
        assert code == 2
        assert "truth value" in stderr

    @pytest.mark.parametrize("flag", ["--out-dot", "--out-hoa"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, flag):
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "X a", "--alphabet", "a",
            "--value", "uu", flag, str(tmp_path / "missing" / "out"),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: cannot write output:")
        assert stderr.count("\n") == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["translate", "--alphabet", "a", "--value", "uu"])
        assert err.value.code == 2


class TestCheck:
    def test_true_verdict(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "t"}})
        )
        code, stdout, _ = run(capsys, "check", "--model", str(path), "--formula", "G a")
        assert code == 0
        assert stdout == "TRUE\n"

    def test_undef_verdict_with_witness(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "u"}})
        )
        code, stdout, _ = run(capsys, "check", "--model", str(path), "--formula", "G a")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "UNDEF"
        assert ";" in lines[1]
        assert set(lines[1].replace(";", "").split()) == {"s0"}

    def test_false_verdict_with_witness(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            model_doc(
                ["s0", "s1"],
                "s0",
                [["s0", "s1"], ["s1", "s1"]],
                {"s0": {"a": "t"}, "s1": {"a": "f"}},
            )
        )
        code, stdout, _ = run(capsys, "check", "--model", str(path), "--formula", "G a")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "FALSE"
        stem_text, loop_text = lines[1].split(";")
        assert "s1" in loop_text.split()

    def test_two_state_false_witness_is_exact(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            model_doc(
                ["s0", "s1"],
                "s0",
                [["s0", "s1"], ["s1", "s1"]],
                {"s0": {"a": "t"}, "s1": {"a": "f"}},
            )
        )
        code, stdout, _ = run(capsys, "check", "--model", str(path), "--formula", "G a")
        assert code == 0
        assert stdout == "FALSE\ns0 ; s1 s1\n"

    def test_state_cap_refused_before_enumeration(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "t"}}))

        def refuse(*args, **kwargs):
            raise RuntimeError("enumerated before the cap check")

        monkeypatch.setattr(elementary, "enumerate_states", refuse)
        monkeypatch.setattr(gnba, "enumerate_states", refuse)
        code, stdout, stderr = run(
            capsys,
            "check", "--model", str(path), "--formula", "a U b", "--state-cap", "8",
        )
        assert code == 3
        assert stdout == ""
        assert stderr == (
            "error: state-space limit exceeded: 3^3 = 27 candidate sets, cap is 8\n"
        )

    def test_formula_atom_outside_alphabet(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"b": "t"}}))
        code, stdout, stderr = run(
            capsys,
            "check", "--model", str(path), "--formula", "a", "--alphabet", "b",
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: formula atom 'a' is not in the alphabet\n"

    def test_malformed_model(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [], {}))
        code, _, stderr = run(capsys, "check", "--model", str(path), "--formula", "G a")
        assert code == 2
        assert "s0" in stderr

    def test_missing_model_file(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "check", "--model", str(tmp_path / "nope.json"), "--formula", "G a"
        )
        assert code == 2
        assert "cannot read model" in stderr

    def test_deeply_nested_model_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, stdout, stderr = run(
            capsys, "check", "--model", str(path), "--formula", "a"
        )
        assert code == 2
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert "nested too deeply" in stderr

    def test_failed_witness_revalidation_is_not_a_usage_error(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "f"}}))
        monkeypatch.setattr(modelcheck, "eval_lasso", lambda psi, word: Truth.TRUE)
        with pytest.raises(RuntimeError, match="witness evaluates") as err:
            main(["check", "--model", str(path), "--formula", "G a"])
        assert not isinstance(err.value, ValueError)


class TestEval:
    def test_next_true(self, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--formula", "X a", "--stem", "", "--loop", "a"
        )
        assert code == 0
        assert stdout == "TRUE\n"

    def test_empty_loop_rejected(self, capsys):
        code, _, stderr = run(
            capsys, "eval", "--formula", "X a", "--stem", "", "--loop", ""
        )
        assert code == 2
        assert "loop" in stderr

    def test_until_with_stem(self, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--formula", "a U b", "--stem", "a", "--loop", "b"
        )
        assert code == 0
        assert stdout == "TRUE\n"

    def test_unknown_verdict(self, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--formula", "G a", "--stem", "", "--loop", "a;"
        )
        assert code == 0
        assert stdout == "UNDEF\n"

    def test_false_verdict(self, capsys):
        code, stdout, _ = run(
            capsys, "eval", "--formula", "X a", "--stem", "a", "--loop", "!a"
        )
        assert code == 0
        assert stdout == "FALSE\n"

    def test_bad_literal(self, capsys):
        code, _, stderr = run(
            capsys, "eval", "--formula", "a", "--stem", "", "--loop", "a,9x"
        )
        assert code == 2
        assert "bad literal" in stderr

    def test_inconsistent_letter(self, capsys):
        code, _, stderr = run(
            capsys, "eval", "--formula", "a", "--stem", "", "--loop", "a,!a"
        )
        assert code == 2
        assert "inconsistent" in stderr

    def test_alphabet_restriction_enforced(self, capsys):
        code, _, stderr = run(
            capsys,
            "eval", "--formula", "a", "--alphabet", "a",
            "--stem", "", "--loop", "b",
        )
        assert code == 2

    def test_stem_flag_is_required(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--formula", "a", "--loop", "a"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "formula",
        ["X " * 1200 + "a", "(" * 500 + "a" + ")" * 500],
        ids=["next-1200", "parens-500"],
    )
    def test_too_deep_formula_is_usage_error(self, capsys, formula):
        code, stdout, stderr = run(
            capsys, "eval", "--formula", formula, "--stem", "", "--loop", "a"
        )
        assert code == 2
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert f"deeper than {MAX_NESTING} levels" in stderr

    @pytest.mark.parametrize(
        "formula, expected",
        [
            ("X " * MAX_NESTING + "a", "TRUE\n"),
            ("(" * MAX_NESTING + "a" + ")" * MAX_NESTING, "TRUE\n"),
            ("G (a -> " * (MAX_NESTING // 3) + "a" + ")" * (MAX_NESTING // 3), "TRUE\n"),
            (" | ".join(["!a"] * MAX_NESTING), "FALSE\n"),
        ],
        ids=["next", "parens", "globally-implies", "or-chain"],
    )
    def test_formula_at_the_nesting_limit(self, capsys, formula, expected):
        code, stdout, _ = run(
            capsys, "eval", "--formula", formula, "--stem", "", "--loop", "a"
        )
        assert code == 0
        assert stdout == expected
