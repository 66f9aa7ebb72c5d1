import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import triltl
from triltl import MAX_NESTING, Truth, gnba, modelcheck, read_hoa
from triltl.cli import main
from helpers import model_doc, validate_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_enumeration(monkeypatch):
    """Make `LazyFamily.walk`, the one route into elementary-set enumeration, raise."""

    def refuse(*args, **kwargs):
        raise RuntimeError("enumerated before the cap check")

    monkeypatch.setattr(gnba.LazyFamily, "walk", refuse)


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

    def test_readme_sample_with_every_derived_operator(self, capsys, tmp_path):
        out = tmp_path / "sugar.hoa"
        code, stdout, _ = run(
            capsys,
            "translate", "--formula", "G (a -> F b) | a R !b & !false",
            "--alphabet", "a,b", "--value", "uu", "--out-hoa", str(out),
        )
        assert code == 0
        assert stdout == "states=78 initial=32 accsets=4\n"
        digest = hashlib.sha1(out.read_bytes()).hexdigest()
        assert digest == "650032bce0a1c48729334b04e29f1d8b3fb48d32"

    def test_summary_counts_one_set_per_until_and_the_full_set(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys,
            "translate", "--formula", "a U b", "--alphabet", "a,b",
            "--value", "top", "--out-hoa", str(tmp_path / "out.hoa"),
        )
        assert code == 0
        assert stdout == "states=13 initial=5 accsets=2\n"

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

    def test_state_cap_refused_before_enumeration(self, capsys, tmp_path, monkeypatch):
        refuse_enumeration(monkeypatch)
        out = tmp_path / "x.hoa"
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "a U b", "--alphabet", "a,b",
            "--value", "uu", "--state-cap", "8", "--out-hoa", str(out),
        )
        assert code == 3
        assert stdout == ""
        assert stderr == (
            "error: state-space limit exceeded: 3^3 = 27 candidate sets, cap is 8\n"
        )
        assert not out.exists()

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

    def test_both_outputs_on_one_file_refused_before_building(
        self, capsys, tmp_path, monkeypatch
    ):
        refuse_enumeration(monkeypatch)
        out = tmp_path / "x"
        # The same file, named once directly and once through a detour.
        (tmp_path / "sub").mkdir()
        detour = tmp_path / "sub" / ".." / "x"
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "a U b", "--alphabet", "a,b",
            "--value", "top", "--out-dot", str(out), "--out-hoa", str(detour),
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: --out-dot and --out-hoa name the same file\n"
        assert not out.exists()

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["translate", "--alphabet", "a", "--value", "uu"])
        assert err.value.code == 2

    def test_colliding_hoa_propositions_refused_before_writing(self, capsys, tmp_path):
        dot, hoa = tmp_path / "x.gv", tmp_path / "x.hoa"
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "a & a__neg", "--alphabet", "a,a__neg",
            "--value", "top", "--out-dot", str(dot), "--out-hoa", str(hoa),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: atoms 'a' and 'a__neg'")
        assert stderr.count("\n") == 1
        assert not dot.exists() and not hoa.exists()
        # DOT has no propositions, so the same alphabet still renders there.
        code, stdout, _ = run(
            capsys,
            "translate", "--formula", "a & a__neg", "--alphabet", "a,a__neg",
            "--value", "top", "--out-dot", str(dot),
        )
        assert code == 0
        assert stdout == "states=9 initial=1 accsets=1\n"
        assert validate_dot(dot.read_text(encoding="utf-8")) == (9, 81)


    @pytest.mark.parametrize("keyword", ["true", "false"])
    def test_constant_keyword_is_no_atom_name(self, capsys, tmp_path, keyword):
        code, stdout, stderr = run(
            capsys,
            "translate", "--formula", "a", "--alphabet", f"a,{keyword}",
            "--value", "t", "--out-dot", str(tmp_path / "out.gv"),
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: bad atom name {keyword!r} in alphabet\n"
        assert not (tmp_path / "out.gv").exists()


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
        assert stdout == "UNDEF\n; s0 s0\n"

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

    def test_invariants_hold_under_python_O(self, tmp_path):
        """`python -O` drops asserts: the sample still prints its witness,
        and a witness the lasso oracle disagrees with still raises."""
        path = tmp_path / "m.json"
        path.write_text(
            model_doc(
                ["s0", "s1"],
                "s0",
                [["s0", "s1"], ["s1", "s1"]],
                {"s0": {"a": "t"}, "s1": {"a": "f"}},
            )
        )
        script = textwrap.dedent(
            """
            import contextlib, io, json, runpy, sys
            path = sys.argv[1]
            sys.argv = ["triltl", "check", "--model", path, "--formula", "G a"]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    runpy.run_module("triltl.cli", run_name="__main__")
                except SystemExit as exc:
                    code = exc.code
            from triltl import Truth, modelcheck, parse_core, parse_model
            modelcheck.eval_lasso = lambda psi, word: Truth.TRUE
            try:
                with open(path, encoding="utf-8") as handle:
                    model = parse_model(handle.read())
                modelcheck.check_model(model, parse_core("G a"))
                raised = None
            except RuntimeError as exc:
                raised = str(exc)
            print(json.dumps([__debug__, code, out.getvalue(), raised]))
            """
        )
        src = str(Path(triltl.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        debug, code, stdout, raised = json.loads(done.stdout)
        assert debug is False
        assert code == 0
        assert stdout == "FALSE\ns0 ; s1 s1\n"
        assert raised == (
            "internal error: witness evaluates to Truth.TRUE, expected Truth.FALSE"
        )

    def test_state_cap_refused_before_enumeration(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {"a": "t"}}))
        refuse_enumeration(monkeypatch)
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

    @pytest.mark.parametrize("keyword", ["true", "false"])
    def test_constant_keyword_is_no_atom_name(self, capsys, tmp_path, keyword):
        path = tmp_path / "m.json"
        path.write_text(model_doc(["s0"], "s0", [["s0", "s0"]], {"s0": {keyword: "t"}}))
        code, stdout, stderr = run(capsys, "check", "--model", str(path), "--formula", "true")
        assert (code, stdout) == (2, "")
        assert stderr == f"error: bad atom name {keyword!r}\n"

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

    def test_model_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, stdout, stderr = run(capsys, "check", "--model", str(path), "--formula", "a")
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: cannot read model: 'utf-8' codec can't decode")
        assert stderr.count("\n") == 1

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

    @pytest.mark.parametrize("keyword", ["true", "false"])
    def test_constant_keyword_is_no_atom_name(self, capsys, keyword):
        code, stdout, stderr = run(
            capsys, "eval", "--formula", "true", "--stem", "", "--loop", f"!{keyword}"
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: bad literal {keyword!r}\n"

    def test_stem_and_loop_letters_are_read_in_order(self, capsys):
        # b appears only in a letter, so the alphabet comes from the letters too.
        for formula in ("a & X !a & X X G a", "X X G !b"):
            code, stdout, _ = run(
                capsys, "eval", "--formula", formula, "--stem", "a;!a", "--loop", "a,!b"
            )
            assert (code, stdout) == (0, "TRUE\n")

    def test_empty_stem_holds_no_letter(self, capsys):
        # One empty letter in the stem would leave a unknown at position 0.
        code, stdout, _ = run(capsys, "eval", "--formula", "a", "--stem", "", "--loop", "a")
        assert (code, stdout) == (0, "TRUE\n")

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
        # Parentheses are no level: inside 500 of them, one X too many.
        ["X " * 1200 + "a", "(" * 500 + "X " * (MAX_NESTING + 1) + "a" + ")" * 500],
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

    def test_deep_parentheses_and_negations_are_accepted(self, capsys):
        formula = "(" * 500 + "!" * 501 + "X " * MAX_NESTING + "a" + ")" * 500
        code, stdout, _ = run(
            capsys, "eval", "--formula", formula, "--stem", "", "--loop", "a"
        )
        assert (code, stdout) == (0, "FALSE\n")
