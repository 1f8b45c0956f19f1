"""Command-line driver: exit codes, JSON output, file round trips."""

import hashlib
import json

import pytest

from jetsym.cli import main
from jetsym.errors import NonlocalObstruction
from jetsym.hierarchy import fs_hierarchy
from jetsym.jetalgebra import DiffPoly
from jetsym.varcalc import ExactnessCertificate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_writes_hierarchy(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        code, stdout, _ = run(capsys, "gen", "--system", "fs", "--n", "3",
                              "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["system"] == "fs"
        assert len(doc["members"]) == 3

    def test_json_byte_stable(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--system", "fs", "--n", "3", "--out", str(out1))
        run(capsys, "gen", "--system", "fs", "--n", "3", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("alpha, size, sha256", [
        (None, 70390,
         "22c74be4acef0f3ffab0c3ff2fd77b7fd18f21585497fc4d5e674a85576f14ae"),
        ("1/3", 53726,
         "768e58fde6b78e039f9dcf772a0718a8c9ee65b73364499edf129e80e5234200"),
    ])
    def test_json_bytes_pinned(self, tmp_path, capsys, alpha, size, sha256):
        out = tmp_path / "h.json"
        flags = ["--alpha", alpha] if alpha else []
        code, _, _ = run(capsys, "gen", "--system", "fs", "--n", "8",
                         "--out", str(out), *flags)
        assert code == 0
        data = out.read_bytes()
        assert data.endswith(b"\n")
        doc = data[:-1]
        assert len(doc) == size
        assert hashlib.sha256(doc).hexdigest() == sha256

    def test_n_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--system", "fs", "--n", "0")
        assert code == 1

    def test_pole_guard(self, capsys):
        code, _, err = run(capsys, "gen", "--system", "fs", "--n", "3",
                           "--alpha", "1/2")
        assert code == 1
        assert "2*alpha - 1" in err

    def test_pole_guard_json(self, capsys):
        code, _, err = run(capsys, "gen", "--system", "fs", "--n", "3",
                           "--alpha", "1/2", "--json")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"]["code"] == "pole"
        assert payload["error"]["denominator"] == "2*alpha - 1"

    def test_ts1_embeds_b_sequence(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", "--system", "ts1", "--n", "5",
                         "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["b_sequence"]) == 5

    def test_unknown_system(self, capsys):
        code, _, err = run(capsys, "gen", "--system", "nope", "--n", "2")
        assert code == 1

    def test_stdout_when_no_out_path(self, capsys):
        code, stdout, _ = run(capsys, "gen", "--system", "ts1", "--n", "2")
        assert code == 0
        assert json.loads(stdout)["system"] == "ts1"

    def test_number_too_long_to_print(self, capsys):
        # a 3,000-digit alpha parses, but K_6 has coefficients past Python's
        # limit of 4,300 printed digits
        code, stdout, err = run(capsys, "gen", "--system", "fs", "--n", "6",
                                "--alpha", "3" * 3000 + "/7", "--json")
        assert code == 4
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "resource"
        assert error["message"].endswith("bits is too long to print")

    def test_nonlocal_exit_code(self, capsys, monkeypatch):
        def boom(n, alpha0=None):
            raise NonlocalObstruction(DiffPoly.constant(1), entry=(0, 0))
        monkeypatch.setattr("jetsym.cli.fs_hierarchy", boom)
        code, _, err = run(capsys, "gen", "--system", "fs", "--n", "3", "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["code"] == "nonlocal"
        assert payload["error"]["entry"] == [0, 0]


class TestVerify:
    def test_fs_pass(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "4", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 0
        assert "overall: PASS" in stdout

    def test_corrupted_member_fails(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "3", "--out", str(out))
        doc = json.loads(out.read_text())
        # corrupt one coefficient of K_3
        doc["members"][2][0][0]["coeff"]["num"] = ["7"]
        out.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 3
        assert "FAIL" in stdout

    def test_ts1_pass_json(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(capsys, "gen", "--system", "ts1", "--n", "4", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--json")
        assert code == 0
        assert json.loads(stdout)["ok"] is True

    def test_specialized_hierarchy_verifies(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "4", "--alpha", "1/3",
            "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out))
        assert code == 0
        assert "overall: PASS" in stdout

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/h.json")
        assert code == 1


class TestCommute:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "3", "--out", str(out))
        code, stdout, _ = run(capsys, "commute", str(out), "--json")
        assert code == 0
        assert json.loads(stdout)["all_zero"] is True


class TestDensities:
    def test_fs_uniqueness(self, capsys):
        code, stdout, _ = run(capsys, "densities", "--system", "fs",
                              "--max-order", "2", "--max-degree", "4", "--json")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["nontrivial_dimension"] == 1

    def test_specialized_run_is_recorded(self, capsys):
        code, stdout, _ = run(capsys, "densities", "--system", "fs",
                              "--max-order", "1", "--max-degree", "2",
                              "--alpha", "1", "--json")
        assert code == 0
        json.loads(stdout)

    def test_third_builtin(self, capsys):
        code, stdout, _ = run(capsys, "densities", "--system", "ts",
                              "--max-order", "0", "--max-degree", "1", "--json")
        assert code == 0
        assert json.loads(stdout)["system"] == "ts"

    def test_cross_check_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr("jetsym.analysis.integrate_dx",
                            lambda f: ExactnessCertificate(DiffPoly(), f))
        code, _, err = run(capsys, "densities", "--system", "fs",
                           "--max-order", "1", "--max-degree", "2", "--json")
        assert code == 1
        assert json.loads(err)["error"]["code"] == "error"

    def test_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", "5")
        code, _, err = run(capsys, "densities", "--system", "fs",
                           "--max-order", "2", "--max-degree", "4", "--json")
        assert code == 4
        assert json.loads(err)["error"]["code"] == "resource"


class TestSubstCheck:
    def test_symbolic(self, capsys):
        code, stdout, _ = run(capsys, "subst-check")
        assert code == 0

    def test_specialized(self, capsys):
        for alpha in ("0", "1/2"):
            code, _, _ = run(capsys, "subst-check", "--alpha", alpha)
            assert code == 0

    def test_json_payload(self, capsys):
        code, stdout, _ = run(capsys, "subst-check", "--json")
        assert code == 0
        assert json.loads(stdout)["ok"] is True


class TestRender:
    def test_round_trip(self, tmp_path, capsys):
        code, text, _ = run(capsys, "render", "--system", "fs")
        assert code == 0
        path = tmp_path / "fs.sys"
        path.write_text(text)
        code2, text2, _ = run(capsys, "render", "--file", str(path))
        assert code2 == 0
        assert text2 == text

    def test_file_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.sys"
        path.write_text("system s\nvars w\neq w_t = q\n")
        code, _, err = run(capsys, "render", "--file", str(path))
        assert code == 1
        assert "unknown identifier" in err

    @pytest.mark.parametrize("name", ["w[5000]", "w_5000"])
    def test_jet_order_overflow(self, tmp_path, capsys, name):
        path = tmp_path / "big.sys"
        path.write_text(f"system s\nvars w\neq w_t = {name}\n")
        code, _, err = run(capsys, "render", "--file", str(path))
        assert code == 1
        assert err.startswith("jetsym: line 3, column 10: jet order out of range")


def _input_file(tmp_path, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


def _hierarchy_file(tmp_path, mutate, n=2):
    doc = fs_hierarchy(n).to_json()
    mutate(doc)
    return _input_file(tmp_path, json.dumps(doc))


BAD_INPUTS = {
    "verify-not-json": lambda p: ["verify", _input_file(p, "{not json")],
    "commute-not-json": lambda p: ["commute", _input_file(p, "{not json")],
    "verify-not-utf8": lambda p: ["verify", _input_file(p, b"\xff\xfe")],
    "verify-json-list": lambda p: ["verify", _input_file(p, "[]")],
    "verify-directory": lambda p: ["verify", str(p)],
    "commute-directory": lambda p: ["commute", str(p)],
    "verify-unknown-system": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.update(system="nosuch"))],
    "commute-unknown-system": lambda p: [
        "commute", _hierarchy_file(p, lambda d: d.update(system="nosuch"))],
    "verify-component-count": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d["members"][1].pop())],
    "commute-component-count": lambda p: [
        "commute", _hierarchy_file(p, lambda d: d["members"][1].pop())],
    "verify-no-members": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.pop("members"))],
    "verify-members-not-list": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.update(members=3))],
    "gen-alpha-exponent": lambda p: [
        "gen", "--system", "fs", "--n", "3", "--alpha", "1e5000"],
    "verify-specialized-at-exponent": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.update(specialized_at="1e5000"), n=4)],
    "verify-specialized-at-huge-exponent": lambda p: [
        "verify", _hierarchy_file(
            p, lambda d: d.update(specialized_at="1e999999999"), n=4)],
    "verify-coefficient-exponent": lambda p: [
        "verify", _hierarchy_file(
            p, lambda d: d["members"][0][0][0]["coeff"].update(num=["1e5000"]))],
    "verify-parameter-differs": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.update(parameter="beta"), n=4)],
    "verify-parameter-missing": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d.pop("parameter"))],
    "verify-depvar-out-of-range": lambda p: [
        "verify", _hierarchy_file(
            p, lambda d: d["members"][0][0][0].update(exps=[[[2, 1], 1]]))],
    "verify-certificate-no-prev": lambda p: [
        "verify", _hierarchy_file(p, lambda d: d["certificates"][0].pop("prev"), n=3)],
    "densities-negative-order": lambda p: [
        "densities", "--system", "fs", "--max-order", "-1"],
    "densities-negative-degree": lambda p: [
        "densities", "--system", "fs", "--max-degree", "-1"],
    "render-directory": lambda p: ["render", "--file", str(p)],
    "render-not-utf8": lambda p: ["render", "--file", _input_file(p, b"\xff\xfe")],
    "render-superscript-order": lambda p: [
        "render", "--file", _input_file(p, "system s\nvars w\neq w_t = w_\u00b2\n")],
    "render-superscript-number": lambda p: [
        "render", "--file", _input_file(p, "system s\nvars w\neq w_t = \u00b2\n")],
    "render-long-literal": lambda p: [
        "render", "--file", _input_file(p, f"system s\nvars w\neq w_t = {'7' * 5000}*w_x\n")],
    "render-long-jet-order": lambda p: [
        "render", "--file", _input_file(p, f"system s\nvars w\neq w_t = w_{'1' * 5000}\n")],
    "render-power-budget": lambda p: [
        "render", "--file", _input_file(p, "system s\nvars w\neq w_t = (w + w_x)^100000\n")],
}


class TestHalfIntegerExponents:
    @pytest.mark.parametrize("exp", ["3/2", "-1/2"])
    def test_commute_exits_cleanly(self, tmp_path, capsys, exp):
        def mutate(doc):
            doc["members"][2][0][0]["exps"][0][1] = exp
        path = _hierarchy_file(tmp_path, mutate, n=3)
        for flags in ((), ("--json",)):
            code, _, err = run(capsys, "commute", path, *flags)
            assert code in (0, 3)
            assert "Traceback" not in err


class TestBadInputs:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_one_json_error_line(self, tmp_path, capsys, case):
        code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path), "--json")
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_gen_requires_system(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "2")
        assert code == 1
