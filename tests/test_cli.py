"""Command-line driver: exit codes, JSON output, file round trips."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jetsym
from jetsym import varcalc
from jetsym.cli import main
from jetsym.errors import NonlocalObstruction
from jetsym.hierarchy import fs_hierarchy
from jetsym.jetalgebra import DiffPoly
from jetsym.systems import _BUILTIN_CACHE, _BUILTIN_SOURCES, parse_system
from jetsym.varcalc import ExactnessCertificate


#: size and sha256 of ``gen --system fs --n 8``, symbolic
FS8_PIN = (70390, "22c74be4acef0f3ffab0c3ff2fd77b7fd18f21585497fc4d5e674a85576f14ae")


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
        (None, *FS8_PIN),
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

    def test_optimized_python(self, tmp_path):
        # python -O strips assert statements: gen, verify, the bracket and
        # the density search must not need them
        src = str(Path(jetsym.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = tmp_path / "h.json"
        jetsym_o = [sys.executable, "-O", "-m", "jetsym"]
        gen = subprocess.run(jetsym_o + ["gen", "--system", "fs", "--n", "8", "--out", str(out)],
                             capture_output=True, env=env, timeout=300)
        assert gen.returncode == 0
        doc = out.read_bytes()[:-1]
        assert (len(doc), hashlib.sha256(doc).hexdigest()) == FS8_PIN
        verify = subprocess.run(jetsym_o + ["verify", "--json", str(out)],
                                capture_output=True, env=env, timeout=300)
        assert verify.returncode == 0
        for args in (["commute", str(out)],
                     ["densities", "--system", "fs", "--max-order", "2", "--max-degree", "4"]):
            plain, optimized = (subprocess.run(cmd + args, capture_output=True, env=env,
                                               timeout=300)
                                for cmd in ([sys.executable, "-m", "jetsym"], jetsym_o))
            assert plain.returncode == optimized.returncode == 0
            assert optimized.stdout == plain.stdout

    @pytest.mark.parametrize("alpha, size, sha256", [
        (None, 2740,
         "784ede03944ed4f7b12fea99a8cf58e5c4563af020e360a1f2dea79cf0faef57"),
        ("1/3", 2356,
         "64a76655aa408ac18b4a555f98bd5ff1913e3a65d2e5701f50d374b302b5d9a8"),
        ("3", 2360,
         "ea13c4148429af1015a22f92cef9ab90d31346c81f2a17aa4a2e266a3436928c"),
    ])
    def test_ts1_json_bytes_pinned(self, tmp_path, capsys, alpha, size, sha256):
        out = tmp_path / "g.json"
        flags = ["--alpha", alpha] if alpha else []
        code, _, _ = run(capsys, "gen", "--system", "ts1", "--n", "8",
                         "--out", str(out), *flags)
        assert code == 0
        doc = out.read_bytes()[:-1]
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

    @pytest.mark.parametrize("command", ["verify", "commute"])
    def test_no_members_is_a_parse_error(self, tmp_path, capsys, command):
        # it used to pass verify after one check, and commute with size 0
        path = _hierarchy_file(tmp_path, lambda d: d.update(members=[]))
        code, stdout, err = run(capsys, command, path)
        assert (code, stdout) == (1, "")
        assert err == "jetsym: a hierarchy needs at least one member\n"
        code, stdout, err = run(capsys, command, path, "--json")
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": {
            "code": "parse", "message": "a hierarchy needs at least one member"}}


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

    @pytest.mark.parametrize("order, degree, count", [
        ("2", "60", 90858768),  # building the monomials would exhaust memory
        ("4095", str(10 ** 18), None),  # a count past 2^64 is not formed
    ])
    def test_cap_checked_before_enumeration(self, capsys, order, degree, count):
        code, stdout, err = run(capsys, "densities", "--system", "fs",
                                "--max-order", order, "--max-degree", degree, "--json")
        assert code == 4
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "resource"
        assert error["count"] == count

    def test_cap_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", "5")
        code, _, err = run(capsys, "densities", "--system", "fs",
                           "--max-order", "2", "--max-degree", "4", "--json")
        assert code == 4
        assert json.loads(err)["error"]["code"] == "resource"

    @pytest.mark.parametrize("value", ["abc", "1.5", "-5", " 12", "9" * 5000])
    def test_cap_setting_must_be_a_natural_number(self, capsys, monkeypatch, value):
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", value)
        code, stdout, err = run(capsys, "densities", "--system", "fs",
                                "--max-order", "0", "--max-degree", "1", "--json")
        assert code == 1
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "usage"

    def test_cap_setting_is_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("JETSYM_MAX_UNKNOWNS", "12")
        code, stdout, _ = run(capsys, "densities", "--system", "fs",
                              "--max-order", "0", "--max-degree", "1", "--json")
        assert code == 0
        assert json.loads(stdout)["unknowns"] == 3
        code, _, err = run(capsys, "densities", "--system", "fs",
                           "--max-order", "2", "--max-degree", "4", "--json")
        assert code == 4
        assert json.loads(err)["error"]["cap"] == 12


class TestPinnedStdout:
    """sha256 of the whole stdout, trailing newline included."""

    @pytest.mark.parametrize("system, size, sha256", [
        ("fs", 21703,
         "6ffc2d6cc55feb10b94caede11d576db5fbafae8c40d148ac0d435def0b2d891"),
        ("ts1", 21704,
         "745bc96389fd1f1835f86a6cdff3ff3b35ac8cb9406d92f9a778eda6168fe59d"),
    ])
    def test_densities(self, capsys, system, size, sha256):
        code, stdout, _ = run(capsys, "densities", "--system", system,
                              "--max-order", "2", "--max-degree", "4", "--json")
        assert code == 0
        data = stdout.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("extra, size, sha256", [
        # top order 3 changes the jet-order term of the density height bound
        (("--max-order", "3", "--max-degree", "4"), 89702,
         "0fe24afac61f398236c407dd66d15200f3b564fc380f065fc4319ef60be6f234"),
        # every rhs coefficient a multiple of 1/3: the images are unscaled by 1/3
        (("--max-order", "2", "--max-degree", "4", "--alpha", "1/3"), 21703,
         "6ffc2d6cc55feb10b94caede11d576db5fbafae8c40d148ac0d435def0b2d891"),
    ])
    def test_densities_fs(self, capsys, extra, size, sha256):
        code, stdout, _ = run(capsys, "densities", "--system", "fs", *extra, "--json")
        assert code == 0
        data = stdout.encode()
        assert len(data) == size
        assert hashlib.sha256(data).hexdigest() == sha256

    def test_verify(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "6", "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out), "--json")
        assert code == 0
        data = stdout.encode()
        assert len(data) == 2378
        assert hashlib.sha256(data).hexdigest() == \
            "75ffa931b06c5e479f84173bda8f8f0029ae874a2448ff744ffaacf6793832a4"


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

    def test_mutated_fs_fails(self, capsys, monkeypatch):
        # fs with 8*w*w_x changed to 7*w*w_x: the defect is w*w_x, in the fs names
        source = _BUILTIN_SOURCES["fs"]
        monkeypatch.setitem(_BUILTIN_CACHE, "fs",
                            parse_system(source.replace("8*w*w_x", "7*w*w_x")))
        code, stdout, err = run(capsys, "subst-check")
        assert code == 3
        assert stdout == "substitution identity FAILED:\n(1)*w*w_x\n(0)\n"
        assert err == "jetsym: substitution identity failed\n"
        code, stdout, err = run(capsys, "subst-check", "--json")
        assert code == 3
        payload = json.loads(stdout)
        assert payload["ok"] is False
        assert payload["defects"] == [
            [{"exps": [[[0, 0], 1], [[0, 1], 1]], "coeff": {"num": ["1"], "den": ["1"]}}],
            []]
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "check-failed"


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
    "render-product-budget": lambda p: [
        "render", "--file", _input_file(
            p, "system s\nvars w z\neq w_t = "
            + "*".join(["(w + w_x + w_xx + z + z_x)^4"] * 10) + "\neq z_t = z_x\n")],
    "render-zero-denominator": lambda p: [
        "render", "--file", _input_file(p, "system s\nvars w\neq w_t = 1/0*w\n")],
    "densities-long-order": lambda p: [
        "densities", "--system", "fs", "--max-order", "4096"],
    "densities-jet-order-4096": lambda p: [
        "densities", "--file", _input_file(p, "system s\nvars w\neq w_t = w[4096]\n")],
    "commute-jet-order-4096": lambda p: [
        "commute", _hierarchy_file(
            p, lambda d: d["members"][0][0][0].update(exps=[[[0, 4096], 1]]))],
}


def _top_order_k1(doc):
    doc["members"][0][0][0]["exps"] = [[[0, 4095], 1]]


def _top_order_certificate(doc):
    doc["certificates"][0]["prev"][0]["exps"] = [[[0, 4095], 1]]


# verify on a top-order K_1 would need D_x^4095 of the fs rhs and stops at
# the D_x growth bound first (TestDxBudget), so it meets the ceiling in
# a certificate's D_x instead
TOP_ORDER_INPUTS = {
    "densities": lambda p: [
        "densities", "--file", _input_file(p, "system s\nvars w\neq w_t = w[4095]\n"),
        "--max-order", "1", "--max-degree", "1"],
    "commute": lambda p: ["commute", _hierarchy_file(p, _top_order_k1)],
    "verify": lambda p: ["verify", _hierarchy_file(p, _top_order_certificate, n=3)],
}


class TestJetOrderCeiling:
    """Inputs of the top jet order 4095 are valid; D_x past it is a resource limit."""

    @pytest.mark.parametrize("case", TOP_ORDER_INPUTS)
    def test_dx_past_the_top_order(self, tmp_path, capsys, case):
        code, stdout, err = run(capsys, *TOP_ORDER_INPUTS[case](tmp_path), "--json")
        assert (code, stdout) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": {"code": "resource", "message": "jet order out of range: 4096"}}


def _deep_k3(doc):
    doc["members"][2][0][0]["exps"] = [[[0, 4091], 1]]


# a member jet near the top order makes a bracket expand D_x^k of another
# member for k near that order, and a system jet near it makes the Euler
# operator do so on D_t m
DEEP_INPUTS = {
    "verify-k1-top-order": lambda p: ["verify", _hierarchy_file(p, _top_order_k1)],
    "commute-k3-order-4091": lambda p: ["commute", _hierarchy_file(p, _deep_k3, n=3)],
    "densities-product-order-4094": lambda p: [
        "densities", "--file", _input_file(p, "system s\nvars w\neq w_t = w[4094]*w\n"),
        "--max-order", "1", "--max-degree", "2"],
}


class TestDxBudget:
    """D_x stops at its growth bound with a resource error, before the work."""

    @pytest.mark.parametrize("case", DEEP_INPUTS)
    def test_deep_jet_exits_4(self, tmp_path, capsys, case):
        code, stdout, err = run(capsys, *DEEP_INPUTS[case](tmp_path), "--json")
        assert (code, stdout) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["code"] == "resource"
        assert error["budget"] == varcalc._GAIN_BITS < error["bits"]
        assert error["message"] == \
            f"D_x growth bound needs {error['bits']} bits, budget is {error['budget']}"


class TestHalfIntegerExponents:
    """Exponents are nonzero ints; the old "k/2" form is malformed."""

    @pytest.mark.parametrize("exp", ["3/2", "-1/2", 1.5, True])
    def test_commute_exits_cleanly(self, tmp_path, capsys, exp):
        def mutate(doc):
            doc["members"][2][0][0]["exps"][0][1] = exp
        path = _hierarchy_file(tmp_path, mutate, n=3)
        code, stdout, err = run(capsys, "commute", path, "--json")
        assert code == 1
        assert stdout == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["code"] == "parse"


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

    def test_python_dash_m(self, capsys):
        src = str(Path(jetsym.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "jetsym", "render", "--system", "fs"],
                              capture_output=True, text=True, env=env, timeout=60)
        code, stdout, _ = run(capsys, "render", "--system", "fs")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, "")

    def test_gen_requires_system(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "2")
        assert code == 1
