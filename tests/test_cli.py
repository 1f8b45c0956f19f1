"""Command-line driver: exit codes, JSON output, file round trips."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jetsym
from jetsym import hierarchy, varcalc
from jetsym.analysis import commutativity_table, is_symmetry
from jetsym.cli import main
from jetsym.errors import InvalidHierarchy, NonlocalObstruction
from jetsym.hierarchy import Hierarchy, fs_hierarchy, scaling_symmetry
from jetsym.jetalgebra import DiffPoly, EvoField, jet
from jetsym.systems import _BUILTIN_CACHE, _BUILTIN_SOURCES, parse_system
from jetsym.varcalc import ExactnessCertificate, commutator, integrate_dx


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

    def test_step_cap_json(self, capsys):
        # the step to K_20 would read 21,015 terms; every step to K_19 is admitted
        code, stdout, err = run(capsys, "gen", "--system", "fs", "--n", "40", "--json")
        assert (code, stdout) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1
        message = "a recursion step would read 21015 terms, cap is 16000"
        assert json.loads(lines[0]) == {"error": {
            "code": "resource", "message": message, "count": 21015,
            "cap": hierarchy._STEP_TERMS}}

    def test_step_cap_text(self, capsys):
        code, stdout, err = run(capsys, "gen", "--system", "fs", "--n", "40", "--alpha", "1/3")
        assert (code, stdout) == (4, "")
        assert err == "jetsym: a recursion step would read 21015 terms, cap is 16000\n"

    def test_ts1_cap_json(self, capsys):
        # refused before any work: N = 4000 would run for hours
        code, stdout, err = run(capsys, "gen", "--system", "ts1", "--n", "4000", "--json")
        assert (code, stdout) == (4, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": {
            "code": "resource", "message": "a ts1 hierarchy would have 4000 members, cap is 200",
            "count": 4000, "cap": hierarchy._TS1_MEMBERS}}

    def test_ts1_cap_text(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cap must refuse before the recursion")
        monkeypatch.setattr(hierarchy, "triangular_coeffs", refuse)
        code, stdout, err = run(capsys, "gen", "--system", "ts1", "--n", "201", "--alpha", "1/3")
        assert (code, stdout) == (4, "")
        assert err == "jetsym: a ts1 hierarchy would have 201 members, cap is 200\n"

    def test_ts1_at_cap_admitted(self):
        h = hierarchy.ts1_hierarchy(hierarchy._TS1_MEMBERS, Fraction(1, 3))
        assert len(h.members) == hierarchy._TS1_MEMBERS

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

    def test_one_family_matches_one_pair_references(self, tmp_path, capsys):
        # K_3^1 + w fails a symmetry, a table and a scaling check at once:
        # each bracket of verify's one family must equal its one-pair form
        h = fs_hierarchy(4)
        k3 = h.member(3)
        k3 = EvoField((k3[0] + DiffPoly.var(jet(0, 0)), k3[1]))
        bad = Hierarchy(h.system, h.members[:2] + (k3,) + h.members[3:], h.provenance,
                        h.certificates)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        code, stdout, _ = run(capsys, "verify", str(path), "--json")
        assert code == 3
        checks = {c["name"]: c for c in json.loads(stdout)["checks"]}

        def as_read(form):
            return json.loads(json.dumps(form))

        symmetry = [is_symmetry(bad.member(n), bad.system) for n in range(1, 5)]
        assert [n for n, res in enumerate(symmetry, 1) if not res.ok] == [3]
        for n, res in enumerate(symmetry, 1):
            check = checks[f"symmetry K_{n}"]
            assert check["status"] == ("pass" if res.ok else "fail")
            assert check.get("defect") == (None if res.ok else as_read(res.defect.to_json()))
        failures = commutativity_table(bad).failures
        assert [p for p, _ in failures] == [(2, 3), (3, 4)]
        check = checks["pairwise commutativity"]
        assert check["detail"] == "nonzero at " + ", ".join(str(p) for p, _ in failures)
        assert check["defect"] == as_read(failures[0][1].to_json())
        s = scaling_symmetry()
        scaled = [(commutator(s, bad.member(n)) - bad.member(n).scalar_mul(n)).is_zero
                  for n in range(1, 5)]
        assert scaled == [True, True, False, True]
        for n, ok in enumerate(scaled, 1):
            check = checks[f"scaling homogeneity [S, K_{n}] = {n} K_{n}"]
            assert check["status"] == ("pass" if ok else "fail")
        # its w-part is 1, so the Im D_x check of K_3^1 integrates it itself
        cert = integrate_dx(bad.member(3)[0])
        check = checks["K_3^1 lies in Im D_x"]
        assert check["status"] == "fail"
        assert check["defect"] == as_read(cert.remainder.to_json())
        assert checks["K_4^1 lies in Im D_x"]["status"] == "pass"


#: every check name of ``verify`` on a hierarchy of 9 members, in order
FS9_CHECKS = ([f"symmetry K_{n}" for n in range(1, 10)] + ["pairwise commutativity"]
              + [f"structural form K_{n}" for n in range(1, 10)]
              + [f"scaling homogeneity [S, K_{n}] = {n} K_{n}" for n in range(1, 10)]
              + [f"density decomposition of K_{n}^1 has zero w-part" for n in range(1, 10)]
              + [f"Im D_x certificates for step {n}" for n in range(3, 10)]
              + ["K_8^1 lies in Im D_x", "K_9^1 lies in Im D_x"])
TS1_9_CHECKS = ([f"symmetry K_{n}" for n in range(1, 10)] + ["pairwise commutativity"]
                + [f"structural form K_{n}" for n in range(1, 10)]
                + ["triangular leading coefficients", "b recurrence"])


class TestExceptionalValues:
    """The verdicts of verify at the exceptional parameter values, where a
    K_n loses its leading u_n (w_n) term: alpha = -1 for fs, a = 1/3 and
    a = 0 for ts1.  Only the check names and statuses are pinned, not the
    detail text."""

    @pytest.mark.parametrize("system, alpha, names, failing", [
        ("fs", "-1", FS9_CHECKS, (3, 9)),
        ("ts1", "1/3", TS1_9_CHECKS, (3, 9)),
        ("ts1", "0", TS1_9_CHECKS, (2, 6)),
    ])
    def test_verdicts_pinned(self, tmp_path, capsys, system, alpha, names, failing):
        out = tmp_path / "h.json"
        code, _, _ = run(capsys, "gen", "--system", system, "--n", "9", f"--alpha={alpha}",
                         "--out", str(out))
        assert code == 0
        code, stdout, err = run(capsys, "verify", str(out), "--json")
        assert code == 3
        failed = {f"structural form K_{n}" for n in failing}
        assert [(c["name"], c["status"]) for c in json.loads(stdout)["checks"]] == [
            (name, "fail" if name in failed else "pass") for name in names]
        assert json.loads(err)["error"]["message"] == \
            f"verification failed at: structural form K_{failing[0]}"


#: every check name of ``verify`` on an fs hierarchy of 4 members, in order
FS4_CHECKS = ([f"symmetry K_{n}" for n in range(1, 5)] + ["pairwise commutativity"]
              + [f"structural form K_{n}" for n in range(1, 5)]
              + [f"scaling homogeneity [S, K_{n}] = {n} K_{n}" for n in range(1, 5)]
              + [f"density decomposition of K_{n}^1 has zero w-part" for n in range(1, 5)]
              + ["Im D_x certificates for step 3", "Im D_x certificates for step 4",
                 "K_3^1 lies in Im D_x", "K_4^1 lies in Im D_x"])


class TestExplicitXT:
    """A member whose first component depends on x or t fails the checks
    that need an x,t-free input, with a full report, as a ts1 member does."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("gen", ["x", "t"])
    def test_fs_member_fails_its_checks(self, tmp_path, capsys, n, gen):
        path = _hierarchy_file(tmp_path, lambda d: d["members"][n - 1][0][0]["exps"].append(
            [gen, 1]), n=4)
        code, stdout, err = run(capsys, "verify", path, "--json")
        assert code == 3
        failed = {f"symmetry K_{n}", "pairwise commutativity", f"structural form K_{n}",
                  f"scaling homogeneity [S, K_{n}] = {n} K_{n}",
                  f"density decomposition of K_{n}^1 has zero w-part", f"K_{n}^1 lies in Im D_x"}
        if n == 3:
            failed.add("Im D_x certificates for step 4")  # it reads K_3^1
        checks = json.loads(stdout)["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            (name, "fail" if name in failed else "pass") for name in FS4_CHECKS]
        details = {c["name"]: c["detail"] for c in checks}
        assert details[f"density decomposition of K_{n}^1 has zero w-part"] == \
            "decomposition needs x,t-free input"
        assert details[f"K_{n}^1 lies in Im D_x"] == "D_x^{-1} needs an x,t-free input"
        assert json.loads(err)["error"]["message"] == f"verification failed at: symmetry K_{n}"

    def test_ts1_member_reports_too(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(capsys, "gen", "--system", "ts1", "--n", "4", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["members"][2][0][0]["exps"].append(["x", 1])
        out.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "verify", str(out), "--json")
        assert code == 3
        assert len(json.loads(stdout)["checks"]) == 11


#: the term w^e w_x, appended to K_4^1: D_x^{-1} of it is log w at e = -1
def _w_power_times_w_x(e):
    return lambda d: d["members"][3][0].append(
        {"exps": [[[0, 0], e], [[0, 1], 1]], "coeff": {"num": ["1"], "den": ["1"]}})


class TestLogarithm:
    """A K_n^1 whose integration meets a logarithm fails its density
    decomposition and its Im D_x check with the reason, and verify still
    reports in full, as for explicit x or t."""

    LOG = "integration in a single generator hit exponent -1, a logarithm"
    CHECKS = ("density decomposition of K_4^1 has zero w-part", "K_4^1 lies in Im D_x")

    @pytest.mark.parametrize("e, status", [(-1, "fail"), (-2, "pass")])
    def test_json_report(self, tmp_path, capsys, e, status):
        # w_x/w has no antiderivative; w_x/w^2 = D_x(-1/w) has one
        path = _hierarchy_file(tmp_path, _w_power_times_w_x(e), n=4)
        code, stdout, err = run(capsys, "verify", path, "--json")
        assert code == 3
        failed = {"symmetry K_4", "pairwise commutativity", "scaling homogeneity [S, K_4] = 4 K_4"}
        if status == "fail":
            failed.update(self.CHECKS)
        checks = json.loads(stdout)["checks"]
        assert [(c["name"], c["status"]) for c in checks] == [
            (name, "fail" if name in failed else "pass") for name in FS4_CHECKS]
        details = {c["name"]: c["detail"] for c in checks}
        assert [details[name] for name in self.CHECKS] == [
            self.LOG if status == "fail" else ""] * 2
        assert json.loads(err)["error"]["message"] == "verification failed at: symmetry K_4"

    def test_text_report(self, tmp_path, capsys):
        path = _hierarchy_file(tmp_path, _w_power_times_w_x(-1), n=4)
        code, stdout, err = run(capsys, "verify", path)
        assert code == 3
        lines = stdout.splitlines()
        for name in self.CHECKS:
            assert f"[FAIL] {name}  {self.LOG}" in lines
        assert lines[-1] == "overall: FAIL"
        assert err == "jetsym: verification failed at: symmetry K_4\n"
        assert run(capsys, "commute", path)[0] == 3


def _specialized_at(value):
    return lambda d: d.update(specialized_at=value)


def _alpha_in_member(d):
    d["members"][2][0][0]["coeff"]["num"].append("1")


def _alpha_in_certificate(d):
    d["certificates"][1]["prevprev"][0]["coeff"]["num"].append("1")


def _alpha_in_denominator(d):
    d["members"][1][1][0]["coeff"].update(num=["1"], den=["-1", "2"])


class TestSpecializedAt:
    """A hierarchy specialized at a parameter value holds only constant
    coefficients: a member, certificate or b_sequence coefficient that
    still depends on the parameter is a parse error."""

    @pytest.mark.parametrize("command", ["verify", "commute"])
    @pytest.mark.parametrize("value", ["1/2", "1/3"])
    def test_symbolic_file_marked_specialized(self, tmp_path, capsys, command, value):
        # 1/2 is the pole of the symbolic coefficients; 1/3 is no pole
        path = _hierarchy_file(tmp_path, _specialized_at(value), n=4)
        code, stdout, err = run(capsys, command, path, "--json")
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": {"code": "parse", "message":
                                             f"specialized at alpha = {value}, but a "
                                             f"coefficient depends on alpha"}}

    @pytest.mark.parametrize("command", ["verify", "commute"])
    @pytest.mark.parametrize("mutate", [_alpha_in_member, _alpha_in_certificate,
                                        _alpha_in_denominator])
    def test_one_coefficient_depends_on_alpha(self, tmp_path, capsys, command, mutate):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "4", "--alpha", "1/3", "--out", str(out))
        assert run(capsys, command, str(out))[0] == 0
        doc = json.loads(out.read_text())
        mutate(doc)
        out.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, command, str(out))
        assert (code, stdout) == (1, "")
        assert err == "jetsym: specialized at alpha = 1/3, but a coefficient depends on alpha\n"

    @pytest.mark.parametrize("command", ["verify", "commute"])
    def test_b_sequence_depends_on_a(self, tmp_path, capsys, command):
        out = tmp_path / "g.json"
        run(capsys, "gen", "--system", "ts1", "--n", "4", "--alpha", "2/7", "--out", str(out))
        assert run(capsys, command, str(out))[0] == 0
        doc = json.loads(out.read_text())
        doc["b_sequence"][3]["num"].append("1")
        out.write_text(json.dumps(doc))
        code, _, err = run(capsys, command, str(out), "--json")
        assert code == 1
        assert json.loads(err)["error"] == {
            "code": "parse", "message": "specialized at a = 2/7, but a coefficient depends on a"}


def _k1_term(d):
    """The one term of K_1^1 = w_x."""
    return d["members"][0][0][0]


def _coefficient(value):
    return lambda d: _k1_term(d)["coeff"].update(num=[value])


class TestStrictJson:
    """A hierarchy file holds JSON integers for jet indices, never booleans,
    and each coefficient as a string in the ASCII grammar that
    ``rational_text`` writes, p or p/q; anything else is a parse error
    (exit 1), not a number read leniently."""

    def _refused(self, capsys, path, command="verify"):
        code, stdout, err = run(capsys, command, path, "--json")
        assert (code, stdout) == (1, "")
        assert json.loads(err)["error"]["code"] == "parse"
        assert run(capsys, command, path)[0] == 1

    @pytest.mark.parametrize("command", ["verify", "commute"])
    def test_boolean_jet_and_coefficient(self, tmp_path, capsys, command):
        # read as w_x with coefficient 1, this file verified with exit 0
        def mutate(d):
            _k1_term(d).update(exps=[[[False, True], 1]], coeff={"num": [True], "den": ["1"]})
        self._refused(capsys, _hierarchy_file(tmp_path, mutate, n=4), command)

    @pytest.mark.parametrize("exps", [[[[False, 1], 1]], [[[0, True], 1]],
                                      [[[0, 1, 0], 1]], [[[0, 1], True]]])
    def test_boolean_or_malformed_jet(self, tmp_path, capsys, exps):
        self._refused(capsys, _hierarchy_file(
            tmp_path, lambda d: _k1_term(d).update(exps=exps), n=4))

    @pytest.mark.parametrize("value", [
        "\u0663", "1_0", "0_1", " 1", "1 ", "1\n", "+1", "1.0", "0.5", "1/ 2", "1/+2",
        "\u0661/\u0662", "0x1", "", "-", "1/", "/2", 1, 1.0, True, False, None, ["1"]])
    def test_lenient_coefficient(self, tmp_path, capsys, value):
        self._refused(capsys, _hierarchy_file(tmp_path, _coefficient(value), n=4))

    @pytest.mark.parametrize("field", ["num", "den"])
    def test_coefficients_not_a_list(self, tmp_path, capsys, field):
        # a string would be read digit by digit as a polynomial
        self._refused(capsys, _hierarchy_file(
            tmp_path, lambda d: _k1_term(d)["coeff"].update({field: "12"}), n=4))

    @pytest.mark.parametrize("value", ["\u0663", "1_0", " 1/3", "0.5", True, 1])
    def test_lenient_specialized_at(self, tmp_path, capsys, value):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "4", "--alpha", "1/3", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["specialized_at"] = value
        out.write_text(json.dumps(doc))
        self._refused(capsys, str(out))

    def test_boolean_step(self, tmp_path, capsys):
        self._refused(capsys, _hierarchy_file(
            tmp_path, lambda d: d["certificates"][0].update(n=True), n=4))

    @pytest.mark.parametrize("value", [
        "seed", "abc", ["seed", "seed", "recursion"], ["seed"] * 5, [], [1, 2, 3, 4],
        ["seed", "seed", "recursion", None], ["seed", "seed", "recursion", ["x"]], None, {}])
    def test_provenance_not_one_string_per_member(self, tmp_path, capsys, value):
        # "seed" was read as the four provenances ('s', 'e', 'e', 'd')
        path = _hierarchy_file(tmp_path, lambda d: d.update(provenance=value), n=4)
        self._refused(capsys, path)
        assert json.loads(run(capsys, "verify", path, "--json")[2])["error"]["message"] \
            == "provenance must be a list of strings, one per member"

    @pytest.mark.parametrize("value", [["a", "", "seed", "é"], "absent"])
    def test_provenance_is_read(self, tmp_path, capsys, value):
        def mutate(d):
            if value == "absent":
                del d["provenance"]
            else:
                d["provenance"] = value
        path = _hierarchy_file(tmp_path, mutate, n=4)
        assert run(capsys, "verify", path)[0] == 0
        h = Hierarchy.from_json(json.loads(Path(path).read_text()))
        assert h.provenance == (() if value == "absent" else tuple(value))

    @pytest.mark.parametrize("command", ["verify", "commute"])
    @pytest.mark.parametrize("value", [None, [], [{"num": ["1"], "den": ["1"]}]])
    def test_b_sequence_in_fs_file(self, tmp_path, capsys, command, value):
        # only ts1 reads a b_sequence; an fs file's was read and then ignored
        path = _hierarchy_file(tmp_path, lambda d: d.update(b_sequence=value), n=4)
        self._refused(capsys, path, command)
        assert json.loads(run(capsys, command, path, "--json")[2])["error"]["message"] \
            == "system fs has no b_sequence"

    def test_b_sequence_in_ts_file(self):
        doc = dict(fs_hierarchy(2).to_json(), system="ts")
        assert Hierarchy.from_json(doc).system.name == "ts"
        with pytest.raises(InvalidHierarchy, match="^system ts has no b_sequence$"):
            Hierarchy.from_json(dict(doc, b_sequence=[{"num": ["1"], "den": ["1"]}]))

    @pytest.mark.parametrize("command", ["verify", "commute"])
    @pytest.mark.parametrize("cut", ["first", "all but last", "extended", "empty"])
    def test_b_sequence_not_one_per_member(self, tmp_path, capsys, command, cut):
        # with one entry or none, the leading-coefficient check compared
        # nothing past b_1 and "b recurrence" was dropped: verify exited 0
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "ts1", "--n", "5", "--out", str(out))
        assert run(capsys, "verify", str(out))[0] == 0
        doc = json.loads(out.read_text())
        bs = doc["b_sequence"]
        doc["b_sequence"] = {"first": bs[:1], "all but last": bs[:-1],
                             "extended": bs + bs[-1:], "empty": []}[cut]
        out.write_text(json.dumps(doc))
        self._refused(capsys, str(out), command)
        assert json.loads(run(capsys, command, str(out), "--json")[2])["error"]["message"] \
            == "b_sequence must have one entry per member"

    @pytest.mark.parametrize("value, code", [("1", 0), ("-3/4", 3), ("6/8", 3)])
    def test_grammar_is_read(self, tmp_path, capsys, value, code):
        # the grammar itself is read: 1 is K_1 unchanged, and any other
        # coefficient is parsed, so the checks fail instead
        assert run(capsys, "verify", _hierarchy_file(tmp_path, _coefficient(value), n=4))[0] \
            == code


class TestCommute:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "h.json"
        run(capsys, "gen", "--system", "fs", "--n", "3", "--out", str(out))
        code, stdout, _ = run(capsys, "commute", str(out), "--json")
        assert code == 0
        assert json.loads(stdout)["all_zero"] is True

    def test_failure_has_one_diagnostic(self, tmp_path, capsys):
        # K_3 + (0, z_x) commutes with neither K_2 nor K_4; like verify and
        # subst-check, commute names the first failure on stderr
        def mutate(doc):
            doc["members"][2][1].append(doc["members"][0][1][0])
        path = _hierarchy_file(tmp_path, mutate, n=4)
        code, stdout, err = run(capsys, "commute", path)
        assert (code, stdout) == (3, "members: 4\nnonzero commutator at (2, 3)\n"
                                     "nonzero commutator at (3, 4)\ncommutativity FAILED\n")
        assert err == "jetsym: commutativity failed at: (2, 3)\n"
        code, stdout, err = run(capsys, "commute", path, "--json")
        assert (code, stdout) == (3, '{"size":4,"all_zero":false,"nonzero_pairs":[[2,3],[3,4]]}\n')
        assert err == '{"error":{"code":"check-failed","message":"commutativity failed at: ' \
                      '(2, 3)"}}\n'


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
    # mutate the document as a file holds it: to_json() shares parts among places
    doc = json.loads(json.dumps(fs_hierarchy(n).to_json()))
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


def _deep_k3_product(doc):
    # K_3^1's term 6*w_x*z^2 becomes 6*w_4095*z^2
    [term] = [t for t in doc["members"][2][0] if t["exps"] == [[[0, 1], 1], [[1, 0], 2]]]
    term["exps"][0][0][1] = 4095


# a member jet near the top order makes a bracket expand D_x^k of another
# member for k near that order, and a system jet near it makes the Euler
# operator do so on D_t m; a nonlinear one makes D_x^{-1} integrate by
# parts that many times, each D_x growing the terms
DEEP_INPUTS = {
    "verify-k1-top-order": lambda p: ["verify", _hierarchy_file(p, _top_order_k1)],
    "commute-k3-order-4091": lambda p: ["commute", _hierarchy_file(p, _deep_k3, n=3)],
    "verify-k3-product-order-4095": lambda p: [
        "verify", _hierarchy_file(p, _deep_k3_product, n=3)],
    "commute-k3-product-order-4095": lambda p: [
        "commute", _hierarchy_file(p, _deep_k3_product, n=3)],
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
