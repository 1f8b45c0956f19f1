"""Seeded fuzz of the CLI's input files: every outcome is an exit code.

Mutations of a ``gen --system fs --n 3`` hierarchy and of the ``fs``
system text go through ``cli.main`` in-process, and so do ``gen --system
fs`` and ``gen --system ts1`` runs at an oversized ``--n``.  A system
text mutation may also replace one factor of a right-hand side with a
number literal too long to parse, a power past the expansion budget of
``^``, a chain of ``*`` past that budget or a jet of order 4093-4095; a
hierarchy mutation may set the jet order of a member or a certificate to
4090-4095.  Each run must return one of the documented exit codes 0-4,
print no traceback and take at most ``CASE_CPU_S`` of CPU, so an
unbounded path shows as a failure, not as a slow suite.  A separate draw puts an x or t factor into one
member or certificate term of a ``gen --system fs --n 4`` hierarchy, and
``verify`` must fail a check on it (exit 3).  Another writes a boolean
for one jet index, or a numeral that Python would read leniently for one
coefficient text, and ``verify`` or ``commute`` must refuse the file as
a parse error (exit 1).  A last draw replaces the provenance of a ``gen
--system fs --n 4`` hierarchy with anything but one string per member, or
gives the file a ``b_sequence``, which only ts1 reads; ``verify --json``
must refuse it the same way.  So must it refuse a ``gen --system fs --n 5``
hierarchy with one certificate dropped, repeated or swapped with another,
and a ``gen --system ts1 --n 4`` hierarchy given one: an fs file carries
one certificate per recursion step, in order, and no other file has any.
"""

import copy
import json
import random
import re
import time

from fractions import Fraction

import pytest

from jetsym.cli import main
from jetsym.hierarchy import fs_hierarchy, ts1_hierarchy
from jetsym.systems import builtin_system, render_system

SEED = 20081
CASES = 100  # per input kind
XT_CASES = 50

#: most CPU seconds (``time.process_time``) that one case may take; the
#: slowest takes well under one
CASE_CPU_S = 10

#: replacement values for a retyped JSON node
RETYPED = (None, True, 0, -1, 2, 1.5, 10 ** 6, "", "x", "1/0", "w", [], [[]], {},
           {"num": ["1"], "den": ["0"]})

#: values that a lenient reader (int(), Fraction(), a JSON number) takes
#: for a number, each from a coefficient text t in the grammar p or p/q;
#: none is in that grammar
LENIENT = (
    lambda t: t.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                      "\u0665\u0666\u0667\u0668\u0669")),
    lambda t: re.sub(r"([0-9]+)", r"0_\1", t, count=1),
    lambda t: f" {t}",
    lambda t: f"{t}\n",
    lambda t: "+" + t.lstrip("-"),
    lambda t: re.sub(r"([0-9]+)", r"\1.0", t, count=1),
    lambda t: int(Fraction(t)),
    lambda t: True,
    lambda t: False,
)

#: replacement tokens for a system text
TOKENS = ("w", "z_x", "w[3]", "^", "*", "+", "-", "(", ")", "=", "9999", "1/0", "0",
          "alpha", "w_4096", "eq", "vars", "param", "", "\n", "²", "#")


def _paths(node, prefix=()):
    """Path of every node below the root: dict keys and list indexes."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _damage(rng, data: bytes, kind: str) -> bytes:
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    out = bytearray(data)
    for _ in range(rng.randint(1, 8)):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


def _mutate_hierarchy(rng, doc):
    kind = rng.choice(("drop", "retype", "swap", "truncate", "bytes", "deep"))
    if kind in ("truncate", "bytes"):
        return kind, _damage(rng, json.dumps(doc).encode(), kind)
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    if kind == "deep":
        # one member or certificate jet order near the top order 4095; a
        # member's makes a bracket expand D_x^k of another field for k near
        # 4095, up to the D_x budget
        jets = [p for p in paths if p[-2:] == ("exps", 0)]
        _at(doc, rng.choice(jets))[0][1] = rng.randint(4090, 4095)
        return kind, json.dumps(doc).encode()
    # half the picks near the top, where the schema lives
    shallow = [p for p in paths if len(p) <= 3]

    def pick():
        return rng.choice(shallow if rng.random() < 0.5 else paths)

    if kind == "drop":
        path = pick()
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        path = pick()
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(rng.choice(RETYPED))
    else:
        while True:
            a, b = pick(), pick()
            if a[:len(b)] != b and b[:len(a)] != a:
                break
        va, vb = _at(doc, a), _at(doc, b)
        _at(doc, a[:-1])[a[-1]] = vb
        _at(doc, b[:-1])[b[-1]] = va
    return kind, json.dumps(doc).encode()


def _factor_spans(line: str, start: int):
    """(begin, end) of each top-level factor of line[start:]: a parenthesised
    coefficient, or a run of characters outside parentheses between '*',
    '+' and spaces."""
    spans, depth, begin = [], 0, None
    for k in range(start, len(line) + 1):
        ch = line[k] if k < len(line) else " "
        if depth == 0 and ch in "*+ ":
            if begin is not None:
                spans.append((begin, k))
                begin = None
            continue
        if begin is None:
            begin = k
        depth += (ch == "(") - (ch == ")")
    return spans


def _mutate_system(rng, text: str):
    kind = rng.choice(("drop", "retype", "swap", "truncate", "bytes", "literal", "power",
                       "product", "deep"))
    if kind in ("truncate", "bytes"):
        return kind, _damage(rng, text.encode(), kind)
    lines = text.splitlines()
    if kind == "drop":
        del lines[rng.randrange(len(lines))]
    elif kind == "swap":
        i, j = rng.sample(range(len(lines)), 2)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "retype":
        i = rng.randrange(len(lines))
        words = lines[i].split(" ")
        words[rng.randrange(len(words))] = rng.choice(TOKENS)
        lines[i] = " ".join(words)
    else:
        # one factor of a right-hand side replaced, so the parser reaches it
        if kind == "literal":  # past Python's limit on parsed digits
            token = str(rng.randint(1, 9)) * rng.randint(4301, 6000)
        elif kind == "power":  # past the expansion budget of ^
            token = f"(w + w_x + w_xx + z + z_x)^{rng.randint(10 ** 3, 10 ** 6)}"
        elif kind == "product":  # a chain of * whose partial products pass the budget
            token = "*".join(["(w + w_x + w_xx + z + z_x)^4"] * rng.randint(3, 12))
        else:  # a jet near the top order 4095
            token = f"w[{rng.randint(4093, 4095)}]"
        i = rng.choice([k for k, line in enumerate(lines) if line.startswith("eq ")])
        line = lines[i]
        begin, end = rng.choice(_factor_spans(line, line.index("=") + 1))
        lines[i] = line[:begin] + token + line[end:]
    return kind, "\n".join(lines).encode()


def _run(capsys, argv, label):
    start = time.process_time()
    try:
        code = main(argv)
    except Exception as exc:  # an escape from main is what this test hunts
        pytest.fail(f"{label}: {exc!r} escaped cli.main")
    spent = time.process_time() - start
    assert spent <= CASE_CPU_S, f"{label}: {spent:.1f} s of CPU"
    err = capsys.readouterr().err
    assert code in range(5), label
    assert "Traceback" not in err, label
    return code


def test_mutated_hierarchy_files(tmp_path, capsys):
    rng = random.Random(SEED)
    # the document as a file holds it: to_json() shares parts among places
    doc = json.loads(json.dumps(fs_hierarchy(3).to_json()))
    path = tmp_path / "h.json"
    for i in range(CASES):
        kind, data = _mutate_hierarchy(rng, doc)
        path.write_bytes(data)
        command = rng.choice(("verify", "commute"))
        argv = [command, str(path)] + (["--json"] if i % 2 else [])
        _run(capsys, argv, f"hierarchy case {i} ({kind}, {command})")


def test_explicit_xt_in_hierarchy_files(tmp_path, capsys):
    # an x or t factor in one member or certificate term: a failed check
    # with a full report, never an abort
    rng = random.Random(SEED + 3)
    doc = json.loads(json.dumps(fs_hierarchy(4).to_json()))
    terms = [p for p in _paths(doc) if p[0] in ("members", "certificates")
             and p[-1] == "exps"]
    path = tmp_path / "h.json"
    for i in range(XT_CASES):
        mutated = copy.deepcopy(doc)
        term = rng.choice(terms)
        gen = rng.choice(("x", "t"))
        _at(mutated, term).append([gen, rng.randint(1, 3)])
        path.write_text(json.dumps(mutated))
        argv = ["verify", str(path)] + (["--json"] if i % 2 else [])
        assert _run(capsys, argv, f"x,t case {i} ({gen} at {term})") == 3


def test_lenient_values_in_hierarchy_files(tmp_path, capsys):
    # a boolean jet index or a leniently read coefficient: a parse error,
    # never a number
    rng = random.Random(SEED + 4)
    doc = json.loads(json.dumps(fs_hierarchy(4).to_json()))
    paths = list(_paths(doc))
    jets = [p + (0, k) for p in paths if p[-2:-1] == ("exps",)
            and isinstance(_at(doc, p)[0], list) for k in (0, 1)]
    texts = [p for p in paths if p[-2:-1] in (("num",), ("den",))]
    path = tmp_path / "h.json"
    for i in range(XT_CASES):
        mutated = copy.deepcopy(doc)
        if rng.random() < 0.5:
            where = rng.choice(jets)
            value = rng.choice((False, True))
        else:
            where = rng.choice(texts)
            value = rng.choice(LENIENT)(_at(doc, where))
        _at(mutated, where[:-1])[where[-1]] = value
        path.write_text(json.dumps(mutated))
        command = rng.choice(("verify", "commute"))
        argv = [command, str(path)] + (["--json"] if i % 2 else [])
        label = f"lenient case {i} ({value!r} at {where})"
        assert _run(capsys, argv, label) == 1, label


def test_provenance_and_b_sequence_in_hierarchy_files(tmp_path, capsys):
    rng = random.Random(SEED + 5)
    doc = json.loads(json.dumps(fs_hierarchy(4).to_json()))
    good, b_sequence = doc["provenance"], ts1_hierarchy(4).to_json()["b_sequence"]
    not_strings = [v for v in RETYPED if not isinstance(v, str)]
    path = tmp_path / "h.json"
    for i in range(XT_CASES):
        mutated = copy.deepcopy(doc)
        if rng.random() < 0.5:
            where = "provenance"
            value = rng.choice((
                "".join(rng.choice("abc") for _ in good),  # one character per member
                list(range(len(good))),
                good[:rng.randrange(len(good))],
                good + rng.choices(good, k=rng.randint(1, 3)),
                good[:-1] + [copy.deepcopy(rng.choice(not_strings))],
                copy.deepcopy(rng.choice(RETYPED)),
            ))
        else:
            where = "b_sequence"
            value = rng.choice((b_sequence, b_sequence[:rng.randrange(len(b_sequence))],
                                copy.deepcopy(rng.choice(RETYPED))))
        mutated[where] = value
        path.write_text(json.dumps(mutated))
        label = f"case {i} ({where} = {value!r})"
        assert _run(capsys, ["verify", str(path), "--json"], label) == 1, label


def test_certificates_in_hierarchy_files(tmp_path, capsys):
    rng = random.Random(SEED + 6)
    fs_doc = json.loads(json.dumps(fs_hierarchy(5).to_json()))
    ts1_doc = json.loads(json.dumps(ts1_hierarchy(4).to_json()))
    path = tmp_path / "h.json"
    for i in range(XT_CASES):
        kind = rng.choice(("drop", "repeat", "swap", "ts1"))
        mutated = copy.deepcopy(ts1_doc if kind == "ts1" else fs_doc)
        certs = mutated["certificates"]
        if kind == "drop":
            del certs[rng.randrange(len(certs))]
        elif kind == "repeat":
            certs.insert(rng.randrange(len(certs) + 1), copy.deepcopy(rng.choice(certs)))
        elif kind == "swap":
            a, b = rng.sample(range(len(certs)), 2)
            certs[a], certs[b] = certs[b], certs[a]
        else:
            certs.append(copy.deepcopy(rng.choice(fs_doc["certificates"])))
        path.write_text(json.dumps(mutated))
        label = f"case {i} ({kind}: steps {[c['n'] for c in certs]})"
        assert _run(capsys, ["verify", str(path), "--json"], label) == 1, label


def test_oversized_gen(capsys):
    # each fs run stops at the recursion step budget, the step to K_20
    rng = random.Random(SEED + 2)
    for i in range(3):
        n = rng.choice((20, rng.randint(21, 10 ** 3), rng.randint(10 ** 3, 10 ** 18)))
        argv = ["gen", "--system", "fs", "--n", str(n)]
        argv += ["--alpha", rng.choice(("1/3", "-2", "7/5"))] if i else []
        argv += ["--json"] if i % 2 else []
        assert _run(capsys, argv, f"gen case {i} (--n {n})") == 4
    # a ts1 run stops at its member budget, before any work
    n = rng.choice((201, rng.randint(202, 10 ** 4), rng.randint(10 ** 4, 10 ** 18)))
    argv = ["gen", "--system", "ts1", "--n", str(n), "--alpha", rng.choice(("1/3", "0", "-2"))]
    assert _run(capsys, argv, f"ts1 gen case (--n {n})") == 4


def test_mutated_system_files(tmp_path, capsys):
    rng = random.Random(SEED + 1)
    text = render_system(builtin_system("fs"))
    path = tmp_path / "fs.sys"
    for i in range(CASES):
        kind, data = _mutate_system(rng, text)
        path.write_bytes(data)
        if rng.random() < 0.5:
            argv = ["render", "--file", str(path)]
        else:
            argv = ["densities", "--file", str(path), "--max-order", "1", "--max-degree", "2"]
        argv += ["--json"] if i % 2 else []
        _run(capsys, argv, f"system case {i} ({kind}, {argv[0]})")
