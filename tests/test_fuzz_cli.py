"""Seeded fuzz of the CLI's input files: every outcome is an exit code.

Mutations of a ``gen --system fs --n 3`` hierarchy and of the ``fs``
system text go through ``cli.main`` in-process.  A system text mutation
may also put in a number literal too long to parse or a power past the
expansion budget of ``^``.  Each run must return
one of the documented exit codes 0-4 and print no traceback.
"""

import copy
import json
import random

import pytest

from jetsym.cli import main
from jetsym.hierarchy import fs_hierarchy
from jetsym.systems import builtin_system, render_system

SEED = 20081
CASES = 100  # per input kind

#: replacement values for a retyped JSON node
RETYPED = (None, True, 0, -1, 2, 1.5, 10 ** 6, "", "x", "1/0", "w", [], [[]], {},
           {"num": ["1"], "den": ["0"]})

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
    kind = rng.choice(("drop", "retype", "swap", "truncate", "bytes"))
    if kind in ("truncate", "bytes"):
        return kind, _damage(rng, json.dumps(doc).encode(), kind)
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
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


def _mutate_system(rng, text: str):
    kind = rng.choice(("drop", "retype", "swap", "truncate", "bytes", "literal", "power"))
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
        else:  # past the expansion budget of ^
            token = f"(w + w_x + w_xx + z + z_x)^{rng.randint(10 ** 3, 10 ** 6)}"
        i = rng.choice([k for k, line in enumerate(lines) if line.startswith("eq ")])
        words = lines[i].split(" ")
        factors = [k for k in range(3, len(words)) if words[k] not in ("+", "-")]
        words[rng.choice(factors)] = token
        lines[i] = " ".join(words)
    return kind, "\n".join(lines).encode()


def _run(capsys, argv, label):
    try:
        code = main(argv)
    except Exception as exc:  # an escape from main is what this test hunts
        pytest.fail(f"{label}: {exc!r} escaped cli.main")
    err = capsys.readouterr().err
    assert code in range(5), label
    assert "Traceback" not in err, label


def test_mutated_hierarchy_files(tmp_path, capsys):
    rng = random.Random(SEED)
    doc = fs_hierarchy(3).to_json()
    path = tmp_path / "h.json"
    for i in range(CASES):
        kind, data = _mutate_hierarchy(rng, doc)
        path.write_bytes(data)
        command = rng.choice(("verify", "commute"))
        argv = [command, str(path)] + (["--json"] if i % 2 else [])
        _run(capsys, argv, f"hierarchy case {i} ({kind}, {command})")


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
