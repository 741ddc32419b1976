"""README.md's examples run and print what README says they print."""

import ast
import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import CHILD_ENV

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# (info string, body) of each fenced block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)


def test_quick_start_values_are_those_its_comments_state():
    (source,) = [body for lang, body in BLOCKS if lang == "python"]
    ns, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            values[stmt.lineno] = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    stated = {
        lineno: float(m.group(1))
        for lineno, line in enumerate(source.splitlines(), start=1)
        if (m := re.search(r"#\s*(-?\d+\.\d+)", line))
    }
    assert sorted(stated.values()) == [2.0, 3.0]
    for lineno, value in stated.items():
        assert values[lineno] == value


def test_compute_example_prints_the_csv_shown():
    bodies = [body for _, body in BLOCKS]
    (i,) = [i for i, body in enumerate(bodies)
            if body.startswith("recinacc compute --dist exponential")]
    argv = shlex.split(bodies[i].replace("\\\n", " "))
    assert argv[0] == "recinacc"
    res = subprocess.run(
        [sys.executable, "-m", "recinacc", *argv[1:]],
        capture_output=True, timeout=600, env=CHILD_ENV,
    )
    assert res.returncode == 0
    assert res.stderr == b""
    assert res.stdout == bodies[i + 1].encode()
