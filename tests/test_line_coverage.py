"""scripts/line_coverage.py: its statement map, and one traced run of a small test file."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "line_coverage.py"


def test_a_statement_ran_when_a_line_of_its_own_ran(tmp_path):
    spec = importlib.util.spec_from_file_location("line_coverage", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    module = tmp_path / "m.py"
    module.write_text('"""Doc."""\n'
                      "def f(x):\n"
                      '    """Doc."""\n'
                      "    if x:\n"
                      "        return (1 +\n"
                      "                x)\n"
                      "    return 3\n")
    # the last line of a two-line return counts for it; the if's own line did not run
    statements, count = script.missed(module, {1, 2, 6})
    assert [node.lineno for node in statements] == [4, 7]
    assert count == 5  # the function's docstring compiles to no code


def test_a_traced_run_names_the_statements_it_never_ran():
    done = subprocess.run([sys.executable, str(SCRIPT), "tests/test_schema.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    # test_schema.py runs no command of the CLI
    assert any(re.fullmatch(r"src/multistep/cli\.py:\d+: sys\.exit\(main\(\)\)", line)
               for line in lines)
    never, total = map(int, re.fullmatch(r"(\d+) of (\d+) statements in src/multistep never ran",
                                         lines[-1]).groups())
    assert 0 < never < total
