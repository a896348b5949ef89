"""The README's quick start runs as shown, and its lists of identities, table
families and routes match the code."""

import ast
import re
from pathlib import Path

import degbern.cli as cli
from degbern.expansion import F_ROUTES, G_ROUTES
from degbern.identities import identity_ids

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _names_between(start: str, end: str) -> list[str]:
    head = README.index(start) + len(start)
    return re.findall(r"`([\w-]+)`", README[head : README.index(end, head)])


def test_readme_identity_ids():
    ids = _names_between("Identity ids for `verify`:", "Product families")
    assert sorted(ids) == list(identity_ids())


def test_readme_table_families():
    families = _names_between("Families for `table`:", "(polynomials")
    assert sorted(families) == sorted(cli._FAMILIES)


def test_readme_routes():
    rows = re.findall(r"^\| `(\w+)` +\|", README, re.MULTILINE)
    assert rows == ["g", "f"]
    for branch, names in (("g", G_ROUTES), ("f", F_ROUTES)):
        row = re.search(rf"^\| `{branch}` +\|.*\|(.*)\|$", README, re.MULTILINE).group(1)
        assert tuple(re.findall(r"`(\w+)`", row)) == names
        assert f"`{names[0]}` (default)" in row


def test_readme_quick_start_runs_as_commented():
    head = README.index("## Library quick start")
    block = re.search(r"```python\n(.*?)```", README[head:], re.DOTALL).group(1)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        statements = ast.parse(code).body
        if statements and isinstance(statements[0], ast.Expr):
            # an expression line's comment starts with the repr of its value
            shown, comment = repr(eval(code, namespace)), comment.strip()
            assert comment == shown or comment.startswith(shown + ","), (code, shown)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 3
