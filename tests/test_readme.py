"""The README's lists of identities, table families and routes match the code."""

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
    assert sorted(families) == sorted([*cli._NUMBER_FAMILIES, *cli._POLY_FAMILIES])


def test_readme_routes():
    rows = re.findall(r"^\| `(\w+)` +\|", README, re.MULTILINE)
    assert rows == ["g", "f"]
    for branch, names in (("g", G_ROUTES), ("f", F_ROUTES)):
        row = re.search(rf"^\| `{branch}` +\|.*\|(.*)\|$", README, re.MULTILINE).group(1)
        assert tuple(re.findall(r"`(\w+)`", row)) == names
        assert f"`{names[0]}` (default)" in row
