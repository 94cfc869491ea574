"""The README's claims ledger quotes the abstract and names tests that exist."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NODE_ID = re.compile(r"tests/(\w+)\.py::([\w:]+)")
STATUSES = ("pinned", "scratch only", "not covered")


def _ledger_rows():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Claims ledger", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith('| "')]
    return [[cell.strip() for cell in row.strip(" |").split(" | ")] for row in rows]


def test_every_row_quotes_the_abstract_and_states_a_status():
    abstract = (ROOT / "PAPER.md").read_text()
    rows = _ledger_rows()
    assert rows
    for claim, _, status in rows:
        quotes = re.findall(r'"([^"]+)"', claim)
        assert quotes and all(quote in abstract for quote in quotes), claim
        assert all(part.strip().endswith(STATUSES) for part in status.split(";")), status


def test_every_node_id_resolves_to_a_collected_test():
    cited = [code for _, evidence, _ in _ledger_rows()
             for code in re.findall(r"`(tests/[^`]*)`", evidence)]
    assert cited
    for node_id in cited:
        match = NODE_ID.fullmatch(node_id)
        assert match, node_id
        module_name, path = match.groups()
        obj = importlib.import_module(module_name)
        *classes, function = path.split("::")
        assert all(name.startswith("Test") for name in classes), path
        assert function.startswith("test_"), path
        for name in path.split("::"):
            obj = getattr(obj, name)
        assert callable(obj), path
