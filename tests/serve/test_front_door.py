"""Guards that keep serving to one front door and one LRU.

``GenerationService.handle`` is the only request dispatcher under
``repro/serve``: a fleet is a replica pool behind it, not a second
router with its own op table, alias table or ``stats`` schema.  The
model table's eviction runs on :class:`repro.lru.LRUCache`, the
package's one LRU.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
SERVE = SRC / "serve"


def _text(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8")


def test_exactly_one_dispatcher():
    handlers = [f"{path.relative_to(SRC)}:{lineno}"
                for path in sorted(SERVE.rglob("*.py"))
                for lineno, line in enumerate(_text(path).splitlines(),
                                              start=1)
                if "def handle(" in line]
    assert len(handlers) == 1, handlers
    assert handlers[0].startswith("serve/server.py:")


def test_no_second_router_or_alias_table():
    for path in sorted(SERVE.rglob("*.py")):
        text = _text(path)
        for name in ("ReplicaService", "_canonical_spec",
                     "_refresh_aliases"):
            assert name not in text, f"{name} in {path.name}"


def test_one_lru():
    helper = SRC / "lru.py"
    tree = ast.parse(_text(helper))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("repro")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("repro") for a in node.names)
    offenders = [str(path.relative_to(SRC))
                 for path in sorted(SRC.rglob("*.py"))
                 if path != helper and "move_to_end(" in _text(path)]
    assert offenders == []
