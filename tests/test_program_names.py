"""Every module-level function and class of the package has a reader in it.

A name that only tests call belongs with the tests (tests/reference.py holds
the full-knowledge references), so the package's own code must name each of
its top-level definitions somewhere outside that definition: in an import, a
Name node or an attribute.  Strings, such as the entries of __all__, do not
count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "d2dsim"

# (module, name): why it may stay without a reader in the package
UNREAD = {
    ("signaling", "context_gain_reports"):
        "the acceptance report-count gate reads it; ROADMAP item 7 calls it from campaigns",
    ("signaling", "full_csi_report_count"):
        "the acceptance report-count gate reads it; ROADMAP item 7 calls it from campaigns",
}


def names_in(node):
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_top_level_definition_is_named_elsewhere_in_the_package():
    definitions, readers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = (path.stem, stmt.name)
                definitions.append(own)
            readers.append((own, names_in(stmt)))
    unread = [d for d in definitions
              if not any(d[1] in names for own, names in readers if own != d)]
    assert sorted(unread) == sorted(UNREAD)
