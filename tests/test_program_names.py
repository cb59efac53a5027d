"""Every module-level function and class of the package, and every field
of its classes, has a reader in it.

A name that only tests call belongs with the tests (tests/reference.py holds
the full-knowledge references), so the package's own code must name each of
its top-level definitions somewhere outside that definition: in an import, a
Name node or an attribute.  Strings, such as the entries of __all__, do not
count.  Likewise a field that no package code reads is dead weight: each
annotated class-body name (a dataclass field) and each `self.<name> =`
attribute must be loaded as an attribute, `x.<name>`, somewhere in the
package.

No module reads an environment variable: every setting of a run arrives as
a config key or a CLI flag.

The package imports numpy and scipy.special at module level and nothing else
outside the standard library; scipy.optimize only inside the one function
that needs it.  A new heavy import, which every run would pay for in start-up
time and memory, then shows up as an edit here.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "d2dsim"

# (module, name): why it may stay without a reader in the package
UNREAD = {
    ("signaling", "context_gain_reports"):
        "the acceptance report-count gate reads it; ROADMAP item 7 calls it from campaigns",
    ("signaling", "full_csi_report_count"):
        "the acceptance report-count gate reads it; ROADMAP item 7 calls it from campaigns",
}


# (module, class, field): why it may stay without a reader in the package
UNREAD_FIELDS = {}


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


def test_every_class_field_is_read_in_the_package():
    fields, loaded = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.append((path.stem, node.name, stmt.target.id))
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    fields.append((path.stem, node.name, sub.attr))
    unread = {f for f in fields if f[2] not in loaded}
    assert sorted(unread) == sorted(UNREAD_FIELDS)


def test_no_module_reads_an_environment_variable():
    found = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in names_in(ast.parse(path.read_text(encoding="utf-8")))
             if name in ("environ", "environb", "getenv", "getenvb")]
    assert found == []


# third-party modules the package imports: at module level, and inside a
# function, by (module, function)
THIRD_PARTY_IMPORTS = {"numpy", "scipy.special"}
LOCAL_THIRD_PARTY_IMPORTS = {("rrm", "max_score_assignment", "scipy.optimize")}


def third_party(node):
    """The third-party modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return []
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_module_level_third_party_imports_are_numpy_and_scipy_special():
    top, local = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inside = {id(sub) for f in functions for sub in ast.walk(f) if sub is not f}
        for node in ast.walk(tree):
            if id(node) not in inside:
                top.update(third_party(node))
        for f in functions:
            local.update((path.stem, f.name, name) for stmt in f.body
                         for sub in ast.walk(stmt) for name in third_party(sub))
    assert top == THIRD_PARTY_IMPORTS
    assert local == LOCAL_THIRD_PARTY_IMPORTS
