"""Layout rules for src/: no top-level function or class, and no method of a top-level
class, that src/ itself never uses.

ROADMAP's rule is to delete helpers that nothing in src/ calls; a helper
only the tests need lives in the tests. This test parses every module and
fails on a top-level def or class, or a method of a top-level class, whose
name appears, as a name or an attribute, nowhere in src/ outside its own
definition. Dunder methods are exempt, since Python calls them.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "magicert"

# module.name -> why it stays although src/ does not use it
ALLOWED = {
    "engine.read_transcripts": "the tests and perfbench read whole transcript files with it",
    "analysis.fidelity_certificate": "acceptance criterion 6 certifies device states with it",
    # the verifier reads both rules through hadamard_fails' bitwise form
    "entcf.decode_b": "the tests' reference decoder; perfbench traces it as entcf.decode",
    "entcf.decode_u": "the tests' reference decoder; perfbench traces it as entcf.decode",
    "entcf.OracleRegistry.eval": "the oracle operation entcf's docstring gives prover-side code",
}


def names_in(node) -> Counter:
    """Every name and attribute read or written inside node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unused_definitions() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((names_in(tree) for tree in modules.values()), Counter())
    unused = []
    for module, tree in modules.items():
        for node, name in definitions(tree):
            # uses inside the definition itself (recursion) do not count
            if everywhere[node.name] - names_in(node)[node.name] == 0:
                unused.append(f"{module}.{name}")
    return unused


def definitions(tree):
    """(node, dotted name) of each top-level def or class and each method of such a class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, defs[:2]) and not method.name.startswith("__"):
                    yield method, f"{node.name}.{method.name}"


def test_every_top_level_definition_is_used_in_src():
    assert sorted(set(unused_definitions()) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_unused():
    assert sorted(set(ALLOWED) - set(unused_definitions())) == []
