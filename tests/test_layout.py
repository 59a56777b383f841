"""Layout rules for src/: no top-level function or class, and no method of a top-level
class, that src/ itself never uses, no top-level constant that src/ never reads, and no
top-level name defined in two modules.

ROADMAP's rule is to delete helpers that nothing in src/ calls; a helper
only the tests need lives in the tests. This test parses every module and
fails on a top-level def or class, or a method of a top-level class, whose
name appears, as a name or an attribute, nowhere in src/ outside its own
definition. Dunder methods are exempt, since Python calls them. A top-level
assignment is checked the same way: each name it binds must appear in src/
outside that assignment (dunders such as __version__ are exempt). ROADMAP
also keeps one copy of each rule: a name that two modules bind at top
level, by assignment, def or class, is a copy; a module that needs
another's name imports it, and imports do not count. Every random draw is
made by one reader, util._Stream, so src/ calls no attribute named
integers or random (NumPy's Generator draws). A scalar transcript line is
json.dumps of SessionTranscript.to_record; the array path's byte renderer
fills the one literal of the line layout, engine._RECORD, and is tested
against that rule, so each record key's JSON text ('"preimages": ') is in
one string literal.

The benchmark under perfbench/ calls into src/ by name and wraps functions
by name, so the last two tests fail on a src/ name it reads that is gone.
"""

import ast
import dataclasses
import importlib
import importlib.util
from collections import Counter, defaultdict
from pathlib import Path

from magicert import engine

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


def parsed_modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unused_definitions() -> list[str]:
    modules = parsed_modules()
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


def top_level_bindings(tree) -> set[str]:
    """Names a module's top-level assignments, defs and classes bind; imports are left out."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def unread_constants() -> list[str]:
    """module.name of each non-dunder name a top-level assignment binds that src/ never
    names outside that assignment."""
    modules = parsed_modules()
    everywhere = sum((names_in(tree) for tree in modules.values()), Counter())
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            for name in sorted(top_level_bindings(ast.Module(body=[node], type_ignores=[]))):
                if not name.startswith("__") and everywhere[name] == names_in(node)[name]:
                    unread.append(f"{module}.{name}")
    return unread


def test_every_top_level_definition_is_used_in_src():
    assert sorted(set(unused_definitions()) - set(ALLOWED)) == []


def test_every_allowed_name_is_still_defined_and_unused():
    assert sorted(set(ALLOWED) - set(unused_definitions())) == []


def test_every_top_level_constant_is_read_in_src():
    assert unread_constants() == []


def test_no_top_level_name_is_bound_in_two_modules():
    modules = defaultdict(list)
    for module, tree in parsed_modules().items():
        for name in top_level_bindings(tree):
            modules[name].append(module)
    assert {name: found for name, found in modules.items() if len(found) > 1} == {}


def test_no_draw_goes_round_the_one_reader():
    calls = [f"{module}.py:{node.lineno}" for module, tree in parsed_modules().items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in ("integers", "random")]
    assert calls == []


def test_the_record_layout_is_one_literal():
    texts = [node.value for tree in parsed_modules().values() for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    keys = [f'"{f.name}": ' for f in dataclasses.fields(engine.SessionTranscript)]
    assert {key: sum(text.count(key) for text in texts) for key in keys} == dict.fromkeys(keys, 1)
    assert [text for text in texts if keys[0] in text] == [engine._RECORD]


# ------------------------------------------------------ the benchmark's hooks

PERFBENCH = SRC.parent.parent / "perfbench"


def perfbench_reads() -> set[str]:
    """Dotted names perfbench's modules read from magicert: each attribute chain on a
    module they import from magicert, and each name they import from one."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("magicert"):
                for alias in node.names:
                    if node.module == "magicert":
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        reads.add(f"{node.module.removeprefix('magicert.')}.{alias.name}")
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in modules:
                reads.add(".".join([modules[node.id], *reversed(chain)]))
    return reads


def test_every_name_the_benchmark_reads_is_defined():
    # a rename in src/ fails here before it breaks a benchmark run
    reads = perfbench_reads()
    assert {"engine.read_transcripts", "engine.write_transcripts", "engine.run_batch",
            "engine.connect", "engine.FlagStats.from_transcripts"} <= reads
    missing = []
    for dotted in sorted(reads):
        module, *attrs = dotted.split(".")
        owner = importlib.import_module(f"magicert.{module}")
        try:
            for attr in attrs:
                owner = getattr(owner, attr)
        except AttributeError:
            missing.append(dotted)
    assert missing == []


def test_every_site_the_benchmark_traces_is_defined():
    # the tracer wraps each site as vars(owner)[attr], so an inherited or moved name fails it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [(owner, attr) for owned in tracing.LAYERS.values() for owner, attr in owned]
    assert len(sites) > 20
    assert [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in sites
            if attr not in vars(owner)] == []
