"""The package's import graph: standard library only, and verify at the top.

README and pyproject.toml promise no dependencies outside the standard
library, and the verification layer sits above the structures it checks, so
only the command line and the package's exports may import it.  And every
module uses what it imports; only __init__ imports names to export them.
tree holds both walkers, the breadth-first reference and the depth-first
core the exports stream from, so no other module takes a queue,
TreeExport checks itself as it is made, the one header rule, so export reads
tree.check_depth and cohn.check_cohn_parameter only in its __post_init__,
and export.build_export is the one place the package makes a header.  A
region's JSON has one definition, its kind's text as a JSON string or its
json_text template, so export.Kind holds no second encoder and from_json,
which parses those same renders back, is the one json.loads in export.  The
verify window caches one tree, the Markov tree every suite shares; a tree
read by one suite is walked by that suite and held by nothing.
rational.check_int is the one integer rule, so only it and check_rational,
which refuses a bool as a rational, tell a bool from an int; and
rational.parse_int the one rule for integer text, so only it calls int.  A
rational.Word is checked as it is made, and only cftree.markov_cf, whose
words are grown from the checked seeds, makes one without the check.  The
CLI writes --out in place, so it names no temp file, rename or mode copy.
tree._on_two_cores is the package's one parallelism: one os.fork, called
only by tree._split, the one split rule, which alone reads the CPU affinity
and redoes a failed split in process; and _split is called only by verify's
split (run_suites) and the exports' split (_write_by_level).  No thread or
process pool; pickle, which only a split needs, is imported in
_on_two_cores and not by import topograph.  rational._mul is the one 2x2
product: the matrix trees walk it on int tuples and Mat2 @ wraps it, so @
appears only in verify's homomorphism suite, and no module reads __matmul__.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "topograph").glob("*.py"))


def _imports(path: Path) -> list:
    """(top-level name, is relative) of every import in a module, nested ones too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[0], False) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                found += [(node.module or alias.name, True) for alias in node.names]
            else:
                found.append((node.module.partition(".")[0], False))
    return found


def test_sources_are_found():
    assert {"__init__", "cli", "verify"} <= {path.stem for path in SOURCES}


def test_imports_are_relative_or_standard_library():
    outside = {(path.stem, name) for path in SOURCES for name, relative in _imports(path)
               if not relative and name not in sys.stdlib_module_names}
    assert outside == set()


def test_only_the_cli_and_the_exports_import_verify():
    importers = {path.stem for path in SOURCES
                 if any(relative and name.partition(".")[0] == "verify"
                        for name, relative in _imports(path))}
    assert importers <= {"__init__", "cli"}


def _unused_imports(path: Path) -> set:
    """Names a module imports, other than from __future__, that it never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_every_import_is_used():
    unused = {(path.stem, name) for path in SOURCES if path.stem != "__init__"
              for name in _unused_imports(path)}
    assert unused == set()


# Each hard cap, the module that defines it and the one function that
# compares with it.
CAP_RULES = {"HARD_DEPTH_CAP": ("tree", "check_depth"),
             "HARD_A_CAP": ("cohn", "check_cohn_parameter"),
             "HARD_POINT_CAP": ("tree", "check_point_size"),
             "HARD_TRIPLE_CAP": ("markov", "markov_triple_at"),
             "HARD_A_VALUES_CAP": ("verify", "run_suites")}


def _function_of(tree: ast.AST) -> dict:
    """id of every node inside a function: the innermost enclosing function's name."""
    return {id(node): function.name for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}


def _cap_reads(path: Path) -> set:
    """(cap, enclosing function or None) for every read of a hard cap outside an f-string."""
    tree = ast.parse(path.read_text(), str(path))
    in_fstring = {id(node) for joined in ast.walk(tree) if isinstance(joined, ast.JoinedStr)
                  for node in ast.walk(joined)}
    function_of = _function_of(tree)
    return {(node.id, function_of.get(id(node))) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in CAP_RULES
            and isinstance(node.ctx, ast.Load) and id(node) not in in_fstring}


def test_each_hard_cap_is_compared_in_one_place():
    # Elsewhere a cap appears only in a help text or a message.
    stray = {(path.stem, cap, function) for path in SOURCES
             for cap, function in _cap_reads(path) if CAP_RULES[cap] != (path.stem, function)}
    assert stray == set()


def _reads_deque(path: Path) -> bool:
    """Whether a module imports deque or reads collections.deque."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and any(a.name == "deque" for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "deque":
            return True
    return False


def test_only_tree_holds_a_queue():
    # A second breadth-first walker would need one; the exports walk through
    # tree._preorder, and an export's nodes and from_json through tree._walk.
    assert {path.stem for path in SOURCES if _reads_deque(path)} == {"tree"}


def _header_makers(path: Path) -> set:
    """The enclosing function (or None) of every call TreeExport(...) in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "TreeExport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_only_build_export_makes_a_header():
    # A header checks itself; build_export is the one place the package makes
    # one, and from_json and the CLI go through it.
    makers = {(path.stem, function) for path in SOURCES for function in _header_makers(path)}
    assert makers == {("export", "build_export")}


def test_the_header_rule_runs_only_as_a_header_is_made():
    # A writer, nodes or build_export that checked again would be a second
    # copy of the rule, free to drift from the first.
    [export] = [path for path in SOURCES if path.stem == "export"]
    tree = ast.parse(export.read_text(), str(export))
    [made] = [method for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "TreeExport"
              for method in cls.body
              if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"]
    inside = {id(node) for node in ast.walk(made)}
    reads = [(node.id, id(node) in inside) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id in {"check_depth", "check_cohn_parameter"}]
    assert sorted(reads) == [("check_cohn_parameter", True), ("check_depth", True)]


def test_a_region_has_one_json_definition():
    # A second encoder, read only by from_json, would be free to drift from
    # what the writers write.
    [export] = [path for path in SOURCES if path.stem == "export"]
    tree = ast.parse(export.read_text(), str(export))
    [kind] = [cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Kind"]
    fields = {node.target.id for node in kind.body if isinstance(node, ast.AnnAssign)}
    assert {"text", "json_text"} <= fields and "encode" not in fields
    function_of = _function_of(tree)
    loads = {function_of.get(id(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "loads"
             and getattr(node.value, "id", None) == "json"}
    assert loads == {"from_json"}


def _cached_properties(path: Path) -> list:
    """(class, method) of every cached_property decorator in a module, and
    None for any other read of the name."""
    tree = ast.parse(path.read_text(), str(path))
    decorated = {id(decorator): (cls.name, method.name) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for method in cls.body
                 if isinstance(method, ast.FunctionDef) for decorator in method.decorator_list}
    return [decorated.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "cached_property"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "cached_property"]


def test_the_verify_window_caches_only_the_markov_tree():
    # words and periodization walk their trees through Window.mirrored_values.
    [verify] = [path for path in SOURCES if path.stem == "verify"]
    assert _cached_properties(verify) == [("Window", "markov")]


def _fraction_copies(path: Path) -> set:
    """The enclosing function (or None) of every call Fraction(<name>) in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and len(node.args) == 1 and not node.keywords and isinstance(node.args[0], ast.Name)}


def test_only_check_rational_makes_an_argument_a_fraction():
    # Fraction(x) also parses strings and reads floats; check_rational refuses them.
    copies = {(path.stem, function) for path in SOURCES for function in _fraction_copies(path)}
    assert copies == {("rational", "check_rational")}


def _bool_tests(path: Path) -> set:
    """The enclosing function (or None) of every call isinstance(<expr>, bool) in a
    module, bool alone or in a tuple of types."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and any(getattr(kind, "id", None) == "bool"
                    for kind in getattr(node.args[1], "elts", [node.args[1]]))}


def test_only_check_int_tells_a_bool_from_an_int():
    # A bool is an int to isinstance; a hand-written copy of the test drifts in spelling
    # and message, and the argument it forgets takes True as 1.
    tests = {(path.stem, function) for path in SOURCES for function in _bool_tests(path)}
    assert tests == {("rational", "check_int"), ("rational", "check_rational")}


def _tuple_news(path: Path) -> set:
    """(enclosing function, first argument) of every call tuple.__new__(...) in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {(function_of.get(id(node)), getattr(node.args[0], "id", None) if node.args else None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__" and getattr(node.func.value, "id", None) == "tuple"}


def test_only_markov_cf_makes_a_word_unchecked():
    # A Word is taken as checked: Word.__new__ checks, and markov_cf's word is
    # made from the checked seeds by concatenation and repetition alone.
    makers = {(path.stem, *maker) for path in SOURCES for maker in _tuple_news(path)}
    assert makers == {("rational", "__new__", "cls"), ("cftree", "markov_cf", "MarkovWord")}


def _int_calls(path: Path) -> set:
    """The enclosing function (or None) of every call int(...) in a module, and
    "type=int" for each argument type=int, argparse's way of calling it."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int"} | {
        "type=int" for node in ast.walk(tree)
        if isinstance(node, ast.keyword) and node.arg == "type"
        and getattr(node.value, "id", None) == "int"}


def test_only_parse_int_reads_integer_text():
    # int(text) also reads underscores and other scripts' digits.
    calls = {(path.stem, function) for path in SOURCES for function in _int_calls(path)}
    assert calls == {("rational", "parse_int")}


def _names(path: Path) -> set:
    """Every name a module imports or reads, and module.attribute for each
    attribute read on a plain name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} | {alias.name for alias in node.names}
    return names


def test_the_cli_writes_out_in_place():
    # A failed export never opens --out, so no temp file and rename guard it.
    [cli] = [path for path in SOURCES if path.stem == "cli"]
    assert _names(cli) & {"os.replace", "os.rename", "os.fchmod", "tempfile", "stat"} == set()


def _os_reads(path: Path, name: str) -> list:
    """The enclosing function (or None) of every read of os.<name> in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return [function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == name
            and getattr(node.value, "id", None) == "os"]


def _callers(path: Path, name: str) -> list:
    """The enclosing function (or None) of every call of name in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return [function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]


def test_one_helper_forks_and_nothing_else_runs_in_parallel():
    def reads(name):
        return sorted((path.stem, function) for path in SOURCES
                      for function in _os_reads(path, name))

    def callers(name):
        return sorted((path.stem, function) for path in SOURCES
                      for function in _callers(path, name))

    assert reads("fork") == [("tree", "_on_two_cores")]
    assert callers("_on_two_cores") == [("tree", "_split")]
    assert callers("_split") == [("export", "_write_by_level"), ("verify", "run_suites")]
    assert reads("sched_getaffinity") == [("tree", "_split")]
    pools = {(path.stem, name) for path in SOURCES for name, relative in _imports(path)
             if not relative and name in {"multiprocessing", "concurrent", "threading"}}
    assert pools == set()


def test_only_the_split_imports_pickle():
    # A nested import: `import topograph` pays nothing for what only a split uses.
    importers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        function_of = _function_of(tree)
        importers |= {(path.stem, function_of.get(id(node))) for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      and any(alias.name == "pickle" for alias in node.names)}
    assert importers == {("tree", "_on_two_cores")}


def _matmul_sites(path: Path) -> set:
    """The enclosing function (or None) of every @ or @= in a module."""
    tree = ast.parse(path.read_text(), str(path))
    function_of = _function_of(tree)
    return {function_of.get(id(node)) for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)}


def test_only_the_homomorphism_suite_multiplies_with_matmul():
    # Every production walk multiplies by rational._mul on tuples; the
    # homomorphism suite checks the convergent kernel against Mat2 @.
    sites = {(path.stem, function) for path in SOURCES for function in _matmul_sites(path)}
    assert sites == {("verify", "suite_homomorphism")}


def test_no_module_reads_matmul():
    # A combine of Mat2.__matmul__ would carry a Mat2 per node again.
    reads = {path.stem for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "__matmul__"}
    assert reads == set()
