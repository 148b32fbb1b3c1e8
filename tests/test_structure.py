"""Per-setting dispatch stays in the scenario records, and the library works
on whole joints.

Each setting declares its data on its record in ``scenarios.py``; the family
kernels and their callers read those attributes.  One test counts the sites
that still choose behaviour by the concrete setting, ``isinstance(spec, ...)``
calls and comparisons against ``spec.name``, outside the two deliberate
per-setting ladders: the independent closed-form oracle and the per-edge
reduction table.  Another counts the functions that take an instance index:
every kernel builds the whole (n_x, ...) stack, and callers index it, so only
the closed-form oracle, which is per instance by design, takes one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wslrr"
LADDERS = {"closed_form_corrected_loss", "reduce_spec"}
MAX_DISPATCH_SITES = 10
INSTANCE_PARAMS = {"i", "i2"}
PER_INSTANCE_ORACLE = "closed_form_corrected_loss"


def _is_spec(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "spec"


def _is_spec_name(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "name" and _is_spec(node.value)


def _dispatch_sites(tree) -> list:
    """Sorted line numbers holding at least one dispatch on the setting."""
    sites = set()

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name in LADDERS:
            return
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and node.args and _is_spec(node.args[0])):
            sites.add(node.lineno)
        if isinstance(node, ast.Compare) and any(
                _is_spec_name(operand) for operand in [node.left, *node.comparators]):
            sites.add(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return sorted(sites)


def test_per_setting_dispatch_stays_in_the_records():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        sites = _dispatch_sites(ast.parse(path.read_text(), filename=str(path)))
        if sites:
            found[path.name] = sites
    total = sum(len(v) for v in found.values())
    assert total <= MAX_DISPATCH_SITES, f"{total} per-setting dispatch sites: {found}"


def test_counter_sees_both_kinds_of_site():
    tree = ast.parse(
        "def f(spec, other):\n"
        "    a = isinstance(spec, A)\n"
        "    b = spec.name == 'B' or spec.name in NAMES\n"
        "    c = isinstance(other, A) or other.name == 'B'\n"
        "def reduce_spec(spec):\n"
        "    return isinstance(spec, A)\n"
    )
    assert _dispatch_sites(tree) == [2, 3]


def _instance_index_functions(tree) -> list:
    """Names of the functions, public, private or nested, with a parameter
    named ``i`` or ``i2``, leaving out the per-instance oracle."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            name = getattr(node, "name", "<lambda>")
            if INSTANCE_PARAMS & set(params) and name != PER_INSTANCE_ORACLE:
                found.append(name)
    return found


def test_no_function_takes_an_instance_index():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = _instance_index_functions(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[path.name] = names
    assert sum(len(v) for v in found.values()) == 0, f"functions taking an instance index: {found}"


def test_instance_index_counter_sees_every_kind_of_function():
    tree = ast.parse(
        "def f(m, i): pass\n"
        "def _g(m, *, i2=None): pass\n"
        "class A:\n"
        "    def h(self, m, idx):\n"
        "        def nested(mm, i): pass\n"
        "        return lambda i: i\n"
        "def closed_form_corrected_loss(spec, m, i, L, i2=None): pass\n"
    )
    assert sorted(_instance_index_functions(tree)) == ["<lambda>", "_g", "f", "nested"]
