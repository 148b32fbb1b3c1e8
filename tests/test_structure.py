"""Per-setting dispatch stays in the scenario records, and the library works
on whole joints.

Each setting declares its data on its record in ``scenarios.py``; the
family kernels and their callers read those attributes.  One test counts
the sites that still choose behaviour by the concrete setting,
``isinstance(spec, ...)`` calls and comparisons against ``spec.name``,
outside the two deliberate per-setting ladders: the independent closed-form
oracle and the per-edge reduction table.  That counter does not see a bare
``name`` compared with setting names, the form a ladder in the harness
takes; a second counter keeps such comparisons out of ``verify.py``, which
keys its parameter draws by name in one table and reads the rest from the
records.  Another keeps the harness's bars fixed: only the three checks
that ``wslrr verify --tol`` sets offer a tolerance argument.  Another counts
the functions that take an instance index: every kernel builds the whole
(n_x, ...) stack, and callers index it, so only the closed-form oracle,
which is per instance by design, takes one.  Another
keeps the exact, rewritten and empirical risks on the one weighted-loss
kernel: none of them builds its own loss table or contraction.  The last
keep the exact kernels on the structure of their matrices: the modules that
build them tile no matrix out to every instance and contract no three
operands at once (M_trsf is diagonal, so the observed masses are a K-term
sum), and the rewrite reads the system's observed masses without building a
whole contamination model.  The last two keep the package's cold start
small: every CLI command is a fresh process that imports the package, so
the records are ``wslrr.core.record`` classes, which compile one
``__init__`` each at import (none for a fieldless record), where stdlib
dataclasses compile about five methods each; no module imports
``dataclasses``; and ``wslrr simulate`` imports neither the harness nor the
trainer.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from wslrr.scenarios import SCENARIO_TYPES

SRC = Path(__file__).resolve().parents[1] / "src" / "wslrr"
LADDERS = {"closed_form_corrected_loss", "reduce_spec"}
MAX_DISPATCH_SITES = 0
MAX_NAME_RUNGS = 0
MAX_TOL_PARAMETERS = 3  # verify_formulation, verify_reconstruction and verify_risk_equality
INSTANCE_PARAMS = {"i", "i2"}
PER_INSTANCE_ORACLE = "closed_form_corrected_loss"
RISKS = {"classification_risk", "rewritten_risk", "empirical_risk"}
STRUCTURED = ("scenarios.py", "decontam.py", "risk.py")
WHOLE_MODEL_BUILDERS = {"_contamination_model", "observed_distribution"}
RECORDS = 34  # the 18 spec records and 16 result, config and model records


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


def _is_setting_name(node) -> bool:
    """A string literal naming a setting, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_setting_name(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in SCENARIO_TYPES


def _name_ladder_rungs(tree) -> list:
    """Line numbers of the comparisons of a bare ``name`` against setting
    names, such as ``name == "UU"`` or ``name in ("CL", "MCL")``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Name) and o.id == "name" for o in operands)
                    and any(_is_setting_name(o) for o in operands)):
                found.append(node.lineno)
    return sorted(found)


def test_setting_name_ladders_in_the_harness_do_not_grow():
    rungs = _name_ladder_rungs(ast.parse((SRC / "verify.py").read_text(), filename="verify.py"))
    assert len(rungs) <= MAX_NAME_RUNGS, f"{len(rungs)} setting-name comparisons in verify.py, lines {rungs}"


def test_name_ladder_counter_sees_every_kind_of_rung():
    tree = ast.parse(
        "def f(name, spec, other):\n"
        "    if name == 'UU':\n"
        "        pass\n"
        "    a = 'Sconf' != name\n"
        "    b = name in ('CL', 'MCL')\n"
        "    c = other == 'UU' or name == 'NotASetting' or name in NAMES\n"
        "    d = spec.name == 'PU' or name in ('CL', 'x')\n"
    )
    assert _name_ladder_rungs(tree) == [2, 4, 5]


def _tol_functions(tree) -> list:
    """Names of the functions, public, private or nested, that offer ``tol``
    as a setting: a parameter named ``tol`` on a public function or lambda,
    or one with a default.  The private report builders, which require the
    tolerance they record, are left out."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            if any(p.arg == "tol" and (not name.startswith("_") or p in defaulted)
                   for p in positional + a.kwonlyargs):
                found.append(name)
    return found


def test_only_the_cli_set_bars_take_a_tolerance():
    found = _tol_functions(ast.parse((SRC / "verify.py").read_text(), filename="verify.py"))
    assert len(found) <= MAX_TOL_PARAMETERS, f"{len(found)} functions in verify.py take tol: {found}"


def test_tol_counter_sees_every_kind_of_function():
    tree = ast.parse(
        "def f(j, tol): pass\n"
        "def _g(j, *, tol=1e-12): pass\n"
        "def _report(name, err, tol, seed): pass\n"
        "def h(j, seed=0):\n"
        "    def nested(tol, /): pass\n"
        "    def _inner(x, tol=0.1, y=0): pass\n"
        "    return lambda tol: tol\n"
        "def k(j, tolerance=0.1, **tol): pass\n"
    )
    assert sorted(_tol_functions(tree)) == ["<lambda>", "_g", "_inner", "f", "nested"]


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


def _own_contractions(tree) -> list:
    """(function, callee) for each call of ``loss_matrix`` or ``np.einsum``
    inside one of the three risks."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in RISKS:
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name) and f.id == "loss_matrix":
                    found.append((fn.name, "loss_matrix"))
                if (isinstance(f, ast.Attribute) and f.attr == "einsum"
                        and isinstance(f.value, ast.Name) and f.value.id == "np"):
                    found.append((fn.name, "np.einsum"))
    return found


def test_every_risk_is_one_weighted_loss():
    tree = ast.parse((SRC / "risk.py").read_text(), filename="risk.py")
    assert _own_contractions(tree) == []


def test_contraction_finder_sees_both_calls():
    tree = ast.parse(
        "def rewritten_risk(spec, j):\n"
        "    lam = loss_matrix(ls, model, j)\n"
        "    return np.einsum('ki,ik->', lam, w)\n"
        "def rewrite_table(spec, j):\n"
        "    return np.einsum('ikm,im->ik', d, o)\n"
    )
    assert _own_contractions(tree) == [("rewritten_risk", "loss_matrix"), ("rewritten_risk", "np.einsum")]


def _dense_calls(tree) -> list:
    """(line, call) for each ``np.tile`` and each ``np.einsum`` of three or
    more operands."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        if node.func.attr == "tile":
            found.append((node.lineno, "np.tile"))
        if node.func.attr == "einsum" and len(node.args) >= 4:  # the subscripts, then the operands
            found.append((node.lineno, "np.einsum"))
    return found


def test_exact_kernels_tile_nothing_and_contract_two_operands():
    found = {}
    for name in STRUCTURED:
        calls = _dense_calls(ast.parse((SRC / name).read_text(), filename=name))
        if calls:
            found[name] = calls
    assert found == {}, f"dense tiles or three-operand contractions: {found}"


def test_dense_call_finder_sees_both_calls():
    tree = ast.parse(
        "t = np.tile(a, (n, 1, 1))\n"
        "o = np.einsum('imb,ibk,ki->im', m, t, p)\n"
        "r = np.einsum('ikm,im->ik', d, o)\n"
        "b = np.broadcast_to(a, (n, 2, 2))\n"
    )
    assert _dense_calls(tree) == [(1, "np.tile"), (2, "np.einsum")]


def _call_graph(trees) -> dict:
    """Name -> names it calls, for every module-level function, method and
    class (a class calls what its methods call; a function what its nested
    functions call).  Calls are matched by name, so the graph may hold edges
    that never run but misses none within the package."""
    graph = {}

    def callees(node) -> set:
        return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                for c in ast.walk(node) if isinstance(c, ast.Call)
                and isinstance(c.func, (ast.Name, ast.Attribute))}

    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                graph.setdefault(node.name, set()).update(callees(node))
            elif isinstance(node, ast.ClassDef):
                graph.setdefault(node.name, set()).update(callees(node))
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        graph.setdefault(item.name, set()).update(callees(item))
    return graph


def _reached(graph, start) -> set:
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        for callee in graph.get(name, ()):
            if callee not in seen:
                seen.add(callee)
                todo.append(callee)
    return seen


def test_rewrite_builds_no_whole_contamination_model():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]
    assert _reached(_call_graph(trees), "rewrite_table") & WHOLE_MODEL_BUILDERS == set()


def test_call_graph_follows_helpers_and_classes():
    tree = ast.parse(
        "def rewrite_table(spec, j):\n"
        "    s = _System(spec, j)\n"
        "    return helper(s)\n"
        "def helper(s):\n"
        "    return s.observed\n"
        "class _System:\n"
        "    def __init__(self, spec, j):\n"
        "        self.cm = observed_distribution(spec, j)\n"
        "def unrelated():\n"
        "    return _contamination_model(None)\n"
    )
    reached = _reached(_call_graph([tree]), "rewrite_table")
    assert {"_System", "helper", "observed_distribution"} <= reached
    assert "_contamination_model" not in reached


# ``import wslrr.cli`` and the modules its commands import when they run, in a
# fresh interpreter, after the modules it shares with numpy and the standard
# library's argument parser, printing the source compiles it makes and the
# record classes it defines
_COMPILE_COUNT = """
import inspect, json, sys, argparse, numpy
compiles = []
sys.addaudithook(lambda ev, args: ev == "compile" and args[1] == "<string>" and compiles.append(1))
import wslrr.cli, wslrr.verify
records = {c for m in list(sys.modules.values()) if m.__name__.startswith("wslrr")
           for c in vars(m).values() if isinstance(c, type) and "_fields" in vars(c)}
print(len(compiles), len(records))
"""


def test_import_compiles_at_most_one_method_per_record():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _COMPILE_COUNT], env=env, capture_output=True,
                         text=True, check=True).stdout
    compiles, records = map(int, out.split())
    assert compiles <= RECORDS  # stdlib dataclasses made 170
    assert records == RECORDS


# ``wslrr simulate`` as a fresh ``python -m wslrr.cli`` process: the modules it imports
def test_simulate_imports_neither_the_harness_nor_the_trainer(tmp_path):
    from wslrr.core import joint_to_json
    from wslrr.verify import scenario_joint
    joint = tmp_path / "j.json"
    joint.write_text(joint_to_json(scenario_joint("Soft", 3, 5, 2, 7, 0)))
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    argv = ["simulate", "--joint", str(joint), "--scenario", "Soft", "--n", "50", "--seed", "1",
            "--out", str(tmp_path / "d.json")]
    # -X importtime writes one "import time: self | cumulative | module" line per import
    log = subprocess.run([sys.executable, "-X", "importtime", "-m", "wslrr.cli", *argv], env=env,
                         capture_output=True, text=True, check=True).stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in log.splitlines() if line.startswith("import time:")}
    assert (tmp_path / "d.json").exists()
    assert {"wslrr.scenarios", "wslrr.datagen"} <= imported
    assert {"wslrr.verify", "wslrr.train", "wslrr.risk", "wslrr.decontam"}.isdisjoint(imported)


def _dataclass_imports(tree) -> list:
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
            or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")]


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert _dataclass_imports(ast.parse(path.read_text(), filename=str(path))) == [], path.name


def test_import_finder_sees_both_forms():
    tree = ast.parse("import dataclasses\nfrom dataclasses import field\nimport json\n"
                     "from .core import record\n")
    assert _dataclass_imports(tree) == [1, 2]
