"""Static checks of the package source with the standard library's `ast`:
no import is left unused, no private module-level name is left
unreferenced, as happens when the code that used it goes, every cap is
read by some module other than the one that declares it, no loop draws
its random numbers one call at a time where one vector draw would do,
no public def is reached from the tests alone unless it is listed as
library API, and HiGHS is reached only through the public `linprog`,
imported where it is used."""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmdlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name read in `tree`."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imports(tree: ast.Module):
    """(line, bound name) of each import statement at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded_names(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imports(tree) if name not in used]
    assert unused == []


def _module_level_private_names(tree: ast.Module):
    """(line, name) of each private, not dunder, name a module defines at
    its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_level_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    unreferenced = [f"{name}:{line} {private}" for name, tree in trees.items()
                    for line, private in _module_level_private_names(tree)
                    if private not in referenced]
    assert unreferenced == []


def test_every_cap_is_read_outside_caps():
    # a cap that no module reads bounds nothing
    from gmdlab.caps import Caps

    read = set()
    for path in MODULES:
        if path.name != "caps.py":
            read |= {node.attr for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}
    unread = [f.name for f in fields(Caps) if f.name not in read]
    assert unread == []


# A draw is scalar without `size` and with at most this many positional
# arguments; `random(k)` gives the doubles of k scalar calls in order.
SCALAR_DRAWS = {"random": 0, "integers": 2}
# (module, function) whose scalar draws in a loop stay, and why
SCALAR_DRAW_EXEMPT = {
    ("dicttest.py", "adversarial_functions"):
        "a scalar bounded draw takes a 64-bit word where a vector one takes 32 bits",
}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _is_scalar_draw(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SCALAR_DRAWS
            and len(node.args) <= SCALAR_DRAWS[node.func.attr]
            and all(kw.arg != "size" for kw in node.keywords))


def _scalar_draws_in_loops(tree: ast.Module):
    """(enclosing function, line) of each scalar draw anywhere inside a loop
    or comprehension of that function."""
    def visit(node, func, in_loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func, in_loop = getattr(node, "name", func), False
        elif isinstance(node, _LOOPS):
            in_loop = True
        elif in_loop and _is_scalar_draw(node):
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func, in_loop)
    yield from visit(tree, None, False)


def test_no_scalar_draw_in_a_loop():
    found = {(path.name, func, line) for path in MODULES
             for func, line in _scalar_draws_in_loops(_tree(path))}
    assert sorted(f"{name}:{line} {func}" for name, func, line in found
                  if (name, func) not in SCALAR_DRAW_EXEMPT) == []
    # an exemption whose draws are gone exempts nothing
    assert {(name, func) for name, func, _ in found} >= set(SCALAR_DRAW_EXEMPT)


def _names_and_strings(node: ast.AST) -> set[str]:
    """Every name `node` reads, attribute it takes, name it imports and
    string constant it holds: the last catches names looked up by text,
    as perfbench's span table does."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


# Public defs that only the tests call: library API that states a claim of
# the paper or of the lab, with why each one stays in src.
TEST_ONLY_API = {
    "gp_price_completion": "the pricing quarter algorithm's best response to a zero set",
    "quarter_expectation_gmd": "the max-dicut quarter algorithm's exact expectation, at least opt/4",
    "quarter_expectation_gp": "the pricing quarter algorithm's exact expectation, at least opt/4",
    "greedy_completion": "the best labeling of a zero set, on which zero-set enumeration rests",
    "exact_correlation": "the correlated space's correlation, computed two ways; an acceptance claim",
    "influence": "a coordinate's influence, which the soundness analysis bounds",
    "dictator_beats_soundness_line": "the exact threshold T > 160000/81 where dictators beat soundness",
    "check_path_decomposable": "the l-path decomposability the gap instances need, checked per block",
    "normal_cdf": "the Gaussian cdf beside `normal_sf`, for the Gaussian bounds",
    "gamma_rho_orthant": "the orthant closed form of Gamma_rho at 1/2, an acceptance claim",
    "first_product_bound_T": "the smallest T whose product-bound rows pass, an acceptance claim",
    "canonical_pricing": "the reduction's power-of-M pricing of a labeling, an acceptance claim",
    "decode_pricing": "the reduction's decoding of a pricing into a labeling, an acceptance claim",
    "principal_part": "the head-side revenue of the reduction's value split",
    "nonprincipal_part": "the tail-side revenue the reduction's analysis bounds",
    "local_distribution_tree": "the exact local distribution of a forest, for the Sherali-Adams solution",
    "noise_for_target_gap": "the largest noise the rounding analysis tolerates, an acceptance claim",
    "round_and_estimate": "shared-Gaussian rounding of a vector system, an acceptance claim",
}


def test_every_public_module_level_def_is_referenced():
    # a public function or class that nothing in src or perfbench names is
    # dead code, or a reference that belongs in the tests, unless it is
    # library API listed in TEST_ONLY_API; a reference inside its own
    # definition does not count
    root = PACKAGE.parent.parent
    paths = MODULES + sorted((root / "perfbench").glob("*.py"))
    statements = [(path, node) for path in paths for node in _tree(path).body]
    refs = [_names_and_strings(node) for _, node in statements]
    unreferenced = {
        node.name: f"{path.name}:{node.lineno} {node.name}"
        for (path, node), own in zip(statements, refs)
        if path in MODULES and isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in other for other in refs if other is not own)
    }
    assert sorted(text for name, text in unreferenced.items() if name not in TEST_ONLY_API) == []
    # an entry that src or perfbench now reaches, or whose def is gone,
    # allows nothing
    assert set(TEST_ONLY_API) <= set(unreferenced)
    tests = set().union(*(_names_and_strings(_tree(path)) for path in (root / "tests").glob("*.py")))
    assert sorted(set(TEST_ONLY_API) - tests) == []


def _import_time_modules(tree: ast.Module):
    """(line, module) of each import that runs when the module is imported:
    every import outside a function body, `from a import b` as a.b."""
    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
    yield from visit(tree)


def test_highs_only_through_linprog_imported_on_use():
    # the private `scipy.optimize._highspy` is not API; `linprog` is, and it
    # is imported where the LP fallback runs, so importing gmdlab does not
    # load scipy.optimize
    naming = [path.name for path in MODULES if "_highspy" in path.read_text(encoding="utf-8")]
    assert naming == []
    eager = [f"{path.name}:{line} {module}" for path in MODULES
             for line, module in _import_time_modules(_tree(path))
             if module == "scipy.optimize" or module.startswith("scipy.optimize.")]
    assert eager == []
