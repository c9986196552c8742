"""Every name a module of the package imports is used in that module,
every private top-level name is used somewhere in the package, and each
module imports only modules of earlier pipeline layers."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "strata"
# __init__.py imports names only to export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    """Names bound by import statements anywhere in source and never read."""
    imported = set()
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


def test_checker_finds_unused_imports():
    source = (
        "import os\nimport os.path as osp\nfrom x import y, z as w\n"
        "def f():\n    import sympy\n    return y, 'os'\n"
    )
    assert _unused_imports(source) == ["os", "osp", "sympy", "w"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


# the pipeline, earliest layer first
LAYERS = ("exactlin", "quiver", "repcat", "exceptional", "perpcat", "strat", "cli")


def _package_imports(source: str):
    """Modules of the package that source imports with a relative import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(a.name for a in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_layers_cover_the_package():
    assert sorted(f"{m}.py" for m in LAYERS) == MODULES


@pytest.mark.parametrize("module", LAYERS)
def test_imports_follow_pipeline_order(module):
    earlier = set(LAYERS[: LAYERS.index(module)])
    assert _package_imports((PACKAGE / f"{module}.py").read_text()) <= earlier


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(stmt):
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _dead_private_names(sources):
    """Private top-level names of {module: source} that no other top-level
    statement of any module refers to (a self-recursive helper is dead)."""
    statements = [
        (module, i, stmt)
        for module, source in sources.items()
        for i, stmt in enumerate(ast.parse(source).body)
    ]
    refs = {(module, i): _referenced_names(stmt) for module, i, stmt in statements}
    dead = []
    for module, i, stmt in statements:
        for name in _defined_names(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for key, r in refs.items() if key != (module, i)):
                dead.append(f"{module}:{name}")
    return sorted(dead)


def test_checker_finds_dead_private_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n"
            "def _used():\n    return _LIMIT\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Imported:\n    pass\n"
            "def public():\n    return _used()\n"
        ),
        "b.py": "from .a import _Imported\nimport a\nx = a._attr_only\n_attr_only = 1\n",
    }
    assert _dead_private_names(sources) == ["a.py:_SPARE", "a.py:_recursive"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(sources) == []


# public names that no module of the package and no benchmark file refers
# to: bench/spans.py wraps the first two by their names as strings, and
# jh-verify does not use the stratification trees yet
UNREFERENCED_PUBLIC = {
    "bongartz_complement",
    "flatten_to_chain",
    "is_isomorphic",
    "stratification_trees",
}


def _unreferenced_public_names(public, sources):
    """The names of public that no source in sources refers to as a name,
    an attribute or an imported name."""
    refs = set().union(*(_referenced_names(ast.parse(source)) for source in sources))
    return sorted(set(public) - refs)


def test_checker_finds_unreferenced_public_names():
    sources = [
        "from .repcat import hom_dim as hd\nimport strata\nx = strata.decompose(1)\n",
        "def direct_sum():\n    return end_dim, 'simple'\n",
    ]
    public = ["decompose", "direct_sum", "end_dim", "hom_dim", "simple"]
    assert _unreferenced_public_names(public, sources) == ["direct_sum", "simple"]


def test_every_public_name_is_referenced():
    """Each name of strata.__all__ serves the pipeline, a verb or the
    benchmark: a module other than __init__.py, or a benchmark file, refers
    to it."""
    import strata

    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    sources = [p.read_text() for p in files]
    assert _unreferenced_public_names(strata.__all__, sources) == sorted(UNREFERENCED_PUBLIC)

def _bench_wrap_targets(source: str):
    """(module, name) of FUNCTIONS and the names of ELIMINATION, read from
    the source of bench/spans.py without importing it."""
    functions, elimination = [], []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Assign) or not isinstance(stmt.targets[0], ast.Name):
            continue
        if stmt.targets[0].id == "FUNCTIONS":
            functions = [(e.elts[0].id, e.elts[1].value) for e in stmt.value.elts]
        elif stmt.targets[0].id == "ELIMINATION":
            elimination = [e.value for e in stmt.value.elts]
    return functions, elimination


def test_benchmark_wrap_targets_exist():
    """bench/spans.py wraps these by name; a rename must not break --trace 1."""
    import importlib

    from strata.exactlin import Mat

    source = (PACKAGE.parents[1] / "bench" / "spans.py").read_text()
    functions, elimination = _bench_wrap_targets(source)
    assert functions and elimination
    for module, name in functions:
        assert callable(getattr(importlib.import_module(f"strata.{module}"), name, None)), (
            f"strata.{module}.{name}"
        )
    for method in elimination:
        assert callable(getattr(Mat, method, None)), f"Mat.{method}"


# the functions of repcat.py that may build a RepMap without checking it:
# each result is a morphism by theorem
UNCHECKED_MAKERS = {
    "repcat.py": {
        "RepMap.after",
        "identity_map",
        "_hom_basis",
        "_combo",
        "_eval_poly_on_endo",
    },
}


def _make_refs(node, names, scope=()):
    """Enclosing scopes of the `X._make` attributes under node, for X in
    names, or X self/cls inside the class RepMap."""
    if isinstance(node, ast.Attribute) and node.attr == "_make":
        base = getattr(node.value, "id", None)
        if base in names or (scope[:1] == ("RepMap",) and base in ("self", "cls")):
            yield ".".join(scope) or "<module>"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _make_refs(child, names, scope)


def _unchecked_repmap_sites(sources):
    """(module, enclosing function) of every reference to RepMap._make in
    {module: source}, also through an alias bound by `import RepMap as ...`;
    "<module>" at top level."""
    sites = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {"RepMap"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(a.asname or a.name for a in node.names if a.name == "RepMap")
        sites.update((module, scope) for scope in _make_refs(tree, names))
    return sorted(sites)


def test_checker_finds_unchecked_repmap_sites():
    sources = {
        "repcat.py": (
            "class RepMap:\n"
            "    def _make(cls, s, t, b):\n        pass\n"
            "    def scale(self, c):\n        return RepMap._make(1, 2, ())\n"
            "    def twice(self):\n        return self._make(1, 2, ())\n"
            "def hom_space(M, N):\n    return Mat._make(1, 2, 3, ())\n"
            "def kernel_rep(f):\n    return RepMap._make(1, 2, ())\n"
        ),
        "perpcat.py": (
            "from .repcat import RepMap as R\n"
            "MAKE = R._make\n"
            "def lift(x):\n    return RepMap._make(x, x, ())\n"
        ),
    }
    assert _unchecked_repmap_sites(sources) == [
        ("perpcat.py", "<module>"),
        ("perpcat.py", "lift"),
        ("repcat.py", "RepMap.scale"),
        ("repcat.py", "RepMap.twice"),
        ("repcat.py", "kernel_rep"),
    ]


def test_unchecked_repmap_sites_are_the_named_makers():
    """RepMap._make checks nothing, so only the functions whose results are
    morphisms by construction may call it; everything else goes through the
    checked RepMap(...)."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    allowed = sorted((m, f) for m, names in UNCHECKED_MAKERS.items() for f in names)
    assert _unchecked_repmap_sites(sources) == allowed


# a cut of a stratification tree is an exceptional sequence already, so the
# tree route neither splits a sum nor orders summands
DECOMPOSERS = {"decompose", "distinct_summands", "order_into_exceptional_sequence"}


def _decomposer_refs(source: str):
    """The names of DECOMPOSERS that source refers to, as a name, an
    attribute or an imported name."""
    return sorted(_referenced_names(ast.parse(source)) & DECOMPOSERS)


def test_checker_finds_decomposer_refs():
    source = (
        "from .repcat import decompose as split, direct_sum\n"
        "from . import exceptional\n"
        "def f(x):\n    return exceptional.order_into_exceptional_sequence(split(x))\n"
    )
    assert _decomposer_refs(source) == ["decompose", "order_into_exceptional_sequence"]


def test_tree_route_decomposes_nothing():
    assert _decomposer_refs((PACKAGE / "strat.py").read_text()) == []


def test_coresolution_certificate_decomposes_nothing():
    """T_1 lies in add T by its rigidity and dimension vector."""
    text = (PACKAGE / "exceptional.py").read_text()
    node = next(
        n for n in ast.parse(text).body
        if isinstance(n, ast.FunctionDef) and n.name == "_coresolution"
    )
    assert _decomposer_refs(ast.get_source_segment(text, node)) == []


# exactlin's elimination and kernel read-off on raw integer rows; outside
# exactlin only the functions of repcat that eliminate the Hom system may use
# them, and everything else eliminates through Mat
ELIMINATION_ENTRY_POINTS = {"_reduce", "_eliminate", "_kernel_vectors"}
HOM_SYSTEM_ELIMINATORS = {
    "repcat.py": {"_hom_system_rank", "_hom_echelon", "_hom_basis", "ext1_space"}
}


def _entry_point_refs(node, names, scope=()):
    """Enclosing scopes of the names in names under node, referred to as a
    name or as an attribute (exactlin._reduce)."""
    if (isinstance(node, ast.Name) and node.id in names) or (
        isinstance(node, ast.Attribute) and node.attr in names
    ):
        yield ".".join(scope) or "<module>"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope += (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _entry_point_refs(child, names, scope)


def _elimination_entry_sites(sources):
    """(module, enclosing function) of every reference to an elimination
    entry point in {module: source}, also through an alias bound by
    `import _reduce as ...`; "<module>" at top level."""
    sites = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        names = set(ELIMINATION_ENTRY_POINTS)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(
                    a.asname for a in node.names if a.name in ELIMINATION_ENTRY_POINTS and a.asname
                )
        sites.update((module, scope) for scope in _entry_point_refs(tree, names))
    return sorted(sites)


def test_checker_finds_elimination_entry_sites():
    sources = {
        "repcat.py": (
            "from .exactlin import _kernel_vectors, _reduce\n"
            "def hom_space(M, N):\n    return _kernel_vectors(M, _reduce([], 0, True), 0)\n"
            "class Rep:\n    def rank(self):\n        return len(_reduce([], 0, False))\n"
        ),
        "perpcat.py": (
            "from .exactlin import _reduce as eliminate\n"
            "from . import exactlin\n"
            "READ_OFF = exactlin._kernel_vectors\n"
            "def perp(rows):\n    return eliminate(rows, 0, False)\n"
        ),
        "strat.py": (
            "from .exactlin import _eliminate\n"
            "def clear(v, r):\n    _eliminate(v, r, min(r), 0)\n"
        ),
    }
    assert _elimination_entry_sites(sources) == [
        ("perpcat.py", "<module>"),
        ("perpcat.py", "perp"),
        ("repcat.py", "Rep.rank"),
        ("repcat.py", "hom_space"),
        ("strat.py", "clear"),
    ]


def test_elimination_entry_points_stay_with_the_hom_system():
    """The rows handed to _reduce outside exactlin are the Hom system's."""
    sources = {
        p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "exactlin.py"
    }
    allowed = sorted((m, f) for m, names in HOM_SYSTEM_ELIMINATORS.items() for f in names)
    assert _elimination_entry_sites(sources) == allowed


# the kernel and cokernel of a module map are read off one reduced echelon
# form per vertex; these would find the same unique answers a second time
SECOND_ELIMINATIONS = {"solve_matrix", "hstack", "column_space_pivot_rows"}
ECHELON_READ_OFFS = ("_kernel", "_cokernel")


def _second_elimination_refs(source: str):
    """{name: the SECOND_ELIMINATIONS it refers to} for the top-level
    functions of source named in ECHELON_READ_OFFS."""
    return {
        node.name: sorted(_referenced_names(node) & SECOND_ELIMINATIONS)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in ECHELON_READ_OFFS
    }


def test_checker_finds_second_eliminations():
    source = (
        "from .exactlin import Mat as M\n"
        "def _kernel(f):\n    return f.block(1).solve_matrix(f.block(2))\n"
        "def _cokernel(f):\n"
        "    def pivots(m):\n        return m.column_space_pivot_rows()\n"
        "    return pivots(M.hstack(f, f))\n"
        "def cokernel_rep(f):\n    return f.solve_matrix(f)\n"
    )
    assert _second_elimination_refs(source) == {
        "_kernel": ["solve_matrix"],
        "_cokernel": ["column_space_pivot_rows", "hstack"],
    }


def test_kernels_and_cokernels_eliminate_once_per_vertex():
    refs = _second_elimination_refs((PACKAGE / "repcat.py").read_text())
    assert refs == {"_kernel": [], "_cokernel": []}


def _absolute_imports(source: str):
    """Top-level names of the modules source imports with an absolute import."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_checker_finds_absolute_imports():
    source = (
        "import os.path as osp\nfrom random import Random\nfrom .repcat import random\n"
        "def f():\n    import json\n"
    )
    assert _absolute_imports(source) == {"os", "random", "json"}


def test_only_decompose_draws_at_random():
    """Stratification trees are enumerated, not drawn; only decompose's
    candidate draws in repcat still consume a seed."""
    users = [
        p.name for p in sorted(PACKAGE.glob("*.py"))
        if "random" in _absolute_imports(p.read_text())
    ]
    assert users == ["repcat.py"]
