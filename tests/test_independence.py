"""The independence rule at the level of functions: what each criterion's code can reach.

The four criteria must agree on every (k, p), and that agreement is only a
check if they compute independently. This builds the static call graph of
the package from its source and asks which definitions two criteria's
search entry points both reach.
"""

import ast
import itertools
from pathlib import Path

import wallsunsun

SRC = Path(wallsunsun.__file__).resolve().parent

# Each criterion's search entry points, as module.name.
CRITERION_ROOTS = {
    "period": ("lucas._period_hit", "lucas._periods_p_p2"),
    "entry": ("wss._entry_hit",),
    "alpha": ("quadring._fp_alpha",),
    "monogenic": ("trinomial._fp_divides_index",),
}

EVERY_CRITERION = frozenset(CRITERION_ROOTS)

# What criteria may share: name -> (the criteria that may reach it, why).
SHARED = {
    "lucas._u_pair": (
        frozenset({"period", "entry"}),
        "entry reads U_{p-delta} on period's fast doubling until it moves to the companion V",
    ),
    **{
        f"errors.{name}": (EVERY_CRITERION, "an error class carries a failed check out")
        for name in (
            "CriterionUnsupportedError",
            "FactorizationBudgetError",
            "HypothesisError",
            "InconsistencyError",
            "ResourceBudgetError",
        )
    },
}


def _names_used(node):
    """The names node reads, annotations left out: they are types, not calls."""
    skipped = set()
    for n in ast.walk(node):
        if isinstance(n, ast.arg) and n.annotation is not None:
            skipped.update(map(id, ast.walk(n.annotation)))
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns is not None:
            skipped.update(map(id, ast.walk(n.returns)))
        elif isinstance(n, ast.AnnAssign):
            skipped.update(map(id, ast.walk(n.annotation)))
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and id(n) not in skipped}


def call_graph():
    """module.name of every top-level function and class in the package -> what its body names.

    A name resolves through the module's own definitions and its relative imports,
    including imports made inside a function. A class's node covers its methods
    and bases, so calling the class reaches whatever they name.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defs = {
        module: {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for module, tree in trees.items()
    }
    graph = {}
    for module, tree in trees.items():
        scope = {name: f"{module}.{name}" for name in defs[module]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in defs:
                scope.update(
                    (alias.asname or alias.name, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name in defs[node.module]
                )
        for name, node in defs[module].items():
            graph[f"{module}.{name}"] = {scope[n] for n in _names_used(node) if n in scope}
    return graph


def reachable(graph, roots):
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


def test_criteria_share_only_what_the_allow_list_names():
    """Any definition two criteria's entry points both reach is on SHARED, for those criteria.

    The graph sees what code names, not what data flows: a value that one
    criterion computes and a caller, such as wss._classify, hands to another
    is not covered.
    """
    graph = call_graph()
    assert set(SHARED) <= set(graph), set(SHARED) - set(graph)
    reach = {c: reachable(graph, roots) for c, roots in CRITERION_ROOTS.items()}
    # the graph follows local names and imports alike
    assert {"lucas._strip", "intmath.factorize"} <= reach["period"]
    assert {"trinomial._case4_g_h", "trinomial._poly_gcd"} <= reach["monogenic"]
    unlisted = {}
    for a, b in itertools.combinations(CRITERION_ROOTS, 2):
        for name in reach[a] & reach[b]:
            if not {a, b} <= SHARED.get(name, (frozenset(), ""))[0]:
                unlisted.setdefault(name, set()).update((a, b))
    assert not unlisted, unlisted
