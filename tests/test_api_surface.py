"""Every public name in src/qfoundry is reached from the command line.

The walk starts at cli.main.  A reached definition reaches each
module-level name, in any module, that it mentions as a bare name, and each
module-level name or method whose identifier it mentions as an attribute; a
reached class also runs its class body and its dunder methods.  Resolving by
identifier over-approximates the reached set: a method `Subspace.full`
would count as reached because ks mentions its own `self.full`.  So a name
this test passes may still be unused, but a name it flags is reached by no
command.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qfoundry"

# public names that no command reaches, kept on purpose, by reason
KEPT = {
    "perfbench/workloads.py hooks it (ks.orthogonal is exact.orthogonal) or its "
    "workload checks use it": {
        "exact.orthogonal", "ks.ExhaustionCertificate", "ks.SearchResult.certificate",
        "ks.is_valid_coloring", "logic.l2_implication",
    },
    "ROADMAP item 5 uses it in the MKC simulator or deletes it": {
        "mkc.ValuationSeed", "mkc.ValuationSeed.choice", "mkc.ValuationSeed.value",
        "mkc.sample_valuation",
    },
}


def _definitions() -> dict:
    """{qualified name: (identifier, AST nodes that run once it is reached)}
    for the module-level names and the methods of every module."""
    defs = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                for m in methods:
                    defs[f"{path.stem}.{node.name}.{m.name}"] = (m.name, [m])
                own = [*node.decorator_list, *node.bases,
                       *(s for s in node.body if s not in methods),
                       *(m for m in methods if m.name.startswith("__"))]
                defs[f"{path.stem}.{node.name}"] = (node.name, own)
            elif isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, [node])
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        defs[f"{path.stem}.{t.id}"] = (t.id, [node])
    return defs


def _reached(defs: dict) -> set:
    by_identifier = {}
    for qualified, (identifier, _) in defs.items():
        by_identifier.setdefault(identifier, []).append(qualified)
    reached, todo = {"cli.main"}, ["cli.main"]
    while todo:
        for sub in (s for node in defs[todo.pop()][1] for s in ast.walk(node)):
            if isinstance(sub, ast.Name):
                found = [q for q in by_identifier.get(sub.id, ()) if q.count(".") == 1]
            else:
                found = by_identifier.get(getattr(sub, "attr", None), ())
            for qualified in found:
                if qualified not in reached:
                    reached.add(qualified)
                    todo.append(qualified)
    return reached


def test_every_public_name_is_reached_from_the_cli():
    defs = _definitions()
    reached = _reached(defs)
    unreached = {q for q in defs if q not in reached
                 and not any(part.startswith("_") for part in q.split(".")[1:])}
    kept = set().union(*KEPT.values())
    assert not unreached - kept, f"no command reaches {sorted(unreached - kept)}"
    assert not kept - unreached, f"kept names gone or now reached: {sorted(kept - unreached)}"
