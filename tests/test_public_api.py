"""One consumer per public name: what no module of ringmzi uses belongs with the tests."""

import ast
from pathlib import Path

import ringmzi

PACKAGE = Path(ringmzi.__file__).parent


def test_every_public_name_has_a_consumer():
    """Another module reads or imports each name ringmzi exports, outside its own definition,
    from reached code: an import, a private definition or that of a consumed public name."""
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    statements = []  # (names bound, names read or imported) of each top-level statement
    for path in set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            nodes = list(ast.walk(statement))
            names = [(node.id, type(node.ctx)) for node in nodes if isinstance(node, ast.Name)]
            binds = ({statement.name} if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
                     else {name for name, ctx in names if ctx is ast.Store})
            reads = {name for name, ctx in names if ctx is ast.Load} | {
                alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                for alias in node.names}
            statements.append((binds, reads))
    consumed, reached = None, set()
    while reached != consumed:  # a public definition is reached once its name is consumed
        consumed = reached
        reached = public & set().union(*(reads for binds, reads in statements
                                         if binds & public <= consumed))
    assert sorted(public - consumed) == []
