"""Count the lines and the settable values of the gowave package.

    python3 tools/count_settable.py [SRC_DIR]

SRC_DIR defaults to the checkout's src/gowave. Printed: the line count of
its *.py files; function parameters, lambdas' included and self and cls
excluded; annotated fields of @dataclass classes; and the config keys of
harness._TABLE. Settable values are the sum of the last three. Only the
standard library is used, and nothing is imported from the package.
"""

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(src: Path) -> dict:
    lines = params = fields = keys = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                params += sum(name not in ("self", "cls") for name in names)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
            elif (path.name == "harness.py" and isinstance(node, ast.Assign)
                  and any(getattr(t, "id", "") == "_TABLE" for t in node.targets)):
                keys += sum(len(section.keys) for section in node.value.values)
    return {"lines": lines, "parameters": params, "fields": fields, "keys": keys}


def main(argv) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "gowave"
    c = count(src)
    print(f"lines       {c['lines']:,}")
    print(f"parameters  {c['parameters']}")
    print(f"fields      {c['fields']}")
    print(f"keys        {c['keys']}")
    print(f"settable    {c['parameters'] + c['fields'] + c['keys']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
