"""Count the code, docstring, comment and blank lines of each module in
src/multidiac, and their totals: the design metric ROADMAP.md tracks.

A line of a module, class or function docstring is a docstring line
(blank lines inside it included), a line whose first non-blank character
is `#` a comment line, an empty or all-whitespace line a blank line, and
every other line a code line.

    python tools/src_lines.py [PACKAGE_DIR]
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict[str, int]:
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring.update(range(doc.lineno, doc.end_lineno + 1))
    tally = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        if number in docstring:
            tally["docstring"] += 1
        elif not line.strip():
            tally["blank"] += 1
        elif line.lstrip().startswith("#"):
            tally["comment"] += 1
        else:
            tally["code"] += 1
    return tally


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1] / "src" / "multidiac"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS))
    for path in sorted(package.glob("*.py")):
        tally = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += tally[k]
        print(f"{path.stem:<16}" + "".join(f"{tally[k]:>10,}" for k in KINDS))
    print(f"{'total':<16}" + "".join(f"{total[k]:>10,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
