"""Count the code lines of each module under ``src/boolfn``.

A code line is a source line that holds a token other than a comment, a
docstring or layout (newlines, indents, the encoding and the end marker).
A docstring is a string that is a whole statement by itself, which is
where Python reads one: first in a module, class or function.  Prints one
``lines  module`` row per module, in name order, then the total.

Run from the repository root:

    python tools/count_code.py [SRC_DIR]
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines, statement = set(), []
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                # a statement that is one string alone is a docstring
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    lines.update(ln for t in statement for ln in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "boolfn"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
