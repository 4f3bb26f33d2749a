"""Count the code lines of Python files: lines that hold some token other
than a comment, and are not part of a docstring.  Blank lines, comment-only
lines and docstrings (a string that is a statement of its own) do not count;
a line that a statement and a trailing comment share counts once.  Stdlib
``tokenize`` only, so it runs on any supported Python.  Prints one line per
file and the total, for each path given (a file, or a directory searched
for ``*.py``):

    python .github/code_lines.py src/secvne
"""

import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokens:
        if tok.type in LAYOUT:
            if tok.type == tokenize.NEWLINE and statement:
                # A statement that is one string alone is a docstring.
                if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    for t in statement:
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for arg in paths:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path.as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
