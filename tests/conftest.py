import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gramweave import parse_aspect, parse_grammar, parse_lexer_spec, weave
from support import FIXTURES, fixture


@pytest.fixture(scope="session")
def arith():
    return parse_grammar(fixture("arith.g"), "arith.g")


@pytest.fixture(scope="session")
def arith_lexer():
    return parse_lexer_spec(fixture("arith.lex"), "arith.lex")


@pytest.fixture(scope="session")
def java5():
    return parse_grammar(fixture("java5.g"), "java5.g")


@pytest.fixture(scope="session")
def java14():
    return parse_grammar(fixture("java14.g"), "java14.g")


@pytest.fixture(scope="session")
def java_lexer():
    return parse_lexer_spec(fixture("java.lex"), "java.lex")


@pytest.fixture(scope="session")
def highlight_aspect():
    return parse_aspect(fixture("highlight.aspect"), "highlight.aspect")


@pytest.fixture(scope="session")
def pretty_aspect():
    return parse_aspect(fixture("pretty.aspect"), "pretty.aspect")


@pytest.fixture(scope="session")
def highlight_store(java5, highlight_aspect):
    return weave(java5, [highlight_aspect])


@pytest.fixture(scope="session")
def pretty_store(java5, pretty_aspect):
    return weave(java5, [pretty_aspect])


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture()
def default_recursion_limit():
    """Run the test at CPython's default recursion limit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)
