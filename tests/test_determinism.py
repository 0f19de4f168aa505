"""Outputs do not depend on the interpreter's string hash seed.

Node ids, store documents, highlight spans and formatted text must be the
same bytes in every run.  Set iteration order over strings changes with
PYTHONHASHSEED, so the pipeline runs in two interpreters with different
seeds and the hashes of what each stage writes are compared.
"""

import os
import subprocess
import sys
from pathlib import Path

import gramweave

SRC = str(Path(gramweave.__file__).resolve().parent.parent)

PIPELINE = """
import hashlib
from gramweave import (assign_groups, format_tree, parse_aspect, parse_grammar,
                       parse_input, parse_lexer_spec, serialize_store, tokenize, weave)
from support import fixture

tree = parse_grammar(fixture("java5.g"), "java5.g")
aspects = [parse_aspect(fixture(name), name) for name in ("highlight.aspect", "pretty.aspect")]
store = weave(tree, aspects)
lexer = parse_lexer_spec(fixture("java.lex"), "java.lex")
parsed = parse_input(tree, "normalClassDeclaration",
                     tokenize(lexer, tree, fixture("inputs/classbody.java")))
for out in (serialize_store(store), repr(assign_groups(parsed, store)),
            format_tree(parsed, store)):
    print(hashlib.sha256(out.encode()).hexdigest())
"""


def run_pipeline(seed: str) -> list:
    paths = [SRC, str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run([sys.executable, "-c", PIPELINE], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_outputs_equal_across_hash_seeds():
    first = run_pipeline("0")
    assert len(first) == 3
    assert run_pipeline("1") == first
