"""gramweave: keep context-free grammars clean and weave tool-specific
annotations onto them from separately written aspect files.

The pipeline: parse a grammar into a grammar tree, weave aspects
(pattern + advice rules) into an annotation store, then drive backends
off the store: a syntax highlighter and a pretty-printer, both working
on parse trees whose every token knows its grammar-tree provenance.
"""

from .annotations import (FLAG, Annotation, AnnotationStore, Attribute,
                          IntValue, NameValue, Provenance, PunctValue,
                          RecordValue, SeqValue, StrValue, deserialize_store,
                          parse_annotation, serialize_store)
from .aspects import (DEFAULT_MULTIPLICITY, Aspect, AnnotationRule,
                      Multiplicity, Subpattern, VariableAnnotation,
                      WeaveError, parse_aspect, weave)
from .earley import (ParseLeaf, ParseNode, ParseTree, leaves, parse_input,
                     token_contexts)
from .errors import (ConflictError, GramweaveError, LexError, NotationError,
                     ParseError, WeaveFailure, WhitespaceError)
from .grammar import (GrammarTree, GtNode, parse_grammar, serialize_grammar)
from .highlight import (PLAIN, HighlightSpan, Palette, Style, assign_groups,
                        html_page, parse_palette, render_ansi, render_html,
                        strip_ansi, stylesheet)
from .lexer import LexerSpec, Token, parse_lexer_spec, tokenize
from .patterns import (MatchResult, RulePattern, match_rules, match_within,
                       parse_rule_pattern, parse_subpattern)
from .prettyprint import FormatterState, decode_whitespace, format_tree

__version__ = "0.1.0"

__all__ = [
    "FLAG", "Annotation", "AnnotationStore", "Attribute", "IntValue",
    "NameValue", "Provenance", "PunctValue", "RecordValue", "SeqValue",
    "StrValue", "deserialize_store", "parse_annotation", "serialize_store",
    "DEFAULT_MULTIPLICITY", "Aspect", "AnnotationRule", "Multiplicity",
    "Subpattern", "VariableAnnotation", "WeaveError", "parse_aspect", "weave",
    "ParseLeaf", "ParseNode", "ParseTree", "leaves", "parse_input",
    "token_contexts",
    "ConflictError", "GramweaveError", "LexError", "NotationError",
    "ParseError", "WeaveFailure", "WhitespaceError",
    "GrammarTree", "GtNode", "parse_grammar", "serialize_grammar",
    "PLAIN", "HighlightSpan", "Palette", "Style", "assign_groups",
    "html_page", "parse_palette", "render_ansi", "render_html", "strip_ansi",
    "stylesheet",
    "LexerSpec", "Token", "parse_lexer_spec", "tokenize",
    "MatchResult", "RulePattern", "match_rules", "match_within",
    "parse_rule_pattern", "parse_subpattern",
    "FormatterState", "decode_whitespace", "format_tree",
    "__version__",
]
