"""The term reader: every error message it raises, pinned word for word
with its line number."""

import pytest

from coalgpath.functors import functor
from coalgpath.modelio import ModelParseError, parse_coalgebra, parse_functor_text, parse_term_text, tokenize
from coalgpath.sets import SortedSet

LTS = "prod(const(a b), id)"
TREE = "analytic{ pair/2 [(1 2)] ; leaf/0 }"

# (functor text, term text, message); the functor is None where the
# tokenizer raises before any term is read
TERM_ERRORS = [
    (None, '(a, "q1', "unterminated quoted name"),
    (None, "(a, q1) ?", "unexpected character '?'"),
    (LTS, "(a, q1) q0", "trailing input after term: 'q0'"),
    (LTS, "(a, q1", "unexpected end of input"),
    (LTS, "(a; q1)", "expected ',', got ';'"),
    ("coprod(const(a), id)", "in2(a)", "injection in2 out of range"),
    ("coprod(const(a), id)", "zz", "term fits no coproduct branch"),
    ("coprod(const(a), const(a b))", "a", "ambiguous coproduct term; use an explicit in<k>(...)"),
    (LTS, "(a, zz)", "'zz' is not an element of sort '*'"),
    (LTS, "(c, q0)", "'c' is not one of the constants ('a', 'b')"),
    (TREE, "foo(q0)", "unknown symbol 'foo'"),
]
IDS = [message.split("'")[0].strip() or message for _f, _t, message in TERM_ERRORS]
CARRIER = SortedSet.single(["q0", "q1"])


def _read(functor_text, term_text, line):
    if functor_text is None:
        return tokenize(term_text, line)
    return parse_term_text(term_text, functor(parse_functor_text(functor_text)).node("*"), CARRIER, line)


@pytest.mark.parametrize("functor_text, term_text, message", TERM_ERRORS, ids=IDS)
class TestTermErrorMessages:
    def test_with_a_line_number(self, functor_text, term_text, message):
        with pytest.raises(ModelParseError) as exc:
            _read(functor_text, term_text, 7)
        assert str(exc.value) == f"line 7: {message}"
        assert exc.value.line == 7

    def test_without_a_line_number(self, functor_text, term_text, message):
        with pytest.raises(ModelParseError) as exc:
            _read(functor_text, term_text, None)
        assert str(exc.value) == message
        assert exc.value.line is None

    def test_in_a_model_file(self, functor_text, term_text, message):
        text = (
            f"[functor]\n{functor_text or LTS}\n\n[states]\nq0 q1\n\n[init]\n* -> q0\n\n"
            f"[trans]\n# the bad term\nq1 -> {term_text}\n"
        )
        with pytest.raises(ModelParseError) as exc:
            parse_coalgebra(text)
        assert str(exc.value) == f"line 12: {message}"
        assert exc.value.line == 12
