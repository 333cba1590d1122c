"""The functor reader: every error message it raises, pinned word for word
with its line number."""

import pytest

from coalgpath.modelio import ModelParseError, parse_coalgebra, parse_functor_text

DEEP = "prod(" * 101 + "id" + ")" * 101
# about half as deep in the text as once substituted
HALF = "prod(" * 49 + "id" + ")" * 49
# each composition doubles the expression: shallow, but 2**41 nodes
CHAIN = "id"
for _ in range(40):
    CHAIN = f"compose(prod(id, id), {CHAIN})"

# (functor text, message)
FUNCTOR_ERRORS = [
    ("frobnicate(id)", "unknown functor constructor 'frobnicate'"),
    ("prod(id, ,)", "unknown functor constructor ','"),
    (DEEP, "functor expression nested deeper than 100 levels"),
    (f"compose({HALF}, prod(prod({HALF})))", "composite functor exceeds 100 levels or 10000 nodes once substituted"),
    (CHAIN, "composite functor exceeds 100 levels or 10000 nodes once substituted"),
    ("analytic{ p/2 [(1 3)] }", "cycle entry 3 out of range"),
    ("analytic{ p/2 [(0 1)] }", "cycle entry 0 out of range"),
    ("analytic{ p/3 [(1 2)(2 3)] }", "cycle entry 2 repeated within one generator"),
    ("analytic{ p/2 [(1 1)] }", "cycle entry 1 repeated within one generator"),
    ("prod(id; id)", "expected ')', got ';'"),
    ("sort x", "expected '(', got 'x'"),
    ("sort(x y)", "expected ')', got 'y'"),
    ("pf id", "expected '(', got 'id'"),
    ("compose(id id)", "expected ',', got 'id'"),
    ("analytic[ p/0 ]", "expected '{', got '['"),
    ("analytic{ p 2 }", "expected '/', got '2'"),
    ("analytic{ p/0 ]", "expected '}', got ']'"),
    ("analytic{ p/2 [(1 2) ; ()] }", "expected ',', got ';'"),
    ("analytic{ p/2 [1 2] }", "expected '(', got '1'"),
    ("const(a , b)", "expected a name, got ','"),
    ("analytic{ p/x }", "expected an integer, got 'x'"),
    ("analytic{ p/2 [(1 y)] }", "expected an integer, got 'y'"),
    ("id id", "trailing input after functor expression: 'id'"),
    ("prod(id) )", "trailing input after functor expression: ')'"),
    ("prod(id,", "unexpected end of input"),
    ("const(a b", "unexpected end of input"),
    ("sort(", "unexpected end of input"),
    ("analytic{ p/2 [(1 2", "unexpected end of input"),
    ("analytic{ p/2 [(1 2)", "unexpected end of input"),
    ("analytic{ p/0 ;", "unexpected end of input"),
    ('const("a)', "unterminated quoted name"),
    ("const(a?)", "unexpected character '?'"),
]
IDS = [f"{i}-{message.split(' ')[0]}" for i, (_t, message) in enumerate(FUNCTOR_ERRORS)]


@pytest.mark.parametrize("functor_text, message", FUNCTOR_ERRORS, ids=IDS)
class TestFunctorErrorMessages:
    def test_with_a_line_number(self, functor_text, message):
        with pytest.raises(ModelParseError) as exc:
            parse_functor_text(functor_text, 7)
        assert str(exc.value) == f"line 7: {message}"
        assert exc.value.line == 7

    def test_without_a_line_number(self, functor_text, message):
        with pytest.raises(ModelParseError) as exc:
            parse_functor_text(functor_text)
        assert str(exc.value) == message
        assert exc.value.line is None

    def test_in_a_model_file(self, functor_text, message):
        text = f"[functor]\n# the bad functor\n{functor_text}\n\n[states]\nq0\n\n[init]\n* -> q0\n"
        with pytest.raises(ModelParseError) as exc:
            parse_coalgebra(text)
        assert str(exc.value) == f"line 3: {message}"
        assert exc.value.line == 3


def test_empty_text_ends_early():
    with pytest.raises(ModelParseError, match=r"^unexpected end of input$"):
        parse_functor_text("")
