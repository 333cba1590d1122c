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

# (functor text, message), each named by a fixed id: a row inserted, moved
# or deleted renames no other row's tests
FUNCTOR_ERRORS = [
    pytest.param("frobnicate(id)", "unknown functor constructor 'frobnicate'", id="0-unknown"),
    pytest.param("prod(id, ,)", "unknown functor constructor ','", id="1-unknown"),
    pytest.param(DEEP, "functor expression nested deeper than 100 levels", id="2-functor"),
    pytest.param(f"compose({HALF}, prod(prod({HALF})))",
                 "composite functor exceeds 100 levels or 10000 nodes once substituted", id="3-composite"),
    pytest.param(CHAIN, "composite functor exceeds 100 levels or 10000 nodes once substituted", id="4-composite"),
    pytest.param("analytic{ p/2 [(1 3)] }", "cycle entry 3 out of range", id="5-cycle"),
    pytest.param("analytic{ p/2 [(0 1)] }", "cycle entry 0 out of range", id="6-cycle"),
    pytest.param("analytic{ p/3 [(1 2)(2 3)] }", "cycle entry 2 repeated within one generator", id="7-cycle"),
    pytest.param("analytic{ p/2 [(1 1)] }", "cycle entry 1 repeated within one generator", id="8-cycle"),
    pytest.param("prod(id; id)", "expected ')', got ';'", id="9-expected"),
    pytest.param("sort x", "expected '(', got 'x'", id="10-expected"),
    pytest.param("sort(x y)", "expected ')', got 'y'", id="11-expected"),
    pytest.param("plus1 id", "expected '(', got 'id'", id="12-expected"),
    pytest.param("compose(id id)", "expected ',', got 'id'", id="13-expected"),
    pytest.param("analytic[ p/0 ]", "expected '{', got '['", id="14-expected"),
    pytest.param("analytic{ p 2 }", "expected '/', got '2'", id="15-expected"),
    pytest.param("analytic{ p/0 ]", "expected '}', got ']'", id="16-expected"),
    pytest.param("analytic{ p/2 [(1 2) ; ()] }", "expected ',', got ';'", id="17-expected"),
    pytest.param("analytic{ p/2 [1 2] }", "expected '(', got '1'", id="18-expected"),
    pytest.param("const(a , b)", "expected a name, got ','", id="19-expected"),
    pytest.param("analytic{ p/x }", "expected an integer, got 'x'", id="20-expected"),
    pytest.param("analytic{ p/2 [(1 y)] }", "expected an integer, got 'y'", id="21-expected"),
    pytest.param("id id", "trailing input after functor expression: 'id'", id="22-trailing"),
    pytest.param("prod(id) )", "trailing input after functor expression: ')'", id="23-trailing"),
    pytest.param("prod(id,", "unexpected end of input", id="24-unexpected"),
    pytest.param("const(a b", "unexpected end of input", id="25-unexpected"),
    pytest.param("sort(", "unexpected end of input", id="26-unexpected"),
    pytest.param("analytic{ p/2 [(1 2", "unexpected end of input", id="27-unexpected"),
    pytest.param("analytic{ p/2 [(1 2)", "unexpected end of input", id="28-unexpected"),
    pytest.param("analytic{ p/0 ;", "unexpected end of input", id="29-unexpected"),
    pytest.param('const("a)', "unterminated quoted name", id="30-unterminated"),
    pytest.param("const(a?)", "unexpected character '?'", id="31-unexpected"),
    # G = Pf . F: the branching is implicit, so F never holds the powerset
    pytest.param("pf(id)", "the branching layer is implicit; F must be powerset-free", id="32-the"),
    pytest.param("compose(pf(id), id)", "the branching layer is implicit; F must be powerset-free", id="33-the"),
]


@pytest.mark.parametrize("functor_text, message", FUNCTOR_ERRORS)
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
