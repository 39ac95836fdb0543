"""Test data of the term grammar: the error corpus and the whitespace spread.

It imports nothing from ``bhfix``, so that ``scripts/cli_snapshot.py`` can
read it while it imports the program from another checkout.
"""

# Malformed inputs with the exact error each raises: (dilator selector,
# text, exception class name, message).  Every raise of the grammar and of
# the token parsers appears, and so do the orders between them: the head
# before the term, the syntax of the whole term before any type check, the
# type checks in the order a recursive reader meets them (a support list
# at stage 0 when its ";" is read, a token after its supports), and
# trailing input last.
ERROR_CORPUS = [
    ("successor", "", "TermSyntaxError", "expected '@' at position 0, found 'end of input'"),
    ("successor", "th(top)", "TermSyntaxError", "expected '@' at position 0, found 't'"),
    ("successor", " \t", "TermSyntaxError", "expected '@' at position 2, found 'end of input'"),
    ("successor", "@", "TermSyntaxError", "expected a number at position 1"),
    ("successor", "@x:th(top)", "TermSyntaxError", "expected a number at position 1"),
    ("successor", " @ x", "TermSyntaxError", "expected a number at position 3"),
    ("successor", "@" + "9" * 4301 + ":th(top)", "TermSyntaxError",
     "the stage at position 1 has 4301 digits, more than 4300"),
    ("successor", "@10001:th(top)", "TermTypeError",
     "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@10001", "TermTypeError", "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@10001:th(", "TermTypeError", "stage 10001 exceeds the supported bound 10000"),
    ("successor", "@0", "TermSyntaxError", "expected ':' at position 2, found 'end of input'"),
    ("successor", "@0;th(top)", "TermSyntaxError", "expected ':' at position 2, found ';'"),
    ("successor", "@0:", "TermSyntaxError", "expected 'th' at position 3, found 'end of input'"),
    ("successor", "@0:x(top)", "TermSyntaxError", "expected 'th' at position 3, found 'x('"),
    ("successor", "@0:t", "TermSyntaxError", "expected 'th' at position 3, found 't'"),
    ("successor", "@0:th", "TermSyntaxError", "expected '(' at position 5, found 'end of input'"),
    ("successor", "@0:th [top)", "TermSyntaxError", "expected '(' at position 6, found '['"),
    ("successor", "@0:th(", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th()", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th( ;th(top))", "TermSyntaxError", "missing token at position 6"),
    ("successor", "@0:th(top", "TermSyntaxError",
     "expected ')' at position 9, found 'end of input'"),
    ("successor", "@0:th(top]", "TermSyntaxError", "unbalanced bracket at position 9"),
    ("successor", "@1:th(v0;th(top]))", "TermSyntaxError", "unbalanced bracket at position 15"),
    ("omega", "@0:th(w[0)", "TermSyntaxError",
     "expected ')' at position 10, found 'end of input'"),
    ("successor", "@1:th(v0;th(top)", "TermSyntaxError",
     "expected ')' at position 16, found 'end of input'"),
    ("successor", "@1:th(v0;th(top)x", "TermSyntaxError",
     "expected ')' at position 16, found 'x'"),
    ("successor", "@1:th(v0;)", "TermSyntaxError", "expected 'th' at position 9, found ')'"),
    ("successor", "@1:th(v0;th(top),)", "TermSyntaxError",
     "expected 'th' at position 17, found ')'"),
    ("successor", "@1:th(v0;th(top);th(top))", "TermSyntaxError",
     "expected ')' at position 16, found ';'"),
    ("successor", "@0:th(v0;th(top)", "TermSyntaxError",
     "expected ')' at position 16, found 'end of input'"),
    ("successor", "@0:th(v0;th(top)) )", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(v0 th(top))", "TermSyntaxError",
     "the index of a successor token must be a natural number, got '0th(top)'"),
    ("successor", "@0:th(v0;th(top))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@0:th(v0;th(top)))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(v9;th(top)) x", "TermTypeError",
     "token v9 out of range (bound 1) for successor"),
    ("successor", "@1:th(v1;th(top))", "TermTypeError",
     "token v1 out of range (bound 1) for successor"),
    ("successor", "@0:th(v0;th(w[]))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@1:th(w[];th(top))", "TermSyntaxError", "unknown successor token 'w[]'"),
    ("successor", "@1:th(v0;th(v0;th(top)))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@2:th(x;th(v0;th(top)),th(v0;th(v0;th(top))))", "TermTypeError",
     "a stage-0 term cannot have support terms"),
    ("successor", "@2:th(v0;th(x),th(v0;th(v0;th(top))))", "TermSyntaxError",
     "unknown successor token 'x'"),
    ("successor", "@1:th(v 9;th(top))", "TermTypeError",
     "token v9 out of range (bound 1) for successor"),
    ("successor", "@0:th(top))", "TermSyntaxError", "trailing input at position 10"),
    ("successor", "@0:th(top) x", "TermSyntaxError", "trailing input at position 11"),
    ("successor", "@0:th(top)@0:th(top)", "TermSyntaxError", "trailing input at position 10"),
    ("successor", "@2:th(v0;th(v0;th(v5)]))", "TermSyntaxError",
     "expected ')' at position 21, found ']'"),
    ("successor", "@2:th(v0;th(v0;th(v5))))", "TermTypeError",
     "token v5 out of range (bound 0) for successor"),
    ("successor", "@0:th(v01)", "TermSyntaxError",
     "the index of a successor token has a leading zero: '01'"),
    ("successor", "@0:th(v)", "TermSyntaxError",
     "the index of a successor token must be a natural number, got ''"),
    ("successor", "@0:th(v0)", "TermTypeError", "token v0 out of range (bound 0) for successor"),
    ("identity", "@0:th(v0)", "TermTypeError", "token v0 out of range (bound 0) for identity"),
    ("constant:2", "@0:th(c2)", "TermTypeError", "token c2 out of range (bound 2) for constant:2"),
    ("constant:2", "@0:th(d0)", "TermSyntaxError", "unknown constant:2 token 'd0'"),
    ("constant:2", "@0:th(c²)", "TermSyntaxError",
     "the index of a constant:2 token must be a natural number, got '²'"),
    ("omega", "@0:th(w0)", "TermSyntaxError", "expected w[...], got 'w0'"),
    ("omega", "@0:th(w[x])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got 'x'"),
    ("omega", "@0:th(w[00])", "TermSyntaxError", "an entry of w[...] has a leading zero: '00'"),
    ("omega", "@0:th(w[0,,0])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got ''"),
    ("omega", "@0:th(w[0,00])", "TermSyntaxError", "an entry of w[...] has a leading zero: '00'"),
    ("omega", "@0:th(w[0,0x])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got '0x'"),
    ("omega", "@0:th(w[0,²])", "TermSyntaxError",
     "an entry of w[...] must be a natural number, got '²'"),
    ("omega", "@0:th(w[" + "1" * 4301 + "])", "TermSyntaxError",
     "an entry of w[...] has 4301 digits, more than 4300"),
    ("omega", "@0:th(w[0])", "TermTypeError", "w[0] has an entry not below 0"),
    ("omega", "@2:th(w[0,1];th(w[]),th(w[0];th(w[])))", "TermTypeError",
     "w[0,1] is not weakly descending"),
    ("omega", "@1:th(w[];th(w[]))", "TermTypeError",
     "token w[] must use every listed support term"),
    ("omega", "@2:th(w[1,0];th(w[0];th(w[])),th(w[]))", "TermTypeError",
     "support terms must be strictly increasing"),
    ("omega", "@1:th(w[1,0];th(w[]),th(w[]))", "TermTypeError",
     "support terms must be strictly increasing"),
    ("sum(successor,omega)", "@0:th(X(top))", "TermSyntaxError",
     "expected L(...) or R(...), got 'X(top)'"),
    ("sum(successor,omega)", "@0:th(L(w[]))", "TermSyntaxError", "unknown successor token 'w[]'"),
    ("sum(successor,omega)", "@0:th(R(top))", "TermSyntaxError", "expected w[...], got 'top'"),
    ("sum(successor,omega)", "@0:th(L( v 3 ))", "TermTypeError",
     "token v3 out of range (bound 0) for successor"),
    ("product(successor,constant:2)", "@0:th(Q(top,c0))", "TermSyntaxError",
     "expected P(...,...), got 'Q(top,c0)'"),
    ("product(successor,constant:2)", "@0:th(P(top))", "TermSyntaxError",
     "P takes exactly two components: 'P(top)'"),
    ("product(successor,constant:2)", "@0:th(P(top,c0,c1))", "TermSyntaxError",
     "P takes exactly two components: 'P(top,c0,c1)'"),
    ("product(successor,constant:2)", "@0:th(P(top],c0))", "TermSyntaxError",
     "expected P(...,...), got 'P(top],c0'"),
    ("product(successor,constant:2)", "@0:th(P(top],[c0))", "TermSyntaxError",
     "unbalanced brackets in 'top],[c0'"),
]

# Whitespace the parser accepts wherever it skips any.
SPACES = [" ", "\t\n", "\u2003", " \r\x0b\x0c\x1c "]


def spread_whitespace(text, ws):
    """``@n:term`` with ``ws`` between every two grammar tokens and every
    two characters of a token: everywhere but inside ``th`` and the stage."""
    head, _, term = text.partition(":")
    out = [ws, "@", ws, head[1:], ws, ":", ws]
    for i, ch in enumerate(term):
        out.append(ch)
        if term[i : i + 2] != "th":
            out.append(ws)
    return "".join(out)
