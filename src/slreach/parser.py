"""Concrete text syntax for formulae.

Grammar (ASCII), loosest to tightest binding::

    wand :=  imp  (('-*' | '-o') wand)?          right-assoc
    imp  :=  or   ('=>' imp)?                    right-assoc
    or   :=  and  ('\\/' and)*
    and  :=  star ('/\\' star)*
    star :=  unary ('*' unary)*
    unary := 'not' unary | atom
    atom := '(' wand ')' | 'emp' | 'true' | 'false'
          | x<i> '=' x<j> | x<i> '~>' x<j> | x<i> '|->' x<j>
          | 'ls(x,y)' | 'reach(x,y)' | 'reach+(x,y)'
          | 'size' ('>='|'<='|'=') n | 'alloc(x)'
          | 'allocinv(x; y)' | 'loop2(x; y)' | 'nexteq(x,y)'
          | 'nextpt(x,y; z)' | 'reacheq(x,y; n)' | 'reachle(x,y; n)'
          | 'safe(x1,...,x2k)'

'-o' is septraction.  \\/, => and all macro calls are sugar: they are
normalized/expanded during parsing and do not appear in the AST.  The
call forms other than size and safe, with their argument patterns, are read
from the table _CALLS, which also names ls, reach and reach+ for printing.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from . import syntax as S


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<op>-\*|-o|=>|/\\|\\/|\|->|~>|>=|<=|[*()=,;.])
  | (?P<int>\d+)
  | (?P<ident>[a-z][a-z0-9_]*\+?)
    """,
    re.VERBOSE,
)

# Call forms: keyword -> (builder, argument pattern).  In a pattern, v reads
# a variable, n a natural, and any other character is that separator; the
# parentheses around the arguments are implied.
_CALLS = {
    "ls": (S.Ls, "v,v"),
    "reach": (S.Reach, "v,v"),
    "reach+": (S.ReachPlus, "v,v"),
    "alloc": (S.alloc, "v"),
    "allocinv": (S.alloc_inv, "v;v"),
    "loop2": (S.loop2, "v;v"),
    "nexteq": (S.next_eq, "v,v"),
    "nextpt": (S.next_pointsto, "v,v;v"),
    "reacheq": (S.reach_eq, "v,v;n"),
    "reachle": (S.reach_leq, "v,v;n"),
}
_CONSTANTS = {"emp": S.EMP, "true": S.TRUE, "false": S.FALSE}
_SIZES = {">=": S.size_geq, "<=": S.size_leq, "=": S.size_eq}
_KEYWORDS = {*_CALLS, *_CONSTANTS, "not", "size", "safe", "forall"}

_VAR_RE = re.compile(r"^x([1-9]\d*)$")


def tokenize(text: str) -> List[Tuple[str, str, int]]:
    """Tokens as (kind, value, position); kind in op/int/var/kw."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        val = m.group()
        if m.lastgroup == "ident":
            vm = _VAR_RE.match(val)
            if vm:
                out.append(("var", val, pos))
            elif val in _KEYWORDS:
                out.append(("kw", val, pos))
            elif val == "x0" or re.match(r"^x\d+$", val):
                raise ParseError(f"bad variable {val!r} (indices start at 1)", pos)
            else:
                raise ParseError(f"unknown identifier {val!r}", pos)
        else:
            out.append((m.lastgroup, val, pos))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, text_len):
        self.toks = tokens
        self.i = 0
        self.end = text_len

    def peek(self):
        if self.i < len(self.toks):
            return self.toks[self.i]
        return ("eof", "", self.end)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def at_op(self, value):
        tok = self.peek()
        return tok[0] == "op" and tok[1] == value

    # precedence ladder -----------------------------------------------------
    def wand(self) -> S.Formula:
        left = self.imp()
        if self.at_op("-*"):
            self.next()
            return S.Wand(left, self.wand())
        if self.at_op("-o"):
            self.next()
            return S.septraction(left, self.wand())
        return left

    def imp(self) -> S.Formula:
        left = self.or_()
        if self.at_op("=>"):
            self.next()
            return S.f_implies(left, self.imp())
        return left

    def or_(self) -> S.Formula:
        left = self.and_()
        while self.at_op("\\/"):
            self.next()
            left = S.f_or(left, self.and_())
        return left

    def and_(self) -> S.Formula:
        left = self.star()
        while self.at_op("/\\"):
            self.next()
            left = S.And(left, self.star())
        return left

    def star(self) -> S.Formula:
        left = self.unary()
        while self.at_op("*"):
            self.next()
            left = S.Star(left, self.unary())
        return left

    def unary(self) -> S.Formula:
        tok = self.peek()
        if tok[0] == "kw" and tok[1] == "not":
            self.next()
            return S.Not(self.unary())
        return self.atom()

    # atoms and macro calls -------------------------------------------------
    def var(self) -> int:
        tok = self.expect("var")
        return int(tok[1][1:])

    def nat(self) -> int:
        tok = self.expect("int")
        return int(tok[1])

    def atom(self) -> S.Formula:
        tok = self.next()
        kind, val, pos = tok
        if kind == "op" and val == "(":
            f = self.wand()
            self.expect("op", ")")
            return f
        if kind == "kw":
            if val in _CONSTANTS:
                return _CONSTANTS[val]
            if val in _CALLS:
                build, pattern = _CALLS[val]
                self.expect("op", "(")
                args = []
                for c in pattern:
                    if c == "v":
                        args.append(self.var())
                    elif c == "n":
                        args.append(self.nat())
                    else:
                        self.expect("op", c)
                self.expect("op", ")")
                return build(*args)
            if val == "size":
                op = self.next()
                if op[0] != "op" or op[1] not in _SIZES:
                    raise ParseError("expected >=, <= or = after size", op[2])
                return _SIZES[op[1]](self.nat())
            if val == "safe":
                self.expect("op", "(")
                xs = [self.var()]
                while self.at_op(","):
                    self.next()
                    xs.append(self.var())
                self.expect("op", ")")
                return S.safe(xs)
            raise ParseError(f"unexpected keyword {val!r}", pos)
        if kind == "var":
            x = int(val[1:])
            op = self.next()
            if op[0] != "op" or op[1] not in ("=", "~>", "|->"):
                raise ParseError("expected =, ~> or |-> after variable", op[2])
            y = self.var()
            if op[1] == "=":
                return S.Eq(x, y)
            if op[1] == "~>":
                return S.PointsTo(x, y)
            return S.mapsto(x, y)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(text: str) -> S.Formula:
    p = _Parser(tokenize(text), len(text))
    f = p.wand()
    tok = p.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# Printer.  Emits core syntax only; parse(to_text(f)) == f.
# ---------------------------------------------------------------------------

def to_text(f: S.Formula) -> str:
    return _pp(f, 0)


_CONSTANT_NAMES = {c: kw for kw, c in _CONSTANTS.items()}
_CALL_NAMES = {build: kw for kw, (build, _) in _CALLS.items()}


# precedence levels: wand 0, and 2, star 3, unary 4, atom 5
def _pp(f: S.Formula, level: int) -> str:
    if f in _CONSTANT_NAMES:
        return _CONSTANT_NAMES[f]
    if isinstance(f, S.Eq):
        s = f"x{f.x} = x{f.y}"
        return s if level < 4 else f"({s})"
    if isinstance(f, S.PointsTo):
        s = f"x{f.x} ~> x{f.y}"
        return s if level < 4 else f"({s})"
    if type(f) in _CALL_NAMES:  # ls, reach, reach+: the node classes in _CALLS
        return f"{_CALL_NAMES[type(f)]}(x{f.x},x{f.y})"
    if isinstance(f, S.Not):
        return f"not {_pp(f.child, 4)}"
    if isinstance(f, S.And):
        s = f"{_pp(f.left, 2)} /\\ {_pp(f.right, 3)}"
        return s if level <= 2 else f"({s})"
    if isinstance(f, S.Star):
        s = f"{_pp(f.left, 3)} * {_pp(f.right, 4)}"
        return s if level <= 3 else f"({s})"
    if isinstance(f, S.Wand):
        s = f"{_pp(f.left, 1)} -* {_pp(f.right, 0)}"
        return s if level == 0 else f"({s})"
    raise TypeError(f"cannot print {f!r}")
