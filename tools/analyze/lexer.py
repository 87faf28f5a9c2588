"""C++ lexer for gs_analyze.

Produces a flat token stream with line numbers, classifying comments,
string/char literals (including raw strings), preprocessor directives, and
code tokens. The legacy gs-lint regexes matched rule patterns inside string
literals and comments (e.g. a "std::mutex" inside a log message); every
pass in this package consumes tokens instead, so literal and comment text
can never produce a code finding.

The lexer is tolerant: it never raises on malformed input, it just emits
what it sees. That is the right trade-off for an analysis tool that must
not crash the CI lane on a half-edited file.
"""

from __future__ import annotations

from dataclasses import dataclass

# Token kinds.
ID = "id"  # identifiers and keywords
NUM = "num"  # numeric literals (incl. hex, digit separators, suffixes)
STR = "str"  # string literal (value excludes quotes; raw strings handled)
CHAR = "char"  # character literal
PUNCT = "punct"  # operators and punctuation (multi-char ops kept whole)
COMMENT = "comment"  # // or /* */ comment, text without delimiters
PP = "pp"  # one whole preprocessor directive (continuations joined)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int  # 1-based line where the token starts


# Multi-character operators, longest first so maximal munch works.
_OPERATORS = (
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "##",
)

_ID_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$"
)
_ID_CONT = _ID_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def lex(text: str) -> list[Token]:
    """Tokenize C++ source. Never raises; unterminated constructs are
    emitted as a final token covering the rest of the input."""
    toks: list[Token] = []
    i, n = 0, len(text)
    line = 1
    at_line_start = True  # only whitespace seen since the last newline

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        # Preprocessor directive: '#' first on the line; consume through
        # backslash continuations so the whole directive is one token.
        if c == "#" and at_line_start:
            start, start_line = i, line
            while i < n:
                if text[i] == "\n":
                    if i > 0 and text[i - 1] == "\\":
                        line += 1
                        i += 1
                        continue
                    break
                i += 1
            toks.append(Token(PP, text[start:i], start_line))
            at_line_start = False
            continue
        at_line_start = False

        # Comments.
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            toks.append(Token(COMMENT, text[i + 2 : j], line))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j
            body = text[i + 2 : end]
            toks.append(Token(COMMENT, body, line))
            line += body.count("\n")
            i = n if j == -1 else j + 2
            continue

        # Raw string literal: R"delim( ... )delim" with optional encoding
        # prefix (u8R, uR, UR, LR).
        if c in "RuUL" and _looks_like_raw_string(text, i):
            start_line = line
            q = text.find('"', i)
            k = text.find("(", q)
            delim = text[q + 1 : k]
            closer = ")" + delim + '"'
            j = text.find(closer, k + 1)
            end = n if j == -1 else j
            body = text[k + 1 : end]
            toks.append(Token(STR, body, start_line))
            line += text.count("\n", i, end if j == -1 else j + len(closer))
            i = n if j == -1 else j + len(closer)
            continue

        # Ordinary string / char literal (skip encoding prefixes).
        if c in "uUL" and _prefix_quote(text, i) is not None:
            i = _prefix_quote(text, i)  # type: ignore[assignment]
            c = text[i]
        if c == '"' or c == "'":
            quote = c
            start_line = line
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                if text[j] == "\n":
                    break  # unterminated on this line; be tolerant
                j += 1
            body = text[i + 1 : min(j, n)]
            toks.append(Token(STR if quote == '"' else CHAR, body, start_line))
            i = min(j, n) + 1
            continue

        # Identifier / keyword.
        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            toks.append(Token(ID, text[i:j], line))
            i = j
            continue

        # Number (handles 0x1p-3, 1'000'000, 1e-9, suffixes; also .5).
        if c in _DIGITS or (
            c == "." and i + 1 < n and text[i + 1] in _DIGITS
        ):
            j = i + 1
            while j < n:
                ch = text[j]
                if ch in _ID_CONT or ch in ".'":
                    j += 1
                elif ch in "+-" and text[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            toks.append(Token(NUM, text[i:j], line))
            i = j
            continue

        # Operator / punctuation.
        for op in _OPERATORS:
            if text.startswith(op, i):
                toks.append(Token(PUNCT, op, line))
                i += len(op)
                break
        else:
            toks.append(Token(PUNCT, c, line))
            i += 1

    return toks


def _looks_like_raw_string(text: str, i: int) -> bool:
    """True when text[i:] starts a raw string literal (R"..., u8R"..., ...).

    Requires the character before i to not be an identifier character, so
    an identifier like FOOBAR"x" is not misread."""
    if i > 0 and text[i - 1] in _ID_CONT:
        return False
    for prefix in ("R", "u8R", "uR", "UR", "LR"):
        if text.startswith(prefix + '"', i):
            q = i + len(prefix)
            k = text.find("(", q)
            nl = text.find("\n", q)
            # The delimiter must close with '(' before any newline and be
            # a plausible (short, paren-free) delimiter.
            if k != -1 and (nl == -1 or k < nl) and k - q <= 17:
                return True
    return False


def _prefix_quote(text: str, i: int) -> int | None:
    """If text[i:] is an encoding prefix (u8, u, U, L) directly followed by
    a quote, return the index of the quote; else None."""
    if i > 0 and text[i - 1] in _ID_CONT:
        return None
    for prefix in ("u8", "u", "U", "L"):
        if text.startswith(prefix, i):
            j = i + len(prefix)
            if j < len(text) and text[j] in "\"'":
                return j
    return None
