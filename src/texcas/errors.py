"""Exception hierarchy shared by all translation stages."""


class TexcasError(Exception):
    """Base class for all errors raised by this package."""


# --- LaTeX scanning -------------------------------------------------------

class ScanError(TexcasError):
    pass


class EmptyInput(ScanError):
    def __init__(self):
        super().__init__("empty math input")


class UnbalancedDelimiters(ScanError):
    def __init__(self, position, detail):
        self.position = position
        self.detail = detail
        super().__init__(f"unbalanced delimiters at position {position}: {detail}")


class UnsupportedSymbol(ScanError):
    def __init__(self, position, symbol):
        self.position = position
        self.symbol = symbol
        super().__init__(f"unsupported symbol {symbol!r} at position {position}")


class ScanTooDeep(ScanError):
    def __init__(self, position, limit):
        self.position = position
        self.limit = limit
        super().__init__(f"groups nested deeper than {limit} levels "
                         f"at position {position}")


# --- lexicon compilation --------------------------------------------------

class LexiconError(TexcasError):
    pass


class SchemaError(LexiconError):
    def __init__(self, file, line, reason):
        self.file = file
        self.line = line
        self.reason = reason
        super().__init__(f"{file}:{line}: {reason}")


class PlaceholderOutOfRange(LexiconError):
    def __init__(self, macro, index):
        self.macro = macro
        self.index = index
        super().__init__(f"{macro}: placeholder ${index} exceeds declared arity")


class DuplicateMacro(LexiconError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"duplicate macro {name}")


# --- forward translation --------------------------------------------------

class TranslationError(TexcasError):
    pass


class UnknownMacro(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no translation known for macro {name}")


class ArityMismatch(TranslationError):
    def __init__(self, macro, expected, found):
        self.macro = macro
        self.expected = expected
        self.found = found
        super().__init__(f"{macro}: expected {expected} argument group(s), found {found}")


class NoDirectTranslation(TranslationError):
    def __init__(self, macro, dialect):
        self.macro = macro
        self.dialect = dialect
        super().__init__(f"{macro} has no direct translation to {dialect}")


# --- Maple parsing --------------------------------------------------------

class MapleSyntaxError(TexcasError):
    def __init__(self, position, expected):
        self.position = position
        self.expected = expected
        super().__init__(f"syntax error at position {position}: expected {expected}")


class MapleTooDeep(MapleSyntaxError):
    """Maple input past a bound of ``limit`` levels.  Nesting is refused at
    the token past the bound, which follows at least one token per level; a
    parsed tree too tall is refused as a whole, at position 0."""

    def __init__(self, position, limit):
        self.limit = limit
        super().__init__(position, f"at most {limit} nested levels" if position
                         else f"a tree at most {limit} levels tall")


class UnsupportedConstruct(TexcasError):
    def __init__(self, token):
        self.token = token
        super().__init__(f"unsupported construct: {token}")


class MalformedList(TexcasError):
    def __init__(self, reason):
        self.reason = reason
        super().__init__(f"malformed nested list: {reason}")


# --- backward translation -------------------------------------------------

class UnknownFunction(TranslationError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"no reverse translation known for function {name}")


class UnsupportedTag(TranslationError):
    def __init__(self, tag):
        self.tag = tag
        super().__init__(f"cannot render inert tag {tag} in semantic LaTeX")


# --- corpus files ---------------------------------------------------------

class CorpusFormatError(TexcasError, ValueError):
    """A corpus line that is not ``id<TAB>formula``, or a repeated id."""


# --- verification ---------------------------------------------------------

class UnknownSymbol(TexcasError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown symbol {name}")


class NoEvaluator(TexcasError):
    def __init__(self, function):
        self.function = function
        super().__init__(f"no numeric evaluator for {function}")


class CheckOptionError(TexcasError, ValueError):
    """A tolerance that is not finite and positive, or fewer than one sample
    point: with either, the numeric check decides nothing."""
