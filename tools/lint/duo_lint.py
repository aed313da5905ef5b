#!/usr/bin/env python3
"""duo-lint: a semantic analyzer that proves this repository's own
concurrency conventions, as documented in docs/concurrency.md and
docs/lint.md.

The framework runs pluggable checks over a *model* of the codebase —
classes with their members and annotations, functions with their lock
acquisitions and calls, every `memory_order_relaxed` site, every call whose
result is silently dropped. Two frontends can build that model:

  - **libclang** (clang.cindex): the real AST. Member types, lock
    identities, and call targets are resolved semantically. Used by the
    `duo-lint` CI job (which pip-installs libclang).
  - **lexical**: a dependency-free fallback built on the same
    scrubber/tokenizer the conventions lint uses. It reconstructs class
    bodies, function scopes and MutexLock nesting from the token stream —
    precise enough for this codebase's idiom, and it keeps the whole suite
    runnable (and CTest-enforced) on machines without libclang.

Checks (see docs/lint.md for the full contract and waiver syntax):

  relaxed-proof   every memory_order_relaxed site carries an adjacent
                  `// relaxed: <tag>` resolving to a proof entry in
                  docs/concurrency.md, and every documented tag still has a
                  live site (stale proofs are errors).
  guarded-members every mutable non-atomic member of a class owning a
                  util::Mutex is DUO_GUARDED_BY / DUO_PT_GUARDED_BY or
                  carries an explicit `// unguarded: <why>` waiver.
  lock-order      the static lock-acquisition graph (nested MutexLock /
                  DUO_REQUIRES / DUO_ACQUIRE scopes, propagated through the
                  call graph) must be acyclic; cycles are printed.
  dropped-verdict call statements discarding a Verdict / CheckResult /
                  VerdictVector / FeedOutcome (or Result<Verdict> /
                  vector<CheckResult>) result.
  raw-sync        } the three conventions checks absorbed from
  banned-random   } check_conventions.py (which remains the fast
  raw-thread      } no-dependency fallback gate).

Usage:
  python3 tools/lint/duo_lint.py [--root DIR] [--checks a,b,...]
      [--frontend auto|libclang|lexical] [--list-checks] [-v] [files...]

Exit status: 0 clean, 1 violations, 2 infrastructure error.
"""

import argparse
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_conventions as conventions  # noqa: E402  (same directory)

SCAN_DIRS = conventions.SCAN_DIRS
EXTENSIONS = conventions.EXTENSIONS
SKIP_PATHS = conventions.SKIP_PATHS

# Result types whose silent discard the dropped-verdict check flags. A
# dropped verdict is a checker that ran for nothing — or worse, a caller
# that believes it checked something.
WATCHED_TYPES = {"Verdict", "CheckResult", "VerdictVector", "FeedOutcome"}
# Compound spellings matched against whitespace-stripped type text.
WATCHED_COMPOUND = ("Result<Verdict>", "vector<CheckResult>")

RELAXED_TOKEN = re.compile(r"\bmemory_order_relaxed\b")
RELAXED_TAG = re.compile(r"relaxed:\s*([A-Za-z0-9][A-Za-z0-9_-]*)")
DOC_TAG = re.compile(r"`relaxed:\s*([A-Za-z0-9][A-Za-z0-9_-]*)`")
WAIVER_TAG = re.compile(r"\bunguarded:\s*\S")

DUO_ATTR_MACROS = {
    "DUO_CAPABILITY", "DUO_SCOPED_CAPABILITY", "DUO_GUARDED_BY",
    "DUO_PT_GUARDED_BY", "DUO_REQUIRES", "DUO_REQUIRES_SHARED",
    "DUO_ACQUIRE", "DUO_ACQUIRE_SHARED", "DUO_RELEASE",
    "DUO_RELEASE_SHARED", "DUO_TRY_ACQUIRE", "DUO_EXCLUDES",
    "DUO_ASSERT_CAPABILITY", "DUO_RETURN_CAPABILITY",
    "DUO_NO_THREAD_SAFETY_ANALYSIS", "alignas", "decltype", "noexcept",
    "__attribute__",
}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
    "co_return", "co_await", "co_yield", "throw", "goto", "case", "default",
    "new", "delete", "sizeof", "alignof", "static_assert", "assert",
}


# --------------------------------------------------------------------------
# Model
# --------------------------------------------------------------------------

@dataclass
class Violation:
    rel: str
    line: int
    check: str
    message: str

    def render(self) -> str:
        return f"{self.rel}:{self.line}: [{self.check}] {self.message}"


@dataclass
class SourceFile:
    rel: str
    code: list  # scrubbed code, one string per line (index 0 = line 1)
    comments: dict  # 1-based line -> comment text


@dataclass
class Member:
    name: str
    line: int
    type_text: str
    guarded: bool = False
    exempt: bool = False  # const / reference / atomic / capability / static


@dataclass
class ClassInfo:
    name: str
    rel: str
    line: int
    members: list = field(default_factory=list)
    owns_mutex: bool = False


@dataclass
class Acquisition:
    mutex: str
    line: int
    held: tuple  # lock ids held (lexically) at this acquisition


@dataclass
class CallSite:
    callee: str  # bare name
    qualified: bool  # written as receiver.method(...) / receiver->method(...)
    line: int
    held: tuple


@dataclass
class FuncInfo:
    name: str
    cls: str  # enclosing/qualifying class name, "" for free functions
    rel: str
    line: int
    requires: list = field(default_factory=list)
    acquires_annot: list = field(default_factory=list)
    acquisitions: list = field(default_factory=list)
    calls: list = field(default_factory=list)

    @property
    def key(self):
        return (self.cls, self.name, self.rel, self.line)


@dataclass
class DiscardSite:
    rel: str
    line: int
    callee: str
    type_text: str
    qualified: bool = False  # receiver.callee(...) / receiver->callee(...)
    resolved: bool = False   # type came from the AST — flag unconditionally


@dataclass
class Callable:
    """What the tree declares under one bare function/method name. The
    lexical dropped-verdict check only fires on names whose every declared
    return type is watched — a name that is *also* declared with an
    unwatched return (e.g. `run` on both a checker and WorkerGang) is
    ambiguous and vetoed, trading false negatives for zero false positives
    (the libclang frontend and [[nodiscard]] cover the remainder)."""
    watched_method: str = ""  # return-type text when declared as a method
    watched_free: str = ""    # return-type text when declared free
    unwatched: bool = False   # also declared with a non-watched return


@dataclass
class Model:
    frontend: str
    files: dict = field(default_factory=dict)  # rel -> SourceFile
    classes: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    discards: list = field(default_factory=list)
    callables: dict = field(default_factory=dict)  # name -> Callable


# --------------------------------------------------------------------------
# Tokenizer (shared by the lexical frontend; operates on scrubbed code)
# --------------------------------------------------------------------------

TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifiers / keywords
    r"|\d[\w.']*"                  # numeric literals (incl. separators)
    r"|::|->|\[\[|\]\]|<<=|>>=|<=|>=|==|!=|&&|\|\||\+\+|--|\+=|-=|\*=|/=|"
    r"%=|&=|\|=|\^=|<<|>>"
    r"|\S"                         # any other single punctuation char
)


@dataclass
class Token:
    value: str
    line: int


def tokenize(code_lines):
    toks = []
    for i, line in enumerate(code_lines, start=1):
        for m in TOKEN_RE.finditer(line):
            toks.append(Token(m.group(0), i))
    return toks


def _joined(tokens):
    return "".join(t.value for t in tokens)


def _match_paren(tokens, open_idx):
    """Index of the ')' matching tokens[open_idx] == '(' (or len(tokens))."""
    depth = 0
    for i in range(open_idx, len(tokens)):
        if tokens[i].value == "(":
            depth += 1
        elif tokens[i].value == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(tokens)


def _split_args(tokens):
    """Split a paren-free token slice on top-level commas."""
    args, cur, depth = [], [], 0
    for t in tokens:
        if t.value in "(<[{":
            depth += 1
        elif t.value in ")>]}":
            depth = max(0, depth - 1)
        if t.value == "," and depth == 0:
            if cur:
                args.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        args.append(cur)
    return args


def _annotation_args(tokens, macro_names):
    """All normalized argument expressions of macro_names(...) invocations."""
    out = []
    i = 0
    while i < len(tokens):
        if tokens[i].value in macro_names and i + 1 < len(tokens) and \
                tokens[i + 1].value == "(":
            close = _match_paren(tokens, i + 1)
            for arg in _split_args(tokens[i + 2:close]):
                expr = _joined(arg)
                if expr:
                    out.append(expr)
            i = close + 1
        else:
            i += 1
    return out


def _strip_brace_groups(tokens):
    """Drop every `{ ... }` group (lambda bodies, brace initializers) from a
    statement's token list, keeping only the enclosing statement's own
    structure."""
    out, depth = [], 0
    for t in tokens:
        if t.value == "{":
            depth += 1
            continue
        if t.value == "}":
            depth = max(0, depth - 1)
            continue
        if depth == 0:
            out.append(t)
    return out


def _first_paramlist_paren(tokens):
    """Index of the '(' opening a function's parameter list: the first '('
    at template-angle depth 0 that does not belong to an attribute-macro
    invocation. -1 if none."""
    angle = 0
    for i, t in enumerate(tokens):
        v = t.value
        if v == "<":
            # heuristic: template-argument opener when following a name
            if i > 0 and (tokens[i - 1].value.isidentifier() or
                          tokens[i - 1].value == ">"):
                angle += 1
        elif v == ">" and angle > 0:
            angle -= 1
        elif v == "(" and angle == 0:
            if i > 0 and tokens[i - 1].value in DUO_ATTR_MACROS:
                close = _match_paren(tokens, i)
                # skip the macro's parens entirely
                for j in range(i, min(close + 1, len(tokens))):
                    pass
                continue
            return i
    return -1


# --------------------------------------------------------------------------
# Lexical frontend
# --------------------------------------------------------------------------

class _Scope:
    __slots__ = ("kind", "name", "cls", "func", "locks")

    def __init__(self, kind, name="", cls=None, func=None):
        self.kind = kind  # namespace | class | enum | function | block
        self.name = name
        self.cls = cls    # ClassInfo when kind == class
        self.func = func  # FuncInfo carried through nested blocks
        self.locks = []   # lock ids acquired in this scope


class LexicalFrontend:
    """Reconstructs the model from the token stream. Heuristic by nature —
    see docs/lint.md for its documented blind spots — but exact on this
    codebase's idiom, which the fixture suite and the self-run pin down."""

    name = "lexical"

    def __init__(self, root):
        self.root = root

    def build(self, rel_files):
        model = Model(frontend=self.name)
        for rel in rel_files:
            text = (self.root / rel).read_text(encoding="utf-8",
                                               errors="replace")
            code, comments = conventions.scrub_source(text)
            sf = SourceFile(rel=rel, code=code, comments=comments)
            model.files[rel] = sf
            self._parse_file(model, sf)
        return model

    # -- per-file token walk ----------------------------------------------

    def _parse_file(self, model, sf):
        toks = tokenize(sf.code)
        scopes = [_Scope("namespace", name="<file>")]
        pending = []
        paren = 0
        stmt_brace = 0
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            v = t.value
            if v == "(":
                paren += 1
                pending.append(t)
            elif v == ")":
                paren = max(0, paren - 1)
                pending.append(t)
            elif v == "{" and paren == 0:
                if self._is_brace_init(pending, scopes):
                    stmt_brace += 1
                    pending.append(t)
                elif stmt_brace > 0:
                    stmt_brace += 1
                    pending.append(t)
                else:
                    self._open_scope(model, sf, scopes, pending)
                    pending = []
            elif v == "}" and paren == 0:
                if stmt_brace > 0:
                    stmt_brace -= 1
                    pending.append(t)
                else:
                    if len(scopes) > 1:
                        scopes.pop()
            elif v == ";" and paren == 0 and stmt_brace == 0:
                self._statement(model, sf, scopes, pending)
                pending = []
            else:
                pending.append(t)
            i += 1
        # trailing pending tokens (no terminator) are ignored

    @staticmethod
    def _is_brace_init(pending, scopes):
        """Distinguish `name_{init}` / `= {...}` from scope-opening braces."""
        if not pending:
            return False
        kws = {tok.value for tok in pending}
        if kws & {"class", "struct", "union", "enum", "namespace"}:
            return False
        if scopes[-1].kind not in ("class", "function", "block", "namespace"):
            return False
        last = pending[-1].value
        if last in ("=", ","):
            return True
        if last.isidentifier() and last not in (
                "const", "noexcept", "override", "final", "mutable", "else",
                "do", "try", "constexpr"):
            # `ident {` with no parameter list anywhere → brace-init
            return _first_paramlist_paren(pending) < 0
        return False

    def _open_scope(self, model, sf, scopes, pending):
        kws = [tok.value for tok in pending]
        line = pending[0].line if pending else 1
        if "namespace" in kws:
            scopes.append(_Scope("namespace",
                                 func=scopes[-1].func))
            return
        if "enum" in kws:
            scopes.append(_Scope("enum"))
            return
        if ("class" in kws or "struct" in kws or "union" in kws) and \
                self._class_name(pending):
            name = self._class_name(pending)
            cls = ClassInfo(name=name, rel=sf.rel, line=line)
            model.classes.append(cls)
            scopes.append(_Scope("class", name=name, cls=cls))
            return
        # function definition?
        enclosing = scopes[-1]
        if enclosing.kind in ("namespace", "class"):
            p = _first_paramlist_paren(pending)
            if p > 0 and pending[p - 1].value.isidentifier() and \
                    pending[p - 1].value not in CONTROL_KEYWORDS:
                fn = self._make_function(model, sf, scopes, pending, p)
                scopes.append(_Scope("function", func=fn))
                return
        # control flow, lambda, or anything else: a plain block that
        # inherits the enclosing function context
        func = enclosing.func
        if func is not None and pending:
            self._scan_statement_calls(func, scopes, pending)
        scopes.append(_Scope("block", func=func))

    @staticmethod
    def _class_name(pending):
        vals = [t.value for t in pending]
        for i, v in enumerate(vals):
            if v in ("class", "struct", "union"):
                j = i + 1
                while j < len(vals):
                    cand = vals[j]
                    if cand in ("[[", "]]"):
                        j += 1
                        continue
                    if cand in DUO_ATTR_MACROS or cand == "nodiscard":
                        # skip a macro and its optional parens
                        j += 1
                        if j < len(vals) and vals[j] == "(":
                            depth = 0
                            while j < len(vals):
                                if vals[j] == "(":
                                    depth += 1
                                elif vals[j] == ")":
                                    depth -= 1
                                    if depth == 0:
                                        break
                                j += 1
                            j += 1
                        continue
                    if cand.isidentifier():
                        # the name, unless this is `class X` in a template
                        # parameter (no '{' would follow; we are at a '{')
                        return cand
                    return ""
                return ""
        return ""

    def _make_function(self, model, sf, scopes, pending, paren_idx):
        name = pending[paren_idx - 1].value
        cls = ""
        if paren_idx >= 3 and pending[paren_idx - 2].value == "::":
            cls = pending[paren_idx - 3].value
        elif paren_idx >= 2 and pending[paren_idx - 2].value == "~":
            if paren_idx >= 4 and pending[paren_idx - 3].value == "::":
                cls = pending[paren_idx - 4].value
        if not cls:
            for s in reversed(scopes):
                if s.kind == "class":
                    cls = s.name
                    break
        fn = FuncInfo(name=name, cls=cls, rel=sf.rel,
                      line=pending[paren_idx - 1].line)
        fn.requires = [self._qualify(e, cls) for e in _annotation_args(
            pending, {"DUO_REQUIRES", "DUO_REQUIRES_SHARED"})]
        fn.acquires_annot = [self._qualify(e, cls) for e in _annotation_args(
            pending, {"DUO_ACQUIRE", "DUO_ACQUIRE_SHARED"})]
        model.functions.append(fn)
        self._record_callable(model, pending, paren_idx, name,
                              method=bool(cls))
        return fn

    @staticmethod
    def _qualify(expr, cls):
        expr = expr.replace("this->", "")
        if cls and re.fullmatch(r"[A-Za-z_]\w*", expr):
            return f"{cls}::{expr}"
        return expr

    # -- statements --------------------------------------------------------

    def _statement(self, model, sf, scopes, pending):
        if not pending:
            return
        scope = scopes[-1]
        # strip leading access specifiers (`public :` ...)
        vals = [t.value for t in pending]
        while len(vals) >= 2 and vals[0] in ("public", "private", "protected") \
                and vals[1] == ":":
            pending = pending[2:]
            vals = vals[2:]
        if not pending:
            return
        if scope.kind == "class":
            self._class_statement(model, sf, scope, pending)
            return
        if scope.kind in ("function", "block") and scope.func is not None:
            self._function_statement(model, sf, scopes, scope, pending)
            return
        if scope.kind == "namespace":
            # free-function (or out-of-class method) declaration?
            p = _first_paramlist_paren(pending)
            if p > 0 and pending[p - 1].value.isidentifier():
                method = p >= 2 and pending[p - 2].value == "::"
                self._record_callable(model, pending, p,
                                      pending[p - 1].value, method=method)

    @staticmethod
    def _record_callable(model, pending, paren_idx, name, method):
        if name in CONTROL_KEYWORDS or name in DUO_ATTR_MACROS:
            return
        ret = pending[:paren_idx - 1]
        # drop the `Class ::` qualifier from the return-type slice
        while len(ret) >= 2 and ret[-1].value == "::":
            ret = ret[:-2]
        ret_text = _joined(ret)
        names = {t.value for t in ret}
        watched = bool(names & WATCHED_TYPES) or any(
            c in ret_text for c in WATCHED_COMPOUND)
        entry = model.callables.setdefault(name, Callable())
        if watched:
            if method:
                entry.watched_method = entry.watched_method or ret_text
            else:
                entry.watched_free = entry.watched_free or ret_text
        elif ret:  # constructors (empty ret) carry no veto weight
            entry.unwatched = True

    def _class_statement(self, model, sf, scope, pending):
        vals = [t.value for t in pending]
        if set(vals) & {"using", "typedef", "friend", "template",
                        "static_assert", "operator", "enum"}:
            return
        if "class" in vals or "struct" in vals:
            return  # forward declaration of a nested type
        # function declaration (no body)?
        p = _first_paramlist_paren(pending)
        if p > 0:
            if p >= 1 and pending[p - 1].value.isidentifier():
                self._record_callable(model, pending, p,
                                      pending[p - 1].value, method=True)
            return
        if "static" in vals or "constexpr" in vals:
            return
        guarded = bool({"DUO_GUARDED_BY", "DUO_PT_GUARDED_BY"} & set(vals))
        member = self._parse_member(pending, guarded)
        if member is None:
            return
        scope.cls.members.append(member)
        tt = member.type_text
        if re.search(r"(^|::)Mutex$", tt):
            scope.cls.owns_mutex = True

    @staticmethod
    def _parse_member(pending, guarded):
        # cut the initializer ( = ... or {...} ) and the DUO_* annotation
        toks = []
        i = 0
        while i < len(pending):
            v = pending[i].value
            if v == "=":
                break
            if v in ("DUO_GUARDED_BY", "DUO_PT_GUARDED_BY"):
                if i + 1 < len(pending) and pending[i + 1].value == "(":
                    i = _match_paren(pending, i + 1) + 1
                    continue
            if v == "{":  # brace initializer
                break
            toks.append(pending[i])
            i += 1
        if len(toks) < 2:
            return None
        name_tok = toks[-1]
        if not re.fullmatch(r"[A-Za-z_]\w*", name_tok.value):
            # arrays (name[..]) and other declarators: take last identifier
            idents = [t for t in toks if re.fullmatch(r"[A-Za-z_]\w*", t.value)]
            if not idents:
                return None
            name_tok = idents[-1]
            toks = toks[:toks.index(name_tok)]
        else:
            toks = toks[:-1]
        type_vals = [t.value for t in toks]
        mutable = "mutable" in type_vals
        type_vals = [v for v in type_vals if v != "mutable"]
        type_text = "".join(type_vals)
        member = Member(name=name_tok.value, line=name_tok.line,
                        type_text=type_text, guarded=guarded)
        is_ref = "&" in type_vals
        is_ptr = "*" in type_vals
        is_const_value = bool(type_vals) and type_vals[0] == "const" \
            and not is_ptr and not is_ref
        is_const_ptr = is_ptr and bool(type_vals) and type_vals[-1] == "const"
        is_atomic = type_text.startswith("std::atomic<") or \
            type_text.startswith("conststd::atomic<")
        is_capability = bool(re.search(r"(^|::)(Mutex|CondVar)$", type_text))
        del mutable  # the keyword adds emphasis, never an exemption
        member.exempt = (is_ref or is_const_value or is_const_ptr or
                         is_atomic or is_capability)
        return member

    def _function_statement(self, model, sf, scopes, scope, pending):
        func = scope.func
        # a lambda body or brace initializer embedded in the statement is
        # its own scope, not part of this statement's lock/call structure
        pending = _strip_brace_groups(pending)
        if not pending:
            return
        vals = [t.value for t in pending]
        # MutexLock acquisition?
        for i, v in enumerate(vals):
            if v == "MutexLock" and i + 2 < len(vals) and \
                    re.fullmatch(r"[A-Za-z_]\w*", vals[i + 1]) and \
                    vals[i + 2] == "(":
                close = _match_paren(pending, i + 2)
                expr = _joined(pending[i + 3:close])
                mutex = self._qualify(expr, func.cls)
                held = self._held(scopes, func)
                func.acquisitions.append(
                    Acquisition(mutex=mutex, line=pending[i].line, held=held))
                scope.locks.append(mutex)
                break
        self._scan_statement_calls(func, scopes, pending)
        self._scan_discard(model, sf, pending)

    @staticmethod
    def _held(scopes, func):
        held = list(func.requires)
        for s in scopes:
            held.extend(s.locks)
        return tuple(held)

    def _scan_statement_calls(self, func, scopes, pending):
        held = self._held(scopes, func)
        vals = [t.value for t in pending]
        for i, v in enumerate(vals):
            if i + 1 < len(vals) and vals[i + 1] == "(" and \
                    re.fullmatch(r"[A-Za-z_]\w*", v) and \
                    v not in CONTROL_KEYWORDS and v != "MutexLock" and \
                    v not in DUO_ATTR_MACROS and not v[0].isupper():
                qualified = i > 0 and vals[i - 1] in (".", "->")
                func.calls.append(CallSite(callee=v, qualified=qualified,
                                           line=pending[i].line, held=held))

    def _scan_discard(self, model, sf, pending):
        toks = list(pending)
        # strip `else` and bare control prefixes: `if (..) call();` etc.
        changed = True
        while changed and toks:
            changed = False
            if toks[0].value == "else":
                toks = toks[1:]
                changed = True
                continue
            if toks[0].value in ("if", "while", "for", "switch") and \
                    len(toks) > 1 and toks[1].value == "(":
                close = _match_paren(toks, 1)
                toks = toks[close + 1:]
                changed = True
        if not toks:
            return
        if toks[0].value == "(" and len(toks) > 2 and \
                toks[1].value == "void" and toks[2].value == ")":
            return  # explicit (void) discard
        if toks[0].value in CONTROL_KEYWORDS:
            return
        # receiver chain: ident ((. | -> | ::) ident)* '(' ... ')' END
        i = 0
        if not re.fullmatch(r"[A-Za-z_]\w*", toks[0].value):
            return
        while i + 2 < len(toks) and toks[i + 1].value in (".", "->", "::") \
                and re.fullmatch(r"[A-Za-z_]\w*", toks[i + 2].value):
            i += 2
        if i + 1 >= len(toks) or toks[i + 1].value != "(":
            return
        close = _match_paren(toks, i + 1)
        if close != len(toks) - 1:
            return  # something follows the call: it is being used
        callee = toks[i].value
        qualified = i > 0
        model.discards.append(DiscardSite(
            rel=sf.rel, line=toks[i].line, callee=callee, type_text="",
            qualified=qualified))


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

class LibclangFrontend:
    """The same model, built from the real AST via clang.cindex. Lock and
    member identities resolve through the semantic parents, so renamed
    receivers and inherited members cannot confuse it."""

    name = "libclang"

    def __init__(self, root, compdb=None):
        import clang.cindex as ci  # noqa: F401 — probed by make_frontend
        self.ci = ci
        self.root = root
        self.args_by_file = self._load_compdb(compdb)
        self.base_args = ["-x", "c++", "-std=c++20",
                          "-I", str(root / "src")]

    def _load_compdb(self, compdb):
        out = {}
        if compdb is None:
            compdb = self.root / "build" / "compile_commands.json"
        compdb = pathlib.Path(compdb)
        if not compdb.is_file():
            return out
        try:
            entries = json.loads(compdb.read_text())
        except (OSError, ValueError):
            return out
        keep = re.compile(r"^(-I.*|-D.*|-std=.*|-isystem)$")
        for e in entries:
            args = []
            cmd = e.get("command", "").split() or e.get("arguments", [])
            it = iter(cmd)
            for a in it:
                if keep.match(a):
                    args.append(a)
                    if a == "-isystem":
                        args.append(next(it, ""))
            try:
                rel = pathlib.Path(e["file"]).resolve() \
                    .relative_to(self.root.resolve()).as_posix()
                out[rel] = args
            except (KeyError, ValueError):
                continue
        return out

    def build(self, rel_files):
        ci = self.ci
        model = Model(frontend=self.name)
        index = ci.Index.create()
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
        for rel in rel_files:
            text = (self.root / rel).read_text(encoding="utf-8",
                                               errors="replace")
            code, comments = conventions.scrub_source(text)
            model.files[rel] = SourceFile(rel=rel, code=code,
                                          comments=comments)
        # Build a lexical pass too: watched-name declarations come cheap,
        # and any TU the AST cannot fully resolve keeps lexical coverage.
        lex = LexicalFrontend(self.root)
        for rel in rel_files:
            if not rel.endswith((".cpp", ".cc")):
                continue
            path = str(self.root / rel)
            args = self.args_by_file.get(rel, []) or self.base_args
            try:
                tu = index.parse(path, args=args)
            except ci.TranslationUnitLoadError as exc:
                print(f"duo-lint: libclang failed to parse {rel}: {exc}",
                      file=sys.stderr)
                continue
            self._walk_tu(model, tu, rel)
        # headers not reached through any TU still contribute classes
        seen = {(c.rel, c.line) for c in model.classes}
        lex_model = lex.build([r for r in rel_files
                               if r.endswith((".hpp", ".h"))])
        for c in lex_model.classes:
            if (c.rel, c.line) not in seen:
                model.classes.append(c)
        for f in lex_model.functions:
            model.functions.append(f)
        return model

    # -- AST walking -------------------------------------------------------

    def _rel_of(self, cursor):
        try:
            f = cursor.location.file
            if f is None:
                return None
            return pathlib.Path(f.name).resolve() \
                .relative_to(self.root.resolve()).as_posix()
        except (ValueError, OSError):
            return None

    def _walk_tu(self, model, tu, main_rel):
        K = self.ci.CursorKind
        seen_classes = {(c.rel, c.line) for c in model.classes}
        seen_funcs = {(f.rel, f.line) for f in model.functions}

        def visit(cursor):
            rel = self._rel_of(cursor)
            in_repo = rel is not None and rel in model.files
            if cursor.kind in (K.CLASS_DECL, K.STRUCT_DECL) and \
                    cursor.is_definition() and in_repo:
                key = (rel, cursor.location.line)
                if key not in seen_classes:
                    seen_classes.add(key)
                    model.classes.append(self._class_info(cursor, rel))
            if cursor.kind in (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                               K.DESTRUCTOR) and cursor.is_definition() \
                    and in_repo:
                key = (rel, cursor.location.line)
                if key not in seen_funcs:
                    seen_funcs.add(key)
                    self._function_info(model, cursor, rel)
                return  # bodies are walked by _function_info
            for ch in cursor.get_children():
                visit(ch)

        visit(tu.cursor)

    def _class_info(self, cursor, rel):
        K = self.ci.CursorKind
        TK = self.ci.TypeKind
        cls = ClassInfo(name=cursor.spelling, rel=rel,
                        line=cursor.location.line)
        for ch in cursor.get_children():
            if ch.kind != K.FIELD_DECL:
                continue
            t = ch.type
            spelling = t.get_canonical().spelling
            tokens = {tok.spelling for tok in ch.get_tokens()}
            guarded = bool({"DUO_GUARDED_BY", "DUO_PT_GUARDED_BY"} & tokens)
            is_ref = t.kind in (TK.LVALUEREFERENCE, TK.RVALUEREFERENCE)
            is_ptr = t.kind == TK.POINTER
            is_const_value = t.is_const_qualified() and not is_ptr
            is_const_ptr = is_ptr and t.is_const_qualified()
            nonconst = spelling.replace("const ", "")
            is_atomic = nonconst.startswith("std::atomic<") or \
                "_Atomic" in spelling
            is_capability = bool(re.search(
                r"(^|::)(util::)?(Mutex|CondVar)$", nonconst))
            member = Member(name=ch.spelling, line=ch.location.line,
                            type_text=spelling, guarded=guarded,
                            exempt=(is_ref or is_const_value or is_const_ptr
                                    or is_atomic or is_capability))
            cls.members.append(member)
            if re.search(r"(^|::)util::Mutex$", nonconst) and \
                    not is_ref and not is_ptr:
                cls.owns_mutex = True
        return cls

    def _function_info(self, model, cursor, rel):
        K = self.ci.CursorKind
        parent = cursor.semantic_parent
        cls = parent.spelling if parent is not None and parent.kind in (
            K.CLASS_DECL, K.STRUCT_DECL) else ""
        fn = FuncInfo(name=cursor.spelling.split("(")[0], cls=cls, rel=rel,
                      line=cursor.location.line)
        body = None
        for ch in cursor.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body = ch
        # annotations: tokens of the declaration before the body
        body_off = body.extent.start.offset if body is not None else None
        decl_tokens = []
        for tok in cursor.get_tokens():
            if body_off is not None and tok.extent.start.offset >= body_off:
                break
            decl_tokens.append(Token(tok.spelling, tok.location.line))
        fn.requires = [self._qualify_expr(e, cls) for e in _annotation_args(
            decl_tokens, {"DUO_REQUIRES", "DUO_REQUIRES_SHARED"})]
        fn.acquires_annot = [self._qualify_expr(e, cls)
                             for e in _annotation_args(
                                 decl_tokens,
                                 {"DUO_ACQUIRE", "DUO_ACQUIRE_SHARED"})]
        model.functions.append(fn)
        if body is not None:
            self._walk_body(model, fn, body, rel, list(fn.requires))
        return fn

    def _qualify_expr(self, expr, cls):
        expr = expr.replace("this->", "")
        if cls and re.fullmatch(r"[A-Za-z_]\w*", expr):
            return f"{cls}::{expr}"
        return expr

    def _mutex_identity(self, var_decl):
        """Resolve the MutexLock constructor argument to Class::field."""
        K = self.ci.CursorKind
        found = []

        def grab(c):
            if c.kind in (K.MEMBER_REF_EXPR, K.DECL_REF_EXPR):
                ref = c.referenced
                if ref is not None and ref.kind == K.FIELD_DECL:
                    owner = ref.semantic_parent
                    found.append(f"{owner.spelling}::{ref.spelling}")
                    return
                if ref is not None and ref.kind not in (K.CONSTRUCTOR,):
                    found.append(ref.spelling)
                    return
            for ch in c.get_children():
                grab(ch)

        grab(var_decl)
        # first resolved reference that is not the MutexLock type itself
        for ident in found:
            if "MutexLock" not in ident:
                return ident
        return "<unresolved>"

    def _walk_body(self, model, fn, body, rel, held):
        K = self.ci.CursorKind

        def visit(node, held):
            if node.kind == K.COMPOUND_STMT:
                local = list(held)
                for ch in node.get_children():
                    if ch.kind == K.DECL_STMT:
                        for d in ch.get_children():
                            if d.kind == K.VAR_DECL and \
                                    "MutexLock" in d.type.spelling:
                                mutex = self._mutex_identity(d)
                                fn.acquisitions.append(Acquisition(
                                    mutex=mutex, line=d.location.line,
                                    held=tuple(local)))
                                local.append(mutex)
                            else:
                                visit(d, local)
                        continue
                    if ch.kind == K.CALL_EXPR:
                        self._discard(model, rel, ch)
                    visit(ch, local)
                return
            if node.kind == K.CALL_EXPR:
                ref = node.referenced
                callee = ref.spelling if ref is not None else node.spelling
                if callee:
                    fn.calls.append(CallSite(
                        callee=callee, qualified=ref is not None,
                        line=node.location.line, held=tuple(held)))
            for ch in node.get_children():
                visit(ch, held)

        visit(body, list(held))

    def _discard(self, model, rel, call):
        t = call.type.get_canonical().spelling
        bare = t.split("::")[-1]
        compact = t.replace(" ", "")
        watched = bare in WATCHED_TYPES or (
            any(w in compact for w in WATCHED_TYPES) and
            ("Result<" in compact or "vector<" in compact))
        if watched:
            ref = call.referenced
            callee = ref.spelling if ref is not None else "<call>"
            model.discards.append(DiscardSite(
                rel=rel, line=call.location.line, callee=callee,
                type_text=t, resolved=True))


def make_frontend(kind, root, compdb=None):
    if kind in ("auto", "libclang"):
        try:
            import clang.cindex  # noqa: F401
            fe = LibclangFrontend(root, compdb=compdb)
            # force library resolution now, so auto can fall back cleanly
            clang.cindex.Index.create()
            return fe
        except Exception as exc:  # noqa: BLE001 — any load failure
            if kind == "libclang":
                print(f"duo-lint: libclang frontend unavailable: {exc}",
                      file=sys.stderr)
                return None
    return LexicalFrontend(root)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

class Check:
    name = ""
    description = ""

    def run(self, model, ctx):  # -> list[Violation]
        raise NotImplementedError


class RelaxedProofCheck(Check):
    name = "relaxed-proof"
    description = ("every memory_order_relaxed site carries `// relaxed: "
                   "<tag>` resolving to a proof in docs/concurrency.md; "
                   "stale doc tags are errors")

    def run(self, model, ctx):
        out = []
        doc_rel = "docs/concurrency.md"
        doc_path = ctx.root / doc_rel
        doc_tags = {}
        if doc_path.is_file():
            for lineno, line in enumerate(
                    doc_path.read_text(encoding="utf-8").splitlines(),
                    start=1):
                for m in DOC_TAG.finditer(line):
                    doc_tags.setdefault(m.group(1), lineno)
        live_tags = set()
        for sf in model.files.values():
            for lineno, code in enumerate(sf.code, start=1):
                if not RELAXED_TOKEN.search(code):
                    continue
                tag = None
                for probe in (lineno, lineno - 1):
                    c = sf.comments.get(probe, "")
                    m = RELAXED_TAG.search(c)
                    if m:
                        tag = m.group(1)
                        break
                if tag is None:
                    out.append(Violation(
                        sf.rel, lineno, self.name,
                        "memory_order_relaxed without an adjacent "
                        "`// relaxed: <tag>` proof reference "
                        f"(add the argument to {doc_rel})"))
                    continue
                live_tags.add(tag)
                if tag not in doc_tags:
                    out.append(Violation(
                        sf.rel, lineno, self.name,
                        f"relaxed tag `{tag}` has no proof entry "
                        f"(`relaxed: {tag}`) in {doc_rel}"))
        for tag, lineno in sorted(doc_tags.items()):
            if tag not in live_tags:
                out.append(Violation(
                    doc_rel, lineno, self.name,
                    f"stale proof: doc tag `relaxed: {tag}` has no live "
                    "memory_order_relaxed site — delete the entry or "
                    "restore the tag"))
        return out


class GuardedMembersCheck(Check):
    name = "guarded-members"
    description = ("mutable non-atomic members of classes owning a "
                   "util::Mutex must be DUO_GUARDED_BY/DUO_PT_GUARDED_BY "
                   "or carry an `// unguarded: <why>` waiver")

    def run(self, model, ctx):
        out = []
        for cls in model.classes:
            if not cls.owns_mutex:
                continue
            sf = model.files.get(cls.rel)
            for m in cls.members:
                if m.guarded or m.exempt:
                    continue
                if sf is not None and self._waived(sf, m.line):
                    continue
                out.append(Violation(
                    cls.rel, m.line, self.name,
                    f"{cls.name}::{m.name} ({m.type_text or 'unknown type'}) "
                    "is a mutable non-atomic member of a mutex-owning class "
                    "— annotate DUO_GUARDED_BY(<mutex>) or waive with "
                    "`// unguarded: <why>`"))
        return out

    @staticmethod
    def _waived(sf, line):
        """Waiver on the declaration line itself, or anywhere in the
        contiguous comment block immediately above it."""
        if WAIVER_TAG.search(sf.comments.get(line, "")):
            return True
        probe = line - 1
        while probe >= 1 and probe in sf.comments and \
                not sf.code[probe - 1].strip():
            if WAIVER_TAG.search(sf.comments[probe]):
                return True
            probe -= 1
        return False


class LockOrderCheck(Check):
    name = "lock-order"
    description = ("the static lock-acquisition order (nested MutexLock / "
                   "DUO_REQUIRES / DUO_ACQUIRE scopes, closed over calls) "
                   "must be acyclic")

    def run(self, model, ctx):
        edges = {}  # (a, b) -> (rel, line, how)

        def add_edge(a, b, rel, line, how):
            if a == b or "<unresolved>" in a or "<unresolved>" in b:
                return
            edges.setdefault((a, b), (rel, line, how))

        # function summaries: every mutex a function may acquire, closed
        # transitively over resolvable calls
        by_name = {}
        by_cls_name = {}
        for fn in model.functions:
            by_name.setdefault(fn.name, []).append(fn)
            by_cls_name[(fn.cls, fn.name)] = fn

        def resolve(call, caller):
            own = by_cls_name.get((caller.cls, call.callee))
            if own is not None:
                return own
            cands = by_name.get(call.callee, [])
            methods = [f for f in cands if f.cls]
            if call.qualified:
                return methods[0] if len(methods) == 1 else None
            free = [f for f in cands if not f.cls]
            if len(free) == 1:
                return free[0]
            return cands[0] if len(cands) == 1 else None

        summary = {fn.key: set(a.mutex for a in fn.acquisitions) |
                   set(fn.acquires_annot) for fn in model.functions}
        changed = True
        while changed:
            changed = False
            for fn in model.functions:
                s = summary[fn.key]
                for call in fn.calls:
                    target = resolve(call, fn)
                    if target is None:
                        continue
                    extra = summary[target.key] - s
                    if extra:
                        s |= extra
                        changed = True

        # direct nesting edges
        for fn in model.functions:
            for acq in fn.acquisitions:
                if "<unresolved>" in acq.mutex:
                    continue
                if acq.mutex in acq.held:
                    return [Violation(
                        fn.rel, acq.line, self.name,
                        f"{acq.mutex} acquired while already held "
                        f"(in {fn.cls + '::' if fn.cls else ''}{fn.name}) — "
                        "util::Mutex is non-reentrant")]
                for h in acq.held:
                    add_edge(h, acq.mutex, fn.rel, acq.line,
                             f"MutexLock({acq.mutex.split('::')[-1]}) nested "
                             f"under {h}")
            for call in fn.calls:
                if not call.held:
                    continue
                target = resolve(call, fn)
                if target is None:
                    continue
                for b in summary[target.key]:
                    for a in call.held:
                        add_edge(a, b, fn.rel, call.line,
                                 f"call to {call.callee}() (which acquires "
                                 f"{b}) while holding {a}")

        # cycle detection (iterative DFS, deterministic order)
        adj = {}
        for (a, b) in edges:
            adj.setdefault(a, []).append(b)
        for k in adj:
            adj[k].sort()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {}
        parent = {}

        def find_cycle():
            for start in sorted(adj):
                if color.get(start, WHITE) != WHITE:
                    continue
                stack = [(start, iter(adj.get(start, [])))]
                color[start] = GRAY
                while stack:
                    node, it = stack[-1]
                    advanced = False
                    for nxt in it:
                        if color.get(nxt, WHITE) == GRAY:
                            # reconstruct
                            cycle = [nxt, node]
                            cur = node
                            while cur != nxt:
                                cur = parent[cur]
                                cycle.append(cur)
                            cycle.reverse()
                            return cycle
                        if color.get(nxt, WHITE) == WHITE:
                            color[nxt] = GRAY
                            parent[nxt] = node
                            stack.append((nxt, iter(adj.get(nxt, []))))
                            advanced = True
                            break
                    if not advanced:
                        color[node] = BLACK
                        stack.pop()
            return None

        cycle = find_cycle()
        if cycle is None:
            return []
        # cycle is [x, ..., x]; report each edge with provenance
        legs = []
        first = edges[(cycle[0], cycle[1])]
        for i in range(len(cycle) - 1):
            rel, line, how = edges[(cycle[i], cycle[i + 1])]
            legs.append(f"{cycle[i]} -> {cycle[i + 1]} ({rel}:{line}: {how})")
        return [Violation(
            first[0], first[1], self.name,
            "lock-order cycle: " + "; ".join(legs))]


class DroppedVerdictCheck(Check):
    name = "dropped-verdict"
    description = ("flags call statements that discard a Verdict / "
                   "CheckResult / VerdictVector / FeedOutcome (or "
                   "Result<Verdict> / vector<CheckResult>) result")

    def run(self, model, ctx):
        out = []
        for d in model.discards:
            type_text = d.type_text
            if not d.resolved:
                entry = model.callables.get(d.callee)
                if entry is None or entry.unwatched:
                    continue  # unknown or ambiguous name: no lexical claim
                type_text = (entry.watched_method if d.qualified
                             else entry.watched_free)
                if not type_text:
                    continue  # method name called free (or vice versa)
            out.append(Violation(
                d.rel, d.line, self.name,
                f"result of {d.callee}() ({type_text}) is discarded — "
                "a dropped verdict is an unchecked check; assign it, test "
                "it, or cast to (void) with a comment"))
        return out


class _ConventionsCheck(Check):
    """Base for the three absorbed regex conventions checks."""

    pattern = None
    exempt = None
    hint = ""

    def run(self, model, ctx):
        out = []
        for sf in model.files.values():
            if self.exempt is not None and self.exempt.match(sf.rel):
                continue
            for lineno, code in enumerate(sf.code, start=1):
                if self.pattern.search(code):
                    out.append(Violation(sf.rel, lineno, self.name,
                                         self.hint))
        return out


class RawSyncCheck(_ConventionsCheck):
    name = "raw-sync"
    description = ("bans raw std::mutex/lock_guard/condition_variable "
                   "outside src/util/ (invisible to -Wthread-safety)")
    pattern = conventions.RAW_SYNC
    exempt = conventions.RAW_SYNC_EXEMPT
    hint = ("raw std synchronization primitive — use util::Mutex/MutexLock/"
            "CondVar (src/util/mutex.hpp) so -Wthread-safety can check the "
            "lock discipline")


class BannedRandomCheck(_ConventionsCheck):
    name = "banned-random"
    description = ("bans rand()/srand() and argless std::random_device "
                   "(reproducibility is load-bearing)")
    pattern = conventions.BANNED_RANDOM
    exempt = None
    hint = ("banned randomness source — use the seeded generators in "
            "util/rng.hpp (reproducibility is load-bearing)")


class RawThreadCheck(_ConventionsCheck):
    name = "raw-thread"
    description = ("bans raw std::thread outside src/util/ "
                   "(threads must join on every exit path)")
    pattern = conventions.RAW_THREAD
    exempt = conventions.RAW_THREAD_EXEMPT
    hint = ("raw std::thread — use util::ScopedThread / util::run_threads / "
            "util::WorkerGang (src/util/threading.hpp) so threads join on "
            "every exit path")


ALL_CHECKS = [RelaxedProofCheck(), GuardedMembersCheck(), LockOrderCheck(),
              DroppedVerdictCheck(), RawSyncCheck(), BannedRandomCheck(),
              RawThreadCheck()]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

@dataclass
class Context:
    root: pathlib.Path
    verbose: bool = False


def collect_files(root, explicit):
    if explicit:
        out = []
        for f in explicit:
            p = pathlib.Path(f)
            rel = p.as_posix() if not p.is_absolute() else \
                p.resolve().relative_to(root.resolve()).as_posix()
            out.append(rel)
        return out
    rels = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if SKIP_PATHS.match(rel):
                continue
            rels.append(rel)
    return rels


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="duo_lint.py",
        description="semantic concurrency-invariant lint (see docs/lint.md)")
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2])
    ap.add_argument("--checks", default="all",
                    help="comma-separated check names (default: all)")
    ap.add_argument("--frontend", choices=("auto", "libclang", "lexical"),
                    default="auto")
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json for the libclang frontend")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    ap.add_argument("files", nargs="*",
                    help="restrict the scan to these files (repo-relative)")
    opts = ap.parse_args(argv)

    if opts.list_checks:
        for c in ALL_CHECKS:
            print(f"{c.name:16s} {c.description}")
        return 0

    wanted = [c.strip() for c in opts.checks.split(",") if c.strip()]
    if wanted == ["all"]:
        checks = ALL_CHECKS
    else:
        by_name = {c.name: c for c in ALL_CHECKS}
        unknown = [w for w in wanted if w not in by_name]
        if unknown:
            print(f"duo-lint: unknown check(s): {', '.join(unknown)} "
                  f"(try --list-checks)", file=sys.stderr)
            return 2
        checks = [by_name[w] for w in wanted]

    root = opts.root.resolve()
    if not root.is_dir():
        print(f"duo-lint: no such root: {root}", file=sys.stderr)
        return 2

    frontend = make_frontend(opts.frontend, root, compdb=opts.compdb)
    if frontend is None:
        return 2

    rel_files = collect_files(root, opts.files)
    model = frontend.build(rel_files)

    ctx = Context(root=root, verbose=opts.verbose)
    violations = []
    for check in checks:
        found = check.run(model, ctx)
        if opts.verbose:
            print(f"duo-lint: {check.name}: {len(found)} violation(s)",
                  file=sys.stderr)
        violations.extend(found)

    violations.sort(key=lambda v: (v.rel, v.line, v.check))
    for v in violations:
        print(v.render())
    print(
        f"duo-lint({frontend.name}): {len(rel_files)} files, "
        f"{len(checks)} checks, {len(violations)} violation(s)",
        file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
