#!/usr/bin/env python3
"""Pre-build conventions lint — the fast, dependency-free first gate of the
strict CI job (runs before anything is compiled).

This is the regex fallback of the lint stack: tools/lint/duo_lint.py runs
the same three conventions checks (plus the semantic ones) through its
analyzer framework, and absorbs this script's scrubber via import. Keep this
file stdlib-only so it works on a bare python3 with nothing installed.

Enforced conventions:

1. No raw standard-library synchronization primitives outside src/util/.
   Every blocking lock must be a util::Mutex / util::MutexLock / util::CondVar
   (src/util/mutex.hpp): those carry Clang Thread Safety annotations, so the
   `-Wthread-safety` CI job can prove the lock discipline at compile time.
   A raw std::mutex is invisible to that analysis — and to the reviewer
   looking for the one lock that is not annotated.

2. No rand()/srand() and no argless std::random_device. All randomness goes
   through util/rng.hpp (seeded SplitMix64/Xoshiro256**): reproducibility is
   load-bearing for every randomized test and generator in this repo, and
   rand() is additionally unsynchronized global state (concurrency-mt-unsafe).

3. No raw std::thread outside src/util/. Every thread must be a
   util::ScopedThread (join-on-destroy — a thrown exception or early
   return cannot leave a joinable thread to terminate the process), spawned
   through util::run_threads, or owned by a util::WorkerGang
   (src/util/threading.hpp). std::this_thread::* is fine — the ban is on
   owning the thread handle, not on being on a thread.

Usage: python3 tools/lint/check_conventions.py [repo_root]
Exits 1 with file:line diagnostics on any violation.
"""

import pathlib
import re
import sys

SCAN_DIRS = ["src", "tools", "examples", "tests"]
EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}

# Deliberately-bad lint fixtures (tools/lint/fixtures/*/bad/...) are not
# part of the codebase under conventions.
SKIP_PATHS = re.compile(r"^tools/lint/fixtures/")

# src/util may use the raw primitives: it is where the annotated wrappers
# themselves live.
RAW_SYNC_EXEMPT = re.compile(r"^src/util/")

RAW_SYNC = re.compile(
    r"std::(recursive_|timed_|shared_)*mutex\b"
    r"|std::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(_any)?\b"
)
BANNED_RANDOM = re.compile(r"(?<![\w:.])s?rand\s*\(|std::random_device\b")

# src/util owns the ScopedThread/WorkerGang wrappers.
RAW_THREAD_EXEMPT = re.compile(r"^src/util/")

# std::thread the type; std::this_thread:: (sleep_for/yield) never matches
# because "thread" there is preceded by "this_", not "::".
RAW_THREAD = re.compile(r"std::thread\b")

# Raw-string prefixes (the only identifiers a " may legally follow to open
# a raw string literal).
_RAW_PREFIXES = {"R", "uR", "UR", "LR", "u8R"}
# Char-literal encoding prefixes (to tell u8'x' from the 1'000'000 digit
# separator, which also puts an alphanumeric right before the quote).
_CHAR_PREFIXES = {"u8", "u", "U", "L"}

_IDENT = re.compile(r"[A-Za-z0-9_]")


def _ident_ending_at(text: str, end: int) -> str:
    """The identifier token whose last character is text[end - 1] ('' if
    text[end - 1] is not an identifier character)."""
    start = end
    while start > 0 and _IDENT.match(text[start - 1]):
        start -= 1
    return text[start:end]


def scrub_source(text: str):
    """Blank comments and string/char-literal contents out of C++ source.

    Returns (code_lines, comment_lines):
      code_lines    — one entry per source line, with every comment and the
                      *contents* of every string/char literal replaced by
                      spaces (delimiters kept), so token positions survive
                      and regexes cannot be tripped by prose or literals;
      comment_lines — {1-based line number: comment text on that line}
                      (block comments contribute to every line they span).

    A real state machine, not per-line regexes: it gets right the cases the
    old scrubber leaked — escaped quotes ("a \\" // b"), // inside string
    literals (which used to truncate the line and hide real code after the
    string), multi-line raw strings R"(...)" (whose bodies used to be
    scanned as code), char literals like '"', and C++14 digit separators
    (1'000'000 must not open a char literal).
    """
    code_lines: list[str] = []
    comments: dict[int, str] = {}
    code_buf: list[str] = []
    comment_buf: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_terminator = ""
    i, n = 0, len(text)
    line_no = 1

    def emit_line():
        nonlocal code_buf, comment_buf, line_no
        code_lines.append("".join(code_buf))
        stripped = "".join(comment_buf).strip()
        if stripped:
            comments[line_no] = stripped
        code_buf = []
        comment_buf = []
        line_no += 1

    while i < n:
        ch = text[i]
        if ch == "\n":
            if state == "line_comment":
                state = "code"
            if state in ("string", "char"):
                state = "code"  # unterminated literal: don't eat the file
            emit_line()
            i += 1
            continue

        if state == "code":
            nxt = text[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                code_buf.append("  ")
                i += 2
                continue
            if ch == '"':
                if _ident_ending_at(text, i) in _RAW_PREFIXES:
                    close = text.find("(", i + 1, i + 20)
                    if close >= 0:
                        raw_terminator = ")" + text[i + 1 : close] + '"'
                        state = "raw"
                        code_buf.append('"')
                        i += 1
                        # blank the delimiter + '(' too
                        while i < n and text[i] != "(":
                            code_buf.append(" ")
                            i += 1
                        if i < n:
                            code_buf.append(" ")
                            i += 1
                        continue
                state = "string"
                code_buf.append('"')
                i += 1
                continue
            if ch == "'":
                prev_ident = _ident_ending_at(text, i)
                if prev_ident and prev_ident not in _CHAR_PREFIXES:
                    # digit separator (1'000'000) or ill-formed; not a char
                    # literal opener either way
                    code_buf.append("'")
                    i += 1
                    continue
                state = "char"
                code_buf.append("'")
                i += 1
                continue
            code_buf.append(ch)
            i += 1
            continue

        if state == "line_comment":
            if ch == "\\" and i + 1 < n and text[i + 1] == "\n":
                # backslash-newline splices the next line into the comment
                i += 2
                emit_line()
                continue
            comment_buf.append(ch)
            i += 1
            continue

        if state == "block_comment":
            if ch == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                code_buf.append("  ")
                i += 2
                continue
            comment_buf.append(ch)
            i += 1
            continue

        if state == "string":
            if ch == "\\" and i + 1 < n:
                if text[i + 1] == "\n":  # line continuation inside literal
                    code_buf.append(" ")
                    i += 1
                    continue
                code_buf.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "code"
                code_buf.append('"')
                i += 1
                continue
            code_buf.append(" ")
            i += 1
            continue

        if state == "char":
            if ch == "\\" and i + 1 < n:
                code_buf.append("  ")
                i += 2
                continue
            if ch == "'":
                state = "code"
                code_buf.append("'")
                i += 1
                continue
            code_buf.append(" ")
            i += 1
            continue

        # state == "raw": scan for the exact )delim" terminator
        if ch == ")" and text.startswith(raw_terminator, i):
            for _ in raw_terminator:
                code_buf.append(" ")
            code_buf[-1] = '"'
            i += len(raw_terminator)
            state = "code"
            continue
        code_buf.append(" ")
        i += 1

    emit_line()
    return code_lines, comments


def check_file(root: pathlib.Path, rel: str) -> list[str]:
    problems = []
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    code_lines, _ = scrub_source(text)
    for lineno, line in enumerate(code_lines, start=1):
        if RAW_SYNC.search(line) and not RAW_SYNC_EXEMPT.match(rel):
            problems.append(
                f"{rel}:{lineno}: raw std synchronization primitive — use "
                f"util::Mutex/MutexLock/CondVar (src/util/mutex.hpp) so the "
                f"-Wthread-safety job can check the lock discipline"
            )
        if BANNED_RANDOM.search(line):
            problems.append(
                f"{rel}:{lineno}: banned randomness source — use the seeded "
                f"generators in util/rng.hpp (reproducibility is load-bearing)"
            )
        if RAW_THREAD.search(line) and not RAW_THREAD_EXEMPT.match(rel):
            problems.append(
                f"{rel}:{lineno}: raw std::thread — use util::ScopedThread / "
                f"util::run_threads / util::WorkerGang (src/util/threading.hpp) "
                f"so threads join on every exit path"
            )
    return problems


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parents[2]
    )
    problems = []
    scanned = 0
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
            scanned += 1
            problems.extend(check_file(root, rel))
    for p in problems:
        print(p, file=sys.stderr)
    print(
        f"check_conventions: {scanned} files scanned, "
        f"{len(problems)} violation(s)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
