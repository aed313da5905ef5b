#!/usr/bin/env python3
"""Regression tests for tools/lint/check_conventions.py — in particular the
string/comment scrubber, whose per-line regex predecessor had two classes of
bug this suite pins down:

  - *leaks*: banned tokens inside multi-line raw string literals (or after
    an escaped-quote confusion) were scanned as code → false positives;
  - *masks*: a `//` inside a string literal truncated the rest of the line,
    hiding real code (and real violations) after the string.

Run directly (python3 tools/lint/test_check_conventions.py) or via CTest
(lint_conventions_regression).
"""

import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check_conventions as cc  # noqa: E402


def run_on(source: str, rel: str = "src/checker/x.cpp") -> list[str]:
    """Write one file into a temp mini-tree and lint it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        return cc.check_file(root, rel)


class ScrubberTest(unittest.TestCase):
    def scrub(self, text):
        return cc.scrub_source(text)

    def test_line_count_preserved(self):
        text = 'int a;\n/* b\nc */ int d;\nR"(e\nf)" int g;\n'
        code, _ = self.scrub(text)
        self.assertEqual(len(code), text.count("\n") + 1)

    def test_escaped_quote_stays_inside_string(self):
        code, _ = self.scrub(r'auto s = "a\" std::mutex b"; int x;')
        self.assertNotIn("std::mutex", code[0])
        self.assertIn("int x", code[0])

    def test_comment_marker_inside_string_does_not_truncate(self):
        # The old scrubber stripped from the // first, unbalancing the
        # quotes and losing (masking) everything after the string.
        code, _ = self.scrub('f("see // docs"); std::mutex m;')
        self.assertIn("std::mutex m", code[0])

    def test_multiline_raw_string_blanked(self):
        text = 'auto s = R"(line one\nstd::mutex in prose\n)"; int y;'
        code, _ = self.scrub(text)
        self.assertNotIn("std::mutex", "".join(code))
        self.assertIn("int y", code[2])

    def test_custom_raw_delimiter(self):
        text = 'auto s = R"ab(body )" std::thread )ab"; int z;'
        code, _ = self.scrub(text)
        self.assertNotIn("std::thread", "".join(code))
        self.assertIn("int z", code[0])

    def test_digit_separator_is_not_a_char_literal(self):
        code, _ = self.scrub("std::uint64_t n = 50'000'000; int tail;")
        self.assertIn("int tail", code[0])

    def test_char_literal_with_quote(self):
        code, _ = self.scrub("char q = '\"'; std::mutex m;")
        self.assertIn("std::mutex m", code[0])

    def test_block_comment_spanning_lines(self):
        code, comments = self.scrub("a;/* one\nstd::mutex\ntwo */b;")
        self.assertNotIn("std::mutex", "".join(code))
        self.assertIn("b;", code[2])
        self.assertIn("std::mutex", comments[2])

    def test_line_comment_captured(self):
        _, comments = self.scrub("x.store(0);  // relaxed: some-tag\n")
        self.assertEqual(comments[1], "relaxed: some-tag")

    def test_unterminated_string_does_not_eat_file(self):
        code, _ = self.scrub('auto s = "oops;\nstd::mutex m;')
        self.assertIn("std::mutex m", code[1])


class ConventionsTest(unittest.TestCase):
    def test_plain_violation_still_caught(self):
        out = run_on("std::mutex m;\n")
        self.assertEqual(len(out), 1)
        self.assertIn(":1:", out[0])

    def test_banned_token_in_string_not_flagged(self):
        self.assertEqual(run_on('const char* s = "std::mutex";\n'), [])

    def test_banned_token_in_raw_string_not_flagged(self):
        src = 'const char* s = R"(\n  std::mutex guard;\n  rand();\n)";\n'
        self.assertEqual(run_on(src), [])

    def test_violation_after_string_with_comment_marker(self):
        # Regression: previously masked (comment-stripping ran first and
        # swallowed the real std::mutex after the string).
        out = run_on('log("x // y"); std::mutex m;\n')
        self.assertEqual(len(out), 1)

    def test_violation_after_raw_string_close_same_line(self):
        out = run_on('auto s = R"(text)"; std::thread t;\n')
        self.assertEqual(len(out), 1)
        self.assertIn("std::thread", out[0])

    def test_violation_after_digit_separator(self):
        out = run_on("int n = 1'000'000; std::mutex m;\n")
        self.assertEqual(len(out), 1)

    def test_rand_flagged_everywhere_including_util(self):
        out = run_on("int x = rand();\n", rel="src/util/x.cpp")
        self.assertEqual(len(out), 1)

    def test_util_exempt_from_sync_ban(self):
        self.assertEqual(run_on("std::mutex m;\n", rel="src/util/m.hpp"), [])

    def test_service_not_exempt_from_thread_ban(self):
        out = run_on("std::thread t;\n", rel="src/service/p.cpp")
        self.assertEqual(len(out), 1)
        out = run_on("std::mutex m;\n", rel="src/service/p.cpp")
        self.assertEqual(len(out), 1)

    def test_this_thread_not_flagged(self):
        self.assertEqual(run_on("std::this_thread::yield();\n"), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
