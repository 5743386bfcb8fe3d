"""Shared text-scan machinery for the jiffylint passes.

Reuses tools/atomic_audit.py for the pieces that must stay consistent with
the audit (comment stripping, the comment-attachment rule, call-span
tracking, file collection, Finding formatting) and adds what the protocol
passes need on top: brace-scope tracking, guard-region discovery, loop
detection and protected-pointer tracking.

Everything here is line-based and heuristic by design — the clang AST mode
(astmode.py) cross-checks that the text scan does not miss sites.
"""

import os
import re
import sys

TOOLS_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

import atomic_audit as audit  # noqa: E402

Finding = audit.Finding
REPO_ROOT = audit.REPO_ROOT

ESCAPES_RE = re.compile(r"escapes:\s*\S")
ESCAPES_MACRO_RE = re.compile(r"\bJIFFY_LINT_ESCAPES\s*\(")
UNLINK_RE = re.compile(r"unlink:\s*([a-z0-9-]+)")
UNLINK_MACRO_RE = re.compile(r"\bJIFFY_LINT_UNLINK\s*\(\s*([a-z0-9-]+)\s*\)")

# Local RAII guard construction. Members follow the `name_` convention and
# are excluded (a member guard is a class invariant, not a lexical scope;
# SnapWalk documents its borrowed one via JIFFY_REQUIRES(g_, tk_)).
GUARD_LOCAL_RE = re.compile(r"\bebr::Guard\s+(\w+)\s*[;({]")
REQUIRES_RE = re.compile(r"\bJIFFY_REQUIRES(?:_GUARD)?\s*\(\s*(\w+)")
GUARD_PARAM_RE = re.compile(r"ebr::Guard\s*&\s*(\w+)")

LOOP_HEADER_RE = re.compile(r"(^|[^\w])(for|while|do)($|[^\w])")


class SourceFile:
    """One scanned file: raw/code lines plus brace-depth geometry."""

    def __init__(self, path):
        self.path = path
        with open(path, encoding="utf-8") as f:
            self.raw_lines = f.read().splitlines()
        self.code_lines = [audit.strip_comments_line(l) for l in self.raw_lines]
        self._depths()

    def _scan_braces(self, line, depth):
        """Brace depth after `line`, skipping string and char literals."""
        i = 0
        while i < len(line):
            ch = line[i]
            if ch in "\"'":
                q = ch
                i += 1
                while i < len(line):
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == q:
                        break
                    i += 1
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
            i += 1
        return depth

    def _depths(self):
        # pre_depth[i] = brace depth at the start of line i.
        self.pre_depth = []
        d = 0
        for line in self.code_lines:
            self.pre_depth.append(d)
            d = self._scan_braces(line, d)
        self.pre_depth.append(d)

    def statement_text(self, idx, max_lines=8):
        """(start, end, joined code) of the statement containing line idx."""
        start = audit.statement_start(self.code_lines, idx)
        end = idx
        while (end < len(self.code_lines) - 1 and end - start < max_lines
               and not self.code_lines[end].rstrip().endswith(
                   (";", "{", "}", ":"))):
            end += 1
        return start, end, " ".join(
            self.code_lines[i].strip() for i in range(start, end + 1))

    def comments_for(self, start_idx, end_idx):
        return audit.attached_comments(
            self.raw_lines, self.code_lines, start_idx, end_idx)

    def scope_end(self, decl_idx):
        """Last line of the brace scope a statement at decl_idx lives in."""
        d = self.pre_depth[decl_idx]
        for j in range(decl_idx + 1, len(self.code_lines)):
            if self.pre_depth[j] < d:
                return j - 1
        return len(self.code_lines) - 1

    def body_after(self, idx, col):
        """(open_line, close_line) of the first {...} block after (idx, col),
        or None if a ';' occurs first (pure declaration)."""
        i, j = idx, col
        while i < len(self.code_lines):
            line = self.code_lines[i]
            while j < len(line):
                ch = line[j]
                if ch == ";":
                    return None
                if ch == "{":
                    d_open = self._scan_braces(line[:j], self.pre_depth[i]) + 1
                    if i + 1 >= len(self.code_lines) or \
                            self.pre_depth[i + 1] < d_open:
                        return i, i  # body opened and closed on one line
                    return i, self.scope_end(i + 1)
                j += 1
            i += 1
            j = 0
        return None

    def span_close(self, idx, open_col):
        """(line, col) of the ')' matching the '(' at (idx, open_col)."""
        depth = 0
        i, j = idx, open_col
        while i < len(self.code_lines):
            line = self.code_lines[i]
            while j < len(line):
                ch = line[j]
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        return i, j
                j += 1
            i += 1
            j = 0
        return idx, max(0, len(self.code_lines[idx]) - 1)

    def loop_start(self, idx):
        """Header-statement start line of the innermost loop enclosing line
        idx, or None. Handles brace bodies, sites inside the loop header
        itself (`while (x.compare_exchange...)`), the do{}while footer, and
        a braceless loop body directly under its header."""
        stmt_start, _e, stmt = self.statement_text(idx)
        # Site in a for/while header.
        if re.search(r"(^|[^\w])(for|while)\s*\(", stmt) and not re.match(
                r"\s*\}", self.code_lines[stmt_start]):
            return stmt_start
        # Site in a do { ... } while(cond) footer: find the matching `do`.
        if re.match(r"\s*\}\s*while\s*\(", self.code_lines[stmt_start]):
            d = self.pre_depth[stmt_start]
            for k in range(stmt_start - 1, -1, -1):
                if self.pre_depth[k] < d:
                    return k
            return None
        # Braceless body: the previous statement is a header ending in `)`.
        if stmt_start > 0:
            prev = self.code_lines[stmt_start - 1].rstrip()
            if prev.endswith(")"):
                _hs, _he, header = self.statement_text(stmt_start - 1)
                if re.search(r"(^|[^\w])(for|while)\s*\(", header):
                    return audit.statement_start(
                        self.code_lines, stmt_start - 1)
        # Walk up the scope openers.
        cur = self.pre_depth[idx]
        for k in range(idx - 1, -1, -1):
            if self.pre_depth[k] < cur:
                cur = self.pre_depth[k]
                hs, _he, header = self.statement_text(k)
                if LOOP_HEADER_RE.search(header):
                    return hs
        return None


def bare_use_re(name):
    """A use of `name` as the pointer value itself: not a member access on
    it, not a call, not a field of another object, not a dereference."""
    return re.compile(
        rf"(?<![\w.*])(?<!>){re.escape(name)}\b(?!\s*(?:->|\.|\(|::))")


def has_bare_use(text, names):
    return any(bare_use_re(n).search(text) for n in names)


class GuardRegion:
    """A lexical range in which raw node/revision pointers are guard-
    protected. kind 'local': RAII ebr::Guard in a block — protected pointers
    must not outlive it at all. kind 'requires': body of a
    JIFFY_REQUIRES_GUARD function — the caller holds the guard, so returning
    a protected pointer is sanctioned there, but member-field stores still
    are not."""

    def __init__(self, kind, guard, start, end):
        self.kind = kind
        self.guard = guard
        self.start = start
        self.end = end


def find_guard_regions(src):
    """All guard regions in a SourceFile, plus the (line) set of
    JIFFY_REQUIRES macro sites (for the AST cross-check)."""
    regions = []
    macro_lines = set()
    for idx, code in enumerate(src.code_lines):
        m = GUARD_LOCAL_RE.search(code)
        if m and not m.group(1).endswith("_"):
            regions.append(GuardRegion(
                "local", m.group(1), idx, src.scope_end(idx)))
            continue
        m = REQUIRES_RE.search(code)
        if m:
            macro_lines.add(idx + 1)
            body = src.body_after(idx, m.end())
            if body is None:
                continue
            sig_start = audit.statement_start(src.code_lines, idx)
            sig = " ".join(src.code_lines[i] for i in range(sig_start, idx + 1))
            pm = GUARD_PARAM_RE.search(sig)
            guard = pm.group(1) if pm else m.group(1)
            regions.append(GuardRegion("requires", guard, sig_start, body[1]))
    return regions, macro_lines
