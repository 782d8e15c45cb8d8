#!/usr/bin/env python3
"""Repo-specific static checks that clang-tidy cannot express.

Usage:
    lint_skymr.py [--root /path/to/repo] [--rule NAME ...] [--list-rules]

Walks the C++ tree (src/, fuzz/, tools/, tests/, bench/, examples/) and
enforces the house rules below. Any finding prints one
`path:line: rule: message` diagnostic and the script exits 1; a clean
tree exits 0. CI runs this on every push (the lint job), and the
`tools_lint_skymr` ctest runs it locally.

Rules:

  facade-hygiene    Nothing under src/ may include the public facade
                    src/skymr.h. The facade is the curated surface for
                    tests/tools/examples; library code including it
                    would create a cycle and hide missing direct
                    includes.
  include-guard     Every header uses a path-derived include guard:
                    src/core/grid.h -> SKYMR_CORE_GRID_H_ (the #ifndef
                    and #define must both match).
  throw-discipline  Library code under src/ may only throw the three
                    engine-internal control-flow exceptions (TaskFailure,
                    TaskCancelled, SerdeUnderflow) or rethrow (`throw;`).
                    Everything else must return a Status: exceptions
                    escaping the public API are a bug (session.h
                    contract).
  counter-registry  Every "mr.*"/"skymr.*" string literal must appear in
                    the counter inventory in DESIGN.md (section 13,
                    between the `counter-registry:begin/end` markers).
                    Entries with kind `prefix` match any literal starting
                    with the entry's name. Also cross-checks that every
                    kCounter* constant in src/mapreduce/counters.h is
                    registered with kind `slot`, and that the slot count
                    in the registry matches kNumSlots usage. The check is
                    bidirectional for the `counter`, `event`, `cachekey`,
                    `sketch` and `metric` kinds: each such registry row
                    must be used by at least one C++ string literal, so
                    deleted counters and metrics cannot leave stale
                    documentation behind.
  dcheck-message    Every SKYMR_CHECK / SKYMR_DCHECK must stream a
                    message (`<< ...`) describing the violated invariant;
                    a bare check's failure report is just an expression.
  config-field-set  Every field of the public configuration
                    (SessionOptions, QuerySpec and the structs they nest:
                    EngineOptions, ChaosSchedule, PpdOptions,
                    QueryContext) must be assigned (`.field =` or
                    `->field =`) somewhere outside tests and fuzzers:
                    in src/, tools/, bench/, examples/ or querybench/
                    (which the rule only reads). Assigning a member of a
                    nested struct (`options.engine.num_threads =`) sets
                    every field on the chain. A knob no caller sets is
                    a constant that widens the space every differential
                    test must cover. Fields are matched by name, so a
                    same-named member of another struct also counts.

Suppressions: append `// lint:allow(<rule>) <reason>` to the offending
line, or put it on the line directly above. The reason is mandatory —
a suppression without one is itself a finding (rule `lint-allow`).
"""

import argparse
import os
import re
import sys

CPP_DIRS = ["src", "fuzz", "tools", "tests", "bench", "examples"]
CPP_EXTS = (".h", ".cc")
# Fixture trees for the rules' own tests; they are inputs, not code.
FIXTURE_DIR = "testdata"

# config-field-set: the public configuration structs, and the directories
# whose assignments count as a caller setting a field. querybench/ is the
# benchmark's own tree: read, never linted.
CONFIG_STRUCTS = ["SessionOptions", "QuerySpec", "EngineOptions",
                  "ChaosSchedule", "PpdOptions", "QueryContext"]
CALLER_DIRS = ["src", "tools", "bench", "examples", "querybench"]
NON_CALLER_PARTS = {"tests", "fuzz", FIXTURE_DIR}

# Exceptions library code is allowed to throw (throw-discipline).
ALLOWED_THROWS = ("TaskFailure", "TaskCancelled", "SerdeUnderflow")

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)\s*(.*)")
# Metric/counter namespaces the registry governs: mr. (engine), skymr.
# (algorithm), query. (per-query structured log events). Widening this
# regex is how a new namespace opts into the bidirectional inventory
# check — log/loadgen sources are walked via CPP_DIRS already.
COUNTER_LITERAL_RE = re.compile(r'"((?:mr|skymr|query)\.[A-Za-z0-9_.]+)"')
REGISTRY_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|\s*(\w+)\s*\|")
KCOUNTER_RE = re.compile(
    r"kCounter\w+\s*=\s*\n?\s*\"([^\"]+)\"", re.MULTILINE)


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, line, rule, message):
        self.items.append((path, line, rule, message))


def iter_cpp_files(root, dirs=CPP_DIRS, skip_parts=(FIXTURE_DIR,)):
    for d in dirs:
        base = os.path.join(root, d)
        for dirpath, dirnames, names in os.walk(base):
            dirnames[:] = sorted(n for n in dirnames if n not in skip_parts)
            for name in sorted(names):
                if name.endswith(CPP_EXTS):
                    yield os.path.join(dirpath, name)


def read_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read().splitlines()


def suppressions(lines, findings, relpath):
    """Maps line number (1-based) -> set of suppressed rules.

    A `// lint:allow(rule) reason` comment covers its own line and the
    line below it (for the comment-on-its-own-line form).
    """
    allowed = {}
    for i, line in enumerate(lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            findings.add(relpath, i, "lint-allow",
                         "suppression is missing its reason: "
                         f"`// lint:allow({rule}) <why>`")
        allowed.setdefault(i, set()).add(rule)
        allowed.setdefault(i + 1, set()).add(rule)
    return allowed


def is_suppressed(allowed, line_no, rule):
    return rule in allowed.get(line_no, set())


# --------------------------------------------------------------- rules


def check_facade_hygiene(relpath, lines, allowed, findings):
    if not relpath.startswith("src/"):
        return
    for i, line in enumerate(lines, start=1):
        if re.match(r'\s*#\s*include\s*"src/skymr\.h"', line):
            if is_suppressed(allowed, i, "facade-hygiene"):
                continue
            findings.add(relpath, i, "facade-hygiene",
                         "library code must not include the public facade "
                         "src/skymr.h; include the specific headers")


def check_include_guard(relpath, lines, allowed, findings):
    if not relpath.endswith(".h"):
        return
    expected = "SKYMR_" + re.sub(r"[/.]", "_", relpath).upper() + "_"
    if relpath.startswith("src/"):
        # src/ is the include root the guards were named from.
        expected = "SKYMR_" + re.sub(
            r"[/.]", "_", relpath[len("src/"):]).upper() + "_"
    ifndef = None
    for i, line in enumerate(lines, start=1):
        m = re.match(r"\s*#\s*ifndef\s+(\w+)", line)
        if m:
            ifndef = (i, m.group(1))
            break
    if ifndef is None:
        findings.add(relpath, 1, "include-guard",
                     f"header has no include guard (expected {expected})")
        return
    i, guard = ifndef
    if guard != expected:
        if not is_suppressed(allowed, i, "include-guard"):
            findings.add(relpath, i, "include-guard",
                         f"guard {guard} does not match path-derived "
                         f"{expected}")
        return
    if i >= len(lines) or not re.match(
            r"\s*#\s*define\s+" + re.escape(expected) + r"\b", lines[i]):
        findings.add(relpath, i + 1, "include-guard",
                     f"#ifndef {expected} is not followed by its #define")


def strip_comments_and_strings(line):
    """Removes // comments and the contents of string/char literals."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def check_throw_discipline(relpath, lines, allowed, findings):
    if not relpath.startswith("src/"):
        return
    for i, line in enumerate(lines, start=1):
        code = strip_comments_and_strings(line)
        m = re.search(r"\bthrow\b\s*([A-Za-z_:~]*)", code)
        if not m:
            continue
        if is_suppressed(allowed, i, "throw-discipline"):
            continue
        what = m.group(1).split("::")[-1] if m.group(1) else ""
        if what == "" and re.search(r"\bthrow\s*;", code):
            continue  # Bare rethrow inside a catch block.
        if what in ALLOWED_THROWS:
            continue
        findings.add(relpath, i, "throw-discipline",
                     f"throw of {what or '<expression>'!s}: library code "
                     "may only throw "
                     f"{', '.join(ALLOWED_THROWS)} or rethrow; return a "
                     "Status instead")


def load_counter_registry(root, findings):
    """Parses the DESIGN.md inventory between the registry markers."""
    design = os.path.join(root, "DESIGN.md")
    try:
        text = open(design, encoding="utf-8").read()
    except OSError as e:
        findings.add("DESIGN.md", 1, "counter-registry",
                     f"cannot read DESIGN.md: {e}")
        return {}, {}
    m = re.search(
        r"<!--\s*counter-registry:begin\s*-->(.*?)"
        r"<!--\s*counter-registry:end\s*-->", text, re.DOTALL)
    if not m:
        findings.add("DESIGN.md", 1, "counter-registry",
                     "no counter-registry:begin/end markers; the counter "
                     "inventory section is missing")
        return {}, {}
    start_line = text[:m.start()].count("\n") + 1
    exact, prefixes = {}, {}
    for off, line in enumerate(m.group(1).splitlines()):
        row = REGISTRY_ROW_RE.match(line.strip())
        if not row:
            continue
        name, kind = row.group(1), row.group(2)
        target = prefixes if kind == "prefix" else exact
        if name in target:
            findings.add("DESIGN.md", start_line + off, "counter-registry",
                         f"duplicate registry entry {name!r}")
        target[name] = kind
    return exact, prefixes


def check_counter_literals(relpath, lines, allowed, findings, registry,
                           used_literals):
    exact, prefixes = registry
    for i, line in enumerate(lines, start=1):
        for m in COUNTER_LITERAL_RE.finditer(line):
            name = m.group(1)
            used_literals.add(name)
            if is_suppressed(allowed, i, "counter-registry"):
                continue
            if name in exact or name in prefixes:
                continue
            if any(name.startswith(p) for p in prefixes):
                continue
            findings.add(relpath, i, "counter-registry",
                         f"{name!r} is not in the DESIGN.md counter "
                         "inventory (section 13); register it or fix the "
                         "typo")


# Registry kinds whose every row must be named by a C++ string literal.
LITERAL_KINDS = ("counter", "event", "cachekey", "sketch", "metric")


def check_registry_coverage(findings, registry, used_literals):
    """Reverse direction: counter/event/cachekey/sketch/metric rows must
    be used in C++.

    Counters, log events, cache keys, sketches and metrics are always
    named through a string literal, so a registered name no literal
    mentions is stale documentation. `slot` rows are covered by
    check_slot_constants, and `prefix` rows name families whose members
    only materialize at runtime.
    """
    exact, _ = registry
    for name, kind in sorted(exact.items()):
        if kind not in LITERAL_KINDS:
            continue
        if name not in used_literals:
            findings.add("DESIGN.md", 1, "counter-registry",
                         f"{name!r} has kind `{kind}` but no C++ string "
                         "literal records it; delete the row or restore "
                         "the instrumentation")


def check_slot_constants(root, findings, registry):
    """Every kCounter* constant must be registered with kind `slot`."""
    exact, _ = registry
    header = os.path.join(root, "src/mapreduce/counters.h")
    try:
        text = open(header, encoding="utf-8").read()
    except OSError:
        return  # Already reported via the walk if truly missing.
    slot_names = KCOUNTER_RE.findall(text)
    for name in slot_names:
        if exact.get(name) != "slot":
            findings.add("src/mapreduce/counters.h", 1, "counter-registry",
                         f"pre-interned counter {name!r} must be in the "
                         "DESIGN.md inventory with kind `slot`")
    registered_slots = [n for n, k in exact.items() if k == "slot"]
    for name in registered_slots:
        if name not in slot_names:
            findings.add("DESIGN.md", 1, "counter-registry",
                         f"{name!r} has kind `slot` but is not a "
                         "kCounter* constant in counters.h")


def check_dcheck_message(relpath, lines, allowed, findings):
    if not relpath.startswith("src/"):
        return
    if relpath == "src/common/logging.h":
        return  # The macro definitions themselves.
    text = "\n".join(strip_comments_and_strings(l) for l in lines)
    for m in re.finditer(r"\bSKYMR_D?CHECK\s*\(", text):
        line_no = text[:m.start()].count("\n") + 1
        if is_suppressed(allowed, line_no, "dcheck-message"):
            continue
        # Walk to the matching close paren, then require `<<` before `;`.
        depth, j = 0, m.end() - 1
        while j < len(text):
            if text[j] == "(":
                depth += 1
            elif text[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        rest = text[j + 1:j + 200]
        stmt_end = rest.find(";")
        if stmt_end < 0 or "<<" not in rest[:stmt_end]:
            findings.add(relpath, line_no, "dcheck-message",
                         "check streams no message; add "
                         '`<< "what invariant broke"`')


def strip_comments_keep_layout(text):
    """Blanks // and /* */ comments, keeping every offset and newline."""
    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))
    return re.sub(r"//[^\n]*|/\*.*?\*/", blank, text, flags=re.DOTALL)


def config_fields(text):
    """Yields (struct, field, offset) for the CONFIG_STRUCTS in `text`.

    A field is a body statement at brace depth 1 whose declarator (the
    part before any `=`) has no parenthesis; methods, their bodies and
    static members are skipped.
    """
    code = strip_comments_keep_layout(text)
    for m in re.finditer(r"\bstruct\s+(\w+)\s*\{", code):
        struct = m.group(1)
        if struct not in CONFIG_STRUCTS:
            continue
        depth, start, i = 1, m.end(), m.end()
        while i < len(code) and depth > 0:
            c = code[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 1 and "(" in code[start:i]:
                    start = i + 1  # A method body ends its statement.
            elif c == ";" and depth == 1:
                statement = code[start:i]
                declarator = statement.split("=", 1)[0]
                names = re.findall(r"\b[A-Za-z_]\w*\b", declarator)
                if ("(" not in declarator and len(names) >= 2 and
                        "static" not in names and "using" not in names and
                        "friend" not in names):
                    name = names[-1]
                    yield struct, name, start + declarator.rindex(name)
                start = i + 1
            i += 1


def check_config_fields(root, findings):
    fields = []  # (relpath, line, struct, field, allowed)
    found_structs = set()
    for path in iter_cpp_files(root, ["src"]):
        if not path.endswith(".h"):
            continue
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        text = open(path, encoding="utf-8", errors="replace").read()
        # The main walk already reports suppressions without a reason.
        allowed = suppressions(text.splitlines(), Findings(), relpath)
        for struct, name, offset in config_fields(text):
            found_structs.add(struct)
            line = text.count("\n", 0, offset) + 1
            fields.append((relpath, line, struct, name,
                           is_suppressed(allowed, line, "config-field-set")))
    for struct in CONFIG_STRUCTS:
        if struct not in found_structs:
            findings.add("src", 1, "config-field-set",
                         f"configuration struct {struct} not found under "
                         "src/; update CONFIG_STRUCTS")

    # Every member on an assigned chain counts as set: assigning
    # `options.engine.num_threads` sets a part of `engine`.
    assigned = set()
    assign_re = re.compile(r"((?:(?:\.|->)\s*\w+\s*)+)(?:[-+|]?=)(?!=)")
    for path in iter_cpp_files(root, CALLER_DIRS,
                               skip_parts=NON_CALLER_PARTS):
        text = strip_comments_keep_layout(
            open(path, encoding="utf-8", errors="replace").read())
        for chain in assign_re.findall(text):
            assigned.update(re.findall(r"\w+", chain))

    for relpath, line, struct, name, allowed in fields:
        if name in assigned or allowed:
            continue
        findings.add(relpath, line, "config-field-set",
                     f"{struct}::{name} is set by no caller outside tests "
                     "and fuzzers; make it a named constant, or add "
                     "`// lint:allow(config-field-set) <reason>`")


RULES = ["facade-hygiene", "include-guard", "throw-discipline",
         "counter-registry", "dcheck-message", "config-field-set"]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's ../..)")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args()

    if args.list_rules:
        print("\n".join(RULES))
        return

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    active = set(args.rule or RULES)
    findings = Findings()

    registry = ({}, {})
    if "counter-registry" in active:
        registry = load_counter_registry(root, findings)
        check_slot_constants(root, findings, registry)

    used_literals = set()
    for path in iter_cpp_files(root):
        relpath = os.path.relpath(path, root).replace(os.sep, "/")
        lines = read_lines(path)
        allowed = suppressions(lines, findings, relpath)
        if "facade-hygiene" in active:
            check_facade_hygiene(relpath, lines, allowed, findings)
        if "include-guard" in active:
            check_include_guard(relpath, lines, allowed, findings)
        if "throw-discipline" in active:
            check_throw_discipline(relpath, lines, allowed, findings)
        if "counter-registry" in active:
            check_counter_literals(relpath, lines, allowed, findings,
                                   registry, used_literals)
        if "dcheck-message" in active:
            check_dcheck_message(relpath, lines, allowed, findings)

    if "counter-registry" in active:
        check_registry_coverage(findings, registry, used_literals)
    if "config-field-set" in active:
        check_config_fields(root, findings)

    for path, line, rule, message in findings.items:
        print(f"{path}:{line}: {rule}: {message}")
    if findings.items:
        print(f"lint_skymr: {len(findings.items)} finding(s)",
              file=sys.stderr)
        sys.exit(1)
    print("lint_skymr: clean")


if __name__ == "__main__":
    main()
