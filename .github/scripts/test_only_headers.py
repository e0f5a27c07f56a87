#!/usr/bin/env python3
"""Usage: test_only_headers.py [REPO_ROOT] (default: the current directory).

Three passes over the code the simulator is built from, src/, examples/ and
cimbench/; tests/ is not scanned, so code only tests reach counts as dead.

Header pass: fails when a header under src/ has no includer in src/,
examples/ or cimbench/ other than its own .cpp.  Includes are matched as
written in this repo, `#include "dir/name.h"` relative to src/.

Function pass: fails when a name declared in a src/ header (a function,
virtual, data member, constant or type) is mentioned in src/, examples/
and cimbench/ only by its declarations, overrides and definitions.  Names
are matched as tokens, after comments and string literals are stripped,
without resolving scopes.  A mention counts as a declaration only when it
cannot be read as anything else (`Type name(...);` or `{`, `Type name;`,
`= ...;`, `{...};`, `Type Class::name(...) {`, `struct name {`,
`using name =`), and as a write when it is a member on the left of a
plain `=` (`x.name = ...`, `x->name = ...`), so a field that production
only assigns fails too; every other mention counts as a use.  So a name
collision (two members or overloads of one name, or a local variable
named like a member) makes the pass miss an offender, and never flags one
falsely.  The one use a name-based pass cannot see is a data member read
only through a structured binding (`auto [a, b] = value;`); name such a
member in HOOKS.

Knob pass: fails when a field of a struct whose name ends in Config,
Scenario or Options, or of LengthSpec, declared in a src/ header with a
default member initializer (`Type name = ...;` or `Type name{...};`), is
never assigned in src/, examples/ and cimbench/: no `x.name =`,
`x->name =`, `x.name *=`, `x.name +=` (or -=, /=), designated
initializers included.  Production
then always runs the default and only tests choose another value, so the
field is a named constant, not an option.  Names are matched as tokens
without scopes, like the function pass, so a collision can hide an
offender but never invents one.  A field filled by a positional aggregate
initializer, or kept for another reason, goes in KNOBS.

Each pass prints one line per offender and exits 1; it prints one OK line
per pass otherwise.  Oracle headers (ORACLES) are exempt from every pass;
HOOKS lists the names kept on purpose for tests, and KNOBS the option
fields production does not assign, each with the reason.
"""

import os
import re
import sys

SCAN_DIRS = ("src", "examples", "cimbench")
SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc")
# Functional oracles: tests check the analytic cost models against them, so
# nothing outside tests reaches them.
ORACLES = {
    "cim/cim_grid.h": "bit-exact CIM array, cim_grid_test's oracle for CimMxu",
    "systolic/functional_array.h":
        "cycle-level systolic array, systolic_functional_test's oracle",
    "cim/cim_macro.h": "one CIM macro, reached only by the cim_grid oracle",
    "cim/bitserial.h": "bit-serial MAC, reached only by the cim_grid oracle",
}
# Names kept for tests on purpose: one reason each.
HOOKS = {
    "inspect": "KvCacheManager's one per-request state hook for tests",
    "audit": "KV and prefix-store invariant checks the fuzz walls run",
    "decode_kv_lens": "scheduler hook: the decoders' KV lengths for tests",
    "aggregates_consistent":
        "scheduler hook: O(1) aggregates vs a full recount for tests",
    "gauges": "MetricsRegistry's gauge map, read by registry tests",
    "histograms": "MetricsRegistry's histogram map, read by registry tests",
    "store_count": "SharedStepCostCache hook: stores per signature",
    "total_entries": "SharedStepCostCache hook: entries over all stores",
    "calibration_node":
        "the 22 nm node tech_test checks the calibration constants at",
    "swapped": "KvCacheManager::Inspection field, filled by inspect()",
    "resident_entries": "KvCacheManager::Inspection field, filled by "
                        "inspect()",
    "swapped_entries": "KvCacheManager::Inspection field, filled by "
                       "inspect()",
    "host_used_blocks": "KvCacheManager::Inspection field, filled by "
                        "inspect()",
    "shared_block_ids": "KvCacheManager::Inspection field, filled by "
                        "inspect()",
    "request_latency":
        "pipeline results' stage-handoff latency, kept until Fig. 8 decides "
        "whether to report the handoff cost (ROADMAP item 3)",
    "ici_energy_per_request":
        "pipeline results' stage-handoff ICI energy, kept until Fig. 8 "
        "decides whether to report the handoff cost (ROADMAP item 3)",
    "guide": "GuidedCdf's bucket starts, checked against their definition",
}
# Structs the knob pass checks: the option structs, and the stream's length
# spec, whose fields every stream sets.
KNOB_STRUCT = re.compile(r"\w+(Config|Scenario|Options)$|LengthSpec$")
# Option fields kept although nothing outside tests assigns them: one reason
# each.
KNOBS = {
    "host_pool_capacity":
        "ServingScenario's swap pool size; cimbench's traced engine reads it, "
        "so it goes with the next benchmark change (ROADMAP item 9)",
    "host_link_bandwidth":
        "ServingScenario's PCIe-class link; cimbench's traced engine reads "
        "it, so it goes with the next benchmark change (ROADMAP item 9)",
}
# Statements in a struct body that declare no data member.
NOT_FIELD = {"using", "static", "friend", "enum", "struct", "class", "union",
             "typedef", "template", "static_assert", "constexpr"}
ASSIGN_OPS = {"+", "-", "*", "/"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
# Comments, string and character literals (raw strings first), and
# preprocessor directives other than #define, which the passes skip.
NOISE = re.compile(
    r'R"([^(\s]*)\(.*?\)\1"'
    r'|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])'"
    r"|//[^\n]*"
    r"|/\*.*?\*/"
    r"|^[ \t]*#[ \t]*(?!define)\w+[^\n]*",
    re.DOTALL | re.MULTILINE)
TOKEN = re.compile(
    r"[A-Za-z_]\w*|\d[\w.']*|::|->|<<=?|>=|<=|==|!=|&&|\|\||\+\+|--"
    r"|[-+*/%&|^!~=<>?:;,.(){}\[\]#]|\n")
# Identifiers that cannot be part of a declaration's type.
NOT_TYPE = {
    "return", "throw", "new", "delete", "else", "do", "case", "default",
    "goto", "sizeof", "alignof", "decltype", "typeid", "co_return",
    "co_yield", "co_await", "if", "while", "for", "switch", "using",
    "namespace", "operator", "define", "and", "or", "not", "this",
    "true", "false", "nullptr", "static_assert", "public", "private",
    "protected", "break", "continue", "try", "catch",
}
TYPE_PUNCT = {"::", "<", ">", ",", "*", "&", "&&", "[", "]"}
ACCESS = {"public", "private", "protected"}
AFTER_PARAMS = {"const", "noexcept", "override", "final", "&", "&&",
                "volatile"}
DECL_END = {";", "{", "=", ":", "->", "try"}


def source_files(root):
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTENSIONS):
                    yield os.path.join(dirpath, name)


def rel(path, base):
    return os.path.relpath(path, base).replace(os.sep, "/")


def header_pass(root, texts):
    src = os.path.join(root, "src")
    headers = sorted(rel(path, src) for path in texts
                     if path.startswith(src + os.sep)
                     and path.endswith((".h", ".hpp")))
    includers = {header: set() for header in headers}
    for path, text in texts.items():
        for included in INCLUDE.findall(text):
            if included in includers:
                includers[included].add(rel(path, root))
    offenders = []
    for header in headers:
        own = {"src/" + header, "src/" + os.path.splitext(header)[0] + ".cpp"}
        if header not in ORACLES and not includers[header] - own:
            offenders.append(header)
    for header in offenders:
        print(f"test_only_headers: src/{header} has no includer in src/, "
              "examples/ or cimbench/ besides its own .cpp (delete it, or "
              "list it in ORACLES if tests use it as an oracle)")
    if not offenders:
        print(f"test_only_headers: OK, {len(headers)} headers under src/ "
              f"({len(ORACLES)} oracles) have non-test includers")
    return not offenders


def tokenize(text):
    """[(token, line)] of `text` without comments, literals or directives."""
    def blank(match):
        return "\n" * match.group(0).count("\n") + " "
    tokens, line = [], 1
    for token in TOKEN.findall(NOISE.sub(blank, text)):
        if token == "\n":
            line += 1
        else:
            tokens.append((token, line))
    return tokens


def is_identifier(token):
    return token[0].isalpha() or token[0] == "_"


def is_type_prefix(toks, end):
    """True when toks[..end) back to the statement start can only be the
    decl-specifiers of a declaration (a type, qualifiers, attributes)."""
    k, seen = end - 1, False
    while k >= 0:
        token = toks[k]
        if token in (";", "{", "}"):
            break
        if token == ":" and k > 0 and toks[k - 1] in ACCESS:
            break
        if is_identifier(token):
            if token in NOT_TYPE:
                return False
        elif token not in TYPE_PUNCT and not token[0].isdigit():
            return False
        seen = True
        k -= 1
    return seen


def closing_paren(toks, k):
    depth = 0
    for j in range(k, len(toks)):
        if toks[j] == "(":
            depth += 1
        elif toks[j] == ")":
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def is_declaration(toks, i):
    """True when the mention toks[i] declares or defines its name."""
    name = toks[i]
    prev = toks[i - 1] if i else ""
    after = toks[i + 1] if i + 1 < len(toks) else ""
    if prev in ("struct", "class", "union", "enum"):
        return after in ("{", ":", ";", "final")
    if prev == "using":
        return after == "="
    # Strip the qualifier chain of an out-of-line definition (A::B::name).
    start = i
    while start >= 2 and toks[start - 1] == "::" and is_identifier(
            toks[start - 2]):
        start -= 2
    if after == "(":
        close = closing_paren(toks, i + 1)
        j = close + 1
        while j < len(toks) and toks[j] in AFTER_PARAMS:
            j += 1
        if j >= len(toks) or toks[j] not in DECL_END:
            return False
        if prev == "~" or (start < i and toks[i - 2] == name):
            return True  # destructor, or out-of-line constructor
        return is_type_prefix(toks, start)
    if after in (";", "=", "{"):
        return is_type_prefix(toks, start)
    if after == "::":
        # The class of an out-of-line member definition: `T Class::m(`.
        j = i
        while j + 2 < len(toks) and toks[j + 1] == "::" and is_identifier(
                toks[j + 2]):
            j += 2
        return j > i and is_declaration(toks, j)
    return False


def is_write(toks, i):
    """True when the mention toks[i] is a member only assigned to:
    `x.name = ...` or `x->name = ...` (a plain `=`, not `==` or `+=`)."""
    return (0 < i < len(toks) - 1 and toks[i - 1] in (".", "->")
            and toks[i + 1] == "=")


def function_pass(root, texts):
    src = os.path.join(root, "src")
    declared = {}  # name -> first "src/header:line" that declares it
    used = set()
    for path in sorted(texts):
        header = rel(path, src) if path.startswith(src + os.sep) else None
        checked = (header is not None and header.endswith((".h", ".hpp"))
                   and header not in ORACLES)
        tokens = tokenize(texts[path])
        toks = [token for token, _ in tokens]
        for i, (token, line) in enumerate(tokens):
            if not is_identifier(token) or token in NOT_TYPE:
                continue
            if is_declaration(toks, i):
                if checked:
                    declared.setdefault(token, f"src/{header}:{line}")
            elif not is_write(toks, i):
                used.add(token)
    offenders = sorted(
        (where, name) for name, where in declared.items()
        if name not in used and name not in HOOKS)
    for where, name in offenders:
        print(f"test_only_headers: {where}: '{name}' is mentioned in src/, "
              "examples/ and cimbench/ only by its declarations, overrides "
              "and definitions (delete it, or list it in HOOKS with a "
              "reason)")
    if not offenders:
        print(f"test_only_headers: OK, {len(declared)} names declared in "
              f"src/ headers ({len(HOOKS)} hooks) have non-test callers")
    return not offenders


def defaulted_fields(toks, open_brace):
    """[(name, index)] of the default-initialized data members of the
    struct body that opens at toks[open_brace]."""
    fields, stmt, depth = [], [], 0
    for k in range(open_brace, len(toks)):
        token = toks[k]
        if token == "{":
            depth += 1
            if depth == 1:
                continue
        elif token == "}":
            depth -= 1
            if depth == 0:
                break
            head = stmt[:stmt.index("{")] if "{" in stmt else stmt
            if depth == 1 and "(" in head and "=" not in head:
                stmt = []  # an inline member function body ended
                continue
        elif depth == 1 and token == ";":
            if stmt and stmt[0][0] not in NOT_FIELD:
                ends = [j for j, (t, _) in enumerate(stmt) if t in ("=", "{")]
                if ends and "(" not in [t for t, _ in stmt[:ends[0]]]:
                    name, index = stmt[ends[0] - 1]
                    if is_identifier(name):
                        fields.append((name, index))
            stmt = []
            continue
        elif (depth == 1 and token == ":" and len(stmt) == 1
              and stmt[0][0] in ACCESS):
            stmt = []
            continue
        stmt.append((token, k))
    return fields


def is_assignment(toks, i):
    """True when toks[i] is a member assigned to: `x.name =`, `x->name =`,
    or a compound `x.name op=` for op in ASSIGN_OPS."""
    if not (0 < i < len(toks) - 1 and toks[i - 1] in (".", "->")):
        return False
    after = toks[i + 1]
    return after == "=" or (after in ASSIGN_OPS and i + 2 < len(toks)
                            and toks[i + 2] == "=")


def knob_pass(root, texts):
    src = os.path.join(root, "src")
    fields = []  # (where, "Struct::field", field)
    assigned = set()
    for path in sorted(texts):
        header = rel(path, src) if path.startswith(src + os.sep) else None
        checked = (header is not None and header.endswith((".h", ".hpp"))
                   and header not in ORACLES)
        tokens = tokenize(texts[path])
        toks = [token for token, _ in tokens]
        for i, token in enumerate(toks):
            if is_assignment(toks, i):
                assigned.add(token)
            if (checked and token == "struct" and i + 2 < len(toks)
                    and KNOB_STRUCT.match(toks[i + 1])
                    and toks[i + 2] == "{"):
                for name, k in defaulted_fields(toks, i + 2):
                    fields.append((f"src/{header}:{tokens[k][1]}",
                                   f"{toks[i + 1]}::{name}", name))
    offenders = [(where, qualified) for where, qualified, name in fields
                 if name not in assigned and name not in KNOBS]
    for where, qualified in offenders:
        print(f"test_only_headers: {where}: '{qualified}' has a default that "
              "src/, examples/ and cimbench/ never assign, so only tests "
              "choose another value (make it a named constant, or list it "
              "in KNOBS with a reason)")
    if not offenders:
        print(f"test_only_headers: OK, {len(fields)} default-initialized "
              "fields of *Config/*Scenario/*Options/LengthSpec structs in "
              "src/ headers "
              f"({len(KNOBS)} knobs) are assigned outside tests")
    return not offenders


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    texts = {}
    for path in source_files(root):
        with open(path, encoding="utf-8") as f:
            texts[path] = f.read()
    headers_ok = header_pass(root, texts)
    functions_ok = function_pass(root, texts)
    knobs_ok = knob_pass(root, texts)
    if not (headers_ok and functions_ok and knobs_ok):
        sys.exit(1)


if __name__ == "__main__":
    main()
