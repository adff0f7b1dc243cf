#!/usr/bin/env python3
"""Project lint for the KBQA repository.

Static checks that encode repository conventions the compiler can't:

  rand          All randomness flows through util/rng (seeded xoshiro);
                std::rand / srand / std::mt19937 / std::random_device /
                std::default_random_engine anywhere else breaks the
                bit-reproducibility contract.
  naked-new     No naked `new` / `delete` outside std smart-pointer
                factories. Intentional leaks (static registries that must
                survive thread exit) carry `// NOLINT(kbqa-naked-new)`
                with a justifying comment.
  cout          Library code (src/) never writes to std::cout/std::cerr;
                printing belongs to tools/, bench/, and tests/. Functions
                that format take an std::ostream&.
  metric-name   Metric/span name literals passed to the KBQA_* macros and
                registry Get* calls follow snake.dot convention:
                lowercase [a-z0-9_] segments joined by single dots
                (e.g. "online.answer_cache.hits", span name "em.iteration").
  iwyu-util     src/util headers' std includes match use: no missing
                <header> for a used std symbol, no included <header> with
                zero used symbols.
  self-contained  Every src/**/*.h compiles standalone as the sole include
                of a TU (include-what-you-use style).
  raw-file-write  Library code (src/) writes files only through
                util::WriteFileAtomically (src/util/atomic_file.cc): no
                std::ofstream, no write-mode fopen, no open() with
                O_WRONLY / O_RDWR / O_CREAT anywhere else, so every
                artifact and export is crash-safe by construction.
  one-clock     Library code (src/) reads time from std::chrono::steady_clock
                only (obs::NowSteadyNs, util Timer): no __rdtsc, no
                <x86intrin.h>, no system_clock or high_resolution_clock,
                so every duration the obs layer records or sums comes from
                one monotonic clock in nanoseconds with no calibration.
  raw-thread    Library code (src/) starts threads only in the per-call
                fork-join (util/thread_pool.cc) and the long-lived service
                threads (serve/server, serve/exposition, rdf/mutable_kb):
                no std::thread / std::jthread anywhere else, so parallel
                work goes through ThreadPool's shard-ordered determinism.
  fuzz-registry Every public parse/decode entry point in src/**/*.h (any
                declaration matching (Parse|Decode|Import|Load|Open|
                Unescape)*) is claimed by fuzz/registry.json, and every
                registry entry names a fuzz target that exists under
                fuzz/targets/ and is wired into fuzz/CMakeLists.txt — a
                new byte-decoding surface cannot land without a harness.

Any rule can be suppressed per line with `// NOLINT(kbqa-<rule>)`.
Exit status 0 = clean, 1 = findings, 2 = usage/environment error.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SRC_DIRS = ["src"]
ALL_CODE_DIRS = ["src", "tests", "bench", "tools", "fuzz"]
CC_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")

NOLINT_RE = re.compile(r"NOLINT\((kbqa-[a-z-]+)\)")


def find_files(dirs):
    out = []
    for d in dirs:
        root = os.path.join(REPO, d)
        if not os.path.isdir(root):
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith(CC_EXTENSIONS):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def strip_comments_and_strings(text):
    """Blanks out comment and string/char literal *contents*, preserving
    newlines and overall offsets, so rule regexes never match inside either.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append('"')
                i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\" and nxt:
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = os.path.relpath(path, REPO)
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [kbqa-{self.rule}] {self.message}"


def suppressed(raw_line, rule):
    return f"NOLINT(kbqa-{rule})" in raw_line


def grep_rule(path, raw_lines, stripped_lines, pattern, rule, message,
              findings):
    rx = re.compile(pattern)
    for lineno, line in enumerate(stripped_lines, 1):
        if rx.search(line) and not suppressed(raw_lines[lineno - 1], rule):
            findings.append(Finding(path, lineno, rule, message))


# ---------------------------------------------------------------- rules --

RAND_PATTERN = (
    r"std::rand\b|\bsrand\s*\(|std::mt19937|std::default_random_engine"
    r"|std::random_device|std::random_shuffle"
)


def check_rand(path, raw_lines, stripped_lines, findings):
    rel = os.path.relpath(path, REPO).replace(os.sep, "/")
    if rel.startswith("src/util/rng"):
        return  # the one sanctioned randomness implementation
    grep_rule(path, raw_lines, stripped_lines, RAND_PATTERN, "rand",
              "randomness outside util/rng breaks reproducibility; "
              "use kbqa::Rng", findings)


NEW_PATTERN = r"\bnew\s+[A-Za-z_(:]|\bdelete\b"


def check_naked_new(path, raw_lines, stripped_lines, findings):
    for lineno, line in enumerate(stripped_lines, 1):
        if not re.search(NEW_PATTERN, line):
            continue
        # `= delete` / `delete;` declarations are the C++ feature, not the
        # operator; skip them (the operator form always has an operand).
        if re.search(r"\bdelete\s*(;|,|\))", line) and "new" not in line:
            continue
        if suppressed(raw_lines[lineno - 1], "naked-new"):
            continue
        findings.append(Finding(
            path, lineno, "naked-new",
            "naked new/delete; use make_unique/containers or annotate an "
            "intentional leak with NOLINT(kbqa-naked-new)"))


def check_cout(path, raw_lines, stripped_lines, findings):
    grep_rule(path, raw_lines, stripped_lines, r"std::(cout|cerr)\b", "cout",
              "no std::cout/std::cerr in library code; take an "
              "std::ostream& (printing lives in tools/bench/tests)",
              findings)


RAW_WRITE_RE = re.compile(r"std::ofstream\b|\bO_(?:WRONLY|RDWR|CREAT)\b")
FOPEN_RE = re.compile(r"\bfopen\s*\(")
FOPEN_MODE_RE = re.compile(r'\bfopen\s*\([^;]*?,\s*"([^"]*)"\s*\)')


def check_raw_file_write(path, raw_lines, stripped_lines, findings):
    rel = os.path.relpath(path, REPO).replace(os.sep, "/")
    if rel == "src/util/atomic_file.cc":
        return  # the one sanctioned writer
    for lineno, line in enumerate(stripped_lines, 1):
        raw = raw_lines[lineno - 1]
        hit = RAW_WRITE_RE.search(line) is not None
        if not hit and FOPEN_RE.search(line):
            # The mode is a string literal, blanked in `line`: read it from
            # the raw line. A mode that is not a literal on the same line
            # cannot be proven read-only, so it counts as a write.
            mode = FOPEN_MODE_RE.search(raw)
            hit = mode is None or re.search(r"[wa+]", mode.group(1)) is not None
        if hit and not suppressed(raw, "raw-file-write"):
            findings.append(Finding(
                path, lineno, "raw-file-write",
                "raw file write in library code; write through "
                "util::WriteFileAtomically so a crash mid-write never "
                "leaves a torn file"))


ONE_CLOCK_PATTERN = (
    r"\b__rdtsc\b|x86intrin\.h|\bsystem_clock\b|\bhigh_resolution_clock\b"
)


def check_one_clock(path, raw_lines, stripped_lines, findings):
    grep_rule(path, raw_lines, stripped_lines, ONE_CLOCK_PATTERN, "one-clock",
              "library code times with std::chrono::steady_clock only "
              "(obs::NowSteadyNs); a second clock cannot be compared with "
              "or summed into the first", findings)


RAW_THREAD_PATTERN = r"\bstd::j?thread\b"
RAW_THREAD_ALLOWED = (
    "src/util/thread_pool.cc",
    "src/serve/server.h", "src/serve/server.cc",
    "src/serve/exposition.h", "src/serve/exposition.cc",
    "src/rdf/mutable_kb.h", "src/rdf/mutable_kb.cc",
)


def check_raw_thread(path, raw_lines, stripped_lines, findings):
    rel = os.path.relpath(path, REPO).replace(os.sep, "/")
    if rel in RAW_THREAD_ALLOWED:
        return
    grep_rule(path, raw_lines, stripped_lines, RAW_THREAD_PATTERN,
              "raw-thread",
              "library code runs parallel work through ThreadPool "
              "(util/thread_pool.h); raw threads belong to the fork-join "
              "and the long-lived service threads only", findings)


METRIC_CALL_RE = re.compile(
    r"(?:KBQA_COUNTER_ADD|KBQA_GAUGE_SET|KBQA_HISTOGRAM_RECORD"
    r"|KBQA_TRACE_SPAN"
    r"|GetCounter|GetGauge|GetHistogram)\s*\(\s*\"([^\"]*)\"\s*([+)re,])"
)
METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")
METRIC_PREFIX_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*\.$")


def check_metric_names(path, raw_lines, _stripped_lines, findings):
    # Works on raw lines: the names of interest ARE string literals.
    for lineno, line in enumerate(raw_lines, 1):
        for m in METRIC_CALL_RE.finditer(line):
            name, after = m.group(1), m.group(2)
            if after == "+":
                ok = METRIC_PREFIX_RE.match(name)  # concatenated prefix
            else:
                ok = METRIC_NAME_RE.match(name)
            if not ok and not suppressed(line, "metric-name"):
                findings.append(Finding(
                    path, lineno, "metric-name",
                    f'metric name "{name}" violates snake.dot convention '
                    "([a-z0-9_] segments joined by single dots)"))


# IWYU-lite: std symbol -> owning header, for the symbols src/util uses.
# Both directions are enforced over src/util headers only — a tight,
# hand-verified map beats a wrong general one.
IWYU_SYMBOLS = {
    "<atomic>": [r"std::atomic\b", r"std::memory_order"],
    "<array>": [r"std::array\b"],
    "<cassert>": [r"\bassert\s*\("],
    "<cstddef>": [r"\bsize_t\b", r"std::byte\b", r"\bptrdiff_t\b"],
    "<cstdint>": [r"\b(u?int(8|16|32|64)_t)\b", r"\bUINT64_MAX\b"],
    "<chrono>": [r"std::chrono\b"],
    "<condition_variable>": [r"std::condition_variable"],
    "<functional>": [r"std::function\b", r"std::hash\b", r"std::less\b"],
    "<list>": [r"std::list\b"],
    "<mutex>": [r"std::mutex\b", r"std::lock_guard\b", r"std::unique_lock\b"],
    "<optional>": [r"std::optional\b", r"std::nullopt\b"],
    "<ostream>": [r"std::ostream\b"],
    "<string>": [r"std::string\b(?!_view)"],
    "<string_view>": [r"std::string_view\b"],
    "<thread>": [r"std::thread\b"],
    "<unordered_map>": [r"std::unordered_map\b"],
    "<utility>": [r"std::move\b", r"std::pair\b", r"std::swap\b",
                  r"std::forward\b", r"std::exchange\b"],
    "<vector>": [r"std::vector\b"],
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<[^>]+>|"[^"]+")', re.M)


def check_iwyu_util(findings):
    util_dir = os.path.join(REPO, "src", "util")
    headers = [f for f in sorted(os.listdir(util_dir)) if f.endswith(".h")]
    for header in headers:
        path = os.path.join(util_dir, header)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        stripped = strip_comments_and_strings(raw)
        includes = set(INCLUDE_RE.findall(stripped))
        for std_header, patterns in IWYU_SYMBOLS.items():
            used = any(re.search(p, stripped) for p in patterns)
            if used and std_header not in includes:
                findings.append(Finding(
                    path, 1, "iwyu",
                    f"uses symbols from {std_header} without including it"))
            if not used and std_header in includes:
                findings.append(Finding(
                    path, 1, "iwyu",
                    f"includes {std_header} but uses none of its symbols"))


def src_headers():
    """Repo-relative paths (posix form) of every header under src/."""
    out = []
    for path in find_files(SRC_DIRS):
        if path.endswith(".h"):
            out.append(os.path.relpath(path, REPO).replace(os.sep, "/"))
    return out


def check_self_contained(findings, compiler):
    """Compiles every src/**/*.h standalone. One batched -fsyntax-only
    invocation covers the common all-clean case (one compiler start, not
    one per header matters on a 1-core CI box); on failure each header is
    re-checked individually so the finding lands on the right file.
    """
    if not compiler:
        return
    headers = src_headers()
    with tempfile.TemporaryDirectory() as tmp:
        tus = []
        for rel in headers:
            include = rel[len("src/"):]
            tu_path = os.path.join(
                tmp, "tu_" + include.replace("/", "_") + ".cc")
            with open(tu_path, "w", encoding="utf-8") as tu:
                tu.write(f'#include "{include}"\n')
            tus.append((rel, tu_path))
        base_cmd = [compiler, "-std=c++20", "-fsyntax-only",
                    "-I", os.path.join(REPO, "src")]
        batch = subprocess.run(base_cmd + [tu for _, tu in tus],
                               capture_output=True, text=True)
        if batch.returncode == 0:
            return
        for rel, tu_path in tus:
            proc = subprocess.run(base_cmd + [tu_path],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                first = (proc.stderr.strip().splitlines() or ["?"])[0]
                findings.append(Finding(
                    os.path.join(REPO, rel), 1, "self-contained",
                    f"header does not compile standalone: {first}"))


# Declarations that take untrusted bytes. Matched against comment-stripped
# header text, so prose like "Loads a snapshot" never triggers.
PARSE_SURFACE_RE = re.compile(
    r"\b((?:Parse|Decode|Import|Load|Open|Unescape)[A-Za-z0-9_]*)\s*\(")


def check_fuzz_registry(findings):
    registry_path = os.path.join(REPO, "fuzz", "registry.json")
    try:
        with open(registry_path, encoding="utf-8") as f:
            registry = json.load(f)
    except (OSError, ValueError) as e:
        findings.append(Finding(registry_path, 1, "fuzz-registry",
                                f"cannot load registry: {e}"))
        return

    claimed = {}   # header -> set of function names claimed by entries
    for entry in registry.get("entries", []):
        claimed.setdefault(entry["header"], set()).update(entry["functions"])
    for entry in registry.get("exempt", []):
        claimed.setdefault(entry["header"], set()).add(entry["function"])

    # Direction 1: every parse/decode declaration is claimed.
    for rel in src_headers():
        path = os.path.join(REPO, rel)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        stripped = strip_comments_and_strings(raw).splitlines()
        for lineno, line in enumerate(stripped, 1):
            for m in PARSE_SURFACE_RE.finditer(line):
                name = m.group(1)
                if name in claimed.get(rel, set()):
                    continue
                if suppressed(raw_lines[lineno - 1], "fuzz-registry"):
                    continue
                findings.append(Finding(
                    path, lineno, "fuzz-registry",
                    f"parse/decode surface {name}() has no fuzz target; "
                    "add it to fuzz/registry.json (entries or exempt) and "
                    "cover it under fuzz/targets/"))

    # Direction 2: every entry's target exists and is wired into CMake.
    cmake_path = os.path.join(REPO, "fuzz", "CMakeLists.txt")
    try:
        with open(cmake_path, encoding="utf-8") as f:
            cmake = f.read()
    except OSError:
        cmake = ""
    for entry in registry.get("entries", []):
        target = entry["target"]
        target_cc = os.path.join(REPO, "fuzz", "targets", target + ".cc")
        if not os.path.isfile(target_cc):
            findings.append(Finding(
                registry_path, 1, "fuzz-registry",
                f"registry target {target} has no fuzz/targets/{target}.cc"))
        elif not re.search(r"\b" + re.escape(target) + r"\b", cmake):
            findings.append(Finding(
                registry_path, 1, "fuzz-registry",
                f"registry target {target} is not wired into "
                "fuzz/CMakeLists.txt"))
        if not os.path.isfile(os.path.join(REPO, entry["header"])):
            findings.append(Finding(
                registry_path, 1, "fuzz-registry",
                f"registry names missing header {entry['header']}"))


def find_compiler():
    for cc in ("c++", "g++", "clang++"):
        try:
            subprocess.run([cc, "--version"], capture_output=True, check=True)
            return cc
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--no-compile", action="store_true",
                        help="skip the self-containment compile checks")
    args = parser.parse_args()

    findings = []
    for path in find_files(ALL_CODE_DIRS):
        rel = os.path.relpath(path, REPO).replace(os.sep, "/")
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        raw_lines = raw.splitlines()
        stripped_lines = strip_comments_and_strings(raw).splitlines()

        check_rand(path, raw_lines, stripped_lines, findings)
        check_metric_names(path, raw_lines, stripped_lines, findings)
        if rel.startswith("src/"):
            check_naked_new(path, raw_lines, stripped_lines, findings)
            check_cout(path, raw_lines, stripped_lines, findings)
            check_raw_file_write(path, raw_lines, stripped_lines, findings)
            check_one_clock(path, raw_lines, stripped_lines, findings)
            check_raw_thread(path, raw_lines, stripped_lines, findings)

    compiler = None if args.no_compile else find_compiler()
    if not args.no_compile and compiler is None:
        print("lint: warning: no C++ compiler found; "
              "skipping self-containment checks", file=sys.stderr)
    check_iwyu_util(findings)
    check_self_contained(findings, compiler)
    check_fuzz_registry(findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
